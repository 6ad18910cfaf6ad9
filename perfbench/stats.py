"""Statistics and output helpers of the repository benchmark.

Kept apart from run.py so the benchmark's own tests can exercise them
without building or running anything.
"""

import json
import math
import statistics

# A timing is reported as a median plus the highest percentile that still
# has at least ten samples beyond it; below forty samples only the median
# is reported, since any higher percentile would be no tail at all.
MIN_SAMPLES_FOR_TAIL = 40
MIN_SAMPLES_BEYOND_TAIL = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def nearest_rank(values, pct):
    """The nearest-rank percentile `pct` (0 < pct <= 100) of `values`."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, pct):
    """How many of `n` samples rank strictly above the `pct` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_allowed(n, pct):
    """True when a `pct` tail percentile may be reported from `n` samples."""
    return n >= MIN_SAMPLES_FOR_TAIL and samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND_TAIL


def highest_tail(n):
    """The highest whole percentile `n` samples support, or None (median only)."""
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    for pct in range(99, 50, -1):
        if tail_allowed(n, pct):
            return pct
    return None


def latency_summary(values, pct):
    """{"n", "p50", "p<pct>"}; the tail is None when the rule forbids it."""
    summary = {"n": len(values), "p50": statistics.median(values) if values else None}
    summary[f"p{pct}"] = nearest_rank(values, pct) if values and tail_allowed(len(values), pct) else None
    return summary


def limit_percentile(values, limit):
    """Checks `values` against `limit` at the highest percentile they support.

    Returns (percentile, value, ok); percentile 50 means the median alone.
    """
    pct = highest_tail(len(values))
    value = statistics.median(values) if pct is None else nearest_rank(values, pct)
    return (pct or 50), value, value <= limit


class OpenLoopRecord:
    """One open-loop request: timed from when it was due, not when sent.

    `released` is when the generator got round to the job; `released - due`
    is the generator's own lateness, reported separately so a stalled
    generator shows instead of silently shortening latencies.
    """

    __slots__ = ("due", "released", "done")

    def __init__(self, due, released=None, done=None):
        self.due = due
        self.released = released
        self.done = done

    @property
    def latency(self):
        return None if self.done is None else self.done - self.due

    @property
    def lateness(self):
        return None if self.released is None else max(0.0, self.released - self.due)


def format_result(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line: one JSON object."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    })


def parse_result(stdout_text):
    """Parses and validates the last stdout line of a benchmark run."""
    lines = [line for line in stdout_text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    doc = json.loads(lines[-1])
    if not isinstance(doc, dict) or tuple(sorted(doc)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError(f"result keys must be exactly {RESULT_KEYS}")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError(f"{key} must be a whole number")
    if doc["attempted"] < 1 or doc["failed"] > doc["attempted"]:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    for name, metric in doc["metrics"].items():
        if sorted(metric) != ["unit", "value"] or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name} must be {{value, unit}}")
        if not math.isfinite(metric["value"]):
            raise ValueError(f"metric {name} is not finite")
    return doc
