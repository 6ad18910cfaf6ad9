#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the simulator from source (Release)
into $CARGO_TARGET_DIR or .bench_build, works in .bench_work/, and prints
as its last stdout line one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  Exits non-zero when a check fails.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import serve  # noqa: E402
from stats import format_result, latency_summary, limit_percentile  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
# Children see no RINGCLU_* setting from the caller's environment: every
# knob the workloads depend on is passed explicitly.
ENV = {key: value for key, value in os.environ.items() if not key.startswith("RINGCLU_")}

RING = "Ring_8clus_1bus_2IW"
CONV = "Conv_8clus_1bus_2IW"
PRESETS = (RING, CONV)
COMMIT_WIDTH = 8  # both presets

# cold-membound: working sets far beyond the 32 KB L1D / 512 KB L2.
MEMBOUND = ("ammp", "art", "equake")
COLD_WARMUP, COLD_INSTRS = 10_000, 25_000
COLD_SEED_POOL = 18             # one round per trace seed; 18 x 6 jobs >= 100
# warm-replay: compute-bound benchmarks, long warmup restored from checkpoints.
COMPUTE = ("gzip", "crafty", "eon")
WARM_WARMUP, WARM_INSTRS = 200_000, 40_000
# serve-mixed: small jobs, two workers, two keep-alive connections.
SERVE_BENCHES = ("gzip", "crafty", "eon", "mesa", "vortex", "bzip2")
SERVE_WARMUP, SERVE_INSTRS = 2_000, 10_000
SERVE_BASE_RATE = 10.0          # jobs/s of the latency phase
SERVE_BASE_JOBS = 200           # 100 hits + 100 misses: enough for a p90 each
SERVE_BURSTS = 3                # bursts of distinct misses, submitted together
SERVE_BURST_JOBS = 12
SERVE_BURST_INSTRS = 100_000    # long enough that simulating carries the drain
# Capacity ladder: ten rungs 10% apart above the base rate, 1.5 s each, up
# to 25.9 jobs/s; the cap keeps a run's length bounded.
SERVE_LADDER = tuple(SERVE_BASE_RATE * 1.1 ** k for k in range(1, 11))
SERVE_RUNG_S = 1.5
SERVE_LIMIT_S = 0.5             # miss-latency limit for the capacity ladder
SERVE_CLIENTS = ("alice", "bob", "carol")
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed;
# setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
MIN_LATENCY_SAMPLES = 100       # a p90 needs ten samples beyond it

UNITS = {
    "setup_s": "s", "sweep_wall_s": "s", "sim_mips": "Minstr/s",
    "peak_rss_mb": "MB", "hit_latency_p50_ms": "ms", "hit_latency_p90_ms": "ms",
    "miss_latency_p50_ms": "ms", "miss_latency_p90_ms": "ms",
    "serve_capacity_jobs_per_s": "jobs/s",
}
LAYER_UNITS = {
    "trace.synth_ns_per_op": "ns", "trace.pack_ns_per_op": "ns",
    "trace.pack_seek_ms": "ms", "trace.pack_write_ns_per_op": "ns",
    "trace.pack_bytes_per_op": "B", "core.warmup_s": "s", "core.measure_s": "s",
    "core.ring.measure_ns_per_instr": "ns", "core.conv.measure_ns_per_instr": "ns",
    "core.ns_per_sim_cycle": "ns", "core.checkpoint_restore_ms": "ms",
    "core.checkpoint_save_ms": "ms", "core.checkpoint_bytes": "B",
    "core.sim_cycles": "cycles", "mem.lsq_query_ns": "ns",
    "mem.hierarchy_ns_per_access": "ns", "mem.l1d_mpki": "1/kinstr",
    "mem.l2_mpki": "1/kinstr", "mem.lsq_stall_per_kinstr": "cycles/kinstr",
    "interconnect.bus_tick_ns": "ns", "interconnect.comms_per_kinstr": "1/kinstr",
    "interconnect.contention_per_comm": "cycles", "steer.stall_per_kinstr": "cycles/kinstr",
    "steer.nready_avg": "count", "bpred.ns_per_branch": "ns",
    "bpred.mispredicts_per_kinstr": "1/kinstr", "harness.expand_ms": "ms",
    "harness.store_put_ms": "ms", "harness.store_get_ms": "ms",
    "harness.service_overhead_ms": "ms", "harness.simulations_run": "count",
    "harness.store_hits": "count", "harness.warmup_restored_runs": "count",
    "server.post_ms": "ms", "server.status_ms": "ms", "server.result_ms": "ms",
    "server.queue_wait_ms": "ms", "server.polls_per_job": "count",
    "server.generator_lateness_ms": "ms", "bench.trace_overhead_s": "s",
}
COUNTER_FIELDS = (
    "cycles", "committed", "comms", "comm_distance_sum", "comm_contention_sum",
    "nready_sum", "branches", "mispredicts", "icache_stall_cycles", "loads",
    "stores", "load_forwards", "l1d_accesses", "l1d_misses", "l2_accesses",
    "l2_misses", "steer_stall_cycles", "rob_stall_cycles", "lsq_stall_cycles",
    "copy_evictions", "rob_occupancy_sum", "regs_in_use_sum")


class CheckFailed(Exception):
    pass


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def repeat_setup(setup, discard=lambda value: None):
    """Runs `setup` SETUP_REPEATS times or more, until SETUP_MIN_S have
    passed; returns the median time and the last set-up's value (earlier
    values go to `discard`)."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        if times:
            discard(value)
        start = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


# ---- build ---------------------------------------------------------------

class Tools:
    def __init__(self, build_dir):
        tools = os.path.join(build_dir, "ringclu", "tools")
        self.sim = os.path.join(tools, "ringclu_sim")
        self.trace = os.path.join(tools, "ringclu_trace")
        self.simd = os.path.join(tools, "ringclu_simd")
        self.probe = os.path.join(build_dir, "perfbench_probe")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the root of a ringclu checkout "
                         "(src/CMakeLists.txt not found)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "ringclu_sim",
                    "ringclu_trace", "ringclu_simd", "perfbench_probe"],
                   check=True, stdout=sys.stderr)
    return Tools(build_dir)


# ---- processes -----------------------------------------------------------

def wait_rss(proc, timeout=None):
    """Waits for `proc` (killing it after `timeout` s); returns (exit code,
    peak RSS in MB)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
        else:
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def probe(tools, mode, doc, path):
    with open(path, "w") as out:
        json.dump(doc, out)
    done = subprocess.run([tools.probe, mode, path], check=True, stdout=subprocess.PIPE,
                          env=ENV)
    return json.loads(done.stdout)


def timed_sweep(tools, spec, store, extra=()):
    """Launches one `ringclu_sim --sweep`; returns its timings and output.

    The sweep prints "[sweep] k/n done" on stderr as each result is
    stored; the time each line arrives is that job's completion.
    """
    out_path = store + ".out"
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([tools.sim, "--sweep", spec, "threads=1", "backend=tsv",
                                 f"cache={store}", *extra],
                                stdout=out, stderr=subprocess.PIPE, env=ENV)
        done_at, err = [], b""
        while True:
            chunk = os.read(proc.stderr.fileno(), 65536)
            if not chunk:
                break
            stamp = time.perf_counter()
            err += chunk
            done_at += [stamp - start] * chunk.count(b" done")
        proc.stderr.close()
        code, rss = wait_rss(proc)
        wall = time.perf_counter() - start
    with open(out_path) as handle:
        text = handle.read()
    check(code == 0, f"sweep exited {code}: {err.decode(errors='replace')[-400:]}")
    return {"wall": wall, "done_at": done_at, "rss": rss, "stdout": text}


def sweep_counts(stdout):
    """(simulated, from store) from the sweep's summary line."""
    line = next(l for l in stdout.splitlines() if l.startswith("IPC by design point"))
    inside = line[line.index(";") + 1:]
    simulated = int(inside.split("simulated")[0].strip())
    stored = int(inside.split(",")[1].split("from store")[0].strip())
    return simulated, stored


def parse_serialized(line):
    """{config, benchmark, counters, line} from a serialize_result record."""
    fields = line.split("\t")
    check(len(fields) == 2 + len(COUNTER_FIELDS) + 1, f"malformed result record: {line[:80]}")
    counters = dict(zip(COUNTER_FIELDS, map(int, fields[2:2 + len(COUNTER_FIELDS)])))
    counters["dispatched_per_cluster"] = [int(v) for v in fields[-1].split(",")]
    return {"config": fields[0], "benchmark": fields[1], "counters": counters, "line": line}


def read_store(path):
    """key -> parsed result, first line per key, from a tsv result store."""
    results = {}
    with open(path) as handle:
        for line in handle:
            key, _, record = line.rstrip("\n").partition("\t")
            results.setdefault(key, parse_serialized(record))
    return results


# ---- sweep workloads -----------------------------------------------------

class SweepWorkload:
    """A one-worker `ringclu_sim --sweep` of Ring and Conv over three benchmarks.

    cold-membound gives every round its own trace seed from a pool of
    COLD_SEED_POOL drawn from the benchmark seed: the synthetic programs
    differ from seed to seed by up to a fifth in cost, and a median over
    many of them keeps one unlucky seed from moving the figure.
    warm-replay records one seed's packs and checkpoints in set-up.
    """

    def __init__(self, name, tools, seed, warm):
        self.name = name
        self.tools = tools
        self.warm = warm
        self.work = os.path.join(WORK, name)
        rng = random.Random(f"{name}:{seed}")
        self.seeds = [rng.randrange(1, 1 << 31) for _ in range(1 if warm else COLD_SEED_POOL)]
        if warm:
            self.sources = COMPUTE
            self.benchmarks = [f"trace:{b}" for b in COMPUTE]
            self.warmup, self.instrs = WARM_WARMUP, WARM_INSTRS
        else:
            self.sources = MEMBOUND
            self.benchmarks = list(MEMBOUND)
            self.warmup, self.instrs = COLD_WARMUP, COLD_INSTRS
        self.packs = os.path.join(self.work, "packs")
        self.ckpt = os.path.join(self.work, "ckpt")
        self.flags = ([f"--trace-dir={self.packs}", f"--checkpoint-dir={self.ckpt}"]
                      if warm else [])

    def spec(self, seed):
        return os.path.join(self.work, f"spec_{seed}.json")

    def jobs(self, seed):
        return [{"config": preset, "benchmark": bench, "source": source,
                 "source_seed": seed, "seed": seed,
                 "warmup": self.warmup, "instrs": self.instrs}
                for preset in PRESETS
                for bench, source in zip(self.benchmarks, self.sources)]

    def spec_text(self, seed):
        return json.dumps({
            "sweep_schema": 1, "name": self.name,
            "axes": [{"field": "preset", "values": list(PRESETS)}],
            "benchmarks": self.benchmarks,
            "run": {"instrs": self.instrs, "warmup": self.warmup, "seed": seed},
        })

    def setup(self):
        """Fresh inputs and reference counts; warm-replay also records packs
        and writes the warmup checkpoints with a cold pass."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        for seed in self.seeds:
            with open(self.spec(seed), "w") as out:
                out.write(self.spec_text(seed))
        if self.warm:
            os.makedirs(self.packs)
            for bench in self.sources:
                subprocess.run([self.tools.trace, "record", bench,
                                os.path.join(self.packs, f"{bench}.rclp"),
                                f"ops={self.warmup + self.instrs + 4 * COMMIT_WIDTH}",
                                f"seed={self.seeds[0]}"],
                               check=True, stdout=subprocess.DEVNULL, env=ENV)
            cold = timed_sweep(self.tools, self.spec(self.seeds[0]),
                               os.path.join(self.work, "cold.tsv"), self.flags)
            check(sweep_counts(cold["stdout"]) == (6, 0), "cold pass did not simulate 6 jobs")
        doc = {"jobs": [j for seed in self.seeds for j in self.jobs(seed)],
               "trace_dir": self.packs if self.warm else ""}
        walks = probe(self.tools, "walk", doc, os.path.join(self.work, "walk_in.json"))
        self.walk = {(w["benchmark"], w["seed"]): w for w in walks["jobs"]}
        if self.warm:
            self.cold_results = read_store(os.path.join(self.work, "cold.tsv"))
            self.ckpt_state = self.checkpoint_state()

    def checkpoint_state(self):
        state = {}
        for name in sorted(os.listdir(self.ckpt)):
            info = os.stat(os.path.join(self.ckpt, name))
            state[name] = (info.st_ino, info.st_mtime_ns, info.st_size)
        return state

    def check_results(self, results, seed):
        check(len(results) == 6, f"expected 6 stored results, got {len(results)}")
        for key, result in results.items():
            c = result["counters"]
            bench = result["benchmark"].split("@")[0]
            check(self.instrs <= c["committed"] < self.instrs + COMMIT_WIDTH,
                  f"{key}: committed {c['committed']} is not the budget {self.instrs}")
            check(c["cycles"] > 0 and c["committed"] <= COMMIT_WIDTH * c["cycles"],
                  f"{key}: IPC above the commit width")
            prefix = {p[0]: (p[1], p[2]) for p in self.walk[(bench, seed)]["prefix"]}
            matches = [start for start in range(self.warmup, self.warmup + COMMIT_WIDTH)
                       if start + c["committed"] in prefix and
                       (prefix[start + c["committed"]][0] - prefix[start][0],
                        prefix[start + c["committed"]][1] - prefix[start][1]) ==
                       (c["loads"], c["stores"])]
            check(matches, f"{key}: loads/stores {c['loads']}/{c['stores']} match no "
                           f"window of the walked trace")
            if self.warm:
                cold = self.cold_results.get(key)
                check(cold is not None and cold["line"] == result["line"],
                      f"{key}: differs from the set-up cold pass")
        if self.warm:
            check(self.checkpoint_state() == self.ckpt_state,
                  "a warmup checkpoint was rewritten: some job fell back to a cold warmup")

    def round(self, index):
        seed = self.seeds[index % len(self.seeds)]
        store = os.path.join(self.work, f"round{index}.tsv")
        miss = timed_sweep(self.tools, self.spec(seed), store, self.flags)
        check(sweep_counts(miss["stdout"]) == (6, 0), "timed sweep did not simulate 6 jobs")
        check(len(miss["done_at"]) == 6, "sweep progress did not report 6 completions")
        results = read_store(store)
        self.check_results(results, seed)
        return miss, store, results

    def hit_latencies(self, stores):
        """Store-hit latency of the finished rounds' results, fetched through
        ringclu_simd the way serve-mixed fetches its hits."""
        expected, specs = {}, []
        for path, seed in stores:
            for key, result in read_store(path).items():
                config, bench, *_ = key.split("|")
                expected[(config, bench.split("@")[0], seed)] = result["counters"]
        for seed in self.seeds:
            specs += self.jobs(seed)
        env = {"RINGCLU_TRACE_DIR": self.packs} if self.warm else {}
        jobs = http_store_hits(self.tools, self.work + "-hits", [p for p, _ in stores],
                               specs, env)
        for job in jobs:
            spec = specs[job.index % len(specs)]
            check(job.result["counters"] ==
                  expected[(spec["config"], spec["benchmark"], spec["seed"])],
                  f"store hit {job.index} differs from the sweep's stored result")
        return [job.record.latency for job in jobs]

    def simulated_instrs(self):
        per_job = self.instrs + (0 if self.warm else self.warmup)
        return 6 * per_job


def run_sweep(workload, seconds):
    setup_s, _ = repeat_setup(workload.setup)
    walls, rss, miss_lat, round_medians, stores = [], [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while (time.perf_counter() - start < seconds or len(miss_lat) < MIN_LATENCY_SAMPLES
           or rounds % len(workload.seeds)):
        miss, store, _ = workload.round(rounds)
        stores.append((store, workload.seeds[rounds % len(workload.seeds)]))
        rounds += 1
        walls.append(miss["wall"])
        rss.append(miss["rss"])
        miss_lat += miss["done_at"]
        round_medians.append(statistics.median(miss["done_at"]))
    hit_lat = workload.hit_latencies(stores)
    wall = statistics.median(walls)
    misses = latency_summary(miss_lat, 90)
    hits = latency_summary(hit_lat, 90)
    metrics = {
        "setup_s": setup_s,
        "sweep_wall_s": wall,
        "sim_mips": workload.simulated_instrs() / wall / 1e6,
        "peak_rss_mb": max(rss),
        "hit_latency_p50_ms": hits["p50"] * 1e3,
        "hit_latency_p90_ms": hits["p90"] * 1e3,
        # Each round adds one sample per completion position, so the pooled
        # median would fall exactly between every round's third and fourth
        # completion and swing with those two extremes; the median of the
        # rounds' medians is the stable middle.  The p90 lies inside the
        # sixth position and is taken from the pooled samples.
        "miss_latency_p50_ms": statistics.median(round_medians) * 1e3,
        "miss_latency_p90_ms": misses["p90"] * 1e3,
        "serve_capacity_jobs_per_s": 6 / wall,
    }
    lines = {f"{b}#{s}": (w["warmup_l1d_lines"], w["warmup_l2_lines"])
             for (b, s), w in list(workload.walk.items())[:3]}
    # The sweep's own figure, from SimResult::sim_instrs_per_second; on
    # warm-replay it counts the restored warmup as simulated.
    reported = next((line for line in miss["stdout"].splitlines()
                     if line.startswith("throughput:")), "none")
    print(f"{workload.name}: {rounds} rounds, sweep wall median {wall:.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); {len(miss_lat)} miss and "
          f"{len(hit_lat)} hit latencies; setup median {setup_s:.4f} s; "
          f"distinct L1D/L2 lines touched in warmup {lines}; sim_mips "
          f"{metrics['sim_mips']:.3f}, the sweep's own line says '{reported}'")
    return metrics, rounds * 6, 0


def run_sweep_traced(workload):
    workload.setup()
    seed = workload.seeds[0]
    _, _, results = workload.round(0)
    doc = {"jobs": workload.jobs(seed), "warm": workload.warm,
           "work_dir": os.path.join(workload.work, "probe"),
           "trace_dir": workload.packs if workload.warm else "",
           "spec_text": workload.spec_text(seed),
           "spans_out": os.path.join(workload.work, "spans.jsonl")}
    layers = probe(workload.tools, "layers", doc, os.path.join(workload.work, "layers_in.json"))
    check(layers["counters_equal"], "traced and untraced replays disagree")
    traced = sorted(layers["results"])
    untraced = sorted(r["line"] for r in results.values())
    check(traced == untraced, "the traced run's counters differ from the untraced sweep's")
    metrics = dict(layers["metrics"])
    env = ({"RINGCLU_TRACE_DIR": workload.packs, "RINGCLU_CHECKPOINT_DIR": workload.ckpt}
           if workload.warm else {})
    metrics.update(http_layer_session(workload.tools, workload.work + "-http",
                                      workload.jobs(seed), env))
    return metrics, 6, 0


# ---- serve-mixed ---------------------------------------------------------

class Daemon:
    def __init__(self, tools, work, env=None):
        self.work = work
        os.makedirs(work, exist_ok=True)
        port_file = os.path.join(work, "port")
        self.log = open(os.path.join(work, "daemon.log"), "w")
        self.proc = subprocess.Popen(
            [tools.simd, f"--port-file={port_file}", f"--journal={work}/journal.jsonl",
             "threads=2", "backend=tsv", f"cache={work}/store.tsv"],
            stdout=self.log, stderr=self.log, env={**ENV, **(env or {})})
        deadline = time.monotonic() + 30
        while True:
            try:
                with open(port_file) as handle:
                    text = handle.read()
                if not text.endswith("\n"):  # not yet written in full
                    raise ValueError(text)
                self.port = int(text)
                break
            except (OSError, ValueError):
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.proc.kill()
                    self.proc.wait()
                    self.log.close()
                    raise CheckFailed("ringclu_simd did not start")
                time.sleep(0.005)
        self.rss = None

    def gauges(self):
        status, doc = serve.request_once(self.port, "GET", "/v1/server/metrics")
        check(status == 200, "server metrics unavailable")
        return doc["gauges"]

    def stop(self):
        """Graceful drain through the API; returns the daemon's peak RSS."""
        if self.proc.returncode is None:
            try:
                serve.request_once(self.port, "POST", "/v1/shutdown")
            except OSError:
                self.proc.terminate()
            self.rss = wait_rss(self.proc, timeout=30)[1]
            self.log.close()
        return self.rss


def job_body(client, spec):
    return json.dumps({"config": spec["config"], "benchmark": spec["benchmark"],
                       "client": client,
                       "run": {"instrs": spec["instrs"], "warmup": spec["warmup"],
                               "seed": spec["seed"]}}).encode()


def drive(sess, specs, kinds, rate, index0=0):
    """Submits `specs` over `sess` open loop, one due every 1/rate s (all at
    once when `rate` is infinite), and waits for every result."""
    t0 = time.perf_counter() + 0.05
    jobs = [serve.Job(index0 + k, job_body(SERVE_CLIENTS[(index0 + k) % 3], spec), kind,
                      t0 + k / rate)
            for k, (spec, kind) in enumerate(zip(specs, kinds))]
    sess.run(jobs, jobs[-1].record.due + 60)
    return jobs


def serve_at_base_rate(daemon, specs, kinds):
    """Submits `specs` to `daemon` at the base rate over one session, then
    stops the daemon; every job must get its result.  Returns the jobs, the
    session's spans and how many simulations the daemon ran meanwhile."""
    try:
        before = daemon.gauges()["simulations_run"]
        sess = serve.Session(daemon.port)
        try:
            jobs = drive(sess, specs, kinds, SERVE_BASE_RATE)
        finally:
            sess.close()
        simulations = daemon.gauges()["simulations_run"] - before
    finally:
        daemon.stop()
    for job in jobs:
        check(job.result is not None, f"{job.kind} job {job.index} failed: {job.error}")
    return jobs, sess.spans, simulations


def rung_ok(jobs):
    """No growing backlog, and misses within the limit at the highest
    percentile the rung's sample count supports."""
    if any(j.result is None for j in jobs):
        return False
    last_due = max(j.record.due for j in jobs)
    if max(j.record.done for j in jobs) > last_due + SERVE_LIMIT_S:
        return False
    misses = [j.record.latency for j in jobs if j.kind == "miss"]
    return limit_percentile(misses, SERVE_LIMIT_S)[2]


def throughput(jobs):
    """Jobs per second from the first due time to the last result."""
    first = min(j.record.due for j in jobs)
    last = max(j.record.done for j in jobs)
    return len(jobs) / (last - first)


def serve_capacity(rungs):
    """Achieved rate of the highest passing rung of [(rate, jobs)], base
    rung first; the ladder stops at the first failing rung, and a failing
    base rung fails the run."""
    check(rung_ok(rungs[0][1]), f"the base rung ({rungs[0][0]} jobs/s) misses the "
                                f"{SERVE_LIMIT_S} s miss-latency limit")
    passing = [jobs for _, jobs in rungs if rung_ok(jobs)]
    return throughput(passing[-1])


class ServeWorkload:
    def __init__(self, name, tools, seed):
        self.name = name
        self.tools = tools
        self.work = os.path.join(WORK, name)
        rng = random.Random(f"serve-mixed:{seed}")
        self.hit_jobs = [{"config": preset, "benchmark": bench, "seed": rng.randrange(1, 1 << 31),
                          "warmup": SERVE_WARMUP, "instrs": SERVE_INSTRS}
                         for bench in ("gzip", "crafty") for preset in PRESETS]
        self.miss_seed = rng.randrange(1, 1 << 30)
        self.next_miss = 0

    def fresh_miss(self, instrs=SERVE_INSTRS):
        i = self.next_miss
        self.next_miss += 1
        return {"config": PRESETS[i % 2], "benchmark": SERVE_BENCHES[(i // 2) % len(SERVE_BENCHES)],
                "seed": self.miss_seed + i, "warmup": SERVE_WARMUP, "instrs": instrs}

    def mix(self, count):
        """`count` jobs: hit, hit, miss, miss, ...; returns (specs, kinds)."""
        specs, kinds = [], []
        for k in range(count):
            if k % 4 < 2:
                specs.append(self.hit_jobs[(k // 4 * 2 + k % 4) % len(self.hit_jobs)])
                kinds.append("hit")
            else:
                specs.append(self.fresh_miss())
                kinds.append("miss")
        return specs, kinds

    def setup(self):
        """A fresh daemon with the hit jobs pre-stored through the API."""
        shutil.rmtree(self.work, ignore_errors=True)
        daemon = Daemon(self.tools, self.work)
        try:
            sess = serve.Session(daemon.port)
            try:
                jobs = drive(sess, self.hit_jobs, ["setup"] * len(self.hit_jobs), math.inf)
            finally:
                sess.close()
            check(all(j.result is not None for j in jobs), "pre-storing the hit jobs failed")
            check(daemon.gauges()["simulations_run"] == len(self.hit_jobs),
                  "pre-storing did not simulate each hit job once")
        except BaseException:
            daemon.stop()
            raise
        return daemon

    def verify(self, jobs, specs):
        """Every served result equals an in-process run_sim_job of its job."""
        distinct = {}
        for spec in specs:
            distinct.setdefault(json.dumps(spec, sort_keys=True), spec)
        wanted = list(distinct.values())
        ref = probe(self.tools, "verify", {"jobs": wanted},
                    os.path.join(self.work, "verify_in.json"))["results"]
        expected = {json.dumps(s, sort_keys=True): r for s, r in zip(wanted, ref)}
        for job, spec in zip(jobs, specs):
            want = expected[json.dumps(spec, sort_keys=True)]
            got = job.result
            check(got["config"] == want["config"] and got["benchmark"] == want["benchmark"]
                  and got["counters"] == want["counters"],
                  f"served result of job {job.index} differs from run_sim_job")

    def session(self, daemon, seconds):
        """The latency phase at the base rate, the miss bursts, then the
        capacity ladder.  Returns every job with its spec, the rungs and the
        bursts."""
        sess = serve.Session(daemon.port)
        all_jobs, all_specs, rungs, bursts = [], [], [], []

        def phase(specs, kinds, rate):
            jobs = drive(sess, specs, kinds, rate, len(all_jobs))
            all_jobs.extend(jobs)
            all_specs.extend(specs)
            return jobs

        try:
            base_jobs = max(SERVE_BASE_JOBS, int(SERVE_BASE_RATE * seconds * 0.8) // 4 * 4)
            rungs.append((SERVE_BASE_RATE, phase(*self.mix(base_jobs), SERVE_BASE_RATE)))
            for _ in range(SERVE_BURSTS):
                specs = [self.fresh_miss(SERVE_BURST_INSTRS) for _ in range(SERVE_BURST_JOBS)]
                bursts.append(phase(specs, ["miss"] * len(specs), math.inf))
            for rate in SERVE_LADDER:
                if not rung_ok(rungs[-1][1]):
                    break
                rungs.append((rate, phase(*self.mix(int(rate * SERVE_RUNG_S) // 4 * 4), rate)))
        finally:
            sess.close()
        return all_jobs, all_specs, rungs, bursts

    def run(self, seconds):
        setup_s, daemon = repeat_setup(self.setup, lambda d: d.stop())
        try:
            sims_before = daemon.gauges()["simulations_run"]
            jobs, specs, rungs, bursts = self.session(daemon, seconds)
            sims_after = daemon.gauges()["simulations_run"]
        finally:
            daemon.stop()
        failed = sum(1 for j in jobs if j.result is None)
        for job in jobs:
            check(job.result is not None, f"job {job.index} failed: {job.error}")
        misses = [(j, s) for j, s in zip(jobs, specs) if j.kind == "miss"]
        check(sims_after - sims_before == len(misses),
              f"daemon ran {sims_after - sims_before} simulations for {len(misses)} "
              f"distinct misses")
        self.verify(jobs, specs)
        capacity = serve_capacity(rungs)
        base = rungs[0][1]
        hit = latency_summary([j.record.latency for j in base if j.kind == "hit"], 90)
        miss = latency_summary([j.record.latency for j in base if j.kind == "miss"], 90)
        drains = [max(j.record.done for j in burst) - burst[0].record.due for burst in bursts]
        simulated = sum(s["warmup"] + s["instrs"] for _, s in misses)
        sim_wall = sum(j.result["host"]["wall_seconds"] for j, _ in misses)
        lateness = [j.record.lateness for j in jobs]
        metrics = {
            "setup_s": setup_s,
            "sweep_wall_s": statistics.median(drains),
            "sim_mips": simulated / sim_wall / 1e6,
            "peak_rss_mb": daemon.rss,
            "hit_latency_p50_ms": hit["p50"] * 1e3,
            "hit_latency_p90_ms": hit["p90"] * 1e3,
            "miss_latency_p50_ms": miss["p50"] * 1e3,
            "miss_latency_p90_ms": miss["p90"] * 1e3,
            "serve_capacity_jobs_per_s": capacity,
        }
        print(f"serve-mixed: {len(jobs)} jobs ({len(misses)} misses); burst drains "
              f"{[round(d, 3) for d in drains]} s; rungs "
              f"{[(round(rate, 2), len(r), rung_ok(r)) for rate, r in rungs]}; generator "
              f"lateness max {max(lateness) * 1e3:.2f} ms; setup median {setup_s:.4f} s")
        return metrics, len(jobs), failed

    def run_traced(self):
        specs, kinds = self.mix(40)
        jobs, spans, simulations = serve_at_base_rate(self.setup(), specs, kinds)
        check(simulations == kinds.count("miss"),
              f"daemon ran {simulations} simulations for {kinds.count('miss')} distinct misses")
        self.verify(jobs, specs)
        metrics = http_layer_metrics(self.work, jobs, spans)
        replay = self.hit_jobs + [s for s, k in zip(specs, kinds) if k == "miss"][:8]
        spec_text = json.dumps({"sweep_schema": 1, "name": "serve-mixed",
                                "axes": [{"field": "preset", "values": list(PRESETS)}],
                                "benchmarks": list(SERVE_BENCHES)})
        doc = {"jobs": replay, "warm": False, "work_dir": os.path.join(self.work, "probe"),
               "trace_dir": "", "spec_text": spec_text,
               "spans_out": os.path.join(self.work, "spans.jsonl")}
        layers = probe(self.tools, "layers", doc, os.path.join(self.work, "layers_in.json"))
        check(layers["counters_equal"], "traced and untraced replays disagree")
        served = {json.dumps(s, sort_keys=True): j.result["counters"] for j, s in zip(jobs, specs)}
        for spec, line in zip(replay, layers["results"]):
            check(served[json.dumps(spec, sort_keys=True)] == parse_serialized(line)["counters"],
                  "the traced run's counters differ from the served results")
        merged = dict(layers["metrics"])
        merged.update(metrics)
        return merged, len(jobs), 0


def http_store_hits(tools, work, stores, specs, env):
    """Submits MIN_LATENCY_SAMPLES jobs (cycling through `specs`) at the base
    rate to a daemon whose store holds `stores`; each must be a store hit."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "store.tsv"), "w") as merged:
        for path in stores:
            with open(path) as handle:
                merged.write(handle.read())
    jobs, _, simulations = serve_at_base_rate(
        Daemon(tools, work, env), [specs[i % len(specs)] for i in range(MIN_LATENCY_SAMPLES)],
        ["hit"] * MIN_LATENCY_SAMPLES)
    check(simulations == 0, f"{simulations} store-hit jobs simulated")
    return jobs


def http_layer_session(tools, work, job_specs, env):
    """A short traced session: per-request spans give the server layers.

    `job_specs` are submitted once each (misses) and then once more (store
    hits), at the base rate.
    """
    shutil.rmtree(work, ignore_errors=True)
    jobs, spans, _ = serve_at_base_rate(Daemon(tools, work, env), list(job_specs) * 2,
                                        ["miss"] * len(job_specs) + ["hit"] * len(job_specs))
    return http_layer_metrics(work, jobs, spans)


def http_layer_metrics(work, jobs, spans):
    with open(os.path.join(work, "http_spans.jsonl"), "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")

    def rtt(name):
        values = [s["end"] - s["start"] for s in spans if s["name"] == name]
        return statistics.median(values) * 1e3

    waits = [job.record.latency - job.result["host"]["wall_seconds"] - sum(t for _, t in job.rtts)
             for job in jobs if job.kind == "miss"]
    return {
        "server.post_ms": rtt("server.post"),
        "server.status_ms": rtt("server.status"),
        "server.result_ms": rtt("server.result"),
        "server.queue_wait_ms": statistics.median(waits) * 1e3,
        "server.polls_per_job": statistics.mean(j.polls for j in jobs),
        "server.generator_lateness_ms": max(j.record.lateness for j in jobs) * 1e3,
    }


# ---- main ----------------------------------------------------------------

WORKLOADS = ("cold-membound", "warm-replay", "serve-mixed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tools = build()
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            workload = ServeWorkload(args.workload, tools, args.seed)
            result = workload.run_traced() if args.trace else workload.run(args.seconds)
        else:
            workload = SweepWorkload(args.workload, tools, args.seed,
                                     warm=args.workload == "warm-replay")
            result = (run_sweep_traced(workload) if args.trace
                      else run_sweep(workload, args.seconds))
        metrics, attempted, failed = result
        units = LAYER_UNITS if args.trace else UNITS
        missing = sorted(set(units) - set(metrics))
        check(not missing, f"metrics not measured: {missing}")
    except CheckFailed as error:
        log(f"check failed: {error}")
        print(format_result(False, 1, 1, {}, UNITS))
        return 1
    print(format_result(True, attempted, failed,
                        {name: metrics[name] for name in units}, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
