"""Open-loop HTTP/1.1 load generator for ringclu_simd.

One thread drives every job over a fixed set of persistent connections
(keep-alive, as the daemon advertises).  Each job is POST /v1/jobs, then
GET /v1/jobs/{id} until it is completed, then GET /v1/jobs/{id}/result.
Jobs are due on a fixed schedule whether or not earlier ones finished
(open loop), each job keeps to connection `index % CONNECTIONS`, and a
job's latency runs from its due time to the moment its result body has
arrived.  Every request is recorded as a span (name, start, end, parent
job span, job id) in memory and written out by the caller.
"""

import collections
import heapq
import json
import selectors
import socket
import time

from stats import OpenLoopRecord

POLL_DELAY_S = 0.01
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30.0


class Job:
    """One submission: its request body, schedule and what came back."""

    def __init__(self, index, body, kind, due):
        self.index = index
        self.body = body
        self.kind = kind  # "hit" | "miss"
        self.record = OpenLoopRecord(due)
        self.id = None
        self.polls = 0
        self.result = None
        self.error = None
        self.rtts = []  # (name, seconds)

    @property
    def finished(self):
        return self.result is not None or self.error is not None


class _Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setblocking(False)
        self.queue = collections.deque()
        self.inflight = None  # (job, name, path, sent_at)
        self.buf = b""
        self.out = b""

    def close(self):
        self.sock.close()


def _request_bytes(method, path, body):
    data = body or b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
    return head.encode() + data


def _take_response(buf):
    """(status, body, rest) once `buf` holds a whole response, else None."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buf[:end].decode("latin-1").split("\r\n")
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if len(buf) < end + 4 + length:
        return None
    status = int(head[0].split(" ")[1])
    body = buf[end + 4:end + 4 + length]
    return status, body, buf[end + 4 + length:]


class Session:
    """Persistent connections to one daemon plus the span list."""

    def __init__(self, port):
        self.conns = [_Conn(port) for _ in range(CONNECTIONS)]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.spans = []

    def close(self):
        self.selector.close()
        for conn in self.conns:
            conn.close()

    def _enqueue(self, job, name, method, path, body=None):
        conn = self.conns[job.index % len(self.conns)]
        conn.queue.append((job, name, _request_bytes(method, path, body), path))

    def _pump(self, conn):
        if conn.inflight is None and conn.queue:
            job, name, data, path = conn.queue.popleft()
            conn.inflight = (job, name, path, time.perf_counter())
            conn.out = data
        while conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                return
            conn.out = conn.out[sent:]

    def run(self, jobs, deadline):
        """Drives `jobs` (sorted by due time) until all finish or `deadline`."""
        pending = list(jobs)
        pending.reverse()
        timers = []  # (time, seq, job): status re-polls
        seq = 0
        unfinished = len(jobs)
        while unfinished and time.perf_counter() < deadline:
            now = time.perf_counter()
            while pending and pending[-1].record.due <= now:
                job = pending.pop()
                job.record.released = now
                self._enqueue(job, "server.post", "POST", "/v1/jobs", job.body)
            while timers and timers[0][0] <= now:
                _, _, job = heapq.heappop(timers)
                job.polls += 1
                self._enqueue(job, "server.status", "GET", f"/v1/jobs/{job.id}")
            for conn in self.conns:
                self._pump(conn)
            wake = deadline
            if pending:
                wake = min(wake, pending[-1].record.due)
            if timers:
                wake = min(wake, timers[0][0])
            events = self.selector.select(max(0.0, wake - time.perf_counter()))
            for key, _ in events:
                conn = key.data
                try:
                    chunk = conn.sock.recv(65536)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("daemon closed a keep-alive connection")
                conn.buf += chunk
                parsed = _take_response(conn.buf)
                if parsed is None:
                    continue
                status, body, conn.buf = parsed
                job, name, path, sent = conn.inflight
                conn.inflight = None
                done = time.perf_counter()
                job.rtts.append((name, done - sent))
                self.spans.append({"name": name, "start": sent, "end": done,
                                   "job": job.index, "parent": f"job{job.index}"})
                finished = self._advance(job, name, status, body, done)
                if finished:
                    unfinished -= 1
                    self.spans.append({"name": "job", "start": job.record.due,
                                       "end": done, "job": job.index,
                                       "parent": None, "kind": job.kind})
                elif job.id is not None and name != "server.status":
                    job.polls += 1
                    self._enqueue(job, "server.status", "GET", f"/v1/jobs/{job.id}")
                elif name == "server.status" and job.result is None:
                    state = json.loads(body)["state"]
                    if state == "completed":
                        self._enqueue(job, "server.result", "GET",
                                      f"/v1/jobs/{job.id}/result")
                    else:
                        seq += 1
                        heapq.heappush(timers, (done + POLL_DELAY_S, seq, job))
                self._pump(conn)
        for job in jobs:
            if not job.finished:
                job.error = "unfinished at deadline"
        return jobs

    @staticmethod
    def _advance(job, name, status, body, done):
        """Applies one response; True when the job reached its end."""
        if name == "server.post":
            if status != 202:
                job.error = f"POST {status}: {body[:200]!r}"
                return True
            job.id = json.loads(body)["id"]
            return False
        if name == "server.status":
            if status != 200:
                job.error = f"status {status}"
                return True
            state = json.loads(body)["state"]
            if state in ("failed", "cancelled"):
                job.error = f"job {state}"
                return True
            return False
        if status != 200:
            job.error = f"result {status}: {body[:200]!r}"
            return True
        job.result = json.loads(body)
        job.record.done = done
        return True


def request_once(port, method, path, body=None):
    """One request on a fresh connection (gauges, shutdown)."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(_request_bytes(method, path, body).replace(
            b"Content-Type", b"Connection: close\r\nContent-Type", 1))
        buf = b""
        while True:
            parsed = _take_response(buf)
            if parsed is not None:
                status, payload, _ = parsed
                return status, json.loads(payload) if payload else None
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"no response to {method} {path}")
            buf += chunk
