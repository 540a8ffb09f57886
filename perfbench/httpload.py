"""The http-query workload: ``python -m repro serve`` and one closed-loop client.

The server runs in its own process with ``--index-cache`` in the run's
scratch directory, serving two ``jsonl`` feeds and two ``json``
documents.  The documents' stage-1 sidecars are built before any timed
set-up, so every set-up loads them instead of building.  A set-up is:
spawn the server, wait for ``/readyz``, and one warm-up pass over the
request list.  The client then sends the list in rounds, one request at
a time; the server closes each connection after its response.

A request fails on a non-200 status, a missing ``done`` terminator, an
exception, or output that differs from the verified output.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro

import layers
import measure
from run import child_env, http_values, jsonl_values, verify_first

#: Fresh set-ups per run; setup_s is their host-corrected median.
SETUPS = 5
HOST = "127.0.0.1"


class Server:
    """One ``repro serve`` process and the client calls made to it."""

    def __init__(self, plan: dict, work: Path, index_dir: Path) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--host", HOST, "--port", "0",
               "--index-cache", str(index_dir)]
        corpora = {r["corpus"]: (r["input"], r["format"]) for r in plan["requests"]}
        for name, (file, fmt) in corpora.items():
            cmd += ["--corpus", f"{name}={work / file}:{fmt}"]
        self.log = open(work / "server.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log, env=child_env())
        self.port = 0

    def wait_ready(self, timeout: float = 120.0) -> None:
        match = measure.read_until(self.proc, rb"serving on [\d.]+:(\d+)\n", timeout)
        self.port = int(match.group(1))
        deadline = time.monotonic() + timeout
        while self.get("/readyz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def post(self, req: dict, spans=None, rid: int = 0) -> tuple[int, bytes, float]:
        """Send one ``/query``; returns (status, body, seconds to the last byte)."""
        body = json.dumps({"corpus": req["corpus"], "query": req["query"]})
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        span = spans.span if spans is not None else lambda name, rid: contextlib.nullcontext()
        try:
            start = time.perf_counter()
            with span("serve.request", rid):
                with span("serve.first_line", rid):
                    conn.request("POST", "/query", body=body,
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    first = resp.readline()
                out = first + resp.read()
            return resp.status, out, time.perf_counter() - start
        finally:
            conn.close()

    def counters(self) -> dict[str, float]:
        """Sum of each ``repro_serve_*`` counter over its labels, from ``/metrics``."""
        status, text = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        out: dict[str, float] = {}
        for name, value in re.findall(rb"^repro_(serve_\w+?)(?:\{[^}]*\})? (\S+)$", text, re.M):
            key = name.decode()
            out[key] = out.get(key, 0.0) + float(value)
        return out

    def stop(self) -> None:
        try:
            measure.stop(self.proc)
        finally:
            self.log.close()


def _done(body: bytes) -> bool:
    lines = body.splitlines()
    try:
        return bool(lines) and json.loads(lines[-1]).get("done") is True
    except ValueError:
        return False


def request(server: Server, req: dict, recorder: measure.Recorder, spans=None, rid: int = 0) -> bytes | None:
    """One timed request, recorded as a sample or a failure."""
    key = req["key"]
    try:
        status, body, elapsed = server.post(req, spans, rid)
    except (OSError, http.client.HTTPException) as exc:
        recorder.fail(key, f"{type(exc).__name__}: {exc}")
        return None
    if status != 200:
        recorder.fail(key, f"status {status}")
    elif not _done(body):
        recorder.fail(key, "missing done terminator")
    else:
        recorder.record(key, body, elapsed)
        return body
    return None


def lockstep(server: Server, requests: list[dict], clients: int) -> float:
    """Wall time for ``clients`` connections to send the list in lockstep:
    each request starts on every connection together."""
    barrier = threading.Barrier(clients)
    statuses: list[int] = []

    def client() -> None:
        for req in requests:
            barrier.wait(timeout=120)
            statuses.append(server.post(req)[0])

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    elapsed = time.perf_counter() - start
    if any(t.is_alive() for t in threads) or statuses != [200] * (clients * len(requests)):
        raise RuntimeError(f"lockstep clients failed: statuses {sorted(set(statuses))}")
    return elapsed


def _storage(docs: dict[str, bytes], work: Path, spans: measure.SpanLog) -> dict[str, float]:
    """Cold sidecar build into an empty directory, then sidecar loads."""
    build = load = size = 0.0
    for name, doc in docs.items():
        builds, loads = [], []
        for i in range(3):
            with spans.span("storage.build", -1) as s:
                built = repro.IndexedBuffer.load_or_build(doc, work / f"cold-{name}-{i}")
            builds.append(time.perf_counter() - s.start)
        for _ in range(5):
            with spans.span("storage.load", -1) as s:
                repro.IndexedBuffer.load(built.sidecar, doc)
            loads.append(time.perf_counter() - s.start)
        build += min(builds)
        load += min(loads)
        size += built.sidecar.stat().st_size
    return {"storage.index_build_ms": build * 1e3, "storage.sidecar_load_ms": load * 1e3,
            "storage.sidecar_bytes": size}


def run(plan: dict, work: Path, args, spans_path: Path) -> dict:
    requests = plan["requests"]
    keys = [r["key"] for r in requests]
    data = {file: (work / file).read_bytes() for file in plan["inputs"]}
    index_dir = work / "index-cache"
    docs = {r["input"]: data[r["input"]] for r in requests if r["kind"] == "doc"}
    indexes = {file: repro.index(doc, cache_dir=index_dir) for file, doc in docs.items()}

    setups: list[float] = []
    kernels: list[float] = []
    server = None
    try:
        for _ in range(1 if args.trace else SETUPS):
            if server is not None:
                server.stop()
            kernels.append(measure.reference_kernel())
            start = time.perf_counter()
            server = Server(plan, work, index_dir)
            server.wait_ready()
            for req in requests:
                status, body, _ = server.post(req)
                if status != 200 or not _done(body):
                    raise RuntimeError(f"warm-up request {req['key']} failed with status {status}")
            setups.append(time.perf_counter() - start)

        recorder = measure.Recorder(keys, corrupt=args.corrupt)
        steal = measure.steal_ticks()
        before = server.counters()
        deadline = time.perf_counter() + args.seconds
        result: dict = {}
        if not args.trace:
            while len(recorder.kernels) < 2 or time.perf_counter() < deadline:
                recorder.start_round()
                for req in requests:
                    request(server, req, recorder)
        else:
            result["layers"], result["self_times"] = _traced(
                server, plan, work, data, docs, indexes, recorder, deadline, spans_path)
        after = server.counters()
        peak_rss = measure.peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    for key, reason in verify_first(plan, work, recorder.first, http_values).items():
        recorder.reject(key, reason)
    if args.trace:
        for name in ("served", "shed", "request_errors"):
            key = f"serve_{name}"
            result["layers"][f"serve.{name}"] = after.get(key, 0.0) - before.get(key, 0.0)
    result.update({
        "samples": recorder.samples, "corrected": recorder.corrected,
        "attempted": recorder.attempted, "failed": recorder.failed, "errors": recorder.errors,
        "kernels": recorder.kernels, "steal": measure.steal_ticks() - steal,
        "peak_rss_mb": peak_rss, "setups": setups, "setup_kernels": kernels,
    })
    return result


def _traced(server: Server, plan: dict, work: Path, data: dict, docs: dict, indexes: dict,
            recorder: measure.Recorder, deadline: float,
            spans_path: Path) -> tuple[dict, dict]:
    """Rounds of: plain HTTP pass, traced HTTP pass, plain library pass,
    layer-split library pass; then the lock-step, storage and framing
    measurements.  Returns (per-layer metrics, span self times)."""
    requests = plan["requests"]
    keys = [r["key"] for r in requests]
    streams = {r["input"]: repro.RecordStream.from_jsonl(data[r["input"]])
               for r in requests if r["kind"] == "feed"}
    lib_calls = [layers.plain_call(r, data, streams, indexes) for r in requests]
    lib = measure.Recorder(keys)
    traced_http = measure.Recorder(keys)
    spans = measure.SpanLog()
    http_types: dict[int, str] = {}
    lib_types: dict[int, str] = {}
    chunks: dict[str, int] = {}
    out_bytes: dict[str, int] = {}
    for req in requests:
        repro.compile(req["query"])
    hits0, misses0 = layers.cache_counts()
    while len(recorder.kernels) < 2 or time.perf_counter() < deadline:
        recorder.start_round()
        for req in requests:
            request(server, req, recorder)
        for req in requests:
            rid = len(http_types) + len(lib_types)
            http_types[rid] = req["key"]
            body = request(server, req, traced_http, spans, rid)
            if body is not None and body != recorder.first.get(req["key"]):
                traced_http.fail_checked(req["key"], "traced response differs from the plain one")
        for key, call in zip(keys, lib_calls):
            start = time.perf_counter()
            lib.record(key, call(), time.perf_counter() - start)
        for req in requests:
            rid = len(http_types) + len(lib_types)
            lib_types[rid] = req["key"]
            out, chunks[req["key"]] = layers.traced_request(spans, rid, req, data, streams, indexes)
            out_bytes[req["key"]] = len(out)
            if out != lib.first.get(req["key"]):
                lib.fail_checked(req["key"], "layer-split output differs from the plain request")
    hits1, misses1 = layers.cache_counts()

    single = min(lockstep(server, requests, 1) for _ in range(2))
    double = min(lockstep(server, requests, 2) for _ in range(2))
    metrics = layers.layer_metrics(spans, lib_types, requests, data, streams, chunks, out_bytes,
                                   (hits1 - hits0, misses1 - misses0), indexes)
    metrics.update(_storage(docs, work, spans))
    metrics["stream.frame_ms"], metrics["stream.records"] = layers.frame(
        [data[file] for file in streams])

    http_best = measure.best_of(recorder.samples)
    lib_best = measure.best_of(lib.samples)
    first_line = measure.best_per_type(spans.durations("serve.first_line"), http_types)
    traced = measure.best_per_type(spans.durations("serve.request"), http_types)
    overhead = sum(http_best[k] - lib_best[k] for k in http_best if k in lib_best)
    metrics.update({
        "serve.first_line_ms": statistics.median(first_line.values()) * 1e3,
        "serve.request_ms": statistics.median(traced.values()) * 1e3,
        "serve.overhead_ms": overhead * 1e3,
        "serve.overhead_share": overhead / sum(http_best.values()),
        "serve.concurrency2_ratio": 2 * single / double,
        "trace.overhead_share": sum(traced.values()) / sum(http_best.values()) - 1.0,
    })
    for key, reason in verify_first(plan, work, lib.first, jsonl_values).items():
        lib.reject(key, reason)
    for other in (traced_http, lib):
        recorder.attempted += other.attempted
        recorder.failed += other.failed
        recorder.errors += other.errors
    spans.write(spans_path)
    return metrics, spans.self_times()
