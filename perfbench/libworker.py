"""Library child process of the doc-scan and record-feed workloads.

``run.py`` starts it as a fresh interpreter with ``PYTHONPATH`` at the
repository's ``src``::

    python perfbench/libworker.py WORKDIR/plan.json --mode setup|measure|trace \
        --seconds S [--corrupt N] [--spans FILE]

Set-up, which the parent times up to the ``ready`` line, is: import
``repro``, read the inputs, compile the request list, and for feeds
frame the records with ``RecordStream.from_jsonl``.  ``setup`` exits
there.  ``measure`` runs the closed loop (one caller, one request at a
time, the fixed list repeated in rounds) and prints one JSON line:
per-type samples, the first output of each type (for the parent to
verify), failure counts, per-round reference-kernel times and peak RSS.
``trace`` alternates plain, traced and Pison-baseline rounds and also
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
import time
from pathlib import Path

import repro

import layers
import measure


def _closed_loop(calls: list, keys: list[str], recorder: measure.Recorder) -> None:
    for key, call in zip(keys, calls):
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 -- a failed request is counted, the loop goes on
            recorder.fail(key, f"{type(exc).__name__}: {exc}")
            continue
        recorder.record(key, out, time.perf_counter() - start)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--corrupt", type=int, default=-1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text())
    requests = plan["requests"]
    data = {file: (plan_path.parent / file).read_bytes() for file in plan["inputs"]}
    for req in requests:
        repro.compile(req["query"])
    streams = {
        req["input"]: repro.RecordStream.from_jsonl(data[req["input"]])
        for req in requests if req["kind"] == "feed"
    }
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    keys = [req["key"] for req in requests]
    calls = [layers.plain_call(req, data, streams) for req in requests]
    recorder = measure.Recorder(keys, corrupt=args.corrupt)
    steal = measure.steal_ticks()
    deadline = time.perf_counter() + args.seconds
    result: dict = {}

    if args.mode == "measure":
        while len(recorder.kernels) < 2 or time.perf_counter() < deadline:
            recorder.start_round()
            _closed_loop(calls, keys, recorder)
    else:
        spans = measure.SpanLog()
        types: dict[int, str] = {}
        chunks: dict[str, int] = {}
        out_bytes: dict[str, int] = {}
        pison = [layers.plain_call(req, data, streams, engine="pison") for req in requests]
        pison_samples: dict[str, list[float]] = {key: [] for key in keys}
        hits0, misses0 = layers.cache_counts()
        while len(recorder.kernels) < 2 or time.perf_counter() < deadline:
            recorder.start_round()
            _closed_loop(calls, keys, recorder)
            for req in requests:
                rid = len(types)
                types[rid] = req["key"]
                out, chunks[req["key"]] = layers.traced_request(spans, rid, req, data, streams)
                out_bytes[req["key"]] = len(out)
                if out != recorder.first.get(req["key"]):
                    recorder.fail_checked(req["key"], "layer-split output differs from the plain request")
            for key, call in zip(keys, pison):
                start = time.perf_counter()
                call()
                pison_samples[key].append(time.perf_counter() - start)
        hits1, misses1 = layers.cache_counts()
        metrics = layers.layer_metrics(
            spans, types, requests, data, streams, chunks, out_bytes,
            (hits1 - hits0, misses1 - misses0),
        )
        plain = sum(measure.best_of(recorder.samples).values())
        traced = sum(measure.best_per_type(spans.durations("request"), types).values())
        metrics["trace.overhead_share"] = traced / plain - 1.0
        metrics["baseline.pison_speedup"] = sum(measure.best_of(pison_samples).values()) / plain
        if streams:
            metrics["stream.frame_ms"], metrics["stream.records"] = layers.frame([data[f] for f in streams])
        result["layers"] = metrics
        result["self_times"] = spans.self_times()
        if args.spans:
            spans.write(Path(args.spans))

    peak_rss = measure.peak_rss_mb()
    result.update({
        "samples": recorder.samples,
        "corrected": recorder.corrected,
        "first": {key: base64.b64encode(out).decode() for key, out in recorder.first.items()},
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "errors": recorder.errors,
        "kernels": recorder.kernels,
        "steal": measure.steal_ticks() - steal,
        "peak_rss_mb": peak_rss,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
