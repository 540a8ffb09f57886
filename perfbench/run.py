"""Benchmark of the JSONSki reproduction: one workload per invocation.

    python3 perfbench/run.py --workload doc-scan --seed 1 --seconds 30 --trace 0

Run from the repository root; the program under test is imported from
``src``.  ``--workload all`` runs the three in turn.  Workloads
(NOTES.md says why each was chosen):

- ``doc-scan``: the library on large single documents (paper Fig. 10);
- ``record-feed``: the library on NDJSON streams of small records (Fig. 11);
- ``http-query``: ``python -m repro serve`` over feeds and documents.

Each workload runs the system in its own process and repeats a fixed
request list in a closed loop with one caller.  Every output is checked:
the first of each request type against the reference oracle
(``repro.reference.evaluate_bytes``), every later one against that by
digest.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run, whose
spans are written under ``.perfbench-work/``.  Exit status: 0 when every
request succeeded, 1 when any failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("doc-scan", "record-feed", "http-query")

#: Fresh set-ups per library run; setup_s is their host-corrected median.
LIBRARY_SETUPS = 8

END_TO_END_UNITS = {
    "throughput_mbps": "MB/s",
    "latency_p50_ms": "ms",
    "latency_max_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "query.compile_ms": "ms",
    "query.cache_hit_ratio": "ratio",
    "bits.stage1_ms": "ms",
    "bits.stage1_mbps": "MB/s",
    "bits.chunks_built": "count",
    "bits.stage1_us_per_record": "us",
    "engine.stage2_ms": "ms",
    "engine.stage2_us_per_record": "us",
    "engine.ff_ratio": "ratio",
    **{f"engine.ff_ratio.G{i}": "ratio" for i in range(1, 6)},
    "engine.matches": "count",
    "output.emit_ms": "ms",
    "output.decode_ms": "ms",
    "output.bytes_out": "bytes",
    "stream.frame_ms": "ms",
    "stream.records": "count",
    "storage.index_build_ms": "ms",
    "storage.sidecar_load_ms": "ms",
    "storage.sidecar_bytes": "bytes",
    "serve.first_line_ms": "ms",
    "serve.request_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.overhead_share": "ratio",
    "serve.served": "count",
    "serve.shed": "count",
    "serve.request_errors": "count",
    "serve.concurrency2_ratio": "ratio",
    "trace.overhead_share": "ratio",
    "baseline.pison_speedup": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: damage the output of the N-th timed request (0-based),
    # which must then count as failed.
    parser.add_argument("--corrupt", type=int, default=-1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    """Environment of every child process: the program from ``src``, and a
    fixed string-hash seed so dict and set layouts repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


# -- verification -------------------------------------------------------


def jsonl_values(out: bytes) -> list:
    return [json.loads(line) for line in out.splitlines()]


def http_values(body: bytes) -> list:
    """Flatten the ``values`` lines of a ``/query`` response (terminator excluded)."""
    values: list = []
    for line in body.splitlines()[:-1]:
        values.extend(json.loads(line)["values"])
    return values


def expected_values(req: dict, data: bytes) -> list:
    import repro

    if req["kind"] == "feed":
        return [v for record in data.splitlines() if record.strip()
                for v in repro.evaluate_bytes(req["query"], record)]
    return repro.evaluate_bytes(req["query"], data)


def verify_first(plan: dict, work: Path, first: dict[str, bytes], flatten) -> dict[str, str]:
    """Check each type's first output against the oracle (parsed,
    order-preserving equality); returns the failing types with reasons."""
    bad: dict[str, str] = {}
    cache: dict[str, bytes] = {}
    for req in plan["requests"]:
        key = req["key"]
        if key not in first:
            continue
        data = cache.setdefault(req["input"], (work / req["input"]).read_bytes())
        try:
            got = flatten(first[key])
        except (ValueError, KeyError, TypeError) as exc:
            bad[key] = f"unparseable output: {type(exc).__name__}: {exc}"
            continue
        want = expected_values(req, data)
        if got != want:
            bad[key] = f"output differs from the reference ({len(got)} vs {len(want)} values)"
    return bad


# -- library workloads ----------------------------------------------------


def _spawn_worker(plan_path: Path, mode: str, args: argparse.Namespace, spans: Path | None):
    cmd = [sys.executable, str(HERE / "libworker.py"), str(plan_path), "--mode", mode,
           "--seconds", str(args.seconds), "--corrupt", str(args.corrupt)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)


def run_library(plan: dict, plan_path: Path, args: argparse.Namespace, spans: Path) -> dict:
    setups, kernels = [], []
    if not args.trace:
        for _ in range(LIBRARY_SETUPS):
            kernels.append(measure.reference_kernel())
            start = time.perf_counter()
            proc = _spawn_worker(plan_path, "setup", args, None)
            try:
                measure.read_until(proc, rb"ready\n", 120)
                setups.append(time.perf_counter() - start)
                measure.stop(proc, sig=None)
            finally:
                measure.stop(proc, timeout=5)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up worker exited with {proc.returncode}")
    proc = _spawn_worker(plan_path, "trace" if args.trace else "measure", args,
                         spans if args.trace else None)
    try:
        ready = measure.read_until(proc, rb"ready\n", 120)
        rest = measure.stop(proc, sig=None, timeout=args.seconds + 150)
    finally:
        measure.stop(proc, timeout=5)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring worker exited with {proc.returncode}")
    result = json.loads((ready.string[ready.end():] + rest).splitlines()[-1])
    first = {key: base64.b64decode(text) for key, text in result.pop("first").items()}
    for key, reason in verify_first(plan, plan_path.parent, first, jsonl_values).items():
        result["failed"] += len(result["samples"][key])
        result["samples"][key] = result["corrected"][key] = []
        result["errors"].append(f"{key}: {reason}")
    result["setups"], result["setup_kernels"] = setups, kernels
    return result


# -- reporting ------------------------------------------------------------


def report(plan: dict, args: argparse.Namespace, result: dict) -> dict:
    samples = result["samples"]
    kernels = result["kernels"]
    type_bytes = {r["key"]: plan["inputs"][r["input"]]["bytes"] for r in plan["requests"]}
    bests = measure.best_of(samples)
    print("diag best_ms " + " ".join(f"{key}={best * 1e3:.1f}" for key, best in bests.items()))
    print("diag raw_best_of " + " ".join(
        f"{name}={value:.4g}" for name, value in measure.end_to_end(bests, type_bytes).items()))
    p50, p95, n = measure.wall_percentiles(samples)
    print(f"diag wall_p50_ms={p50:.3f} wall_p95_ms={p95:.3f} samples={n} rounds={len(kernels)}")
    print(f"diag host.slow_share={measure.slow_share(kernels):.3f} "
          f"host.steal_ticks={result['steal']} kernel_fastest_ms={min(kernels) * 1e3:.3f} "
          f"kernel_median_ms={statistics.median(kernels) * 1e3:.3f}")
    for error in result["errors"]:
        print(f"failed {error}", file=sys.stderr)
    if args.trace:
        metrics = dict.fromkeys(LAYER_UNITS, 0.0)
        metrics.update(result["layers"])
        self_times = result["self_times"]
        total = sum(self_times.values()) or 1.0
        for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"self {name} {seconds * 1e3:.1f} ms ({seconds / total:.1%})")
        units = LAYER_UNITS
    else:
        metrics = measure.end_to_end(measure.typical(result["corrected"]), type_bytes)
        metrics["setup_s"] = statistics.median(
            t * measure.REFERENCE_KERNEL_S / k for t, k in zip(result["setups"], result["setup_kernels"]))
        print(f"diag setup_raw_s min={min(result['setups']):.4f} "
              f"median={statistics.median(result['setups']):.4f} n={len(result['setups'])}")
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {units[name]}")
    print(f"attempted={result['attempted']} failed={result['failed']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in turn, each as its own invocation, and sum up.

    Each workload's lines pass through, so its ``metric`` lines give all
    the workload/metric pairs; the last line sums the request counts.
    The exit status is the worst of the three.
    """
    status, results = 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--corrupt", str(args.corrupt)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1):
            results[workload] = json.loads(proc.stdout.splitlines()[-1])
    if status == 2:
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"all workloads: attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "workloads": results}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import inputs

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        plan = inputs.build_plan(args.workload, args.seed, work)
        for file, fp in plan["inputs"].items():
            print(f"input {file} bytes={fp['bytes']} crc32={fp['crc32']}")
        print(f"inputs fingerprint={plan['fingerprint']} pass_bytes={plan['pass_bytes']}")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        if args.workload == "http-query":
            import httpload

            result = httpload.run(plan, work, args, spans)
        else:
            result = run_library(plan, plan_path, args, spans)
        if args.trace:
            print(f"spans written to {spans.relative_to(ROOT)}")
        doc = report(plan, args, result)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
