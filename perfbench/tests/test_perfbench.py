"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs take about a minute in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- estimators -----------------------------------------------------------


def test_estimators_on_synthetic_samples():
    samples = {"a": [0.30, 0.10, 0.20], "b": [0.05, 0.07], "c": [1.00, 0.90, 0.95]}
    type_bytes = {"a": 2_000_000, "b": 1_000_000, "c": 3_000_000}
    assert measure.best_of(samples) == {"a": 0.10, "b": 0.05, "c": 0.90}
    assert measure.typical(samples) == pytest.approx({"a": 0.20, "b": 0.06, "c": 0.95})
    got = measure.end_to_end(measure.best_of(samples), type_bytes)
    assert got["throughput_mbps"] == pytest.approx(6.0 / 1.05)
    assert got["latency_p50_ms"] == pytest.approx(100.0)
    assert got["latency_max_ms"] == pytest.approx(900.0)


def _loop(rounds: list[tuple[float, dict[str, float]]]) -> measure.Recorder:
    """Replay rounds of (kernel time, request times) through a Recorder."""
    rec = measure.Recorder(["a", "b", "c"])
    for kernel, times in rounds:
        rec.kernels.append(kernel)
        rec._speed = measure.REFERENCE_KERNEL_S / kernel
        for key, elapsed in times.items():
            rec.record(key, key.encode(), elapsed)
    return rec


def test_slow_episode_samples_do_not_move_the_gated_estimators():
    base = {"a": 0.10, "b": 0.20, "c": 0.05}
    type_bytes = dict.fromkeys(base, 1_000_000)
    k = measure.REFERENCE_KERNEL_S
    quiet = _loop([(k, base)] * 5)
    # Slow episodes make whole rounds up to 1.7x slower, kernel included;
    # a whole run on a slower host moves everything by the same factor.
    episodes = _loop([(k, base)] * 5 + [(k * f, {key: t * f for key, t in base.items()})
                                        for f in (1.3, 1.7, 1.5, 1.7)])
    slow_host = _loop([(k * 1.4, {key: t * 1.4 for key, t in base.items()})] * 5)
    want = measure.end_to_end(base, type_bytes)
    for rec in (quiet, episodes, slow_host):
        assert measure.end_to_end(measure.typical(rec.corrected), type_bytes) == pytest.approx(want)
    # Raw best-of resists the episodes but not the slower host...
    assert measure.best_of(episodes.samples) == pytest.approx(base)
    assert measure.best_of(slow_host.samples)["a"] == pytest.approx(0.14)
    # ...and the wall-clock tail, a diagnostic, moves with the episodes.
    assert measure.wall_percentiles(episodes.samples)[1] > measure.wall_percentiles(quiet.samples)[1]


def test_a_type_without_successful_samples_is_left_out():
    per_type = measure.typical({"a": [0.1], "b": []})
    got = measure.end_to_end(per_type, {"a": 1_000_000, "b": 5_000_000})
    assert got["throughput_mbps"] == pytest.approx(10.0)


def test_slow_share_counts_rounds_at_least_a_quarter_slower():
    assert measure.slow_share([0.010, 0.0124, 0.0125, 0.020]) == pytest.approx(0.5)
    assert measure.slow_share([]) == 0.0


def test_recorder_counts_a_digest_mismatch_and_a_rejected_first_output():
    rec = measure.Recorder(["a", "b"], corrupt=2)
    rec.record("a", b"1\n", 0.1)
    rec.record("b", b"2\n", 0.1)
    rec.record("a", b"1\n", 0.1)  # attempt 2: corrupted by the hook
    rec.record("b", b"2\n", 0.1)
    assert (rec.attempted, rec.failed) == (4, 1)
    assert rec.samples == {"a": [0.1], "b": [0.1, 0.1]}
    rec.reject("b", "differs from the reference")
    assert rec.failed == 3 and rec.samples["b"] == rec.corrected["b"] == []


def test_span_self_times_subtract_children():
    log = measure.SpanLog()
    log.spans += [(0, None, 1, "request", 0.0, 1.0), (1, 0, 1, "bits.stage1", 0.1, 0.4),
                  (2, 0, 1, "engine.stage2", 0.4, 0.9)]
    assert log.self_times() == pytest.approx({"request": 0.2, "bits.stage1": 0.3, "engine.stage2": 0.5})
    assert log.durations("bits.stage1") == pytest.approx({1: 0.3})


# -- metric names -------------------------------------------------------------


def test_every_metric_the_benchmark_prints_is_declared():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END_UNITS == declared_e2e
    assert run.LAYER_UNITS == declared_layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["doc-scan", "record-feed", "http-query"]


# -- inputs -------------------------------------------------------------------


def _fingerprints(workload: str, seed: int, work: Path, hash_seed: str) -> str:
    code = (
        "import json, sys; from pathlib import Path; import inputs; "
        f"print(json.dumps(inputs.build_plan({workload!r}, {seed}, Path({str(work)!r}))['inputs']))"
    )
    env = dict(os.environ, PYTHONPATH=run.child_env()["PYTHONPATH"], PYTHONHASHSEED=hash_seed)
    work.mkdir()
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("workload", ["record-feed", "http-query"])
def test_same_seed_gives_identical_inputs_in_fresh_processes(tmp_path, workload):
    first = _fingerprints(workload, 7, tmp_path / "a", "1")
    again = _fingerprints(workload, 7, tmp_path / "b", "2")
    other = _fingerprints(workload, 8, tmp_path / "c", "1")
    assert first == again
    assert json.loads(first).keys() == json.loads(other).keys()
    assert all(json.loads(first)[f] != json.loads(other)[f] for f in json.loads(first))


def test_nspl_framing_keeps_both_queries_matching():
    import inputs
    import repro

    doc = inputs.document("NSPL", 3)
    assert len(repro.evaluate_bytes("$.mt.vw.co[*].nm", doc)) == 44
    assert repro.evaluate_bytes("$.dt[*][*][2:4]", doc)
    record = inputs.feed("NSPL", 3).splitlines()[0]
    assert record.startswith(b'{"dt":') and repro.evaluate_bytes("$.dt[*][2:4]", record)


# -- smoke runs -----------------------------------------------------------------


def _run(*argv: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def test_one_command_runs_every_workload_and_counts_a_corrupted_response_as_failed():
    # Attempt 12 is in round two of every workload's list (12, 10 and 8
    # request types): a response the oracle never saw, so only the
    # digest comparison can catch it.
    code, lines = _run("--workload", "all", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--corrupt", "12")
    summary = json.loads(lines[-1])
    assert code == 1
    assert summary["correct"] is False and summary["failed"] == 3
    assert list(summary["workloads"]) == ["doc-scan", "record-feed", "http-query"]
    for workload, doc in summary["workloads"].items():
        assert doc["failed"] == 1 and doc["attempted"] >= 16
        assert list(doc["metrics"]) == list(run.END_TO_END_UNITS)
        assert all(doc["metrics"][m]["value"] > 0 for m in run.END_TO_END_UNITS)
    pairs = {tuple(line.split()[1:3]) for line in lines if line.startswith("metric ")}
    assert len(pairs) == 15


def test_smoke_run_rejects_a_corrupted_first_response():
    code, lines = _run("--workload", "record-feed", "--seed", "2", "--seconds", "1",
                       "--trace", "0", "--corrupt", "0")
    doc = json.loads(lines[-1])
    assert code == 1 and doc["failed"] >= 2


def test_traced_smoke_run_prints_every_layer_metric():
    code, lines = _run("--workload", "record-feed", "--seed", "3", "--seconds", "1", "--trace", "1")
    doc = json.loads(lines[-1])
    assert code == 0 and doc["correct"] and doc["failed"] == 0
    assert list(doc["metrics"]) == list(run.LAYER_UNITS)
    assert doc["metrics"]["bits.stage1_us_per_record"]["value"] > 0
    assert (ROOT / ".perfbench-work" / "spans-record-feed-seed3.jsonl").stat().st_size > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for file in HERE.glob("*.py"):
        (bare / "perfbench" / file.name).write_bytes(file.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "doc-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
