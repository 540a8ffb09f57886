"""Tier-1 fuzz smoke: the differential sweep and pool fault injection.

Marked ``fuzz_smoke`` but *not* deselected: this is the budgeted CI
incarnation of the resilience contract.  The long-running form lives in
``benchmarks/fuzz_soak.py``.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.observe import MetricsRegistry
from repro.parallel import run_records_pool_resilient
from repro.resilience import CRASH_SENTINEL, differential_fuzz
from repro.stream.records import RecordStream

BASE_RECORDS = [
    json.dumps({"a": {"b": 1, "k": [1, 2]}, "x": "s"}).encode(),
    json.dumps([{"x": 1}, {"x": "two", "k": None}]).encode(),
    json.dumps({"a": [0, 1, 2, 3, 4], "k": {"k": True}}).encode(),
]

N_MUTATIONS = 200


@pytest.mark.fuzz_smoke
def test_differential_fuzz_every_engine():
    registry = MetricsRegistry()
    report = differential_fuzz(
        BASE_RECORDS,
        N_MUTATIONS,
        seed=1,
        metrics=registry,
        deadline_per_case=30.0,
    )
    assert report.ok, report.describe()
    # every registered engine actually participated
    assert report.cases > N_MUTATIONS * (len(repro.ENGINES) // 2)
    assert registry.value("fuzz.cases") == report.cases
    # the corpus is hostile enough that *something* got diagnosed
    assert report.counts["engine_error"] > 0


@pytest.mark.fuzz_smoke
def test_fuzz_outcomes_deterministic():
    r1 = differential_fuzz(BASE_RECORDS, 25, seed=7, engines=("jsonski",), deadline_per_case=None)
    r2 = differential_fuzz(BASE_RECORDS, 25, seed=7, engines=("jsonski",), deadline_per_case=None)
    assert r1.counts == r2.counts


@pytest.mark.fuzz_smoke
def test_pool_survives_crash_and_poison():
    good = [json.dumps({"a": i}).encode() for i in range(6)]
    poison = b'{"a": '  # malformed: quarantined inside the worker
    records = good[:3] + [CRASH_SENTINEL, poison] + good[3:]
    stream = RecordStream.from_records(records)
    registry = MetricsRegistry()
    result = run_records_pool_resilient(
        "$.a",
        stream,
        n_workers=2,
        batch_size=3,
        max_retries=1,
        backoff=0.01,
        metrics=registry,
        inject_faults=True,
    )
    # partial results: every good record produced its value
    values = {i: v for i, v in enumerate(result.values) if v is not None}
    assert [values[i] for i in (0, 1, 2, 5, 6, 7)] == [[0], [1], [2], [3], [4], [5]]
    # both fault classes quarantined and reported
    kinds = {f.kind for f in result.failures}
    assert "crash" in kinds and "error" in kinds
    assert result.worker_crashes >= 1 and result.batch_retries >= 1
    # and both events visible through --metrics counters
    assert registry.value("pool.worker_crashes") >= 1
    assert registry.value("pool.poison_records") == 1
    assert registry.value("pool.crashed_records") == 1
    assert registry.value("pool.records_ok") == 6
    assert "quarantined" in result.describe()


@pytest.mark.fuzz_smoke
def test_pool_resilient_clean_run_matches_plain_pool():
    records = [json.dumps({"a": i}).encode() for i in range(10)]
    stream = RecordStream.from_records(records)
    result = run_records_pool_resilient("$.a", stream, n_workers=1, batch_size=4)
    assert result.ok and result.values == [[i] for i in range(10)]


@pytest.mark.fuzz_smoke
def test_pool_survives_worker_death_mid_submission(monkeypatch):
    """A batch can crash its worker before the pool has been handed every
    batch; ``submit`` then raises BrokenProcessPool, which must be
    handled like any other crash instead of escaping the run."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.parallel import real_pool

    submissions = []

    class DiesOnSecondSubmit(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submissions.append(1)
            if len(submissions) == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(real_pool, "ProcessPoolExecutor", DiesOnSecondSubmit)
    stream = RecordStream.from_records([json.dumps({"a": i}).encode() for i in range(6)])
    result = run_records_pool_resilient("$.a", stream, n_workers=2, batch_size=2, backoff=0)
    assert result.ok and result.values == [[i] for i in range(6)]


@pytest.mark.fuzz_smoke
def test_kill_resume_contract_on_hostile_corpus(tmp_path):
    """The checkpoint contract on a mutated (partly malformed) stream:
    interrupt anywhere, resume, byte-identical output and identical
    failure reports.  The soak-scale form is
    ``benchmarks/fuzz_soak.py --kill-resume``."""
    from repro.checkpoint import kill_resume_differential
    from repro.resilience import corpus

    mutations = corpus(BASE_RECORDS, 30, seed=5)
    stream = RecordStream.from_records([m.data for m in mutations])
    for interrupt_at in (0, 7, 16, len(stream) + 1):
        report = kill_resume_differential(
            "$.a.b", stream, interrupt_at=interrupt_at,
            workdir=tmp_path, checkpoint_every=4,
        )
        assert report.ok, report.describe()
