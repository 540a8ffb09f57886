"""Ablation A5: small-record size sensitivity.

Figure 11's margins are thinner than Figure 10's because every record
pays a fixed setup (for JSONSki, a stage-2 run over its window of the
stream's one index).  This sweep holds total bytes constant and varies
the record granularity by batching TT units per record, exposing the
per-record fixed cost of each engine.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import SIZE, print_experiment
from repro.data.datasets import record_stream
from repro.harness.runner import make_engine, time_run_records
from repro.stream.records import RecordStream


def _batched(stream: RecordStream, per_record: int) -> RecordStream:
    """Group ``per_record`` tweets into one array-rooted record."""
    records = []
    units = [stream.record(i) for i in range(len(stream))]
    for i in range(0, len(units), per_record):
        records.append(b"[" + b",".join(units[i : i + per_record]) + b"]")
    return RecordStream.from_records(records)


def test_record_size_sweep(benchmark):
    base = record_stream("TT", SIZE, seed=3)

    def measure():
        rows = []
        for per_record in (1, 4, 16, 64):
            stream = _batched(base, per_record)
            row = [f"{per_record} tweets/record ({stream.size // max(len(stream),1)}B avg)"]
            expected = None
            for method in ("jpstream", "jsonski"):
                engine = make_engine(method, "$[*].text")
                engine.run_records(stream)
                seconds, matches = time_run_records(engine, stream)
                if expected is None:
                    expected = len(matches)
                assert len(matches) == expected
                row.append(seconds)
            row.append(round(row[1] / row[2], 2))
            rows.append(row)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_experiment(("Ablation A5: record granularity (fixed total bytes)",
                      ["granularity", "JPStream", "JSONSki", "JSONSki gain"], rows))
    # JSONSki's advantage must grow with record size (fixed setup cost
    # amortizes); at the largest granularity it should be a clear win.
    gains = [row[3] for row in rows]
    assert gains[-1] > gains[0]
    assert gains[-1] > 1.5
