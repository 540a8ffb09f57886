"""Harness internals: runner, tables, report rendering."""

from __future__ import annotations

from repro.harness.report import generate_markdown
from repro.harness.runner import Measurement, time_run_records
from repro.harness.tables import render_series, render_table
from repro.harness import experiments as exp


class TestTablesRendering:
    def test_column_alignment(self):
        out = render_table(["name", "v"], [["long-name-here", 1], ["x", 123456.0]])
        lines = out.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) <= 2  # header/sep/body aligned (trailing pad aside)

    def test_float_formats(self):
        out = render_table(["v"], [[0.00012345], [12.3456], [1234567.0], [0.0]])
        assert "0.0001234" in out or "0.0001235" in out
        assert "12.346" in out
        assert "1,234,567" in out

    def test_series_transposition(self):
        out = render_series("size", [1, 2], {"a": [10, 20], "b": [30, 40]})
        lines = out.splitlines()
        assert lines[0].split() == ["size", "a", "b"]
        assert lines[2].split() == ["1", "10", "30"]

    def test_title_line(self):
        out = render_table(["a"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"


class TestRunner:
    def test_measurement_holds_extras(self):
        m = Measurement("jsonski", "TT", "TT1", 0.5, 10, extra={"note": "x"})
        assert m.extra["note"] == "x"

    def test_time_run_records(self):
        from repro.harness.runner import make_engine
        from repro.stream.records import RecordStream

        stream = RecordStream.from_records([b'{"a": 1}'] * 5)
        seconds, matches = time_run_records(make_engine("jsonski", "$.a"), stream, repeat=2)
        assert seconds >= 0 and len(matches) == 5


class TestMarkdownReport:
    def test_structure(self):
        out = generate_markdown(25_000, workers=4, fast=True)
        assert out.startswith("# Measured results")
        assert out.count("## ") >= 11
        # every table has a separator row
        assert out.count("|---") >= 11

    def test_cells_escape_free_floats(self):
        out = generate_markdown(25_000, workers=4, fast=True)
        assert "e-" not in out.split("## Table 4")[1].split("##")[0]


class TestExperimentKnobs:
    def test_env_overrides(self, monkeypatch):
        # DEFAULT_SIZE is read at import; the functions accept explicit
        # sizes, which is what the benches rely on.
        title, _, rows = exp.exp_table5(20_000)
        assert "19.5KiB" in title
        assert len(rows) == 12

    def test_fig14_custom_sizes(self):
        _, headers, rows = exp.exp_fig14(sizes=(20_000, 40_000), simdjson_cap=10**9, repeat=1)
        assert len(rows) == 2
        assert all(row[3] != "cap" for row in rows)  # generous cap never bites

    def test_memory_engine_config(self):
        engine = exp._memory_engine("jsonski", "$.a")
        assert engine.chunk_size == exp.STREAM_CHUNK
        assert engine.cache_chunks == 2
        other = exp._memory_engine("pison", "$.a")
        assert type(other).__name__ == "PisonLike"


class TestPerfTrajectoryGates:
    @staticmethod
    def _module():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_trajectory.py"
        spec = importlib.util.spec_from_file_location("perf_trajectory_under_test", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_fig11_gate_requires_the_pison_ordering(self):
        pt = self._module()
        cells = {
            "TT1": {"vector_s": 1.0, "pison_s": 0.9, "ratio": 9.0},
            "BB1": {"vector_s": 1.0, "pison_s": 0.7, "ratio": 9.0},
        }
        record = {"geomean_ratio": 9.0, "queries": cells, "pison_aggregate": pt.pison_aggregate(cells)}
        assert record["pison_aggregate"] == 0.8
        failures = pt.check_record(11, record, tolerance=0.1)
        assert any("vs Pison" in failure for failure in failures)
        record["pison_aggregate"] = 1.25
        assert not any("vs Pison" in f for f in pt.check_record(11, record, tolerance=0.1))
