"""CLI tests (``python -m repro``)."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def record_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"place": {"name": "Manhattan"}, "tags": ["a", "b"], "n": 3}')
    return str(path)


@pytest.fixture()
def jsonl_file(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"a": 3}\n')
    return str(path)


def run_cli(argv, stdin: bytes | None = None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestBasics:
    def test_match_printed(self, record_file):
        code, out, _ = run_cli(["$.place.name", record_file])
        assert code == 0
        assert out.strip() == "Manhattan"

    def test_no_match_exit_1(self, record_file):
        code, out, _ = run_cli(["$.nope", record_file])
        assert code == 1
        assert out == ""

    def test_raw_output(self, record_file):
        code, out, _ = run_cli(["$.place.name", record_file, "--raw"])
        assert out.strip() == '"Manhattan"'

    def test_count(self, record_file):
        code, out, _ = run_cli(["$.tags[*]", record_file, "--count"])
        assert code == 0 and out.strip() == "2"

    def test_first(self, record_file):
        code, out, _ = run_cli(["$.tags[*]", record_file, "--first"])
        assert code == 0 and out.strip() == "a"

    def test_missing_file(self):
        code, _, err = run_cli(["$.a", "/does/not/exist.json"])
        assert code == 2 and "cannot read" in err

    def test_bad_query(self, record_file):
        code, _, err = run_cli(["$.a[", record_file])
        assert code == 2 and "error:" in err

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a": ')
        code, _, err = run_cli(["$.a.b", str(path)])
        assert code == 4

    @pytest.mark.parametrize("extra", [[], ["--paths"], ["--engine", "pison"]])
    def test_strict_jsonl_error_points_into_failing_record(self, tmp_path, extra):
        bad = b'{"a": 3, "b": [1,, }'
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b'{"b": [10]}\n{"b": [20, 21]}\n{"c": 1}\n' + bad + b'\n{"b": [5]}\n')
        code, _, err = run_cli(["$.b[*]", str(path), "--jsonl", *extra])
        assert code == 4
        message, snippet, caret = err.splitlines()
        assert message.startswith("error: record 3: ")
        position = int(message.rsplit("(at byte ", 1)[1].rstrip(")"))
        # The caret sits in the failing record's own bytes (an
        # end-of-record position points at its last byte).
        assert snippet == bad.decode()
        assert caret.index("^") == min(position, len(bad) - 1)


class TestModes:
    def test_jsonl(self, jsonl_file):
        code, out, _ = run_cli(["$.a", jsonl_file, "--jsonl"])
        assert code == 0
        assert out.split() == ["1", "3"]

    def test_engines_agree(self, record_file):
        results = {}
        for engine in ("jsonski", "jpstream", "rapidjson", "simdjson", "pison"):
            code, out, _ = run_cli(["$.tags[1]", record_file, "--engine", engine])
            results[engine] = (code, out)
        assert len(set(results.values())) == 1

    def test_stats_to_stderr(self, record_file):
        code, out, err = run_cli(["$.n", record_file, "--stats"])
        assert code == 0
        assert "fast-forwarded" in err
        assert "fast-forwarded" not in out

    def test_stats_requires_jsonski(self, record_file):
        code, _, err = run_cli(["$.n", record_file, "--stats", "--engine", "jpstream"])
        assert code == 2

    def test_paths(self, record_file):
        code, out, _ = run_cli(["$.tags[*]", record_file, "--paths"])
        lines = out.strip().splitlines()
        assert lines[0].startswith("$['tags'][0]\t")
        assert lines[1].startswith("$['tags'][1]\t")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestLoneSurrogate:
    """A decoded string may hold a lone surrogate, which has no UTF-8
    spelling.  Only a real process stdout encodes (a StringIO never
    does), so these run the CLI as a subprocess."""

    @pytest.mark.parametrize(
        "mode", [[], ["--jsonl"], ["--jsonl", "--lenient"], ["--engine", "stdlib"]]
    )
    def test_prints_replacement_character(self, tmp_path, mode):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a":"\\ud800x"}\n')
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "$.a", str(path), *mode],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("utf-8").splitlines() == ["\ufffdx"]
        assert b"Traceback" not in proc.stderr


class TestUndecodableMatch:
    def test_prints_source_slice(self, tmp_path):
        # The engine fast-forwards over the bad escape; the printer shows
        # the slice it matched instead of dying in the decoder.
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"a":"\\x"}\n')
        for mode in ([], ["--jsonl"], ["--jsonl", "--checkpoint", str(tmp_path / "ck")]):
            code, out, _ = run_cli(["$.a", str(path), *mode])
            assert (code, out) == (0, '"\\x"\n'), mode


class TestModeDifferential:
    """Every record mode prints a match through the same printer."""

    RECORDS = [
        b'{"v": "hello world"}',
        b'{"v": 1.50}',
        b'{"v": {"k": [1, 2], "s": "a b"}}',
        b'{"v": ',  # malformed: the stream ends inside the record
        b'{"v": true}',
        b'{"v": null}',
    ]
    SOURCE = ['"hello world"', "1.50", '{"k": [1, 2], "s": "a b"}', "true", "null"]
    SKIP_REPORT = (
        "5/6 records ok, 1 skipped\n"
        "  record 3: [error] JsonSyntaxError: stream ended before attribute value (at byte 6)\n"
    )

    @pytest.fixture()
    def feed(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(b"\n".join(self.RECORDS) + b"\n")
        return str(path)

    @pytest.fixture()
    def valid_feed(self, tmp_path):
        path = tmp_path / "valid.jsonl"
        path.write_bytes(b"\n".join(r for r in self.RECORDS if r != b'{"v": ') + b"\n")
        return str(path)

    @staticmethod
    def parsed(out: str) -> list:
        lines = out.splitlines()
        # Strings print bare; every other line is one JSON value.
        assert lines[0] == "hello world"
        return [lines[0]] + [json.loads(line) for line in lines[1:]]

    def test_lenient_and_checkpoint_agree(self, feed, tmp_path):
        expected = ["hello world", 1.5, {"k": [1, 2], "s": "a b"}, True, None]
        code, out, err = run_cli(["$.v", feed, "--jsonl", "--lenient"])
        assert code == 0 and err == self.SKIP_REPORT
        assert self.parsed(out) == expected
        code, out, err = run_cli(["$.v", feed, "--jsonl", "--checkpoint", str(tmp_path / "ck")])
        assert code == 0 and err == self.SKIP_REPORT
        assert self.parsed(out) == expected

    def test_strict_fails_on_malformed_and_agrees_on_valid(self, feed, valid_feed, tmp_path):
        code, _, err = run_cli(["$.v", feed, "--jsonl"])
        assert code == 4 and "error:" in err
        outputs = [
            run_cli(["$.v", valid_feed, "--jsonl"]),
            run_cli(["$.v", valid_feed, "--jsonl", "--lenient"]),
            run_cli(["$.v", valid_feed, "--jsonl", "--checkpoint", str(tmp_path / "ck")]),
        ]
        assert [code for code, _, _ in outputs] == [0, 0, 0]
        assert all(err == "" for _, _, err in outputs)
        values = [self.parsed(out) for _, out, _ in outputs]
        assert values[0] == values[1] == values[2]

    def test_raw_prints_source_with_and_without_checkpoint(self, feed, tmp_path):
        _, lenient, _ = run_cli(["$.v", feed, "--jsonl", "--lenient", "--raw"])
        _, checkpointed, _ = run_cli(
            ["$.v", feed, "--jsonl", "--checkpoint", str(tmp_path / "ck"), "--raw"]
        )
        assert lenient.splitlines() == checkpointed.splitlines() == self.SOURCE
