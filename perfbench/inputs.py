"""Deterministic, fingerprinted inputs and the fixed request list of each workload.

Every input is a pure function of ``(dataset, seed)``: the per-dataset
random stream is seeded from ``crc32(f"{name}/{seed}")``, never from the
salted built-in ``hash()``, so two processes given the same seed write
byte-identical files.  The dataset framing follows
``repro.data.datasets``: root keys, the NSPL ``mt`` metadata block, and
NSPL small records wrapped as ``{"dt": ...}`` (without that framing
NSPL1 and NSPL2 would match nothing).
"""

from __future__ import annotations

import json
import random
import zlib
from pathlib import Path

from repro.data.datasets import DATASETS, _nspl_meta

#: One large document per dataset (paper Fig. 10 shape).
DOC_BYTES = 2_000_000
#: One NDJSON feed per dataset, records of 0.5-4 KB (paper Fig. 11 shape).
FEED_BYTES = 400_000

WORKLOADS = ("doc-scan", "record-feed", "http-query")

#: http-query corpora: name -> (dataset, serve format).
HTTP_CORPORA = {
    "tt_feed": ("TT", "jsonl"),
    "bb_feed": ("BB", "jsonl"),
    "tt_doc": ("TT", "json"),
    "gmd_doc": ("GMD", "json"),
}
#: http-query request list: (query id, corpus).
HTTP_REQUESTS = (
    ("TT1", "tt_feed"), ("TT2", "tt_feed"), ("BB1", "bb_feed"), ("BB2", "bb_feed"),
    ("TT1", "tt_doc"), ("TT2", "tt_doc"), ("GMD1", "gmd_doc"), ("GMD2", "gmd_doc"),
)


def _units(name: str, target: int, seed: int) -> list[bytes]:
    spec = DATASETS[name]
    rng = random.Random(zlib.crc32(f"{name}/{seed}".encode()))
    units: list[bytes] = []
    total = 0
    while total < target:
        unit = spec.unit(rng, len(units))
        units.append(json.dumps(unit, separators=(",", ":")).encode())
        total += len(units[-1]) + 1
    return units


def document(name: str, seed: int) -> bytes:
    """One large record of about ``DOC_BYTES``, framed like ``large_record``."""
    units = _units(name, DOC_BYTES, seed)
    body = b",".join(units)
    if name == "NSPL":
        meta = json.dumps(_nspl_meta(random.Random(seed)), separators=(",", ":")).encode()
        return b'{"mt":' + meta + b',"dt":[' + body + b"]}"
    root_key = DATASETS[name].root_key
    if root_key is not None:
        return b'{"%s":[' % root_key.encode() + body + b'],"total":%d}' % len(units)
    return b"[" + body + b"]"


def feed(name: str, seed: int) -> bytes:
    """The same kind of units as NDJSON records of about ``FEED_BYTES`` in all."""
    units = _units(name, FEED_BYTES, seed)
    if name == "NSPL":
        units = [b'{"dt":' + unit + b"}" for unit in units]
    return b"\n".join(units) + b"\n"


def fingerprint(data: bytes) -> dict:
    return {"bytes": len(data), "crc32": f"{zlib.crc32(data):08x}"}


def build_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan.

    The plan names every input file with its fingerprint and lists the
    requests in the fixed order every round repeats.  ``pass_bytes`` is
    the input size of one pass over the list (throughput's numerator).
    """
    inputs: dict[str, dict] = {}
    requests: list[dict] = []

    def add_input(file: str, make) -> None:
        if file not in inputs:
            data = make()
            (work / file).write_bytes(data)
            inputs[file] = fingerprint(data)

    if workload == "doc-scan":
        for name, spec in DATASETS.items():
            file = f"doc-{name}.json"
            add_input(file, lambda: document(name, seed))
            for q in spec.queries:
                requests.append({"key": q.qid, "query": q.large, "input": file, "kind": "doc"})
    elif workload == "record-feed":
        for name, spec in DATASETS.items():
            for q in spec.queries:
                if q.small is None:
                    continue
                file = f"feed-{name}.jsonl"
                add_input(file, lambda: feed(name, seed))
                requests.append({"key": q.qid, "query": q.small, "input": file, "kind": "feed"})
    elif workload == "http-query":
        for qid, corpus in HTTP_REQUESTS:
            name, fmt = HTTP_CORPORA[corpus]
            q = next(q for q in DATASETS[name].queries if q.qid == qid)
            kind = "feed" if fmt == "jsonl" else "doc"
            file = f"{corpus}.{fmt}"
            add_input(file, lambda: (feed if kind == "feed" else document)(name, seed))
            requests.append({
                "key": f"{qid}@{corpus}", "query": q.small if kind == "feed" else q.large,
                "input": file, "kind": kind, "corpus": corpus, "format": fmt,
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    pass_bytes = sum(inputs[r["input"]]["bytes"] for r in requests)
    combined = zlib.crc32(json.dumps(inputs, sort_keys=True).encode())
    return {
        "workload": workload, "seed": seed, "inputs": inputs, "requests": requests,
        "pass_bytes": pass_bytes, "fingerprint": f"{combined:08x}",
    }
