"""Calls into the program's public entry points, plain and split by layer.

``plain_call`` is a workload's request exactly as a library caller makes
it.  ``traced_request`` makes the same request as separate layer calls
(``repro.compile``, ``repro.index(...).warm()``, ``PreparedQuery.run``,
``MatchList.to_jsonl``), each under its own span, so the traced run
can report every layer's time.
"""

from __future__ import annotations

import json
import time

import repro
from repro.engine.output import MatchList
from repro.engine.prepared import QUERY_CACHE
from repro.engine.stats import GROUPS

from measure import best_per_type

#: Span names of the library layers, in request order.
LAYERS = ("query.compile", "bits.stage1", "engine.stage2", "output.emit", "output.decode")


def plain_call(req: dict, data: dict, streams: dict, indexes: dict | None = None,
               engine: str = "jsonski"):
    """The request as a zero-argument callable returning its NDJSON output.

    A document request builds a fresh stage-1 index each time (cold, as
    for a library caller with new bytes) unless ``indexes`` holds one
    built once and reused, as the service does for ``json`` corpora.
    """
    query = req["query"]
    if req["kind"] == "feed":
        stream = streams[req["input"]]
        return lambda: repro.compile(query, engine=engine).run_records(stream).to_jsonl()
    doc = data[req["input"]]
    if engine != "jsonski":
        return lambda: repro.compile(query, engine=engine).run(doc).to_jsonl()
    if indexes is not None:
        indexed = indexes[req["input"]]
        return lambda: repro.compile(query).run(indexed).to_jsonl()
    return lambda: repro.compile(query).run(repro.index(doc)).to_jsonl()


def traced_request(spans, rid: int, req: dict, data: dict, streams: dict,
                   indexes: dict | None = None) -> tuple[bytes, int]:
    """One request as spanned layer calls; returns (output, chunks built).

    Records are indexed and run one by one, as ``run_records`` does.
    The eager decode that serve performs (``values()`` plus
    ``json.dumps`` per line) is spanned after the request, outside it.
    """
    chunks = 0
    with spans.span("request", rid):
        with spans.span("query.compile", rid):
            prepared = repro.compile(req["query"])
        if req["kind"] == "feed":
            stream = streams[req["input"]]
            lines = []
            matches = MatchList()
            for i in range(len(stream)):
                with spans.span("bits.stage1", rid):
                    indexed = repro.index(stream.record(i)).warm()
                with spans.span("engine.stage2", rid):
                    found = prepared.run(indexed)
                chunks += indexed.buffer.index.chunks_built
                matches.extend(found)
                lines.append(found)
        else:
            if indexes is not None:
                indexed = indexes[req["input"]]
            else:
                with spans.span("bits.stage1", rid):
                    indexed = repro.index(data[req["input"]]).warm()
                chunks = indexed.buffer.index.chunks_built
            with spans.span("engine.stage2", rid):
                matches = prepared.run(indexed)
            lines = [matches]
        with spans.span("output.emit", rid):
            out = matches.to_jsonl()
    with spans.span("output.decode", rid):
        for found in lines:
            json.dumps(found.values())
    return out, chunks


def ff_stats(req: dict, data: dict, streams: dict, indexes: dict | None = None) -> tuple[dict, int, int]:
    """Fast-forward counters of one request from ``last_stats`` of a
    ``collect_stats=True`` query: (skipped bytes per group, total bytes, matches)."""
    prepared = repro.compile(req["query"], collect_stats=True)
    if req["kind"] == "feed":
        matches = prepared.run_records(streams[req["input"]])
    else:
        indexed = indexes[req["input"]] if indexes is not None else repro.index(data[req["input"]]).warm()
        matches = prepared.run(indexed)
    stats = prepared.last_stats
    return {g: stats.chars[g] for g in GROUPS}, stats.total_length, len(matches)


def frame(payloads: list[bytes], repeats: int = 5) -> tuple[float, int]:
    """Best-of framing time (ms, summed over payloads) and records framed."""
    total, records = 0.0, 0
    for payload in payloads:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            stream = repro.RecordStream.from_jsonl(payload)
            times.append(time.perf_counter() - start)
        total += min(times)
        records += len(stream)
    return total * 1e3, records


def cache_counts() -> tuple[int, int]:
    stats = QUERY_CACHE.stats()
    return stats["hits"], stats["misses"]


def layer_metrics(spans, types: dict[int, str], requests: list[dict], data: dict, streams: dict,
                  chunks: dict[str, int], out_bytes: dict[str, int],
                  cache_delta: tuple[int, int], indexes: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one pass over ``requests`` from the spans.

    Each layer's time is the sum over request types of that type's
    fastest per-request layer time (the same best-of as end to end).
    ``chunks`` and ``out_bytes`` are per request type.
    """
    layer = {name: sum(best_per_type(spans.durations(name), types).values()) for name in LAYERS}
    records = sum(len(streams[r["input"]]) if r["kind"] == "feed" else 1 for r in requests)
    stage1_bytes = sum(len(data[r["input"]]) for r in requests
                       if r["kind"] == "feed" or indexes is None)
    skipped = dict.fromkeys(GROUPS, 0)
    total = matches = 0
    for req in requests:
        groups, length, found = ff_stats(req, data, streams, indexes)
        for g in GROUPS:
            skipped[g] += groups[g]
        total += length
        matches += found
    hits, misses = cache_delta
    metrics = {
        "query.compile_ms": layer["query.compile"] * 1e3,
        "query.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bits.stage1_ms": layer["bits.stage1"] * 1e3,
        "bits.stage1_mbps": stage1_bytes / 1e6 / layer["bits.stage1"] if layer["bits.stage1"] else 0.0,
        "bits.chunks_built": sum(chunks.values()),
        "bits.stage1_us_per_record": layer["bits.stage1"] * 1e6 / records,
        "engine.stage2_ms": layer["engine.stage2"] * 1e3,
        "engine.stage2_us_per_record": layer["engine.stage2"] * 1e6 / records,
        "engine.ff_ratio": sum(skipped.values()) / total if total else 0.0,
        **{f"engine.ff_ratio.{g}": skipped[g] / total if total else 0.0 for g in GROUPS},
        "engine.matches": matches,
        "output.emit_ms": layer["output.emit"] * 1e3,
        "output.decode_ms": layer["output.decode"] * 1e3,
        "output.bytes_out": sum(out_bytes.values()),
    }
    return metrics
