"""Corpus registration and per-request compile with shared artifacts.

The compile-once/run-many split for a *service*:

- **Per corpus (expensive, shared)** — the payload bytes, the strict and
  lenient :class:`~repro.stream.records.RecordStream` views, and for
  single-document corpora the stage-1
  :class:`~repro.engine.prepared.IndexedBuffer` (all chunks retained via
  ``cache_chunks=None``), keyed by engine mode so a second query over
  the same corpus pays zero index cost.
- **Per query text (cheap, shared)** — the parsed
  :class:`~repro.jsonpath.ast.Path` (``registry.compile`` accepts a
  pre-parsed ``Path``), cached in a small LRU.
- **Per request (cheap, private)** — the engine itself.  Engines bake
  ``limits=`` (the request's deadline) at construction and mutate
  ``last_stats`` per run, so a compiled engine is *never* shared across
  concurrent requests; compilation from a cached ``Path`` is
  microseconds against any real stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path as FsPath
from threading import Lock

from repro.engine import prepared as prepared_mod
from repro.engine.prepared import QUERY_CACHE_SIZE as QUERY_CACHE_SIZE  # re-export (compat)
from repro.engine.prepared import IndexedBuffer, PreparedQuery
from repro.errors import JsonPathSyntaxError, ReproError
from repro.jsonpath.ast import Path
from repro.serve.errors import BadRequestError, UnknownCorpusError
from repro.stream.buffer import RecordWindows
from repro.stream.records import RecordStream

FORMATS = ("jsonl", "json", "concatenated")


@dataclass
class Corpus:
    """One registered corpus and its shared, reusable artifacts."""

    name: str
    payload: bytes
    format: str = "jsonl"
    #: Strict record view (raises on malformed framing at registration).
    stream: RecordStream | None = None
    #: Lenient view: bad framing skipped, count recorded (DEGRADED mode).
    lenient_stream: RecordStream | None = None
    lenient_skipped: int = 0
    #: Directory for persistent structural-index sidecars; ``None``
    #: keeps indexes in-memory only (rebuilt per process).
    index_cache: FsPath | None = None
    #: ``mode`` -> stage-1 index for single-document corpora.
    _indexes: dict[str, IndexedBuffer] = field(default_factory=dict)
    _index_lock: Lock = field(default_factory=Lock)

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise BadRequestError(
                f"unknown corpus format {self.format!r} (expected one of {FORMATS})"
            )
        if self.format == "jsonl":
            self.stream = RecordStream.from_jsonl(self.payload)
            self.lenient_stream = self.stream
        elif self.format == "concatenated":
            self.stream = RecordStream.from_concatenated(self.payload)
            self.lenient_stream, self.lenient_skipped = (
                RecordStream.from_concatenated_lenient(self.payload)
            )
        else:  # "json": one document is a one-record stream
            self.stream = RecordStream(self.payload, [(0, len(self.payload))])
            self.lenient_stream = self.stream

    @property
    def records(self) -> int:
        return len(self.stream)

    # _IndexedDocument leads the union so RS012 follows record() into the
    # sidecar lock if a loop-side caller ever reads it.
    def records_for(
        self, mode: str, prepared: PreparedQuery | None = None
    ) -> _IndexedDocument | RecordWindows | RecordStream:
        """The record view a request running in ``mode`` should stream.

        Given the request's ``prepared`` engine, a ``json`` corpus's one
        record is its shared stage-1 index (:meth:`indexed`), resolved
        when the record is read — which may build the index or take the
        sidecar's flock and mmap, so read it on the executor.  A
        ``jsonl`` or ``concatenated`` corpus's records are the engine's
        :meth:`~repro.engine.jsonski.JsonSki.record_view`: for the vector
        engine, windows over one bounded index of the payload, built for
        this request by its first ``record()`` read — on the executor too.
        """
        if prepared is not None and self.format == "json":
            return _IndexedDocument(self, prepared)
        stream = self.lenient_stream if mode == "lenient" else self.stream
        return stream if prepared is None else prepared.record_view(stream)

    def indexed(self, prepared: PreparedQuery) -> IndexedBuffer:
        """The shared stage-1 index for a single-document corpus.

        Built on first use per engine mode and reused by every later
        query with a matching mode — this is the jXBW-style reusable
        structural index the service exists to amortize.

        With ``index_cache`` set, the index additionally persists as an
        mmap-shareable sidecar: the *next process* serving this corpus
        loads stage-1 arrays instead of rebuilding them (and concurrent
        processes share the mapped pages).  The sidecar path rides the
        durable-storage substrate (:mod:`repro.storage`): writes are
        atomic + fsync'd, concurrent processes racing a cold cache
        resolve to a single-flight build behind an advisory lock, and a
        corrupt sidecar is quarantined (``*.corrupt`` + reason note,
        counted in ``/metrics``) instead of silently rebuilt over.
        """
        mode = getattr(prepared, "mode", "vector")
        with self._index_lock:
            cached = self._indexes.get(mode)
            if cached is None:
                if self.index_cache is not None:
                    cached = prepared.index(self.payload, cache_dir=self.index_cache)
                else:
                    cached = prepared.index(self.payload)
                self._indexes[mode] = cached
            return cached


class _IndexedDocument:
    """A ``json`` corpus as a one-record stream for one engine."""

    def __init__(self, corpus: Corpus, prepared: PreparedQuery) -> None:
        self.corpus = corpus
        self.prepared = prepared

    def __len__(self) -> int:
        return 1

    def record(self, i: int) -> IndexedBuffer:
        return self.corpus.indexed(self.prepared)


class CorpusRegistry:
    """Named corpora + the shared compiled-query LRU (thread-safe).

    Query parsing delegates to the process-wide
    :data:`repro.engine.prepared.QUERY_CACHE`, so the service, the CLI
    and library callers in one process share a single LRU of parsed
    paths and compiled automata.  ``index_cache`` (a directory) makes
    every registered single-document corpus persist its stage-1 index
    as a sidecar (see :mod:`repro.engine.sidecar`).
    """

    def __init__(self, index_cache: str | FsPath | None = None) -> None:
        self._corpora: dict[str, Corpus] = {}
        self._lock = Lock()
        self.index_cache = FsPath(index_cache) if index_cache is not None else None

    # -- corpora ------------------------------------------------------

    def register(self, name: str, payload: bytes, format: str = "jsonl") -> Corpus:
        corpus = Corpus(name=name, payload=payload, format=format, index_cache=self.index_cache)
        with self._lock:
            self._corpora[name] = corpus
        return corpus

    def register_file(self, name: str, path: str | FsPath, format: str = "jsonl") -> Corpus:
        return self.register(name, FsPath(path).read_bytes(), format=format)

    def get(self, name: str) -> Corpus:
        with self._lock:
            corpus = self._corpora.get(name)
        if corpus is None:
            raise UnknownCorpusError(f"no corpus registered under {name!r}")
        return corpus

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._corpora)

    # -- queries ------------------------------------------------------

    def parse(self, query: str) -> Path:
        """Parse ``query`` through the shared LRU; syntax errors are 400s.

        Looked up through the module so a test that swaps
        ``repro.engine.prepared.QUERY_CACHE`` observes this path too.
        """
        try:
            return prepared_mod.QUERY_CACHE.parse(query)
        except JsonPathSyntaxError as exc:
            raise BadRequestError(f"bad query: {exc}") from exc

    def compile(self, query: str, engine: str, limits) -> PreparedQuery:
        """Per-request engine: cached parse, fresh construction.

        ``limits`` is mandatory here by design (and by RS003): every
        request must carry its own deadline into the engine.
        """
        from repro.registry import ENGINES, compile as compile_engine

        if engine not in ENGINES:
            raise BadRequestError(
                f"unknown engine {engine!r} (expected one of {sorted(ENGINES)})"
            )
        path = self.parse(query)
        try:
            return compile_engine(path, engine=engine, limits=limits)
        except ReproError as exc:
            raise BadRequestError(f"query not runnable on {engine!r}: {exc}") from exc
