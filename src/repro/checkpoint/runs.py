"""Record-granularity checkpointing for streaming runs.

The record runners (:func:`repro.resilience.run_with_recovery`, serial,
and :func:`repro.parallel.run_records_pool_resilient`, multi-process)
gain a durable cursor here: every ``checkpoint_every`` records the run
commits

- the **cursor** (index of the next unprocessed record),
- the **emitted-match count** and, when an emitter is attached, the
  **output offset** the emitted bytes end at,
- the **failure report** accumulated so far, and
- a **metrics snapshot** (:meth:`MetricsRegistry.as_dict`),

to a :class:`~repro.checkpoint.store.CheckpointStore`.  A resumed run
validates the checkpoint against the stream (record count, payload
length, sampled CRC32) and the query, skips the completed prefix, and —
this is the exactly-once part — **defers emission to commit points**:
match values are buffered between checkpoints and written to the emitter
immediately *before* the checkpoint that covers them is saved, so the
persisted ``output_offset`` always equals the bytes actually flushed.
On resume a seekable emitter is truncated back to that offset, erasing
any partially-emitted tail from the crash window; the concatenation of
output across any number of kill/resume cycles is byte-identical to an
uninterrupted run's output.

What is *not* persisted: per-record match values (the output stream or
the caller's own sink owns them — persisting them would make every
checkpoint O(matches so far)), engine-internal caches, and wall-clock
history.  See ``docs/robustness.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.checkpoint.store import CheckpointStore, as_store, fingerprint
from repro.engine.output import encode_line
from repro.errors import CheckpointError, ConfigurationError

#: ``kind`` tags distinguishing checkpoint flavours; resuming a run with
#: a checkpoint of a different kind is an error, not a silent restart.
RECOVERY_KIND = "records/recovery"
POOL_KIND = "records/pool"
SUSPEND_KIND = "record/suspend"


@dataclass(frozen=True)
class CheckpointInfo:
    """How checkpointing went for one run (``result.checkpoint``)."""

    resumed_at: int  #: cursor restored from a checkpoint (0 = fresh start)
    checkpoints_written: int
    interrupted: bool  #: the ``stop`` callable ended the run early
    completed: bool  #: every record was processed (or the run aborted)
    emitted: int = 0  #: total matches emitted, *including* pre-resume work


class JsonlEmitter:
    """Match-value emitter writing one JSON value per line.

    ``handle`` must be a binary file object; when it is seekable the
    emitter supports :meth:`truncate_to` and resumed runs are
    exactly-once.  A non-seekable sink (a pipe, stdout) still works, but
    a crash in the narrow window between emission and the covering
    checkpoint re-emits that window's matches on resume (at-least-once).
    """

    def __init__(self, handle) -> None:
        self.handle = handle
        try:
            self._seekable = handle.seekable()
        except (AttributeError, OSError):
            self._seekable = False

    def emit(self, index: int, values: list[Any]) -> None:
        """Write one line per value, as :func:`~repro.engine.output.encode_line` spells it."""
        self.handle.write(b"".join(encode_line(value) + b"\n" for value in values))

    def flush(self) -> None:
        self.handle.flush()

    def tell(self) -> int | None:
        return self.handle.tell() if self._seekable else None

    def truncate_to(self, offset: int) -> None:
        if not self._seekable:
            raise CheckpointError("cannot truncate a non-seekable output")
        self.handle.seek(offset)
        self.handle.truncate(offset)


def stream_fingerprint(stream) -> dict:
    """Cheap identity of a :class:`~repro.stream.records.RecordStream`."""
    return {
        "records": len(stream),
        "payload_len": stream.size,
        "crc": fingerprint(stream.payload),
    }


class _Window:
    """A contiguous slice of a RecordStream (what the pool runner sees)."""

    def __init__(self, stream, start: int, stop: int) -> None:
        self.stream = stream
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def record(self, i: int) -> bytes:
        return self.stream.record(self.start + i)


class _Checkpointer:
    """Shared restore/commit machinery for both record runners."""

    def __init__(
        self,
        kind: str,
        store: CheckpointStore,
        stream,
        query: str | None,
        emitter,
        metrics,
        resume: bool,
    ) -> None:
        self.kind = kind
        self.store = store
        self.stream_id = stream_fingerprint(stream)
        self.query = query
        self.emitter = emitter
        self.metrics = metrics
        self.cursor = 0
        self.emitted = 0
        self.failures: list = []
        self.extra: dict = {}
        self.resumed_at = 0
        self.written = 0
        self.done = False
        self.aborted = False
        #: (index, values) pairs awaiting the next commit.
        self._pending: list[tuple[int, list]] = []
        if resume:
            self._restore()
        else:
            store.clear()

    def _restore(self) -> None:
        from repro.resilience.recovery import RecordFailure

        record = self.store.load_latest()
        if record is None:
            return  # nothing to resume from: fresh start
        payload = record.payload
        if payload.get("kind") != self.kind:
            raise CheckpointError(
                f"checkpoint {record.path} is a {payload.get('kind')!r} "
                f"checkpoint, not {self.kind!r}"
            )
        if payload.get("stream") != self.stream_id:
            raise CheckpointError(
                f"checkpoint {record.path} was written for a different "
                f"stream ({payload.get('stream')} vs {self.stream_id})"
            )
        if self.query is not None and payload.get("query") not in (None, self.query):
            raise CheckpointError(
                f"checkpoint {record.path} was written for query "
                f"{payload.get('query')!r}, not {self.query!r}"
            )
        self.cursor = self.resumed_at = int(payload["cursor"])
        self.emitted = int(payload.get("emitted", 0))
        self.done = bool(payload.get("done", False))
        self.aborted = bool(payload.get("aborted", False))
        self.extra = dict(payload.get("extra", {}))
        self.failures = [
            RecordFailure(
                index=f["index"], kind=f["kind"], error=f["error"],
                message=f["message"], position=f.get("position"),
            )
            for f in payload.get("failures", ())
        ]
        if self.metrics is not None and payload.get("metrics") is not None:
            self.metrics.merge_dict(payload["metrics"])
        offset = payload.get("output_offset")
        if self.emitter is not None and offset is not None:
            truncate = getattr(self.emitter, "truncate_to", None)
            if truncate is not None:
                truncate(offset)
            # No truncate support: the sink keeps whatever the crashed
            # process wrote past the checkpoint (at-least-once).

    def stage(self, index: int, values: list | None) -> None:
        """Queue one record's match values for the next commit."""
        if values:
            self._pending.append((index, values))
            self.emitted += len(values)

    def commit(self) -> None:
        """Emit everything staged, then persist a covering checkpoint."""
        emitter = self.emitter
        offset = None
        if emitter is not None:
            for index, values in self._pending:
                emitter.emit(index, values)
            emitter.flush()
            tell = getattr(emitter, "tell", None)
            offset = tell() if tell is not None else None
        self._pending.clear()
        payload = {
            "kind": self.kind,
            "query": self.query,
            "stream": self.stream_id,
            "cursor": self.cursor,
            "emitted": self.emitted,
            "output_offset": offset,
            "failures": [
                {
                    "index": f.index, "kind": f.kind, "error": f.error,
                    "message": f.message, "position": f.position,
                }
                for f in self.failures
            ],
            "metrics": self.metrics.as_dict() if self.metrics is not None else None,
            "extra": self.extra,
            "aborted": self.aborted,
            "done": self.done,
        }
        self.store.save(payload)
        self.written += 1

    def info(self, interrupted: bool) -> CheckpointInfo:
        return CheckpointInfo(
            resumed_at=self.resumed_at,
            checkpoints_written=self.written,
            interrupted=interrupted,
            completed=self.done,
            emitted=self.emitted,
        )


def checkpointed_recovery(
    engine,
    stream,
    *,
    checkpoint: CheckpointStore | str,
    checkpoint_every: int = 1000,
    resume: bool = False,
    emitter=None,
    stop: Callable[[int], bool] | None = None,
    max_failures: int | None = None,
    metrics=None,
    query: str | None = None,
    materialize: bool = True,
):
    """:func:`~repro.resilience.run_with_recovery` with a durable cursor.

    Identical per-record semantics (skip-and-report on
    :class:`~repro.errors.ReproError`, abort on deadline or
    ``max_failures``), plus a checkpoint every ``checkpoint_every``
    records and at every exit path.  ``stop`` is consulted at each record
    boundary with the next cursor; returning truthy commits a final
    checkpoint and returns early (``result.checkpoint.interrupted``).

    Returns a :class:`~repro.resilience.recovery.RecoveryResult` whose
    ``values`` cover only records processed *this session* — entries for
    records completed before a resume are ``None`` (their output already
    lives in the emitter's sink); ``result.checkpoint.resumed_at`` marks
    the boundary.

    ``materialize=False`` keeps the run zero-parse end to end: each
    ``values`` entry is the record's lazy
    :class:`~repro.engine.output.MatchList`, staged matches are byte
    ranges, and the emitter splices raw slices instead of re-encoding
    parsed values.  Exactly-once is unchanged — pending lazy matches are
    plain ranges over the input, so nothing parse-dependent sits in the
    crash window — but undecodable match slices are no longer diagnosed
    (nothing decodes them); leave the default when you need the
    ``UndecodableMatch`` failure class.
    """
    from repro.resilience.recovery import RecordFailure, RecoveryResult, run_record

    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be at least 1")
    if query is None:
        # Engines keep their parsed Path; record its canonical text so a
        # resume against a different query is rejected, not silently mixed.
        path = getattr(engine, "path", None)
        query = path.unparse() if hasattr(path, "unparse") else None
    ck = _Checkpointer(
        RECOVERY_KIND, as_store(checkpoint), stream, query, emitter, metrics, resume
    )
    n = len(stream)
    values: list[list | None] = [None] * n
    interrupted = False
    records = engine.record_view(stream)
    if not ck.done:
        since_commit = 0
        while ck.cursor < n:
            i = ck.cursor
            if stop is not None and stop(i):
                interrupted = True
                break
            item = run_record(engine, records.record(i), i, materialize=materialize)
            if isinstance(item, RecordFailure):
                ck.failures.append(item)
                ck.aborted = item.aborts(len(ck.failures), max_failures)
                if metrics is not None:
                    metrics.counter("stream.records_skipped", error=item.error).add(1)
            else:
                # Lazy views go straight to the emitter, spliced raw.
                values[i] = item
                ck.stage(i, item if materialize else list(item))
            ck.cursor = i + 1
            since_commit += 1
            if ck.aborted:
                break
            if since_commit >= checkpoint_every:
                ck.commit()
                since_commit = 0
        if ck.cursor >= n or ck.aborted:
            ck.done = True
        if metrics is not None:
            metrics.counter("stream.records_ok").add(
                sum(1 for v in values if v is not None)
            )
        ck.commit()
    result = RecoveryResult(values=values, failures=list(ck.failures))
    result.checkpoint = ck.info(interrupted)
    return result


def checkpointed_pool(
    query: str,
    stream,
    *,
    checkpoint: CheckpointStore | str,
    checkpoint_every: int = 1000,
    resume: bool = False,
    emitter=None,
    stop: Callable[[int], bool] | None = None,
    n_workers: int = 2,
    batch_size: int = 64,
    max_retries: int = 2,
    timeout: float | None = None,
    backoff: float = 0.05,
    backoff_jitter: float = 1.0,
    backoff_rng=None,
    metrics=None,
    inject_faults: bool = False,
    limits=None,
):
    """:func:`~repro.parallel.run_records_pool_resilient` with a durable cursor.

    The stream is processed in segments of ``checkpoint_every`` records;
    each segment runs through the fault-tolerant pool, then its failures
    (re-indexed to absolute record numbers), match values, and pool
    counters are committed.  ``stop`` is consulted between segments —
    segment granularity is the pool's natural commit unit, since records
    within a segment complete out of order across workers.

    ``limits`` with an already-expired absolute deadline fails fast with
    :class:`~repro.errors.DeadlineExceededError` before any segment (and
    before restoring a checkpoint) — a resumed run must convert its
    remaining budget into a *fresh* deadline rather than inherit an
    expired one; see :meth:`repro.resilience.Limits.remaining`.
    """
    from repro.parallel.real_pool import (
        PoolResult,
        check_dispatch_deadline,
        run_records_pool_resilient,
    )
    from repro.resilience.recovery import RecordFailure

    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be at least 1")
    check_dispatch_deadline(limits)
    ck = _Checkpointer(
        POOL_KIND, as_store(checkpoint), stream, query, emitter, metrics, resume
    )
    n = len(stream)
    result = PoolResult(values=[None] * n)
    result.worker_crashes = int(ck.extra.get("worker_crashes", 0))
    result.batch_retries = int(ck.extra.get("batch_retries", 0))
    result.failures = list(ck.failures)
    interrupted = False
    if not ck.done:
        while ck.cursor < n:
            if stop is not None and stop(ck.cursor):
                interrupted = True
                break
            window = _Window(stream, ck.cursor, min(n, ck.cursor + checkpoint_every))
            segment = run_records_pool_resilient(
                query,
                window,
                n_workers=n_workers,
                batch_size=batch_size,
                max_retries=max_retries,
                timeout=timeout,
                backoff=backoff,
                backoff_jitter=backoff_jitter,
                backoff_rng=backoff_rng,
                metrics=metrics,
                inject_faults=inject_faults,
                limits=limits,
            )
            for offset, per_record in enumerate(segment.values):
                idx = window.start + offset
                result.values[idx] = per_record
                ck.stage(idx, per_record)
            for failure in segment.failures:
                ck.failures.append(replace(failure, index=failure.index + window.start))
            result.worker_crashes += segment.worker_crashes
            result.batch_retries += segment.batch_retries
            ck.cursor = window.stop
            ck.extra = {
                "worker_crashes": result.worker_crashes,
                "batch_retries": result.batch_retries,
            }
            ck.commit()
        if ck.cursor >= n:
            ck.done = True
            ck.commit()
    result.failures = list(ck.failures)
    result.checkpoint = ck.info(interrupted)
    return result
