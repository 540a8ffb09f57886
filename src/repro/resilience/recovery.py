"""Graceful degradation over record streams: skip, resync, report.

A multi-gigabyte feed with one truncated record should not lose the
other billion.  :func:`run_with_recovery` evaluates a query over a
:class:`~repro.stream.records.RecordStream` record by record; a record
that raises a :class:`~repro.errors.ReproError` is skipped and the run
*resynchronizes at the next record boundary* (the stream's offset array
— the reason the paper stores small-record input as payload + offsets
makes recovery structurally trivial).  The result carries the partial
matches plus a structured failure report instead of one raw traceback.

Payload-level resynchronization (when the boundaries themselves are
damaged) lives in
:meth:`repro.stream.records.RecordStream.from_concatenated_lenient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError, ResourceLimitError


@dataclass(frozen=True)
class RecordFailure:
    """One skipped record: where it was and why it failed.

    ``kind`` is ``"error"`` (malformed / guard-tripped input), or — from
    the resilient pool — ``"crash"`` / ``"timeout"`` for records
    quarantined because they repeatedly took a worker down with them.
    """

    index: int
    kind: str
    error: str
    message: str
    position: int | None = None

    @classmethod
    def from_exception(cls, index: int, exc: ReproError) -> "RecordFailure":
        return cls(
            index=index,
            kind="error",
            error=type(exc).__name__,
            message=str(exc),
            position=getattr(exc, "position", None),
        )

    def describe(self) -> str:
        # ReproError messages already end in "(at byte N)": append the
        # position only to a message that lacks it.
        where = ""
        if self.position is not None and f"(at byte {self.position})" not in self.message:
            where = f" at byte {self.position}"
        return f"record {self.index}: [{self.kind}] {self.error}: {self.message}{where}"

    def aborts(self, failures: int, max_failures: int | None) -> bool:
        """Whether this failure, the ``failures``-th of its run, ends the run.

        An expired deadline is a property of the whole run, not of one
        record; ``max_failures`` caps how many records a run may skip.
        """
        return self.error == "DeadlineExceededError" or (
            max_failures is not None and failures >= max_failures
        )


def run_record(engine, record, index: int, *, materialize: bool = True):
    """Run ``engine`` on one record: its values, or one :class:`RecordFailure`.

    This is the one per-record step of every record runner — the serial
    and checkpointed runners, the pool worker and the query service —
    and the whole per-record failure taxonomy lives here: a
    :class:`~repro.errors.ReproError` becomes
    :meth:`RecordFailure.from_exception`, and a ``ValueError`` (the
    engine tolerated a skip-region malformation, but the matched slice
    does not decode) becomes ``UndecodableMatch``.  ``index`` is the
    record's position in its stream, carried into the failure.

    ``materialize=False`` returns the lazy
    :class:`~repro.engine.output.MatchList` instead of decoded values;
    nothing decodes then, so ``UndecodableMatch`` cannot occur.
    """
    try:
        matches = engine.run(record)
        return matches.values() if materialize else matches
    except ReproError as exc:
        return RecordFailure.from_exception(index, exc)
    except ValueError as exc:
        return RecordFailure(index, "error", "UndecodableMatch", str(exc))


@dataclass
class RecoveryResult:
    """Partial results plus the failure report of one lenient run.

    ``values[i]`` is the list of matched values for record ``i``, or
    ``None`` when that record was skipped (its entry is in
    ``failures``).
    """

    values: list[list[Any] | None]
    failures: list[RecordFailure] = field(default_factory=list)
    #: :class:`repro.checkpoint.runs.CheckpointInfo` when the run was
    #: checkpointed (``checkpoint=`` was passed); ``None`` otherwise.
    checkpoint: Any | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def records_ok(self) -> int:
        return sum(1 for v in self.values if v is not None)

    def all_values(self) -> list[Any]:
        """Matched values across surviving records, in record order."""
        return [v for per_record in self.values if per_record is not None for v in per_record]

    def describe(self) -> str:
        header = f"{self.records_ok}/{len(self.values)} records ok, {len(self.failures)} skipped"
        return failure_report(header, self.failures)


def failure_report(header: str, failures: list[RecordFailure]) -> str:
    """Both record runners' ``describe()``: ``header``, then the first 20 failures."""
    lines = [header] + [f"  {failure.describe()}" for failure in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  ... and {len(failures) - 20} more")
    return "\n".join(lines)


def run_with_recovery(
    engine,
    stream,
    *,
    max_failures: int | None = None,
    metrics=None,
    checkpoint=None,
    checkpoint_every: int = 1000,
    resume: bool = False,
    emitter=None,
    stop=None,
    materialize: bool = True,
) -> RecoveryResult:
    """Evaluate ``engine`` over every record, surviving malformed ones.

    Each record that raises a :class:`ReproError` becomes a
    :class:`RecordFailure`; processing resumes at the next record
    boundary.  A :class:`~repro.errors.DeadlineExceededError` (the
    cooperative deadline is a property of the whole run, not of one
    record) and ``max_failures`` overruns abort the run early — the
    partial result still carries everything processed so far, with the
    aborting failure last.

    ``metrics`` receives ``stream.records_ok`` / ``stream.records_skipped``
    counters (per failure class, via the ``error`` label).

    ``checkpoint`` (a path or :class:`~repro.checkpoint.CheckpointStore`)
    makes the run resumable: progress is committed every
    ``checkpoint_every`` records, ``resume=True`` skips the completed
    prefix of an interrupted run, ``emitter`` receives match values
    exactly once across kill/resume cycles, and ``stop`` (called with the
    next record index) requests a clean early exit.  See
    :func:`repro.checkpoint.runs.checkpointed_recovery`.

    ``engine`` may also be query text (or a parsed
    :class:`~repro.jsonpath.ast.Path`), which is compiled through the
    registry into a :class:`~repro.engine.prepared.PreparedQuery` — the
    recommended spelling for new code.

    ``materialize=False`` returns each record's lazy
    :class:`~repro.engine.output.MatchList` in ``values`` instead of
    decoded lists (and, with a checkpoint, stages/emits raw byte ranges)
    — zero ``json.loads`` unless a consumer touches a value.  The
    ``UndecodableMatch`` failure class disappears in this mode, since
    nothing decodes the matched slices.
    """
    from repro.jsonpath.ast import Path

    if isinstance(engine, (str, Path)):
        from repro.registry import compile as compile_engine

        engine = compile_engine(engine)

    if checkpoint is not None:
        from repro.checkpoint.runs import checkpointed_recovery

        return checkpointed_recovery(
            engine,
            stream,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
            emitter=emitter,
            stop=stop,
            max_failures=max_failures,
            metrics=metrics,
            materialize=materialize,
        )

    values: list[list[Any] | None] = []
    failures: list[RecordFailure] = []
    aborted = False
    records = engine.record_view(stream)
    for i in range(len(records)):
        if aborted:
            values.append(None)
            continue
        item = run_record(engine, records.record(i), i, materialize=materialize)
        if isinstance(item, RecordFailure):
            failures.append(item)
            values.append(None)
            if metrics is not None:
                metrics.counter("stream.records_skipped", error=item.error).add(1)
            aborted = item.aborts(len(failures), max_failures)
        else:
            values.append(item)
    if metrics is not None:
        metrics.counter("stream.records_ok").add(
            sum(1 for v in values if v is not None)
        )
    return RecoveryResult(values=values, failures=failures)


__all__ = [
    "RecordFailure",
    "RecoveryResult",
    "run_record",
    "run_with_recovery",
    "ResourceLimitError",
]
