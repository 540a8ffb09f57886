"""The indexed input buffer shared by the streaming engines.

As in the paper's evaluation, inputs are preloaded into memory; streaming
refers to the *single forward pass* and the bounded auxiliary state (the
chunked structural index with a small LRU — see
:class:`repro.bits.index.BufferIndex`).

A record stream is one payload plus an offset array (paper Section 5.1),
and :class:`RecordWindows` indexes it that way: one stage-1 index over
the payload, with the string and depth state reset at every record
start, and each record a window ``[start, end)`` over it.
"""

from __future__ import annotations

import numpy as np

from repro.bits.classify import WHITESPACE
from repro.bits.index import DEFAULT_CHUNK_SIZE, BufferIndex
from repro.bits.posindex import NO_RESETS, PositionBufferIndex
from repro.bits.scanner import Scanner, VectorScanner, make_scanner

_WS = frozenset(WHITESPACE)

#: Chunk size of a record stream's index, and the chunks its LRU keeps.
#: Each chunk costs a fixed ~0.3 ms to build and index, and a built
#: chunk is resident at roughly 16 bytes per input byte; a forward pass
#: over a stream never revisits an evicted chunk, so two cached chunks
#: suffice.  Over the ten small-record feeds (2-core x86 host, best of
#: seven interleaved rounds) 32 KiB x 2 ran about 10% faster than
#: 16 KiB x 4 at the same resident size; 64 KiB x 2 was a few percent
#: faster again but held 1 MB more.
RECORD_CHUNK_SIZE = 32 << 10
RECORD_CACHE_CHUNKS = 2


class StreamBuffer:
    """JSON text plus its lazily-built structural index and scanner.

    Parameters mirror :class:`BufferIndex`; ``mode`` selects the scanner
    implementation (``'vector'`` default, ``'word'`` for the
    paper-faithful word-at-a-time mode).  ``resets`` (vector mode only)
    are record starts, passed through to
    :class:`~repro.bits.posindex.PositionBufferIndex`.

    ``start``/``end`` bound the bytes an engine streams: the whole
    buffer, or one record of it for a :meth:`window`.
    """

    def __init__(
        self,
        data: bytes | str,
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
        resets: np.ndarray = NO_RESETS,
    ) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self.data = data
        self.mode = mode
        # Vector mode reads only per-class positions, so it can use the
        # cheaper position-based index; word mode needs the mirrored word
        # bitmaps of Algorithm 3.
        if mode == "vector":
            self.index = PositionBufferIndex(
                data, chunk_size=chunk_size, cache_chunks=cache_chunks, resets=resets
            )
        else:
            self.index = BufferIndex(data, chunk_size=chunk_size, cache_chunks=cache_chunks)
        self.scanner: Scanner = make_scanner(self.index, mode)
        self.start = 0
        self.end = len(data)

    def window(self, start: int, end: int) -> "StreamBuffer":
        """Record ``[start, end)`` of this (vector) buffer as its own
        buffer: same bytes and index, a private window scanner.

        Engines stream only the window, and positions stay absolute in
        the shared data.  The index must reset its state at ``start``
        and at no position inside the window (see :class:`RecordWindows`).
        """
        view = object.__new__(StreamBuffer)
        view.data, view.mode, view.index = self.data, self.mode, self.index
        view.scanner = VectorScanner(self.index, start, end)
        view.start, view.end = start, end
        return view

    def __len__(self) -> int:
        return len(self.data)

    def byte_at(self, pos: int) -> int:
        """Byte value at ``pos`` (-1 past the end)."""
        return self.data[pos] if pos < len(self.data) else -1

    def skip_ws(self, pos: int) -> int:
        """First position at or after ``pos`` holding a non-whitespace byte.

        JSON whitespace between tokens is typically zero or one character
        in machine-generated data, so a byte loop suffices here; heavy
        indentation would make this the only character-at-a-time path in
        the engine.
        """
        data = self.data
        n = len(data)
        while pos < n and data[pos] in _WS:
            pos += 1
        return pos

    def slice(self, start: int, end: int) -> bytes:
        """Raw text of ``[start, end)``."""
        return self.data[start:end]

    def rstrip_ws(self, start: int, end: int) -> int:
        """End position of ``[start, end)`` after trimming trailing
        whitespace (used when capturing primitive match values)."""
        data = self.data
        while end > start and data[end - 1] in _WS:
            end -= 1
        return end


def as_stream_buffer(
    data,
    mode: str = "vector",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache_chunks: int | None = 4,
) -> StreamBuffer:
    """Coerce engine input to a :class:`StreamBuffer` — the one place all
    engines share.

    Accepts raw ``bytes``/``str`` (a fresh buffer is built with the given
    index parameters), an existing :class:`StreamBuffer` (used as-is, its
    already-built index intact), or anything carrying one in a ``buffer``
    attribute — i.e. a reusable
    :class:`~repro.engine.prepared.IndexedBuffer` (duck-typed here to
    keep this low-level module free of engine imports).
    """
    if isinstance(data, StreamBuffer):
        return data
    inner = getattr(data, "buffer", None)
    if isinstance(inner, StreamBuffer):
        return inner
    return StreamBuffer(data, mode=mode, chunk_size=chunk_size, cache_chunks=cache_chunks)


class RecordWindows:
    """A :class:`~repro.stream.records.RecordStream` whose records are
    windows over one stage-1 index of its payload.

    Drop-in for the stream in a record loop: ``len(view)`` and
    ``view.record(i)`` — which returns a :meth:`StreamBuffer.window`
    instead of the record's bytes.  The index (vector mode,
    :data:`RECORD_CHUNK_SIZE` chunks, a small LRU) is built on the first
    ``record()`` call and forward from there, chunk by chunk; building
    it resets string and depth state at every non-empty record start, so
    each window streams exactly as its bytes would alone.

    Offsets are read the way ``payload[start:end]`` slices them.  A
    record that holds another record's start strictly inside (an
    overlapping offset array) cannot share the index; ``record()``
    returns its own bytes instead, to be indexed alone.
    """

    def __init__(self, stream) -> None:
        self.stream = stream
        self._buffer: StreamBuffer | None = None
        self._bounds: list[tuple[int, int, bool]] = []

    def __len__(self) -> int:
        return len(self.stream)

    def _build(self) -> StreamBuffer:
        payload = self.stream.payload
        n = len(payload)
        offsets = self.stream.offsets
        starts, ends = (
            np.where(col < 0, np.maximum(col + n, 0), np.minimum(col, n))
            for col in (offsets[:, 0], offsets[:, 1])
        )
        ends = np.maximum(ends, starts)
        # Sorted unique starts of the non-empty records (np.unique would
        # pull in numpy.ma, a few MB of resident memory, on first call).
        resets = np.sort(starts[ends > starts])
        distinct = np.ones(resets.size, dtype=bool)
        distinct[1:] = resets[1:] != resets[:-1]
        resets = resets[distinct]
        following = np.append(resets, n)[np.searchsorted(resets, starts, side="right")]
        self._bounds = list(zip(starts.tolist(), ends.tolist(), (following >= ends).tolist()))
        buffer = self._buffer = StreamBuffer(
            payload, chunk_size=RECORD_CHUNK_SIZE, cache_chunks=RECORD_CACHE_CHUNKS, resets=resets
        )
        return buffer

    def record(self, i: int) -> StreamBuffer | bytes:
        buffer = self._buffer if self._buffer is not None else self._build()
        start, end, shared = self._bounds[i]
        return buffer.window(start, end) if shared else self.stream.record(i)
