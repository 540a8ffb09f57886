"""Tests for the position-based index (vector-mode fast path).

The defining property: for every chunk and every class, the position
lists must be *identical* to those derived from the word-bitmap index —
the two are alternative materializations of the same structural facts.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex
from repro.bits.posindex import PositionBufferIndex, build_position_chunk
from repro.bits.strings import StringCarry

_JSONISH = st.binary(max_size=400)
_DENSE = st.lists(st.sampled_from(list(b'ab"\\ {}[]:,')), max_size=400).map(bytes)

_CLASSES = [cls for cls in CharClass if cls is not CharClass.BACKSLASH]


class TestBuildPositionChunk:
    def test_simple_record(self):
        chunk = build_position_chunk(b'{"a": [1, 2]}', 0)
        assert list(chunk.positions_list(CharClass.LBRACE)) == [0]
        assert list(chunk.positions_list(CharClass.COLON)) == [4]
        assert list(chunk.positions_list(CharClass.COMMA)) == [8]
        assert list(chunk.positions_list(CharClass.QUOTE)) == [1, 3]

    def test_string_filtering(self):
        chunk = build_position_chunk(b'{"x": "a{b,c}"}', 0)
        assert list(chunk.positions_list(CharClass.LBRACE)) == [0]
        assert list(chunk.positions_list(CharClass.COMMA)) == []

    def test_escaped_quote(self):
        chunk = build_position_chunk(b'"a\\"b" {', 0)
        assert list(chunk.positions_list(CharClass.QUOTE)) == [0, 5]
        assert list(chunk.positions_list(CharClass.LBRACE)) == [7]

    def test_carry_in_escape(self):
        # Previous chunk ended with an odd backslash run: the first quote
        # here is escaped and must not open a string.
        chunk = build_position_chunk(b'"x{', 0, StringCarry(escape=1, in_string=1))
        assert list(chunk.positions_list(CharClass.QUOTE)) == []
        assert list(chunk.positions_list(CharClass.LBRACE)) == []  # still in string

    def test_carry_in_string(self):
        chunk = build_position_chunk(b'x" {', 0, StringCarry(escape=0, in_string=1))
        assert list(chunk.positions_list(CharClass.LBRACE)) == [3]
        assert chunk.carry_out.in_string == 0

    def test_offsets_are_absolute(self):
        chunk = build_position_chunk(b"{}", 500)
        assert list(chunk.positions_list(CharClass.ANY)) == [500, 501]

    def test_empty(self):
        chunk = build_position_chunk(b"", 0, StringCarry(1, 1))
        assert list(chunk.positions_list(CharClass.ANY)) == []
        assert chunk.carry_out == StringCarry(1, 1)


class TestEquivalenceWithWordIndex:
    @given(_DENSE, st.sampled_from([64, 128, 256]))
    def test_dense_metachar_soup(self, data, chunk_size):
        self._check(data, chunk_size)

    @given(_JSONISH)
    def test_arbitrary_bytes(self, data):
        self._check(data, 64)

    @staticmethod
    def _check(data: bytes, chunk_size: int) -> None:
        wi = BufferIndex(data, chunk_size=chunk_size, cache_chunks=None)
        pi = PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None)
        assert wi.n_chunks == pi.n_chunks
        for cid in range(wi.n_chunks):
            wc, pc = wi.get(cid), pi.get(cid)
            assert wc.carry_out == pc.carry_out, (cid, data)
            for cls in _CLASSES:
                assert list(wc.positions_list(cls)) == list(pc.positions_list(cls)), (cid, cls, data)


class TestSingleDecode:
    """Regression: ``positions()`` used to re-filter the keep array on
    every call — one decode per class per chunk is the contract (the
    two-stage story depends on stage-1 artifacts being built once)."""

    DATA = b'{"a": [1, 2], "b": {"c": [3]}}'

    def test_positions_decodes_once(self):
        import numpy as np

        chunk = build_position_chunk(self.DATA, 0)
        counter = {"eq": 0}

        class Counting(np.ndarray):
            def __eq__(self, other):  # each decode compares keep_vals once per byte value
                counter["eq"] += 1
                return np.ndarray.__eq__(self, other)

        chunk.keep_vals = chunk.keep_vals.view(Counting)
        for _ in range(5):
            chunk.positions(CharClass.COLON)
        assert counter["eq"] == 1, f"COLON decoded {counter['eq']} times"

    def test_positions_and_lists_are_memoized(self):
        chunk = build_position_chunk(self.DATA, 0)
        for cls in (CharClass.COMMA, CharClass.LBRACE, CharClass.OPEN):
            assert chunk.positions(cls) is chunk.positions(cls)
            assert chunk.positions_list(cls) is chunk.positions_list(cls)
        assert chunk.depth_tables() is chunk.depth_tables()

    def test_memoized_positions_still_correct(self):
        chunk = build_position_chunk(self.DATA, 0)
        first = list(chunk.positions_list(CharClass.COMMA))
        again = list(chunk.positions_list(CharClass.COMMA))
        assert first == again == [8, 12]


class TestRecordResets:
    """An index over a record stream resets string and depth state at
    every record start: inside each record's window its positions,
    quotes and depths are exactly those of the record indexed alone —
    whatever the record before it left open (a string, an escape, a
    brace)."""

    @given(
        st.lists(_DENSE.map(lambda b: b[:60]), min_size=1, max_size=8),
        st.sampled_from([b"", b"\n", b" \\"]),
        st.sampled_from([64, 128, 256]),
    )
    # Each state a record can leave behind, at the next record's start.
    @example([b"ab\\", b'"{"'], b"", 64)  # an odd backslash run, then a quote
    @example([b"a\\", b'\\"{'], b"", 64)  # a backslash run across the start
    @example([b"a" * 63 + b"\\", b'"{"'], b"", 64)  # ... across a chunk boundary too
    @example([b'"abc', b'{"a": [1]}'], b"\n", 64)  # an unterminated string
    @example([b"{{[", b"}]"], b"", 64)  # unbalanced braces and brackets
    def test_windows_see_each_record_alone(self, records, separator, chunk_size):
        import numpy as np

        from repro.stream.records import RecordStream

        stream = RecordStream.from_records(records, separator=separator)
        bounds = [(int(s), int(e)) for s, e in stream.offsets]
        resets = np.unique([s for s, e in bounds if e > s]).astype(np.int64)
        shared = PositionBufferIndex(stream.payload, chunk_size=chunk_size, cache_chunks=2, resets=resets)
        for (start, end), record in zip(bounds, records):
            alone = PositionBufferIndex(record, chunk_size=chunk_size, cache_chunks=None)
            assert self._facts(shared, start, end) == self._facts(alone, 0, len(record)), (records, start)

    @staticmethod
    def _facts(index, lo, hi):
        keep, quotes, pairs = [], [], []
        for cid in range(index.n_chunks):
            chunk = index.get(cid)
            tables = chunk.depth_tables()
            keep += [
                (p - lo, v, d)
                for p, v, d in zip(chunk.keep.tolist(), chunk.keep_vals.tolist(), tables.after)
                if lo <= p < hi
            ]
            quotes += [q - lo for q in chunk.quotes.tolist() if lo <= q < hi]
            for pair in (tables.brace, tables.bracket):
                pairs += [(p - lo, a) for p, a in zip(pair.events, pair.after) if lo <= p < hi]
        return keep, quotes, sorted(pairs)
