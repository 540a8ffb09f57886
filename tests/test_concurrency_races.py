"""Real-thread race regressions for the process-wide shared state.

These tests are the runtime counterpart of staticcheck RS013: they
hammer each shared structure from many threads with the interpreter's
switch interval cranked down (so the GIL hands over every ~15 µs instead
of every 5 ms) and assert no update is lost and no multi-field stat
tears.  Before the instruments grew locks, the counter test lost
thousands of increments per run — ``x += 1`` is a read, an add, and a
store, and the GIL is allowed to switch between any of them.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.engine.prepared as prepared_mod
from repro.observe.metrics import Counter, Histogram, MetricsRegistry
from repro.resilience.guards import Limits
from repro.serve.registry import CorpusRegistry
from repro.storage.metrics import storage_metrics

N_THREADS = 8
PER_THREAD = 2_000


@pytest.fixture(autouse=True)
def _tight_gil():
    """Make interleavings dense enough to surface within one CI run."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hammer(worker, n_threads: int = N_THREADS) -> None:
    """Run ``worker(thread_index)`` on every thread, started together."""
    barrier = threading.Barrier(n_threads)

    def run(index: int) -> None:
        barrier.wait()
        worker(index)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for future in [pool.submit(run, i) for i in range(n_threads)]:
            future.result()


class TestInstrumentRaces:
    def test_counter_add_loses_no_updates(self):
        counter = Counter("races.add")
        hammer(lambda i: [counter.add(1) for _ in range(PER_THREAD)])
        assert counter.value == N_THREADS * PER_THREAD

    def test_histogram_observe_stays_coherent(self):
        hist = Histogram("races.observe", bounds=(0.5, 1.5, 2.5))
        hammer(lambda i: [hist.observe(float(i % 4)) for _ in range(PER_THREAD)])
        total_observations = N_THREADS * PER_THREAD
        assert hist.count == total_observations
        # Torn stats would break these cross-field invariants even if
        # no single field lost an update.
        assert sum(hist.bucket_counts) == hist.count
        assert hist.min == 0.0 and hist.max == 3.0
        assert hist.total == pytest.approx(
            sum(float(i % 4) for i in range(N_THREADS)) * PER_THREAD
        )

    def test_registry_get_or_create_yields_one_instrument(self):
        # Single-shot, this race fires in only a few percent of runs
        # (pre-fix: ~2.5% of trials produced duplicate instruments, and
        # every add into the dropped duplicate vanished), so the trial
        # is repeated until the pre-fix failure probability is ~1.
        for _ in range(150):
            registry = MetricsRegistry()
            seen: list[Counter] = []
            lock = threading.Lock()

            def worker(i):
                counter = registry.counter("races.shared", route="query")
                with lock:
                    seen.append(counter)
                counter.add(10)

            hammer(worker)
            assert len(set(map(id, seen))) == 1, "get-or-create raced into duplicates"
            assert registry.value("races.shared", route="query") == N_THREADS * 10

    def test_registry_merge_from_many_threads(self):
        target = MetricsRegistry()

        def worker(i):
            local = MetricsRegistry()
            local.counter("races.merged").add(PER_THREAD)
            local.histogram("races.merged.hist", bounds=(1.0,)).observe(0.5)
            target.merge(local)

        hammer(worker)
        assert target.value("races.merged") == N_THREADS * PER_THREAD
        hist = target.histogram("races.merged.hist", bounds=(1.0,))
        assert hist.count == N_THREADS


class TestSharedRegistries:
    def test_storage_registry_from_many_threads(self):
        registry = storage_metrics()
        name = "races.storage.probe"
        before = registry.value(name)
        hammer(lambda i: [registry.counter(name).add(1) for _ in range(PER_THREAD)])
        assert registry.value(name) - before == N_THREADS * PER_THREAD

    def test_query_cache_concurrent_parse(self):
        cache = prepared_mod.QUERY_CACHE
        cache.clear()
        queries = [f"$.races[{i}].a" for i in range(16)]

        def worker(i):
            for _ in range(200):
                for query in queries:
                    path = cache.parse(query)
                    assert path.unparse()  # a real parsed object, never None

        hammer(worker)
        stats = cache.stats()
        # Exactly the distinct queries live in the cache; every lookup
        # was tallied (lost hit/miss updates would break the sum).
        assert stats["paths"] == len(queries)
        assert stats["hits"] + stats["misses"] == N_THREADS * 200 * len(queries)
        cache.clear()

    def test_corpus_warm_path_single_index(self):
        registry = CorpusRegistry()
        corpus = registry.register("doc", b'{"a": [1, 2, 3]}', format="json")
        indexes: list[object] = []
        lock = threading.Lock()

        def worker(i):
            prepared = registry.compile("$.a", engine="jsonski", limits=Limits())
            for _ in range(50):
                indexed = corpus.indexed(prepared)
                with lock:
                    indexes.append(indexed)

        hammer(worker)
        # Every thread, cold or warm, must see the same stage-1 index:
        # a duplicated build means the lock let two first-touches in.
        assert len(set(map(id, indexes))) == 1


class TestRecordWindowRaces:
    def test_window_runs_and_shared_index_runs_give_serial_results(self):
        # Each run_records call builds its own stream index; the windows
        # it hands out must not disturb (or be disturbed by) concurrent
        # stage-2 runs over one shared IndexedBuffer.
        import repro
        from repro.data.datasets import large_record, record_stream

        stream = record_stream("TT", 40_000, seed=5)
        document = repro.index(large_record("TT", 120_000, seed=5))
        record_queries = ("$.en.urls[*].url", "$.text")
        document_queries = ("$[*].en.urls[*].url", "$[*].text")
        expected = {
            q: repro.compile(q).run_records(stream).to_jsonl() for q in record_queries
        }
        expected.update({q: repro.compile(q).run(document).to_jsonl() for q in document_queries})
        results: dict[int, list[bytes]] = {}

        def worker(i):
            if i < 2:
                query = record_queries[i]
                outputs = [repro.compile(query).run_records(stream).to_jsonl() for _ in range(3)]
            else:
                query = document_queries[i % 2]
                outputs = [repro.compile(query).run(document).to_jsonl() for _ in range(3)]
            results[i] = [query, *outputs]

        hammer(worker, n_threads=4)
        for query, *outputs in results.values():
            assert outputs == [expected[query]] * 3, query
