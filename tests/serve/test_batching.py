"""Micro-batching admission queue: coalescing, fallback, counters.

Batching is work-conserving, so these tests decide flush boundaries by
holding the analysis worker (an engine blocked on a
:class:`threading.Event`) and by same-tick scheduling, never by
wall-clock thresholds.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.batching import MicroBatcher
from repro.serve.registry import SchemaRegistry
from repro.storage import open_store

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("//author", "delete //editor"),
    ("/bib/book", "delete //price"),
    ("//title", "delete //editor"),
    ("//last", "delete //first"),
]


def _counting_registry(store=None) -> tuple[SchemaRegistry, list]:
    """A registry whose bib engine counts its analyze_matrix calls."""
    registry = SchemaRegistry(store=store)
    engine = registry.engine("bib")
    calls: list[tuple[int, int]] = []
    original = engine.analyze_matrix

    def counting(queries, updates, **kwargs):
        queries = list(queries)
        updates = list(updates)
        calls.append((len(queries), len(updates)))
        return original(queries, updates, **kwargs)

    engine.analyze_matrix = counting
    return registry, calls


def _held_registry() -> tuple[SchemaRegistry, threading.Event,
                              threading.Event]:
    """A registry whose bib engine blocks every batch call until
    ``release`` is set; ``entered`` is set once a call is blocked."""
    registry = SchemaRegistry()
    engine = registry.engine("bib")
    entered, release = threading.Event(), threading.Event()
    for name in ("analyze_matrix", "analyze_many"):
        def held(*args, _original=getattr(engine, name), **kwargs):
            entered.set()
            assert release.wait(10), "the test never released the worker"
            return _original(*args, **kwargs)

        setattr(engine, name, held)
    return registry, entered, release


def _flush_sizes(batcher: MicroBatcher) -> list[int]:
    """Record the number of entries of every flush, in flush order."""
    sizes: list[int] = []
    original = batcher._analyze_batch

    def recording(engine, entries, k):
        sizes.append(len(entries))
        return original(engine, entries, k)

    batcher._analyze_batch = recording
    return sizes


async def _hold_worker(batcher: MicroBatcher, entered: threading.Event
                       ) -> asyncio.Task:
    """Start one lone request and return once its flush is blocked on
    the analysis worker."""
    first = asyncio.ensure_future(
        batcher.submit("bib", "//title", "delete //price")
    )
    assert await asyncio.to_thread(entered.wait, 10)
    return first


class TestCoalescing:
    def test_concurrent_requests_one_matrix_call(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry)
            try:
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            finally:
                batcher.close()
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        assert len(calls) == 1, "N concurrent requests must coalesce"
        assert batcher.batches == 1
        assert batcher.coalesced_requests == len(PAIRS) - 1
        assert batcher.requests == len(PAIRS)
        # The flush deduplicates: 5 distinct queries x 3 distinct updates.
        assert calls[0] == (5, 3)
        # Verdicts equal the engine's own per-pair answers.
        engine = _counting_registry()[0].engine("bib")
        for (query, update), verdict in zip(PAIRS, verdicts):
            report = engine.analyze_pair(query, update,
                                         collect_witnesses=False)
            assert verdict.independent == report.independent
            assert (verdict.k, verdict.k_query, verdict.k_update) == \
                (report.k, report.k_query, report.k_update)

    def test_sequential_requests_do_not_coalesce(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry)
            try:
                for query, update in PAIRS[:3]:
                    await batcher.submit("bib", query, update)
            finally:
                batcher.close()
            return calls, batcher

        calls, batcher = asyncio.run(run())
        assert len(calls) == 3
        assert batcher.coalesced_requests == 0

    def test_distinct_k_groups_flush_separately(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry)
            try:
                await asyncio.gather(
                    batcher.submit("bib", "//title", "delete //price"),
                    batcher.submit("bib", "//title", "delete //price",
                                   k=5),
                )
            finally:
                batcher.close()
            return calls, batcher

        calls, batcher = asyncio.run(run())
        assert len(calls) == 2
        assert batcher.coalesced_requests == 0

    def test_lone_submit_needs_no_timer(self):
        # An idle worker takes a lone request on the next loop turn: no
        # timer is ever scheduled on the event loop.
        loop = asyncio.new_event_loop()
        timers = []
        call_at = loop.call_at

        def spy(when, callback, *args, **kwargs):
            timers.append(callback)
            return call_at(when, callback, *args, **kwargs)

        loop.call_at = spy
        registry, _ = _counting_registry()
        batcher = MicroBatcher(registry)
        try:
            verdict = loop.run_until_complete(
                batcher.submit("bib", "//title", "delete //price")
            )
        finally:
            batcher.close()
            loop.close()
        assert verdict.independent is not None
        assert timers == []
        assert batcher.batches == 1

    def test_arrivals_during_a_flush_coalesce_into_the_next(self):
        async def run():
            registry, entered, release = _held_registry()
            batcher = MicroBatcher(registry)
            sizes = _flush_sizes(batcher)
            try:
                first = await _hold_worker(batcher, entered)
                followers = [
                    asyncio.ensure_future(batcher.submit("bib", q, u))
                    for q, u in PAIRS
                ]
                await asyncio.sleep(0)   # every follower joins a group
                assert sizes == [1], "the followers must wait"
                release.set()
                await asyncio.gather(first, *followers)
            finally:
                release.set()
                batcher.close()
            return sizes, batcher

        sizes, batcher = asyncio.run(run())
        assert sizes == [1, len(PAIRS)]
        assert batcher.batches == 2
        assert batcher.coalesced_requests == len(PAIRS) - 1

    def test_max_batch_enforced_under_a_burst(self):
        # A same-tick burst beyond max_batch must split into several
        # batches: a full group closes to later submits.
        burst = [(f"//{tag}", "delete //price")
                 for tag in ("title", "price", "author", "editor",
                             "last", "first")] + PAIRS[:4]

        async def run():
            registry, _ = _counting_registry()
            batcher = MicroBatcher(registry, max_batch=3)
            sizes = _flush_sizes(batcher)
            try:
                await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in burst
                ))
            finally:
                batcher.close()
            return sizes, batcher

        sizes, batcher = asyncio.run(run())
        assert sizes == [3, 3, 3, 1]
        assert batcher.max_batch_size == 3
        assert batcher.batches == 4

    def test_max_batch_flushes_early(self):
        # While the worker is held, a group that reaches max_batch
        # closes: the next arrivals open a second queued group rather
        # than growing the first past the bound.
        async def run():
            registry, entered, release = _held_registry()
            batcher = MicroBatcher(registry, max_batch=3)
            sizes = _flush_sizes(batcher)
            try:
                first = await _hold_worker(batcher, entered)
                followers = [
                    asyncio.ensure_future(batcher.submit("bib", q, u))
                    for q, u in PAIRS[:5]
                ]
                await asyncio.sleep(0)
                release.set()
                await asyncio.gather(first, *followers)
            finally:
                release.set()
                batcher.close()
            return sizes, batcher

        sizes, batcher = asyncio.run(run())
        assert sizes == [1, 3, 2]
        assert batcher.batches == 3

    def test_drain_completes_groups_queued_behind_a_flush(self):
        async def run():
            registry, entered, release = _held_registry()
            batcher = MicroBatcher(registry)
            sizes = _flush_sizes(batcher)
            try:
                first = await _hold_worker(batcher, entered)
                # Two more groups queue behind the held flush, one per
                # (digest, k) key.
                queued = [
                    asyncio.ensure_future(batcher.submit("bib", q, u))
                    for q, u in PAIRS[:3]
                ] + [
                    asyncio.ensure_future(
                        batcher.submit("bib", q, u, k=5))
                    for q, u in PAIRS[3:]
                ]
                draining = asyncio.ensure_future(batcher.drain())
                await asyncio.sleep(0)
                assert not draining.done()
                release.set()
                await draining
                flushed = list(sizes)
                await asyncio.gather(first, *queued)
            finally:
                release.set()
                batcher.close()
            return flushed, batcher

        flushed, batcher = asyncio.run(run())
        assert flushed == [1, 3, len(PAIRS) - 3]
        assert batcher.batches == 3

    def test_sparse_batch_skips_the_cross_product(self, tmp_path):
        # Five requests pairing five distinct queries with five distinct
        # updates diagonally: the full grid would be 25 analyses for 5
        # answers (> MATRIX_DENSITY_LIMIT x), so the flush must analyze
        # exactly the requested pairs instead.
        tags = ["title", "price", "author", "editor", "last"]
        sparse_pairs = [
            (f"//{tag}", f"delete //{other}")
            for tag, other in zip(tags, tags[1:] + tags[:1])
        ]

        async def run():
            backend = open_store(f"sqlite:///{tmp_path / 'v.sqlite'}")
            store = backend.verdicts
            registry, calls = _counting_registry(store=store)
            batcher = MicroBatcher(registry)
            try:
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in sparse_pairs
                ))
            finally:
                batcher.close()
            count = store.count()
            backend.close()
            return verdicts, calls, batcher, count

        verdicts, calls, batcher, count = asyncio.run(run())
        assert calls == [], "sparse batch must not call analyze_matrix"
        assert batcher.batches == 1
        assert batcher.sparse_batches == 1
        assert count == len(sparse_pairs)   # only requested pairs stored
        engine = _counting_registry()[0].engine("bib")
        for (query, update), verdict in zip(sparse_pairs, verdicts):
            report = engine.analyze_pair(query, update,
                                         collect_witnesses=False)
            assert verdict.independent == report.independent

    @pytest.mark.parametrize("diagonal", [
        [("//title", "delete //price"), ("//price", "delete //editor")],
        [("//title", "delete //price"), ("//price", "delete //editor"),
         ("//author", "delete //first")],
    ], ids=["2x2", "3x3"])
    def test_small_diagonal_stores_only_requested_pairs(self, tmp_path,
                                                         diagonal):
        # A few concurrent requests over distinct queries x distinct
        # updates share no expression: the grid would analyze (and
        # persist) n^2 verdicts for n answers, however small n is.
        async def run():
            backend = open_store(f"sqlite:///{tmp_path / 'v.sqlite'}")
            store = backend.verdicts
            registry, calls = _counting_registry(store=store)
            batcher = MicroBatcher(registry)
            try:
                await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in diagonal
                ))
            finally:
                batcher.close()
            count = store.count()
            backend.close()
            return calls, batcher, count

        calls, batcher, count = asyncio.run(run())
        assert batcher.batches == 1
        assert calls == []
        assert count == len(diagonal)

    @pytest.mark.parametrize("shape,grid", [
        ((1, 1, 1), True),      # a lone request
        ((1, 5, 5), True),      # one view x an update stream
        ((5, 1, 5), True),
        ((2, 2, 4), True),      # every cell requested
        ((5, 3, 6), True),      # recurring expressions, dense enough
        ((2, 2, 2), False),     # a pure diagonal
        ((5, 5, 5), False),
        ((3, 2, 3), False),     # too few pairs to share an expression
        ((9, 9, 10), False),    # 81 cells for 10 answers
    ])
    def test_density_rule(self, shape, grid):
        assert MicroBatcher.use_grid(*shape) is grid

    def test_group_commit_wraps_flush(self, tmp_path):

        async def run():
            backend = open_store(f"sqlite:///{tmp_path / 'v.sqlite'}")
            store = backend.verdicts
            registry, calls = _counting_registry(store=store)
            batcher = MicroBatcher(registry)
            try:
                await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            finally:
                batcher.close()
            count = store.count()
            backend.close()
            return count, calls

        count, calls = asyncio.run(run())
        assert calls == [(5, 3)]
        assert count == 15  # the whole deduplicated grid persisted


class TestFallback:
    def test_bad_expression_only_fails_its_own_request(self):
        async def run():
            registry, _ = _counting_registry()
            batcher = MicroBatcher(registry)
            try:
                results = await asyncio.gather(
                    batcher.submit("bib", "//title", "delete //price"),
                    batcher.submit("bib", "///", "delete //price"),
                    return_exceptions=True,
                )
            finally:
                batcher.close()
            return results, batcher

        results, batcher = asyncio.run(run())
        good, bad = results
        assert good.independent is not None
        assert isinstance(bad, Exception)
        assert batcher.fallback_singles >= 1

    def test_disabled_batcher_serves_directly(self):
        async def run():
            registry, calls = _counting_registry()
            batcher = MicroBatcher(registry, enabled=False)
            try:
                verdicts = await asyncio.gather(*(
                    batcher.submit("bib", query, update)
                    for query, update in PAIRS
                ))
            finally:
                batcher.close()
            return verdicts, calls, batcher

        verdicts, calls, batcher = asyncio.run(run())
        assert calls == []          # no matrix path at all
        assert batcher.batches == 0
        assert len(verdicts) == len(PAIRS)

    def test_stats_shape(self):
        registry, _ = _counting_registry()
        batcher = MicroBatcher(registry, max_batch=7)
        stats = batcher.stats()
        batcher.close()
        assert stats["enabled"] is True
        assert stats["max_batch"] == 7
        assert "window_seconds" not in stats
        assert stats["requests"] == 0


@pytest.mark.parametrize("query,update", PAIRS[:2])
def test_wire_verdict_round_trip(query, update):
    async def run():
        registry, _ = _counting_registry()
        batcher = MicroBatcher(registry)
        try:
            return await batcher.submit("bib", query, update)
        finally:
            batcher.close()

    verdict = asyncio.run(run())
    payload = verdict.as_dict()
    assert set(payload) == {"independent", "k", "k_query", "k_update"}
