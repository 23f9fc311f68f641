"""Oracle-equivalence harness for the memsys array fast paths.

Every test drives the same input through the vectorized entry point
(``RowBufferSim.run``, ``replay_caches`` and its one-cache case
``DramCache.run_trace``/``access_many``,
``MemoryManager.run_batch``/``epoch_array``) and through the retained
scalar per-unit reference (``RowBufferSim.access``,
``DramCache.access``, ``MemoryManager.epoch``) and requires identical
results: exact for integral counters, placements, and LRU orders,
``rtol=1e-9`` for the few float outputs (hit rates, fractions).
"""

from __future__ import annotations

import copy
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys.dramcache import DramCache, replay_caches
from repro.memsys.manager import (
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryManager,
)
from repro.memsys.rowbuffer import RowBufferSim

RTOL = 1e-9

# Capacity (bytes), page/row size, associativity grid for the caches.
DRAM_GEOMETRIES = [
    (1 << 20, 256, 1),
    (1 << 20, 1024, 2),
    (4 << 20, 4096, 8),
    (64 << 20, 4096, 16),
]

ROWBUFFER_GEOMETRIES = [
    # (n_banks, row_bytes, interleave)
    (1, 1024, 256),
    (8, 512, 64),
    (128, 1024, 256),
    (16, 4096, 1024),
]


def _random_stream(rng, n, span):
    return rng.integers(0, span, size=n)


def rowbuffer_reference(sim, addresses):
    """The scalar reference for ``RowBufferSim.run``: one
    ``access`` per address."""
    for address in np.asarray(addresses, dtype=np.int64).tolist():
        sim.access(address)
    return sim.stats


def dramcache_reference(cache, addresses, writes=None):
    """The scalar reference for ``DramCache.run_trace``: one
    ``access`` per address."""
    addresses = np.asarray(addresses, dtype=np.int64).tolist()
    if writes is None:
        writes = [False] * len(addresses)
    for address, is_write in zip(addresses, np.asarray(writes).tolist()):
        cache.access(address, is_write)
    return cache.stats


def _streams(rng, n=4000):
    """The equivalence stream grid: random spans plus degenerate cases."""
    return {
        "dense": _random_stream(rng, n, 1 << 16),
        "sparse": _random_stream(rng, n, 1 << 30),
        "single-address": np.zeros(n // 4, dtype=np.int64),
        "sequential": np.arange(n, dtype=np.int64) * 64,
        "empty": np.zeros(0, dtype=np.int64),
    }


# ----------------------------------------------------------------------
# RowBufferSim
# ----------------------------------------------------------------------
class TestRowBufferOracle:
    @pytest.mark.parametrize("geometry", ROWBUFFER_GEOMETRIES)
    def test_equivalence_grid(self, geometry):
        n_banks, row_bytes, interleave = geometry
        rng = np.random.default_rng(1234)
        for name, stream in _streams(rng).items():
            a = RowBufferSim(n_banks, row_bytes, interleave)
            b = RowBufferSim(n_banks, row_bytes, interleave)
            sa = a.run(stream)
            sb = rowbuffer_reference(b, stream)
            assert astuple(sa) == astuple(sb), name
            assert np.array_equal(a._open_row, b._open_row), name
            assert a._last_bank == b._last_bank, name
            assert sa.hit_rate == pytest.approx(sb.hit_rate, rel=RTOL)

    def test_single_bank_stream(self):
        """All accesses land in one bank: every miss after the first to
        an open row is a bank conflict."""
        a = RowBufferSim(n_banks=1, row_bytes=64)
        b = RowBufferSim(n_banks=1, row_bytes=64)
        stream = np.array([0, 0, 64, 64, 128, 0], dtype=np.int64)
        assert astuple(a.run(stream)) == astuple(
            rowbuffer_reference(b, stream)
        )
        assert a.stats.bank_conflicts == b.stats.bank_conflicts > 0

    def test_all_hits_stream(self):
        sim = RowBufferSim(n_banks=4, row_bytes=1024)
        sim.run(np.zeros(100, dtype=np.int64))
        assert sim.stats.hits == 99
        assert sim.stats.misses == 1

    def test_all_misses_stream(self):
        # Stride of a full row group: every access opens a new row in
        # bank 0.
        sim = RowBufferSim(
            n_banks=4, row_bytes=1024, channel_interleave_bytes=256
        )
        stride = 1024 * 4
        sim.run(np.arange(64, dtype=np.int64) * stride)
        assert sim.stats.hits == 0
        assert sim.stats.misses == 64

    def test_chunked_state_carry(self):
        """Array chunks and scalar replay agree across chunk seams."""
        rng = np.random.default_rng(7)
        stream = _random_stream(rng, 3000, 1 << 22)
        a = RowBufferSim()
        b = RowBufferSim()
        for chunk in np.array_split(stream, 7):
            a.run(chunk)
        rowbuffer_reference(b, stream)
        assert astuple(a.stats) == astuple(b.stats)
        assert np.array_equal(a._open_row, b._open_row)

    def test_negative_address_rejected(self):
        sim = RowBufferSim()
        with pytest.raises(ValueError):
            sim.run(np.array([-1], dtype=np.int64))
        with pytest.raises(ValueError):
            sim.access(-1)


# ----------------------------------------------------------------------
# DramCache
# ----------------------------------------------------------------------
class TestDramCacheOracle:
    @pytest.mark.parametrize("geometry", DRAM_GEOMETRIES)
    def test_equivalence_grid(self, geometry):
        capacity, page, assoc = geometry
        rng = np.random.default_rng(99)
        for name, stream in _streams(rng).items():
            writes = rng.random(len(stream)) < 0.3
            a = DramCache(capacity, page, assoc)
            b = DramCache(capacity, page, assoc)
            flags = a.run_trace(stream, writes)
            dramcache_reference(b, stream, writes)
            assert astuple(a.stats) == astuple(b.stats), name
            assert flags.hits + flags.misses == len(stream)
            # LRU state must match per set, *including order*.
            assert set(a._sets) == set(b._sets), name
            for s, ways in a._sets.items():
                assert list(ways.items()) == list(b._sets[s].items()), name
            assert a.stats.hit_rate == pytest.approx(
                b.stats.hit_rate, rel=RTOL
            )

    def test_hit_flags_match_scalar(self):
        rng = np.random.default_rng(5)
        stream = _random_stream(rng, 2000, 1 << 20)
        writes = rng.random(2000) < 0.5
        a = DramCache(1 << 18, 1024, 4)
        b = DramCache(1 << 18, 1024, 4)
        flags = a.access_many(stream, writes)
        expected = np.array(
            [b.access(int(x), bool(w)) for x, w in zip(stream, writes)],
            dtype=bool,
        )
        assert np.array_equal(flags, expected)

    def test_interleaved_scalar_and_batched(self):
        """The two entry points share LRU state."""
        rng = np.random.default_rng(17)
        a = DramCache(1 << 18, 1024, 4)
        b = DramCache(1 << 18, 1024, 4)
        for _ in range(10):
            chunk = _random_stream(rng, 200, 1 << 20)
            writes = rng.random(200) < 0.3
            a.access_many(chunk, writes)
            for x, w in zip(chunk.tolist(), writes.tolist()):
                b.access(x, w)
            probe = int(chunk[0])
            assert a.access(probe, True) == b.access(probe, True)
        assert astuple(a.stats) == astuple(b.stats)

    def test_all_hits_stream(self):
        cache = DramCache(1 << 20, 4096, 8)
        stream = np.zeros(50, dtype=np.int64)
        cache.run_trace(stream)
        assert cache.stats.hits == 49
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0

    def test_all_misses_stream_with_writebacks(self):
        # Two-way set 0 thrashed by three pages: every access misses
        # and every eviction of a written page writes back.
        page = 1024
        cache = DramCache(2 * page, page, 2)  # a single 2-way set
        assert cache.n_sets == 1
        stream = np.array([0, page, 2 * page] * 10, dtype=np.int64)
        writes = np.ones(len(stream), dtype=bool)
        oracle = DramCache(2 * page, page, 2)
        cache.run_trace(stream, writes)
        dramcache_reference(oracle, stream, writes)
        assert astuple(cache.stats) == astuple(oracle.stats)
        assert cache.stats.hits == 0
        assert cache.stats.writebacks == cache.stats.evictions > 0

    def test_empty_stream(self):
        cache = DramCache()
        flags = cache.access_many(np.zeros(0, dtype=np.int64))
        assert flags.size == 0
        assert cache.stats.accesses == 0

    def test_negative_address_rejected(self):
        cache = DramCache()
        with pytest.raises(ValueError):
            cache.access_many(np.array([-4], dtype=np.int64))

    def test_writes_length_mismatch_rejected(self):
        cache = DramCache()
        with pytest.raises(ValueError):
            cache.access_many(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool)
            )

    def test_occupancy_bounded(self):
        rng = np.random.default_rng(3)
        cache = DramCache(1 << 16, 1024, 2)
        cache.access_many(_random_stream(rng, 5000, 1 << 26))
        assert cache.resident_pages <= cache.n_sets * cache.associativity
        for ways in cache._sets.values():
            assert len(ways) <= cache.associativity

    def test_reuse_gap_at_associativity_boundary(self):
        """A reuse after ``associativity - 1`` other pages of the set
        hits; after ``associativity`` distinct others it misses."""
        page, assoc = 1024, 4
        pages = [0, 1, 2, 3, 0, 4, 5, 6, 7, 0]
        stream = np.array(pages, dtype=np.int64) * page
        cache = DramCache(assoc * page, page, assoc)  # a single set
        oracle = DramCache(assoc * page, page, assoc)
        flags = cache.access_many(stream)
        expected = [oracle.access(int(x)) for x in stream]
        assert flags.tolist() == expected
        assert flags[4] and not flags[9]
        _assert_same_dram_state(cache, oracle)

    def test_long_windows_with_few_distinct_pages(self):
        """One thrashed set whose long reuse windows repeat fewer than
        ``associativity`` distinct pages: those reuses hit, which only
        the exact distinct-page count can tell."""
        rng = np.random.default_rng(11)
        page, assoc = 256, 4
        cache = DramCache(64 * assoc * page, page, assoc)
        oracle = DramCache(64 * assoc * page, page, assoc)
        set_stride = cache.n_sets * page  # same set, next tag
        bursts = []
        for _ in range(60):
            pool = rng.choice(12, size=assoc - 1, replace=False)
            bursts.append(rng.choice(pool, size=rng.integers(assoc, 40)))
            bursts.append(pool[:1])
        tags = np.concatenate(bursts)
        stream = tags * set_stride + rng.integers(0, page, tags.size)
        writes = rng.random(tags.size) < 0.2
        flags = cache.access_many(stream, writes)
        expected = [
            oracle.access(int(x), bool(w)) for x, w in zip(stream, writes)
        ]
        assert flags.tolist() == expected
        assert astuple(cache.stats) == astuple(oracle.stats)
        _assert_same_dram_state(cache, oracle)
        # Some hits come after a reuse gap of at least `assoc`.
        last_seen, long_hits = {}, 0
        for i, (tag, hit) in enumerate(zip(tags.tolist(), expected)):
            if hit and i - last_seen[tag] - 1 >= assoc:
                long_hits += 1
            last_seen[tag] = i
        assert long_hits > 0

    def test_set_and_tag_keys_beyond_16_bits(self):
        """Set indices and tags of 2**16 and more (keys too wide for
        the narrowed radix sort)."""
        rng = np.random.default_rng(23)
        page, assoc = 64, 2
        capacity = (1 << 17) * assoc * page
        cache = DramCache(capacity, page, assoc)
        oracle = DramCache(capacity, page, assoc)
        sets = rng.choice([70_000, 90_001, 131_071, 5], size=3000)
        tags = rng.choice([0, 1, 65_536, 1 << 20, (1 << 20) + 3], size=3000)
        stream = (tags * cache.n_sets + sets) * page
        assert stream.max() // page // cache.n_sets >= 1 << 16
        writes = rng.random(3000) < 0.4
        flags = cache.access_many(stream, writes)
        expected = [
            oracle.access(int(x), bool(w)) for x, w in zip(stream, writes)
        ]
        assert flags.tolist() == expected
        assert astuple(cache.stats) == astuple(oracle.stats)
        _assert_same_dram_state(cache, oracle)

    def test_chunked_writebacks_cross_chunks(self):
        """Lines dirtied in one access_many call are written back when a
        later call evicts them."""
        page = 1024
        cache = DramCache(2 * page, page, 2)  # a single 2-way set
        cache.access_many(np.array([0, page]), np.array([True, False]))
        assert astuple(cache.stats) == (0, 2, 0, 0)
        cache.access_many(np.array([2 * page, 3 * page]))
        assert astuple(cache.stats) == (0, 4, 2, 1)

        rng = np.random.default_rng(31)
        stream = _random_stream(rng, 6000, 1 << 22)
        writes = rng.random(6000) < 0.3
        a = DramCache(1 << 18, 1024, 4)
        b = DramCache(1 << 18, 1024, 4)
        flags = np.concatenate([
            a.access_many(chunk, w)
            for chunk, w in zip(np.array_split(stream, 9),
                                np.array_split(writes, 9))
        ])
        dramcache_reference(b, stream, writes)
        assert flags.sum() == b.stats.hits
        assert astuple(a.stats) == astuple(b.stats)
        _assert_same_dram_state(a, b)

    @pytest.mark.parametrize("scalar_first", [True, False])
    def test_scalar_and_batched_in_both_orders(self, scalar_first):
        rng = np.random.default_rng(41)
        a = DramCache(1 << 16, 1024, 4)
        b = DramCache(1 << 16, 1024, 4)
        for round_ in range(6):
            chunk = _random_stream(rng, 300, 1 << 19)
            writes = rng.random(300) < 0.3
            expected = [
                b.access(int(x), bool(w)) for x, w in zip(chunk, writes)
            ]
            if (round_ % 2 == 0) == scalar_first:
                got = [a.access(int(x), bool(w))
                       for x, w in zip(chunk, writes)]
            else:
                got = a.access_many(chunk, writes).tolist()
            assert got == expected
            assert astuple(a.stats) == astuple(b.stats)
        _assert_same_dram_state(a, b)

    def test_resident_pages_from_array_state(self):
        rng = np.random.default_rng(47)
        stream = _random_stream(rng, 4000, 1 << 22)
        cache = DramCache(1 << 18, 1024, 4)
        oracle = DramCache(1 << 18, 1024, 4)
        cache.access_many(stream)
        dramcache_reference(oracle, stream)
        assert cache.resident_pages == oracle.resident_pages
        assert cache._ways is None  # answered without building dicts
        _assert_same_dram_state(cache, oracle)
        assert cache.resident_pages == oracle.resident_pages

    @pytest.mark.parametrize("engine", ["array", "event"])
    def test_non_integral_addresses_rejected(self, engine):
        # "array" is the batched trace path, "event" the scalar
        # reference's per-address lookup.
        cache = DramCache()
        for bad in (1.7, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integral"):
                if engine == "array":
                    cache.run_trace([bad, 2.9])
                else:
                    cache.access(bad)
        assert cache.stats.accesses == 0

    @pytest.mark.parametrize(
        "addresses", [[4096.0, 1.5], [np.nan], [np.inf], [True, False]]
    )
    def test_access_many_rejects_non_integral_addresses(self, addresses):
        cache = DramCache()
        with pytest.raises(ValueError, match="integral"):
            cache.access_many(np.array(addresses))
        assert cache.stats.accesses == 0

    def test_access_many_accepts_integral_float_addresses(self):
        cache = DramCache()
        assert cache.access_many([0.0, 4096.0, 0.0]).tolist() == [
            False, False, True
        ]


def _assert_same_dram_state(cache, oracle):
    """Per-set LRU order and dirty bits equal the oracle's."""
    assert set(cache._sets) == set(oracle._sets)
    for s, ways in cache._sets.items():
        assert list(ways.items()) == list(oracle._sets[s].items()), s


def _replay_against_oracle(caches, stream, writes=None):
    """Run *caches* through one ``replay_caches`` call and a scalar twin
    of each (deep-copied beforehand) through ``DramCache.access``, in
    list order; every listing's flags and every cache's stats, LRU
    order and dirty bits must agree."""
    twins = {id(c): copy.deepcopy(c) for c in caches}
    flags = replay_caches(caches, stream, writes)
    assert len(flags) == len(caches)
    w = [False] * len(stream) if writes is None else np.asarray(
        writes, dtype=bool).tolist()
    for cache, got in zip(caches, flags):
        oracle = twins[id(cache)]
        expected = [
            oracle.access(int(x), bool(wr))
            for x, wr in zip(np.asarray(stream).tolist(), w)
        ]
        assert got.tolist() == expected
    for cache in caches:
        oracle = twins[id(cache)]
        assert astuple(cache.stats) == astuple(oracle.stats)
        _assert_same_dram_state(cache, oracle)
    return flags


@st.composite
def _shared_replays(draw):
    """A stream plus the caches one ``replay_caches`` call advances:
    1-6 geometries of one page size, one cache of another page size,
    some caches warmed by an earlier chunk, one cache listed twice."""
    page = draw(st.sampled_from([64, 256, 4096]))
    other_page = draw(st.sampled_from([p for p in (128, 1024) if p != page]))
    geometries = draw(st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 6)),
        min_size=1, max_size=6,
    ))
    # A pool of pages with reuse, some above 16 and 32 bits whose low
    # 16 bits repeat a smaller page's, so only the page pass's later
    # radix passes tell them apart.
    pool = draw(st.lists(
        st.builds(
            lambda low, high: low + (high << 16),
            st.integers(0, 40), st.sampled_from([0, 0, 1, 3, (1 << 16) + 1]),
        ),
        min_size=1, max_size=60, unique=True,
    ))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    offsets = draw(st.lists(st.integers(0, page - 1), min_size=len(picks),
                            max_size=len(picks)))
    stream = np.array(
        [pool[i] * page + o for i, o in zip(picks, offsets)], dtype=np.int64
    )
    writes = np.array(
        draw(st.lists(st.booleans(), min_size=stream.size,
                      max_size=stream.size)), dtype=bool,
    )
    caches = [DramCache(n_sets * assoc * page, page, assoc)
              for n_sets, assoc in geometries]
    caches.append(DramCache(16 * 2 * other_page, other_page, 2))
    warm = draw(st.lists(st.booleans(), min_size=len(caches),
                         max_size=len(caches)))
    warmup = stream[::-1][: draw(st.integers(0, 100))]
    twice = draw(st.integers(0, len(caches) - 1))
    return caches, warm, warmup, twice, stream, writes


class TestReplayCachesOracle:
    """The shared replay against a scalar ``DramCache.access`` replay
    of each cache it advances."""

    @given(_shared_replays())
    @settings(max_examples=60, deadline=None)
    def test_shared_replay_matches_scalar(self, case):
        caches, warm, warmup, twice, stream, writes = case
        for cache, is_warm in zip(caches, warm):
            if is_warm:
                cache.access_many(warmup, warmup % 3 == 0)
        order = caches[:twice + 1] + [caches[twice]] + caches[twice + 1:]
        _replay_against_oracle(order, stream, writes)

    def test_every_set_calm(self):
        """No set ever holds more pages than ways: every reuse hits and
        nothing is evicted."""
        page, assoc, n_sets = 256, 4, 16
        rng = np.random.default_rng(61)
        pages = rng.permutation(n_sets * assoc)
        stream = rng.choice(pages, size=600) * page
        writes = rng.random(600) < 0.3
        caches = [DramCache(n_sets * assoc * page, page, assoc),
                  DramCache(2 * n_sets * assoc * page, page, assoc)]
        _replay_against_oracle(caches, stream, writes)
        for cache in caches:
            assert cache.stats.evictions == 0
            assert cache.stats.hits == 600 - np.unique(stream).size

    def test_every_set_crowded(self):
        page, assoc, n_sets = 256, 2, 8
        rng = np.random.default_rng(67)
        stream = rng.integers(0, n_sets * 6, size=800) * page
        writes = rng.random(800) < 0.4
        caches = [DramCache(n_sets * assoc * page, page, assoc),
                  DramCache(n_sets * 3 * page, page, 3)]
        _replay_against_oracle(caches, stream, writes)
        for cache in caches:
            sets = {int(p) % cache.n_sets for p in np.unique(stream // page)}
            assert len(sets) == cache.n_sets
            assert cache.stats.evictions > 0

    def test_set_holding_exactly_assoc_pages(self):
        """One set with exactly ``associativity`` pages stays calm next
        to one with a page more."""
        page, assoc, n_sets = 1024, 4, 2
        set0 = [0, 2, 4, 6]  # four pages of set 0
        set1 = [1, 3, 5, 7, 9]  # five pages of set 1
        stream = np.array(
            (set0 + set1) * 3 + set0[::-1] + set1[::-1], dtype=np.int64
        ) * page
        writes = np.arange(stream.size) % 5 == 0
        cache = DramCache(n_sets * assoc * page, page, assoc)
        _replay_against_oracle([cache], stream, writes)
        assert list(cache._sets[0]) == [3, 2, 1, 0]
        assert cache.stats.evictions > 0

    def test_empty_stream(self):
        cache = DramCache(1 << 16, 1024, 2)
        cache.access_many(np.arange(40) * 1024)
        before = astuple(cache.stats)
        flags = _replay_against_oracle(
            [cache, DramCache()], np.zeros(0, dtype=np.int64)
        )
        assert [f.size for f in flags] == [0, 0]
        assert astuple(cache.stats) == before

    def test_no_caches(self):
        assert replay_caches([], np.arange(10) * 4096) == []


# ----------------------------------------------------------------------
# MemoryManager
# ----------------------------------------------------------------------
def _manager_pair(policy_factory, capacity_pages=64, page=4096, limit=None):
    """A manager for the fast path and one for the scalar reference."""
    return tuple(
        MemoryManager(capacity_pages * page, policy_factory(limit), page)
        for _ in range(2)
    )


def _hotness(limit):
    return HotnessMigrationPolicy(limit)


def _first_touch(_limit):
    return FirstTouchPolicy()


class TestManagerOracle:
    @pytest.mark.parametrize("factory", [_hotness, _first_touch])
    @pytest.mark.parametrize("limit", [None, 0, 7])
    def test_equivalence_epochs(self, factory, limit):
        rng = np.random.default_rng(21)
        a, b = _manager_pair(factory, capacity_pages=48, limit=limit)
        for _ in range(5):
            epoch = _random_stream(rng, 1500, 1 << 20)
            fa = a.epoch_array(epoch)
            fb = b.epoch(epoch)
            assert fa == pytest.approx(fb, rel=RTOL)
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated
        assert a.resident_pages == b.resident_pages

    def test_run_batch_matches_event(self):
        rng = np.random.default_rng(33)
        epochs = [_random_stream(rng, 800, 1 << 18) for _ in range(4)]
        a, b = _manager_pair(_hotness, capacity_pages=32)
        fa = a.run_batch(epochs)
        fb = [b.epoch(e) for e in epochs]
        assert fa == pytest.approx(fb, rel=RTOL)
        assert a.placement == b.placement

    def test_interleaved_engines_share_state(self):
        rng = np.random.default_rng(55)
        a, b = _manager_pair(_hotness, capacity_pages=16)
        for i in range(6):
            epoch = _random_stream(rng, 500, 1 << 16)
            if i % 2:
                fa = a.epoch(epoch)  # scalar on the array manager
            else:
                fa = a.epoch_array(epoch)
            fb = b.epoch(epoch)
            assert fa == pytest.approx(fb, rel=RTOL)
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated

    def test_empty_epoch(self):
        a, b = _manager_pair(_hotness)
        assert a.epoch_array(np.zeros(0, dtype=np.int64)) == 1.0
        assert b.epoch(np.zeros(0, dtype=np.int64)) == 1.0

    def test_occupancy_never_exceeds_capacity(self):
        rng = np.random.default_rng(8)
        manager = MemoryManager(8 * 4096, HotnessMigrationPolicy(), 4096)
        for _ in range(5):
            manager.epoch_array(_random_stream(rng, 400, 1 << 16))
            assert manager.resident_pages <= manager.capacity_pages

    def test_unknown_policy_falls_back_to_scalar(self):
        class WeirdPolicy(HotnessMigrationPolicy):
            """Subclass: the exact-type check must not claim it."""

        rng = np.random.default_rng(2)
        epoch = _random_stream(rng, 300, 1 << 14)
        a = MemoryManager(16 * 4096, WeirdPolicy(), 4096)
        b = MemoryManager(16 * 4096, WeirdPolicy(), 4096)
        assert a.epoch_array(epoch) == b.epoch(epoch)
        assert a.placement == b.placement
