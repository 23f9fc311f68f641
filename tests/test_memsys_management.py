"""Two-level memory management and the DRAM-cache mode."""

import numpy as np
import pytest

from repro.memsys.dramcache import DramCache
from repro.memsys.manager import (
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryLevel,
    MemoryManager,
)

PAGE = 4096


def addresses(pages):
    return np.asarray(pages, dtype=np.int64) * PAGE


class TestFirstTouchPolicy:
    def test_fills_then_spills(self):
        mgr = MemoryManager(2 * PAGE, FirstTouchPolicy())
        mgr.epoch(addresses([0, 1, 2, 3]))
        levels = mgr.placement
        in_pkg = [p for p, l in levels.items() if l is MemoryLevel.IN_PACKAGE]
        assert len(in_pkg) == 2

    def test_never_migrates(self):
        mgr = MemoryManager(2 * PAGE, FirstTouchPolicy())
        mgr.epoch(addresses([0, 1, 2, 3]))
        mgr.epoch(addresses([2, 3, 2, 3]))  # hot pages are external now
        assert mgr.total_migrated == 0


class TestHotnessMigrationPolicy:
    def test_migrates_hot_pages_in(self):
        mgr = MemoryManager(2 * PAGE, HotnessMigrationPolicy())
        # Warm-up places cold pages 10, 11 in-package.
        mgr.epoch(addresses([10, 11]))
        # Hot pages 0, 1 dominate the next epoch.
        mgr.epoch(addresses([0, 0, 0, 1, 1, 1, 10]))
        hot_levels = {
            p: mgr.placement[p] for p in (0, 1)
        }
        assert all(l is MemoryLevel.IN_PACKAGE for l in hot_levels.values())

    def test_hit_fraction_improves_over_epochs(self):
        mgr = MemoryManager(2 * PAGE, HotnessMigrationPolicy())
        mgr.epoch(addresses([10, 11]))
        hot = addresses([0, 0, 0, 1, 1, 1])
        first = mgr.epoch(hot)
        second = mgr.epoch(hot)
        assert second > first

    def test_migration_limit_respected(self):
        mgr = MemoryManager(
            4 * PAGE, HotnessMigrationPolicy(migration_limit=1)
        )
        mgr.epoch(addresses([0, 1, 2, 3]))
        before = mgr.total_migrated
        mgr.epoch(addresses([10, 10, 11, 11, 12, 12, 13, 13]))
        assert mgr.total_migrated - before <= 1

    def test_capacity_never_exceeded(self):
        mgr = MemoryManager(3 * PAGE, HotnessMigrationPolicy())
        rng = np.random.default_rng(1)
        for _ in range(5):
            mgr.epoch(addresses(rng.integers(0, 50, size=200)))
            assert mgr.resident_pages <= 3

    def test_migration_traffic_accounting(self):
        mgr = MemoryManager(2 * PAGE, HotnessMigrationPolicy())
        mgr.epoch(addresses([5, 6]))
        mgr.epoch(addresses([0, 0, 1, 1]))
        assert mgr.migration_traffic_bytes() == mgr.total_migrated * PAGE

    def test_empty_epoch(self):
        mgr = MemoryManager(2 * PAGE, HotnessMigrationPolicy())
        assert mgr.epoch(np.array([], dtype=np.int64)) == 1.0

    def test_heap_eviction_matches_per_eviction_resort(self):
        """The incremental eviction heap must pick the same victims the
        old quadratic re-sort-per-eviction picked, including the
        (count, page) tie-break, under heavy churn."""

        def resort_place(access_counts, current, capacity_pages):
            # The pre-heap reference: re-sorted candidates per eviction.
            ranked = sorted(
                access_counts, key=lambda p: access_counts[p], reverse=True
            )
            want_in = set(ranked[:capacity_pages])
            placement = dict(current)
            for page in access_counts:
                placement.setdefault(page, MemoryLevel.EXTERNAL)
            to_promote = [
                p
                for p in ranked[:capacity_pages]
                if placement.get(p) is not MemoryLevel.IN_PACKAGE
            ]
            resident = {
                p
                for p, lvl in placement.items()
                if lvl is MemoryLevel.IN_PACKAGE
            }
            migrated = 0
            for page in to_promote:
                if len(resident) >= capacity_pages:
                    evictable = sorted(
                        (p for p in resident if p not in want_in),
                        key=lambda p: (access_counts.get(p, 0), p),
                    )
                    if not evictable:
                        break
                    victim = evictable[0]
                    placement[victim] = MemoryLevel.EXTERNAL
                    resident.discard(victim)
                placement[page] = MemoryLevel.IN_PACKAGE
                resident.add(page)
                migrated += 1
            return placement, migrated

        policy = HotnessMigrationPolicy()
        rng = np.random.default_rng(7)
        capacity = 40
        current: dict[int, MemoryLevel] = {}
        reference = {}
        for _ in range(12):
            # Shifting hot set: most of the working set turns over each
            # epoch, so nearly every promotion needs an eviction. Tied
            # counts (every page seen once or twice) stress the
            # page-number tie-break.
            pages = rng.integers(0, 300, size=400)
            unique, counts = np.unique(pages, return_counts=True)
            access_counts = dict(zip(unique.tolist(), counts.tolist()))
            result = policy.place(access_counts, current, capacity)
            reference, ref_migrated = resort_place(
                access_counts, reference, capacity
            )
            assert dict(result.level_of_page) == reference
            assert result.migrated_pages == ref_migrated
            current = dict(result.level_of_page)


class TestManagerInputs:
    @pytest.mark.parametrize(
        "capacity",
        [float("inf"), float("nan"), float("-inf"), PAGE - 1, 0.5, -PAGE],
    )
    def test_capacity_must_be_finite_and_hold_a_page(self, capacity):
        with pytest.raises(ValueError, match="capacity_bytes"):
            MemoryManager(capacity, FirstTouchPolicy())

    def test_one_page_capacity_accepted(self):
        assert MemoryManager(PAGE, FirstTouchPolicy()).capacity_pages == 1

    @pytest.mark.parametrize("page_size", [2.5, 4096.0, True, 0, -4096])
    def test_page_size_must_be_positive_integer(self, page_size):
        with pytest.raises(ValueError, match="page_size"):
            MemoryManager(1 << 20, FirstTouchPolicy(), page_size=page_size)

    @pytest.mark.parametrize("limit", [2.5, float("nan"), True, -1])
    def test_migration_limit_must_be_non_negative_integer(self, limit):
        with pytest.raises(ValueError, match="migration_limit"):
            HotnessMigrationPolicy(limit)

    def test_integer_migration_limits_accepted(self):
        assert HotnessMigrationPolicy(np.int64(3)).migration_limit == 3
        assert HotnessMigrationPolicy(0).migration_limit == 0

    @pytest.mark.parametrize("engine", ["array", "event"])
    @pytest.mark.parametrize(
        "bad",
        [
            [0.0, float("nan")],
            [0.0, 4096.7],
            [4096, -1],
            [[0, 4096], [8192, 0]],
        ],
        ids=["nan", "fractional", "negative", "2-d"],
    )
    def test_bad_epoch_addresses_rejected(self, engine, bad):
        # "array" is the batched path, "event" the scalar reference.
        mgr = MemoryManager(4 * PAGE, HotnessMigrationPolicy())
        with pytest.raises(ValueError, match="addresses"):
            if engine == "array":
                mgr.run_batch([bad])
            else:
                mgr.epoch(bad)
        assert mgr.placement == {}

    def test_integral_float_addresses_accepted(self):
        as_float = MemoryManager(4 * PAGE, HotnessMigrationPolicy())
        as_int = MemoryManager(4 * PAGE, HotnessMigrationPolicy())
        pages = [0, 1, 1, 5]
        assert as_float.epoch_array(
            addresses(pages).astype(float)
        ) == as_int.epoch_array(addresses(pages))
        assert as_float.placement == as_int.placement


class TestDramCache:
    def test_cold_miss_then_hit(self):
        cache = DramCache(capacity_bytes=1 << 20)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = DramCache(
            capacity_bytes=8 * 4096, page_bytes=4096, associativity=2
        )
        # Two pages mapping to the same set (n_sets = 4): 0 and 4.
        cache.access(0)
        cache.access(4 * 4096)
        cache.access(8 * 4096)  # evicts page 0 (LRU)
        assert not cache.access(0)
        assert cache.stats.evictions >= 1

    def test_dirty_eviction_writes_back(self):
        cache = DramCache(
            capacity_bytes=8 * 4096, page_bytes=4096, associativity=2
        )
        cache.access(0, is_write=True)
        cache.access(4 * 4096)
        cache.access(8 * 4096)
        assert cache.stats.writebacks >= 1

    def test_run_trace(self):
        cache = DramCache(capacity_bytes=1 << 20)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 18, size=5000)
        stats = cache.run_trace(addrs)
        assert stats.accesses == 5000
        assert 0.0 < stats.hit_rate < 1.0

    def test_capacity_loss_is_twenty_percent(self):
        # Section II-B3: 256 GB cache over 1 TB external hides 20% of
        # the addressable space.
        cache = DramCache(capacity_bytes=256e9)
        assert cache.addressable_capacity_loss(1.024e12) == pytest.approx(
            0.2, abs=0.01
        )

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DramCache(capacity_bytes=1024, page_bytes=4096, associativity=8)

    @pytest.mark.parametrize(
        "capacity", [float("inf"), float("nan"), float("-inf")]
    )
    def test_non_finite_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity_bytes"):
            DramCache(capacity_bytes=capacity)

    @pytest.mark.parametrize("page_bytes", [4096.5, 4096.0, True])
    def test_non_integer_page_bytes_rejected(self, page_bytes):
        with pytest.raises(ValueError, match="page_bytes"):
            DramCache(capacity_bytes=1 << 20, page_bytes=page_bytes)

    @pytest.mark.parametrize("associativity", [2.5, 2.0, True])
    def test_non_integer_associativity_rejected(self, associativity):
        with pytest.raises(ValueError, match="associativity"):
            DramCache(capacity_bytes=1 << 20, associativity=associativity)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            DramCache(capacity_bytes=1 << 20).access(-1)
