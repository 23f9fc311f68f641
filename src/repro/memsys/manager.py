"""Two-level memory management policies (Section II-B3).

The ENA's primary mode is software-controlled placement: the OS monitors
page hotness and migrates pages between in-package DRAM and external
memory to maximize the fraction of requests served in-package. This
module implements that machinery over synthetic access histograms:

* :class:`FirstTouchPolicy` — pages stay where first allocated
  (in-package until it fills, then external),
* :class:`HotnessMigrationPolicy` — periodic epoch-based migration of
  the hottest pages into in-package DRAM (the HMA-style approach of the
  paper's reference [27]),
* :class:`MemoryManager` — bookkeeping, placement queries, migration
  cost accounting, and the achieved in-package hit fraction that feeds
  the Fig. 8 performance model.

The manager's whole state is two sorted int64 page arrays: every page
seen so far, and the resident (in-package) pages. Two implementations
of one epoch act on it, and can be freely interleaved:

:meth:`MemoryManager.epoch`
    The scalar oracle: it hands a per-page count dict and the
    :attr:`~MemoryManager.placement` dict built from the arrays to the
    policy's ``place`` method, then stores the returned placement back
    as arrays.

:meth:`MemoryManager.epoch_array`
    The fast path, which :meth:`MemoryManager.run_batch` runs: it looks
    the epoch's unique pages up with ``np.searchsorted`` and ranks them
    with ``np.lexsort`` (descending count, ascending page — the order
    Python's stable ``sorted`` gives over the ascending ``np.unique``
    keys), with no per-page loop. The wanted set never exceeds
    capacity, so an epoch evicts exactly ``max(0, promotions - free
    frames)`` pages and never runs out of victims: the coldest resident
    pages outside the wanted set by (count, page), the oracle's order.
    Placements, hit fractions, and migration counts equal the oracle's.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from repro.core.config import _is_int
from repro.memsys.dramcache import _int_addresses
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "MemoryLevel",
    "PagePlacement",
    "PlacementPolicy",
    "FirstTouchPolicy",
    "HotnessMigrationPolicy",
    "MemoryManager",
]

PAGE = 4096


class MemoryLevel(enum.Enum):
    """Which level a page lives in."""

    IN_PACKAGE = "in-package"
    EXTERNAL = "external"


@dataclass(frozen=True)
class PagePlacement:
    """Result of one placement epoch."""

    level_of_page: Mapping[int, MemoryLevel]
    migrated_pages: int

    def in_package_pages(self) -> int:
        """Pages resident in in-package DRAM."""
        return sum(
            1
            for lvl in self.level_of_page.values()
            if lvl is MemoryLevel.IN_PACKAGE
        )


class PlacementPolicy(Protocol):
    """Strategy interface: choose which pages go in-package."""

    def place(
        self,
        access_counts: Mapping[int, int],
        current: Mapping[int, MemoryLevel],
        capacity_pages: int,
    ) -> PagePlacement:
        """Return the next epoch's placement."""
        ...  # pragma: no cover


class FirstTouchPolicy:
    """Pages keep their initial placement: earliest-allocated pages fill
    in-package DRAM; later pages spill to external memory. No migration
    ever happens — the paper's baseline for why management matters."""

    def place(
        self,
        access_counts: Mapping[int, int],
        current: Mapping[int, MemoryLevel],
        capacity_pages: int,
    ) -> PagePlacement:
        placement = dict(current)
        resident = sum(
            1 for lvl in placement.values() if lvl is MemoryLevel.IN_PACKAGE
        )
        for page in access_counts:
            if page in placement:
                continue
            if resident < capacity_pages:
                placement[page] = MemoryLevel.IN_PACKAGE
                resident += 1
            else:
                placement[page] = MemoryLevel.EXTERNAL
        return PagePlacement(level_of_page=placement, migrated_pages=0)


class HotnessMigrationPolicy:
    """Epoch-based hottest-pages-first placement.

    At each epoch the *capacity_pages* most-accessed pages are placed
    in-package; everything else goes external. ``migration_limit``
    caps per-epoch movement (migration consumes real bandwidth), so
    convergence to the ideal placement can take several epochs — the
    behaviour HMA-style managers exhibit.
    """

    def __init__(self, migration_limit: int | None = None):
        if migration_limit is not None and not (
            _is_int(migration_limit) and migration_limit >= 0
        ):
            raise ValueError(
                "migration_limit must be None or a non-negative integer, "
                f"got {migration_limit!r}"
            )
        self.migration_limit = migration_limit

    def place(
        self,
        access_counts: Mapping[int, int],
        current: Mapping[int, MemoryLevel],
        capacity_pages: int,
    ) -> PagePlacement:
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
        if self.migration_limit is not None:
            to_promote = to_promote[: self.migration_limit]

        resident = {
            p for p, lvl in placement.items() if lvl is MemoryLevel.IN_PACKAGE
        }
        migrated = 0
        # Evictions pop the coldest resident page not in the wanted set,
        # ties broken on the page number so the choice does not depend
        # on set iteration order (keeps this oracle bit-identical to the
        # vectorized engine). The candidate set never grows during the
        # promote loop — promotions only add wanted pages, which are
        # excluded — and only shrinks by the popped victims, so one heap
        # built at the first eviction yields exactly the page a fresh
        # sort would have picked each iteration, without re-sorting the
        # whole resident set per eviction.
        evict_heap: list[tuple[int, int]] | None = None
        for page in to_promote:
            if len(resident) >= capacity_pages:
                if evict_heap is None:
                    evict_heap = [
                        (access_counts.get(p, 0), p)
                        for p in resident
                        if p not in want_in
                    ]
                    heapq.heapify(evict_heap)
                if not evict_heap:
                    break
                _, victim = heapq.heappop(evict_heap)
                placement[victim] = MemoryLevel.EXTERNAL
                resident.discard(victim)
            placement[page] = MemoryLevel.IN_PACKAGE
            resident.add(page)
            migrated += 1
        return PagePlacement(level_of_page=placement, migrated_pages=migrated)


def _find(sorted_pages: np.ndarray, pages: np.ndarray):
    """Where each of *pages* sits in the sorted array *sorted_pages*:
    the (in-range) searchsorted index and a mask of which occur."""
    if not sorted_pages.size:
        return np.zeros(pages.size, np.intp), np.zeros(pages.size, bool)
    idx = np.minimum(
        np.searchsorted(sorted_pages, pages), sorted_pages.size - 1
    )
    return idx, sorted_pages[idx] == pages


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two disjoint sorted page arrays.

    Sorts the concatenation rather than calling ``np.union1d``, which
    numpy 2.4 runs on a hash path: at a few thousand pages a side that
    path measured about 20x slower (x86-64, 2 vCPUs).
    """
    return np.sort(np.concatenate((a, b)))


class MemoryManager:
    """Drives a placement policy over access epochs and reports the
    achieved in-package service fraction.

    Parameters
    ----------
    capacity_bytes:
        In-package DRAM capacity: finite, at least one page.
    policy:
        Placement strategy; :meth:`epoch_array` has vectorized paths for
        :class:`FirstTouchPolicy` and :class:`HotnessMigrationPolicy`
        and falls back to the scalar policy call for anything else.
    page_size:
        Placement grain, a positive integer.
    """

    def __init__(
        self,
        capacity_bytes: float,
        policy: PlacementPolicy,
        page_size: int = PAGE,
    ):
        if not (_is_int(page_size) and page_size > 0):
            raise ValueError(
                f"page_size must be a positive integer, got {page_size!r}"
            )
        if not page_size <= capacity_bytes < math.inf:
            raise ValueError(
                "capacity_bytes must be finite and at least one page, "
                f"got {capacity_bytes!r}"
            )
        self.capacity_pages = int(capacity_bytes // page_size)
        self.page_size = int(page_size)
        self.policy = policy
        self.total_migrated = 0
        # Every page seen so far, and the in-package ones (sorted).
        self._seen = np.zeros(0, dtype=np.int64)
        self._resident = self._seen

    @property
    def placement(self) -> dict[int, MemoryLevel]:
        """Level of every page seen so far, built from the page arrays."""
        placement = dict.fromkeys(self._seen.tolist(), MemoryLevel.EXTERNAL)
        placement.update(
            dict.fromkeys(self._resident.tolist(), MemoryLevel.IN_PACKAGE)
        )
        return placement

    @property
    def resident_pages(self) -> int:
        """Pages currently in in-package DRAM."""
        return int(self._resident.size)

    def _pages(self, addresses) -> np.ndarray:
        """Page numbers of one epoch: *addresses* must be a 1-D array of
        non-negative integers (integral floats pass, as for
        :class:`~repro.memsys.dramcache.DramCache`)."""
        addresses = _int_addresses(addresses)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("addresses must be non-negative")
        return addresses // self.page_size

    def epoch(self, addresses: np.ndarray) -> float:
        """Process one epoch of accesses; returns the fraction of them
        served in-package *under the placement in force during the
        epoch* (migration takes effect for the next epoch)."""
        pages = self._pages(addresses)
        if pages.size == 0:
            return 1.0
        unique, counts = np.unique(pages, return_counts=True)
        access_counts = dict(zip(unique.tolist(), counts.tolist()))
        placement = self.placement

        served_in = sum(
            c
            for p, c in access_counts.items()
            if placement.get(p) is MemoryLevel.IN_PACKAGE
        )
        hit_fraction = served_in / pages.size

        result = self.policy.place(
            access_counts, placement, self.capacity_pages
        )
        levels = result.level_of_page
        self._seen = np.array(sorted(levels), dtype=np.int64)
        self._resident = np.array(
            sorted(p for p, lvl in levels.items()
                   if lvl is MemoryLevel.IN_PACKAGE),
            dtype=np.int64,
        )
        self.total_migrated += result.migrated_pages
        return hit_fraction

    def epoch_array(self, addresses: np.ndarray) -> float:
        """Vectorized :meth:`epoch`: identical placements, hit
        fractions, and migration counts, computed with sorted-array
        lookups and top-k ranking instead of per-page dict loops.

        Policies without a vectorized path fall back to the scalar
        :meth:`epoch` (exact policy types only, so subclasses that
        override ``place`` keep their semantics).
        """
        policy_type = type(self.policy)
        if policy_type not in (HotnessMigrationPolicy, FirstTouchPolicy):
            return self.epoch(addresses)
        pages = self._pages(addresses)
        if pages.size == 0:
            return 1.0
        unique, counts = np.unique(pages, return_counts=True)
        resident = self._resident
        in_pkg = _find(resident, unique)[1]
        hit_fraction = int(counts[in_pkg].sum()) / pages.size
        new = unique[~_find(self._seen, unique)[1]]
        self._seen = _merge(self._seen, new)
        capacity = self.capacity_pages

        if policy_type is FirstTouchPolicy:
            # New pages fill the free frames in ascending page order;
            # the rest stay external and nothing ever migrates.
            free = max(0, capacity - resident.size)
            self._resident = _merge(resident, new[:free])
            return hit_fraction

        # Rank by descending count, ascending page: np.lexsort's last
        # key is primary, and negating counts plus the ascending page
        # tiebreak reproduces the stable scalar sort exactly.
        top = np.lexsort((unique, -counts))[:capacity]
        promote = top[~in_pkg[top]]
        limit = self.policy.migration_limit
        if limit is not None:
            promote = promote[:limit]
        n_evict = promote.size - (capacity - resident.size)
        if n_evict > 0:
            # Victims: the coldest resident pages outside the wanted
            # set by this epoch's count (0 if unseen), then page. The
            # resident array is sorted, so a stable sort on the count
            # breaks ties on the page.
            wanted = np.zeros(unique.size, dtype=bool)
            wanted[top] = True
            idx, seen_now = _find(unique, resident)
            cands = np.flatnonzero(~(seen_now & wanted[idx]))
            cand_counts = np.where(seen_now, counts[idx], 0)[cands]
            order = np.argsort(cand_counts, kind="stable")[:n_evict]
            keep = np.ones(resident.size, dtype=bool)
            keep[cands[order]] = False
            resident = resident[keep]
        self._resident = _merge(resident, unique[promote])
        self.total_migrated += int(promote.size)
        return hit_fraction

    def run_batch(self, epochs: list[np.ndarray]) -> list[float]:
        """Process several epoch arrays through one shared placement
        state; returns per-epoch in-package fractions."""
        total = sum(int(np.asarray(e).size) for e in epochs)
        with obs_trace.span(
            "manager.run_batch", epochs=len(epochs), accesses=total,
        ), obs_metrics.timed("memsys.manager.run_seconds"):
            fractions = [self.epoch_array(e) for e in epochs]
        obs_metrics.inc("memsys.manager.epochs", len(epochs))
        obs_metrics.inc("memsys.manager.accesses", total)
        return fractions

    def migration_traffic_bytes(self) -> float:
        """Total bytes moved by migrations so far."""
        return float(self.total_migrated * self.page_size)
