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

Two interchangeable engines drive the epoch loop:

``engine="event"``
    The original scalar path: :meth:`MemoryManager.epoch` builds a
    per-page count dict and delegates to the policy's ``place`` method,
    kept as the readable specification and test oracle.

``engine="array"`` (default)
    :meth:`MemoryManager.epoch_array` ranks page access counts with
    ``np.lexsort`` (descending count, ascending page — exactly the
    order Python's stable ``sorted`` produces over the ascending
    ``np.unique`` keys), computes promotions and the full eviction
    order as vectorized top-k selections, and replays only the short
    promote/evict tail as a loop. Placement updates are applied as
    deltas to the shared ``placement`` dict, so the two engines can be
    freely interleaved and produce identical placements, hit fractions,
    and migration counts.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "MemoryLevel",
    "PagePlacement",
    "PlacementPolicy",
    "FirstTouchPolicy",
    "HotnessMigrationPolicy",
    "MemoryManager",
    "ENGINES",
]

PAGE = 4096

ENGINES = ("array", "event")
"""Valid values for the ``engine`` selector (the first is the default)."""


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
        if migration_limit is not None and migration_limit < 0:
            raise ValueError("migration_limit must be non-negative")
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


class MemoryManager:
    """Drives a placement policy over access epochs and reports the
    achieved in-package service fraction.

    Parameters
    ----------
    capacity_bytes:
        In-package DRAM capacity.
    policy:
        Placement strategy; the array engine has vectorized paths for
        :class:`FirstTouchPolicy` and :class:`HotnessMigrationPolicy`
        and falls back to the scalar policy call for anything else.
    page_size:
        Placement grain.
    engine:
        Default execution engine for :meth:`run` / :meth:`run_batch`,
        ``"array"`` (vectorized epochs) or ``"event"`` (the scalar
        oracle). Either can be overridden per call.
    """

    def __init__(
        self,
        capacity_bytes: float,
        policy: PlacementPolicy,
        page_size: int = PAGE,
        engine: str = "array",
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.capacity_pages = int(capacity_bytes // page_size)
        self.page_size = page_size
        self.policy = policy
        self.engine = self._check_engine(engine)
        self.placement: dict[int, MemoryLevel] = {}
        self.total_migrated = 0
        # Resident-page mirror for the array engine; None means stale
        # (the scalar path replaced `placement` wholesale) and it is
        # rebuilt lazily on the next array epoch.
        self._resident: set[int] | None = set()

    @staticmethod
    def _check_engine(engine: str) -> str:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        return engine

    def epoch(self, addresses: np.ndarray) -> float:
        """Process one epoch of accesses; returns the fraction of them
        served in-package *under the placement in force during the
        epoch* (migration takes effect for the next epoch)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return 1.0
        pages = addresses // self.page_size
        unique, counts = np.unique(pages, return_counts=True)
        access_counts = dict(zip(unique.tolist(), counts.tolist()))

        served_in = sum(
            int(c)
            for p, c in access_counts.items()
            if self.placement.get(p) is MemoryLevel.IN_PACKAGE
        )
        hit_fraction = served_in / int(counts.sum())

        result = self.policy.place(
            access_counts, self.placement, self.capacity_pages
        )
        self.placement = dict(result.level_of_page)
        self.total_migrated += result.migrated_pages
        self._resident = None
        return hit_fraction

    # ------------------------------------------------------------------
    # Array fast path
    # ------------------------------------------------------------------
    def _resident_set(self) -> set[int]:
        if self._resident is None:
            self._resident = {
                p
                for p, lvl in self.placement.items()
                if lvl is MemoryLevel.IN_PACKAGE
            }
        return self._resident

    def epoch_array(self, addresses: np.ndarray) -> float:
        """Vectorized :meth:`epoch`: identical placements, hit
        fractions, and migration counts, computed with array top-k
        ranking instead of per-page dict loops.

        Policies without a vectorized path fall back to the scalar
        :meth:`epoch` (exact policy types only, so subclasses that
        override ``place`` keep their semantics).
        """
        policy_type = type(self.policy)
        if policy_type is HotnessMigrationPolicy:
            return self._epoch_array_hotness(addresses)
        if policy_type is FirstTouchPolicy:
            return self._epoch_array_first_touch(addresses)
        return self.epoch(addresses)

    def _epoch_prolog(self, addresses):
        """Shared epoch setup: unique page counts, residency mask over
        the epoch's pages, and the served-in-package fraction."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return None
        pages = addresses // self.page_size
        unique, counts = np.unique(pages, return_counts=True)
        unique_list = unique.tolist()
        n_unique = len(unique_list)
        get = self.placement.get
        known = np.fromiter(
            (get(p) is not None for p in unique_list), bool, n_unique
        )
        resident = self._resident_set()
        resident_mask = np.fromiter(
            (p in resident for p in unique_list), bool, n_unique
        )
        served_in = int(counts[resident_mask].sum())
        hit_fraction = served_in / int(counts.sum())
        return unique, counts, unique_list, known, resident_mask, hit_fraction

    def _epoch_array_first_touch(self, addresses) -> float:
        prolog = self._epoch_prolog(addresses)
        if prolog is None:
            return 1.0
        unique, counts, unique_list, known, resident_mask, hit_fraction = (
            prolog
        )
        resident = self._resident_set()
        new_pages = unique[~known].tolist()
        room = max(0, self.capacity_pages - len(resident))
        take = min(room, len(new_pages))
        levels = [MemoryLevel.IN_PACKAGE] * take + [
            MemoryLevel.EXTERNAL
        ] * (len(new_pages) - take)
        self.placement.update(zip(new_pages, levels))
        resident.update(new_pages[:take])
        return hit_fraction

    def _epoch_array_hotness(self, addresses) -> float:
        prolog = self._epoch_prolog(addresses)
        if prolog is None:
            return 1.0
        unique, counts, unique_list, known, resident_mask, hit_fraction = (
            prolog
        )
        resident = self._resident_set()
        placement = self.placement
        capacity = self.capacity_pages

        # New pages default to external before migration (the scalar
        # path's setdefault sweep), in the same ascending-page order.
        new_pages = unique[~known].tolist()
        placement.update(
            zip(new_pages, (MemoryLevel.EXTERNAL,) * len(new_pages))
        )

        # Rank by descending count, ascending page: np.lexsort's last
        # key is primary, and negating counts plus the ascending page
        # tiebreak reproduces the stable scalar sort exactly.
        order = np.lexsort((unique, -counts))
        top = order[:capacity]
        to_promote = unique[top[~resident_mask[top]]].tolist()
        limit = self.policy.migration_limit
        if limit is not None:
            to_promote = to_promote[:limit]

        # Eviction candidates: resident pages outside the wanted set,
        # orderable once up front because promotions only ever add
        # wanted pages (never new candidates) and the count ranking is
        # fixed for the epoch.
        migrated = 0
        if to_promote:
            want_in = set(unique[top].tolist())
            cands = np.fromiter(
                (p for p in resident if p not in want_in),
                np.int64,
            )
            if cands.size:
                idx = np.searchsorted(unique, cands)
                idx[idx >= len(unique_list)] = 0
                found = unique[idx] == cands
                cand_counts = np.where(found, counts[idx], 0)
                victims = cands[np.lexsort((cands, cand_counts))].tolist()
            else:
                victims = []
            vi = 0
            n_resident = len(resident)
            in_package = MemoryLevel.IN_PACKAGE
            external = MemoryLevel.EXTERNAL
            for page in to_promote:
                if n_resident >= capacity:
                    if vi >= len(victims):
                        break
                    victim = victims[vi]
                    vi += 1
                    placement[victim] = external
                    resident.discard(victim)
                    n_resident -= 1
                placement[page] = in_package
                resident.add(page)
                n_resident += 1
                migrated += 1
        self.total_migrated += migrated
        return hit_fraction

    def run_batch(
        self, epochs: list[np.ndarray], engine: str | None = None
    ) -> list[float]:
        """Process several epoch arrays through one shared placement
        state; returns per-epoch in-package fractions."""
        engine = self.engine if engine is None else self._check_engine(engine)
        total = sum(int(np.asarray(e).size) for e in epochs)
        with obs_trace.span(
            "manager.run_batch", engine=engine, epochs=len(epochs),
            accesses=total,
        ), obs_metrics.timed("memsys.manager.run_seconds"):
            if engine == "event":
                fractions = [self.epoch(e) for e in epochs]
            else:
                fractions = [self.epoch_array(e) for e in epochs]
        obs_metrics.inc("memsys.manager.epochs", len(epochs))
        obs_metrics.inc("memsys.manager.accesses", total)
        return fractions

    def run(
        self, epochs: list[np.ndarray], engine: str | None = None
    ) -> list[float]:
        """Process several epochs; returns per-epoch in-package fractions."""
        return self.run_batch(epochs, engine=engine)

    @property
    def resident_pages(self) -> int:
        """Pages currently in in-package DRAM."""
        return sum(
            1
            for lvl in self.placement.values()
            if lvl is MemoryLevel.IN_PACKAGE
        )

    def migration_traffic_bytes(self) -> float:
        """Total bytes moved by migrations so far."""
        return float(self.total_migrated * self.page_size)
