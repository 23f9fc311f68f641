"""Hardware DRAM-cache mode for the in-package 3D DRAM (Section II-B3).

The ENA's alternative memory mode treats the 256 GB of in-package DRAM
as a hardware-managed cache over external memory. The paper notes the
trade-off: the cached capacity disappears from the addressable space
(20% of the node's 1.25 TB), so HPC deployments usually prefer the
software-managed flat mode — but problems that fit in external memory
alone get a transparent performance uplift.

The model is a set-associative cache with cache-line-grain sectors and
page-grain allocation, tracked with simple LRU, sized for functional
behaviour studies rather than cycle accuracy.

Two implementations stream a trace through the cache:

:meth:`DramCache.access`
    One address at a time, kept as the readable specification and test
    oracle: a trace replayed through it address by address is the
    reference for :meth:`DramCache.run_trace`. It rejects what
    :meth:`DramCache.access_many` rejects: a negative or non-integral
    address.

:meth:`DramCache.access_many`
    The fast path, which :meth:`DramCache.run_trace` runs: an exact
    whole-stream replay built on the per-set LRU stack-distance
    property (Mattson et al., 1970): an access hits iff fewer than
    ``associativity`` distinct pages of its set were touched since the
    page's previous use.

    * *Ordering.* A stable set-major argsort puts each set's accesses
      side by side in program order; a second stable sort by
      (set, tag) links every access to the previous use of its page.
      Set and tag keys that fit in 16 bits are narrowed so numpy runs
      these sorts as radix sorts.
    * *Hits.* An access whose reuse gap (accesses of its set since the
      previous use) is below ``associativity`` hits outright. Only the
      longer gaps need the exact distinct-page count, which counts the
      window's accesses whose own previous use lies before the window,
      in chunks of bounded size. The worst-case cost is the total
      length of those long reuse windows (about 0.3M positions over all
      48 Fig. 8 replays).
    * *Evictions* follow from per-set occupancy: a set never shrinks,
      so every miss beyond its first ``associativity`` evicts.
    * *Writebacks* follow from per-page generations: a miss starts one,
      and it ends in an eviction unless the page is still resident at
      the end of the stream; each dirty generation that ends writes
      back once.
    * *Final state* is the ``associativity`` most recently used pages
      of each set, LRU to MRU, with each one's dirty bit.

    State carries between calls as these line arrays. A warm cache
    replays its resident lines first, LRU to MRU with the dirty bit as
    the write flag, which rebuilds the same stacks before the new
    stream; so a call costs sorts over resident lines plus accesses.
    The per-set dicts :meth:`DramCache.access` mutates are built from
    the arrays only when ``access`` or ``_sets`` needs them
    (:attr:`DramCache.resident_pages` reads whichever form is live), so
    scalar and batched calls interleave freely. Stats, per-access hit
    flags and per-set LRU order and dirty bits equal the scalar
    oracle's exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["DramCacheStats", "DramCache"]

_WINDOW_CHUNK = 1 << 16
"""Most window positions gathered at once by the exact distinct-page
count (a single longer window is its own chunk)."""


@dataclass
class DramCacheStats:
    """Access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when empty)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


def _int_addresses(addresses) -> np.ndarray:
    """*addresses* as a 1-D int64 array; rejects non-integral values,
    which a plain int64 cast would silently truncate."""
    arr = np.asarray(addresses)
    if arr.ndim != 1:
        raise ValueError("addresses must be a 1-D array")
    if arr.dtype.kind not in "iu" and arr.size and not (
        arr.dtype.kind == "f"
        and np.isfinite(arr).all()
        and (arr == np.trunc(arr)).all()
    ):
        raise ValueError("addresses must be integral")
    return arr.astype(np.int64, copy=False)


def _sort_key(col: np.ndarray) -> np.ndarray:
    """Non-negative key column narrowed to uint16 when it fits, so a
    stable argsort runs as numpy's radix sort."""
    if col.size and int(col.max()) < 1 << 16:
        return col.astype(np.uint16)
    return col


def _distinct_in_windows(prev: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distinct pages strictly between each ``prev[end]`` and ``end``.

    A window position counts when its own previous use lies before the
    window (or it has none): that is the page's first touch inside it.
    Windows are gathered in chunks of at most :data:`_WINDOW_CHUNK`
    positions, so memory stays bounded however long the windows are.
    """
    starts = prev[ends]
    lengths = ends - starts - 1
    bounds = np.cumsum(lengths)
    counts = np.empty(ends.size, dtype=np.intp)
    i = 0
    while i < ends.size:
        j = max(i + 1, int(np.searchsorted(
            bounds, bounds[i] - lengths[i] + _WINDOW_CHUNK, side="right"
        )))
        lo, ln = starts[i:j], lengths[i:j]
        offsets = np.cumsum(ln) - ln
        pos = np.arange(int(offsets[-1] + ln[-1])) + np.repeat(
            lo + 1 - offsets, ln
        )
        counts[i:j] = np.add.reduceat(
            prev[pos] < np.repeat(lo, ln), offsets, dtype=np.intp
        )
        i = j
    return counts


def _lru_replay(sets: np.ndarray, tags: np.ndarray, writes: np.ndarray,
                assoc: int):
    """Replay a stream through an empty LRU cache of *assoc* ways.

    Returns ``(hits, evictions, writebacks, final, dirty)``: per-access
    hit flags in program order, the two counters, the resident lines as
    indices into the stream (each page's last use, set-major and LRU to
    MRU within a set), and their dirty bits.
    """
    n = sets.size
    set_key = _sort_key(sets)
    # Set-major positions: each set's accesses contiguous, in program
    # order. Everything below is indexed by these positions.
    order = np.argsort(set_key, kind="stable")
    s = set_key[order]
    t = tags[order]
    by_tag = np.argsort(_sort_key(t), kind="stable")
    by_page = by_tag[np.argsort(s[by_tag], kind="stable")]
    ps, pt = s[by_page], t[by_page]
    same = (ps[1:] == ps[:-1]) & (pt[1:] == pt[:-1])
    prev = np.full(n, -1, dtype=np.intp)
    prev[by_page[1:][same]] = by_page[:-1][same]

    reused = np.flatnonzero(prev >= 0)
    gap = reused - prev[reused] - 1
    hit = np.zeros(n, dtype=bool)
    hit[reused[gap < assoc]] = True
    long_gap = reused[gap >= assoc]
    if long_gap.size:
        hit[long_gap] = _distinct_in_windows(prev, long_gap) < assoc

    # A set never shrinks, so a miss evicts iff it has at least
    # `assoc` earlier misses in its set.
    miss_set = s[~hit]
    evictions = int(np.count_nonzero(miss_set[assoc:] == miss_set[:-assoc]))

    # Generations in page order: a miss starts one (every page's first
    # use misses, so none spans two pages) and each dirty one that is
    # not resident at the end was evicted, writing back once.
    gen_start = ~hit[by_page]
    gen_dirty = np.logical_or.reduceat(
        writes[order[by_page]], np.flatnonzero(gen_start)
    )
    page_end = np.append(~same, True)
    last_use = by_page[page_end]
    is_last = np.zeros(n, dtype=bool)
    is_last[last_use] = True
    last_dirty = np.zeros(n, dtype=bool)
    last_dirty[last_use] = gen_dirty[np.cumsum(gen_start)[page_end] - 1]

    # Resident: the `assoc` most recent last uses of each set.
    last = np.flatnonzero(is_last)
    last_set = s[last]
    resident = np.ones(last.size, dtype=bool)
    resident[:-assoc] = last_set[assoc:] != last_set[:-assoc]
    final = last[resident]
    dirty = last_dirty[final]
    writebacks = int(np.count_nonzero(gen_dirty) - np.count_nonzero(dirty))

    hits = np.empty(n, dtype=bool)
    hits[order] = hit
    return hits, evictions, writebacks, order[final], dirty


class DramCache:
    """Set-associative page-grain DRAM cache with LRU replacement.

    Parameters
    ----------
    capacity_bytes:
        Cache capacity (the in-package DRAM size in cache mode).
    page_bytes:
        Allocation grain; the paper's design space spans cache-line to
        page granularity — page-grain keeps tag overheads negligible.
    associativity:
        Ways per set.
    """

    def __init__(
        self,
        capacity_bytes: float = 256.0e9,
        page_bytes: int = 4096,
        associativity: int = 8,
    ):
        if not math.isfinite(capacity_bytes) or capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be finite and positive")
        for name, value in (
            ("page_bytes", page_bytes), ("associativity", associativity)
        ):
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value <= 0):
                raise ValueError(f"{name} must be a positive integer")
        n_frames = int(capacity_bytes // page_bytes)
        if n_frames < associativity:
            raise ValueError("capacity too small for one set")
        self.page_bytes = int(page_bytes)
        self.associativity = int(associativity)
        self.n_sets = n_frames // self.associativity
        # LRU state in one of two forms, exactly one of them live:
        # resident lines as (set, tag, dirty) arrays, LRU to MRU within
        # a set (what access_many replays), or per-set dicts of
        # tag -> dirty flag whose first key is the LRU way (what
        # access mutates).
        empty = np.zeros(0, dtype=np.int64)
        self._lines: tuple[np.ndarray, np.ndarray, np.ndarray] | None = (
            empty, empty, np.zeros(0, dtype=bool)
        )
        self._ways: dict[int, dict[int, bool]] | None = None
        self.stats = DramCacheStats()

    @property
    def _sets(self) -> dict[int, dict[int, bool]]:
        """Per-set LRU state as insertion-ordered dicts (tag -> dirty
        flag, LRU way first), built from the line arrays on first use."""
        if self._ways is None:
            sets, tags, dirty = self._lines
            ways: dict[int, dict[int, bool]] = {}
            for s, t, d in zip(sets.tolist(), tags.tolist(), dirty.tolist()):
                ways.setdefault(s, {})[t] = d
            self._ways, self._lines = ways, None
        return self._ways

    def _line_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resident lines as (set, tag, dirty) arrays, LRU to MRU within
        a set, taken over from the dicts if :meth:`access` last ran."""
        if self._lines is None:
            ways = self._ways
            count = sum(len(w) for w in ways.values())
            sets = np.fromiter(
                (s for s, w in ways.items() for _ in w), np.int64, count
            )
            tags = np.fromiter(
                (t for w in ways.values() for t in w), np.int64, count
            )
            dirty = np.fromiter(
                (d for w in ways.values() for d in w.values()), bool, count
            )
            self._lines, self._ways = (sets, tags, dirty), None
        return self._lines

    def _locate(self, address: int) -> tuple[int, int]:
        page = address // self.page_bytes
        return page % self.n_sets, page // self.n_sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Look up one address; returns True on hit.

        Misses allocate (fetching from external memory); LRU victims
        that are dirty count as writebacks.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        if address % 1:
            # What access_many rejects too: a fraction, NaN or inf.
            raise ValueError("address must be integral")
        set_index, tag = self._locate(address)
        ways = self._sets.setdefault(set_index, {})
        if tag in ways:
            # Pop + reinsert moves the way to the MRU (last) position
            # while accumulating the dirty bit.
            ways[tag] = ways.pop(tag) or is_write
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            dirty = ways.pop(next(iter(ways)))
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        ways[tag] = is_write
        return False

    def _check_writes(self, addresses: np.ndarray, writes) -> np.ndarray:
        if writes is None:
            return np.zeros(len(addresses), dtype=bool)
        writes = np.asarray(writes, dtype=bool)
        if len(writes) != len(addresses):
            raise ValueError("writes length must match addresses")
        return writes

    def access_many(self, addresses, writes=None) -> np.ndarray:
        """Batched lookup of a whole address stream (the fast path).

        Returns the per-access hit flags; statistics and LRU state
        advance exactly as the equivalent sequence of :meth:`access`
        calls would, so scalar and batched calls can be freely
        interleaved.
        """
        addresses = _int_addresses(addresses)
        writes = self._check_writes(addresses, writes)
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if int(addresses.min()) < 0:
            raise ValueError("address must be non-negative")

        # The resident lines go first, LRU to MRU with their dirty bits
        # as write flags: each misses into an empty way, rebuilding the
        # warm stacks before the new stream replays on top of them.
        warm_sets, warm_tags, warm_dirty = self._line_arrays()
        warm = warm_sets.size
        tag_col, set_col = np.divmod(addresses // self.page_bytes, self.n_sets)
        sets = np.concatenate((warm_sets, set_col))
        tags = np.concatenate((warm_tags, tag_col))
        hits, evictions, writebacks, final, dirty = _lru_replay(
            sets, tags, np.concatenate((warm_dirty, writes)),
            self.associativity,
        )
        self._lines = (sets[final], tags[final], dirty)

        flags = hits[warm:]
        n_hits = int(np.count_nonzero(flags))
        self.stats.hits += n_hits
        self.stats.misses += n - n_hits
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        return flags

    def run_trace(self, addresses, writes=None) -> DramCacheStats:
        """Stream a whole trace; returns the cumulative statistics."""
        addresses = _int_addresses(addresses)
        with obs_trace.span(
            "dramcache.run_trace", accesses=int(addresses.size)
        ), obs_metrics.timed("memsys.dramcache.run_seconds"):
            self.access_many(addresses, writes)
        obs_metrics.inc("memsys.dramcache.runs")
        obs_metrics.inc("memsys.dramcache.accesses", int(addresses.size))
        return self.stats

    @property
    def resident_pages(self) -> int:
        """Pages currently cached."""
        if self._lines is not None:
            return int(self._lines[0].size)
        return sum(len(ways) for ways in self._ways.values())

    def addressable_capacity_loss(self, external_bytes: float) -> float:
        """Fraction of total node memory hidden by cache mode.

        With 256 GB cached over 1 TB external, 20% of the 1.25 TB
        address space disappears — the paper's argument for flat mode.
        """
        if external_bytes <= 0:
            raise ValueError("external_bytes must be positive")
        cache_bytes = self.n_sets * self.associativity * self.page_bytes
        return cache_bytes / (cache_bytes + external_bytes)
