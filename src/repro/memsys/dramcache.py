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
    reference for the batched replay. It rejects what the batched
    replay rejects: a negative or non-integral address.

:func:`replay_caches`
    The fast path: it advances several caches over one stream, and
    :meth:`DramCache.access_many` and :meth:`DramCache.run_trace` are
    its one-cache case. It is an exact whole-stream replay built on the
    per-set LRU stack-distance property (Mattson et al., 1970): an
    access hits iff fewer than ``associativity`` distinct pages of its
    set were touched since the page's previous use. It runs in two
    stages.

    * *Page pass* (:func:`_page_stream`), which depends only on the
      stream and page size, so cold caches of one page size share it
      (Fig. 8 advances six capacities over each trace). A stable sort
      of the pages, run as 16-bit radix passes, groups the accesses by
      page. It yields each access's previous use, the distinct pages,
      the pages in order of last use, and whether each page was ever
      written.
    * *Per-geometry replay* (:func:`_lru_replay`). It sorts the pages,
      taken in last-use order, by set, which counts the distinct pages
      of every set. A *calm* set, with at most ``associativity``
      pages, is closed form: an access hits iff it reuses a page,
      nothing is evicted or written back, and every page stays
      resident with the dirty bit "ever written". Only the accesses of
      *crowded* sets go through the stack-distance machinery: their
      set-major rank, the reuse gap (an access whose gap is below
      ``associativity`` hits outright), an exact distinct-page count
      over the longer gaps' windows in chunks of bounded size,
      evictions from per-set occupancy (a set never shrinks, so every
      miss beyond its first ``associativity`` evicts) and writebacks
      from per-page generations (a miss starts one, and each dirty
      generation that does not reach the end of the stream resident
      writes back once).
    * *Final state* is the ``associativity`` most recently used pages
      of each set, LRU to MRU, with each one's dirty bit.

    State carries between calls as these line arrays. A warm cache
    replays its resident lines first, LRU to MRU with the dirty bit as
    the write flag, which rebuilds the same stacks before the new
    stream; such a cache gets a page pass of its own. The per-set dicts
    :meth:`DramCache.access` mutates are built from the arrays only
    when ``access`` or ``_sets`` needs them
    (:attr:`DramCache.resident_pages` reads whichever form is live), so
    scalar and batched calls interleave freely. Stats, per-access hit
    flags and per-set LRU order and dirty bits equal the scalar
    oracle's exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["DramCacheStats", "DramCache", "replay_caches"]

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


def _stable_argsort(keys: np.ndarray, top: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, top)``, as passes over
    16-bit digits from the least significant, each of which numpy runs
    as a radix sort."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while top - 1 >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


class _PageStream(NamedTuple):
    """What a replay needs of a page stream, whatever the geometry."""

    pages: np.ndarray
    """The distinct pages, ascending."""
    page_of: np.ndarray
    """Each access's index into :attr:`pages`."""
    by_page: np.ndarray
    """The accesses grouped by page, in program order within a page."""
    first: np.ndarray
    """Along :attr:`by_page`, whether the access is its page's first."""
    prev: np.ndarray
    """Each access's previous use of its page (-1 for none)."""
    by_last: np.ndarray
    """Page indices in order of each page's last use."""
    written: np.ndarray
    """Per page, whether any access to it writes."""
    writes: np.ndarray
    """Per access, the write flag."""


def _page_stream(pages: np.ndarray, writes: np.ndarray) -> _PageStream:
    """The geometry-independent pass over a non-empty page stream."""
    n = pages.size
    by_page = _stable_argsort(pages, int(pages.max()) + 1)
    sorted_pages = pages[by_page]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=first[1:])
    repeat = ~first[1:]
    prev = np.full(n, -1, dtype=np.intp)
    prev[by_page[1:][repeat]] = by_page[:-1][repeat]
    starts = np.flatnonzero(first)
    page_of = np.empty(n, dtype=np.intp)
    page_of[by_page] = np.cumsum(first) - 1
    is_last = np.zeros(n, dtype=bool)
    is_last[by_page[np.append(starts[1:], n) - 1]] = True
    written = np.zeros(starts.size, dtype=bool)
    written[page_of[writes]] = True
    return _PageStream(
        pages=sorted_pages[starts],
        page_of=page_of,
        by_page=by_page,
        first=first,
        prev=prev,
        by_last=page_of[is_last],
        written=written,
        writes=writes,
    )


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


def _set_major(stream: _PageStream, page_set: np.ndarray,
               selected: np.ndarray, n_sets: int):
    """The *selected* accesses in set-major order: each set's accesses
    contiguous, in program order.

    Returns ``(sm, sets, prev)``: their program indices and sets in
    that order, and each one's previous use as a position in it (-1
    for none).
    """
    idx = np.flatnonzero(selected)
    acc_set = page_set[stream.page_of[idx]]
    order = _stable_argsort(acc_set, n_sets)
    sm = idx[order]
    rank = np.empty(stream.prev.size, dtype=np.intp)
    rank[sm] = np.arange(sm.size)
    before = stream.prev[sm]
    # A first use reads rank[-1], which the mask drops.
    return sm, acc_set[order], np.where(before >= 0, rank[before], -1)


def _lru_replay(stream: _PageStream, n_sets: int, assoc: int):
    """Replay *stream* through an empty LRU cache of *n_sets* sets of
    *assoc* ways.

    A calm set (at most *assoc* pages) is closed form; only the
    accesses of crowded sets get stack distances. Returns ``(hits,
    evictions, writebacks, final, dirty)``: per-access hit flags in
    program order, the two counters, the resident lines as indices
    into ``stream.pages`` (set-major, LRU to MRU within a set), and
    their dirty bits.
    """
    page_set = stream.pages % n_sets
    # Every page, set-major and by last use within a set: the `assoc`
    # latest of each set are resident, and a set whose pages all are
    # is calm.
    lru = stream.by_last[_stable_argsort(page_set[stream.by_last], n_sets)]
    lru_set = page_set[lru]
    resident = np.ones(lru.size, dtype=bool)
    resident[:-assoc] = lru_set[assoc:] != lru_set[:-assoc]
    final = lru[resident]
    # In a calm set an access hits iff it reuses a page, and a page's
    # one generation never ends, so it is dirty iff it was written.
    hits = stream.prev >= 0
    if final.size == lru.size:
        return hits, 0, 0, final, stream.written[final]

    # A set is crowded iff its least recent page was evicted.
    starts = np.flatnonzero(np.append(True, lru_set[1:] != lru_set[:-1]))
    crowded_page = np.empty(lru.size, dtype=bool)
    crowded_page[lru] = np.repeat(
        ~resident[starts], np.diff(np.append(starts, lru.size))
    )
    in_crowded = crowded_page[stream.page_of]

    sm, s, prev = _set_major(stream, page_set, in_crowded, n_sets)
    reused = prev >= 0
    short = np.arange(sm.size) - prev <= assoc
    hit = reused & short
    long_gap = np.flatnonzero(reused & ~short)
    if long_gap.size:
        hit[long_gap] = _distinct_in_windows(prev, long_gap) < assoc
    hits[sm] = hit

    # A set never shrinks, so a miss evicts iff it has at least
    # `assoc` earlier misses in its set.
    miss_set = s[~hit]
    evictions = int(np.count_nonzero(miss_set[assoc:] == miss_set[:-assoc]))

    # Generations in page order: a miss starts one (every page's first
    # use misses, so none spans two pages) and each dirty one that is
    # not resident at the end was evicted, writing back once.
    keep = in_crowded[stream.by_page]
    by_page = stream.by_page[keep]
    gen_starts = np.flatnonzero(~hits[by_page])
    gen_dirty = np.logical_or.reduceat(stream.writes[by_page], gen_starts)
    # A page's last generation is the one before the next page's first.
    last_gen = np.append(stream.first[keep][gen_starts[1:]], True)
    dirty = stream.written.copy()
    dirty[crowded_page] = gen_dirty[last_gen]
    final_dirty = dirty[final]
    writebacks = int(
        np.count_nonzero(gen_dirty)
        - np.count_nonzero(final_dirty[crowded_page[final]])
    )
    return hits, evictions, writebacks, final, final_dirty


def _bool_writes(addresses: np.ndarray, writes) -> np.ndarray:
    if writes is None:
        return np.zeros(len(addresses), dtype=bool)
    writes = np.asarray(writes, dtype=bool)
    if len(writes) != len(addresses):
        raise ValueError("writes length must match addresses")
    return writes


def replay_caches(caches: Sequence["DramCache"], addresses,
                  writes=None) -> list[np.ndarray]:
    """Advance each cache in *caches* over one address stream.

    Returns each cache's per-access hit flags, in list order. Each
    cache's statistics and LRU state advance exactly as the equivalent
    sequence of :meth:`DramCache.access` calls would; a cache listed
    twice advances twice, the second time from where the first left
    it. Caches that are cold when their turn comes share one page pass
    per page size; a warm cache gets its own. Each cache's replay is
    one ``dramcache.run_trace`` span and one
    ``memsys.dramcache.run_seconds`` observation (the first cold cache
    of a page size carries the shared pass).
    """
    addresses = _int_addresses(addresses)
    writes = _bool_writes(addresses, writes)
    n = addresses.size
    if n and int(addresses.min()) < 0:
        raise ValueError("address must be non-negative")
    shared: dict[int, _PageStream] = {}
    flags = []
    for cache in caches:
        with obs_trace.span(
            "dramcache.run_trace", accesses=n
        ), obs_metrics.timed("memsys.dramcache.run_seconds"):
            flags.append(cache._replay(addresses, writes, shared))
        obs_metrics.inc("memsys.dramcache.runs")
        obs_metrics.inc("memsys.dramcache.accesses", n)
    return flags


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

    def _replay(self, addresses: np.ndarray, writes: np.ndarray,
                shared: dict[int, _PageStream]) -> np.ndarray:
        """Advance over a validated stream; *shared* holds the page
        passes of cold streams by page size."""
        if addresses.size == 0:
            return np.zeros(0, dtype=bool)
        # A warm cache's resident lines go first, LRU to MRU with their
        # dirty bits as write flags: each misses into an empty way,
        # rebuilding the warm stacks before the new stream replays on
        # top of them.
        warm_sets, warm_tags, warm_dirty = self._line_arrays()
        warm = warm_sets.size
        if warm:
            stream = _page_stream(
                np.concatenate((
                    warm_tags * self.n_sets + warm_sets,
                    addresses // self.page_bytes,
                )),
                np.concatenate((warm_dirty, writes)),
            )
        else:
            stream = shared.get(self.page_bytes)
            if stream is None:
                stream = shared[self.page_bytes] = _page_stream(
                    addresses // self.page_bytes, writes
                )
        hits, evictions, writebacks, final, dirty = _lru_replay(
            stream, self.n_sets, self.associativity
        )
        tags, sets = np.divmod(stream.pages[final], self.n_sets)
        self._lines = (sets, tags, dirty)

        flags = hits[warm:]
        n_hits = int(np.count_nonzero(flags))
        self.stats.hits += n_hits
        self.stats.misses += flags.size - n_hits
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        return flags

    def access_many(self, addresses, writes=None) -> np.ndarray:
        """Batched lookup of a whole address stream: the one-cache case
        of :func:`replay_caches`.

        Returns the per-access hit flags; statistics and LRU state
        advance exactly as the equivalent sequence of :meth:`access`
        calls would, so scalar and batched calls can be freely
        interleaved.
        """
        return replay_caches([self], addresses, writes)[0]

    def run_trace(self, addresses, writes=None) -> DramCacheStats:
        """Stream a whole trace; returns the cumulative statistics."""
        self.access_many(addresses, writes)
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
        if not math.isfinite(external_bytes) or external_bytes <= 0:
            raise ValueError("external_bytes must be finite and positive")
        cache_bytes = self.n_sets * self.associativity * self.page_bytes
        return cache_bytes / (cache_bytes + external_bytes)
