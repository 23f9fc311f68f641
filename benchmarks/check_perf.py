#!/usr/bin/env python
"""Perf-regression gate for the PR-1 performance layer.

Measures the fast paths against seed-equivalent reference
implementations kept in-repo (the triple-loop assembly +
``spsolve``-per-call thermal path; the heap/dict/graph-object NoC loop
replicated below) and asserts the speedup ratios the layer promises:

* repeat ``ThermalGrid.solve`` >= 10x over re-factorizing every call,
* ``solve_many`` over 20 maps >= 15x over 20 sequential seed solves,
* a 100k-message NoC run >= 5x over the seed hot loop,
* the APU simulator's array engine >= 5x over the event-driven oracle
  on the default calibration trace,
* the memsys array engines (row buffer + DRAM-cache capacity sweep +
  page-migration epochs) >= 5x combined over the seed scalar references
  on the 50k-address miss-sensitivity stream (the manager's seed — the
  quadratic re-sort-per-eviction loop — is kept in-repo below, since
  the shipped scalar oracle now evicts via an incremental heap),
* a warm MemsysCache replay of that same sweep >= 5x over the cold run
  (the ROADMAP's cold-vs-warm evaluation-cache ratio),
* the always-on observability layer costs <= 5% on the APU simulator
  (instrumented run vs the same run under ``obs.metrics.disabled()``),
* a warm repeat DSE sweep on a reused ``ShardedPool`` >= 5x over the
  cold spawn-a-pool-per-call baseline, with zero cross-worker
  recomputation of warm cache keys and bit-identical results to the
  serial ``core.dse.explore`` (cold, warm, and after a simulated
  worker death/restart),
* the fused whole-grid tensor evaluation
  (``NodeModel.evaluate_grid``) >= 10x over the seed per-profile
  ``evaluate_arrays`` loop on a full Table-II-scale sweep, with the
  DSE's ``best_mean_index``/``per_app_best_index`` selections
  bit-identical between the two engines,
* the serving layer: warm sustained throughput >= 5x the naive
  one-request-per-``pool.run`` baseline, p99 latency within the
  configured deadline with < 1% shed at the rated open-loop load, and
  every served response bit-identical to a direct serial evaluation,
* transient thermal stepping: amortized-factorization backward-Euler
  steps >= 10x the refactorize-per-step oracle on a Fig. 10-scale
  grid with an absolute steps/sec floor, the transient fixed point
  matching the steady-state ``solve`` within 1e-6 C, per-step
  factored-vs-oracle agreement within 1e-9 C, lockstep batched
  stepping bit-identical to per-scenario integration, and the
  closed-loop governor keeping the simulated DRAM stack under the
  85 C limit on a schedule whose uncontrolled replay exceeds it,

plus numerical agreement (1e-9) between fast and reference paths.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/check_perf.py [--quick]
        [--metrics-out obs/manifest.json] [--trace-out obs/trace.json]

``--metrics-out``/``--trace-out`` write the same run manifest / Chrome
trace-event JSON as ``python -m repro`` does, with one span per check.

Exits non-zero (with a report) if any ratio regresses, so future PRs
can use it as a trajectory check alongside::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \
        --benchmark-json=BENCH_pr1.json

``--bench-summary BENCH_pr3.json`` prints the headline stats of such an
artifact (compact or legacy pretty format) and exits.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import sys
import time

import numpy as np
from scipy.sparse.linalg import spsolve

from repro.memsys.dramcache import DramCache
from repro.memsys.manager import HotnessMigrationPolicy, MemoryManager
from repro.memsys.rowbuffer import RowBufferSim
from repro.noc.routing import route
from repro.noc.simulator import LinkStats, NocSimulator, SimMessage
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.evalcache import MemsysCache
from repro.sim.apu_sim import ApuSimulator
from repro.thermal.grid import ThermalGrid
from repro.util.benchjson import load_summary
from repro.workloads.calibration import default_calibration_trace


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Seed-equivalent reference paths
# ----------------------------------------------------------------------
def seed_thermal_solve(grid: ThermalGrid, maps: np.ndarray) -> np.ndarray:
    """The seed behaviour: reuse the assembled matrix but factorize on
    every call (``spsolve``)."""
    if getattr(grid, "_seed_system", None) is None:
        grid._seed_system = grid._assemble_reference()
    matrix, b_amb = grid._seed_system
    rhs = maps.ravel() + b_amb * grid.stack.ambient_c
    return spsolve(matrix, rhs)


class SeedResortHotnessPolicy(HotnessMigrationPolicy):
    """The seed eviction loop: re-sort the candidate set per eviction.

    PR 5 replaced this with an incremental heap inside
    :class:`HotnessMigrationPolicy` (same victims, same (count, page)
    tie-break — equivalence is unit-tested); this subclass keeps the
    quadratic original as the benchmark reference. Being a subclass, it
    also forces ``MemoryManager.epoch_array`` onto the scalar fallback,
    so the "event" side of the memsys check runs the true seed path.
    """

    def place(self, access_counts, current, capacity_pages):
        from repro.memsys.manager import MemoryLevel, PagePlacement

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
        return PagePlacement(level_of_page=placement, migrated_pages=migrated)


def seed_noc_run(sim: NocSimulator, messages: list[SimMessage]):
    """The seed hot loop: a heap of message objects, per-hop
    ``frozenset`` keys, dict link stats and graph-edge lookups."""
    links: dict[frozenset, LinkStats] = {}
    counter = itertools.count()
    heap: list[tuple[float, int, SimMessage]] = []
    for m in messages:
        heapq.heappush(heap, (m.inject_time, next(counter), m))
    route_cache: dict[tuple[str, str], tuple[str, ...]] = {}
    latencies: list[float] = []
    makespan = 0.0
    while heap:
        now, _, msg = heapq.heappop(heap)
        key = (msg.src, msg.dst)
        if key not in route_cache:
            route_cache[key] = route(sim.topology, msg.src, msg.dst).nodes
        path = route_cache[key]
        t = now
        for a, b in zip(path, path[1:]):
            edge = sim.topology.graph.edges[a, b]
            link = links.setdefault(frozenset((a, b)), LinkStats())
            start = max(t, link.busy_until)
            serialize = msg.size_bytes / sim.link_bandwidth
            done = start + serialize + edge["latency"]
            link.busy_until = start + serialize
            link.bytes_carried += msg.size_bytes
            link.messages += 1
            t = done
        latencies.append(t - msg.inject_time)
        makespan = max(makespan, t)
    return latencies, makespan


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_thermal(quick: bool) -> list[str]:
    nx = ny = 66 if quick else 132
    repeats = 2 if quick else 3
    grid = ThermalGrid(66.0, 22.0, nx=nx, ny=ny)
    rng = np.random.default_rng(0)
    maps = rng.random((grid.stack.n_layers, ny, nx))

    fast_field = grid.solve(maps)  # factorizes once
    ref = seed_thermal_solve(grid, maps)
    err = float(np.abs(fast_field.celsius.ravel() - ref).max())

    t_fast = _best_of(lambda: grid.solve(maps), repeats)
    t_seed = _best_of(lambda: seed_thermal_solve(grid, maps), repeats)
    resolve_ratio = t_seed / t_fast

    n_batch = 20
    batch = np.stack([maps * (1.0 + 0.01 * k) for k in range(n_batch)])
    t_batch = _best_of(lambda: grid.solve_many(batch), repeats)
    batch_ratio = n_batch * t_seed / t_batch

    print(f"thermal {nx}x{ny}: repeat solve {t_fast * 1e3:.1f} ms vs seed "
          f"{t_seed * 1e3:.1f} ms -> {resolve_ratio:.1f}x "
          f"(max |dT| = {err:.2e} C)")
    print(f"thermal solve_many({n_batch}): {t_batch * 1e3:.1f} ms vs "
          f"{n_batch} seed solves -> {batch_ratio:.1f}x")

    failures = []
    if err > 1e-9:
        failures.append(f"thermal mismatch vs spsolve: {err:.2e} > 1e-9")
    if resolve_ratio < 10.0:
        failures.append(
            f"thermal repeat-solve speedup {resolve_ratio:.1f}x < 10x"
        )
    if batch_ratio < 15.0:
        failures.append(
            f"thermal solve_many speedup {batch_ratio:.1f}x < 15x"
        )
    return failures


def check_thermal_transient(quick: bool) -> list[str]:
    """The transient thermal stepping + closed-loop control gates.

    Runs :func:`repro.thermal.bench.run_thermal_loop_bench` on the
    Fig. 10 grid (quick) or a 4x-refined one (full) and asserts:
    amortized stepping >= 10x the refactorize-per-step oracle and above
    an absolute steps/sec floor; the transient fixed point equals the
    steady solve (<= 1e-6 C); a factored step equals an oracle step
    from the same state (<= 1e-9 C); lockstep batched stepping is
    bit-identical to per-scenario stepping; and the governed run stays
    under the DRAM limit while the uncontrolled replay exceeds it with
    at least one throttle intervention recorded.
    """
    from repro.thermal.bench import run_thermal_loop_bench

    if quick:
        report = run_thermal_loop_bench(factored_steps=300, oracle_steps=8)
        steps_floor = 250.0
    else:
        report = run_thermal_loop_bench(
            nx=132, ny=44, factored_steps=300, oracle_steps=6
        )
        steps_floor = 60.0

    g, r = report.governed, report.replay
    print(f"thermal transient {report.cells} cells: "
          f"{report.steps_per_s:.0f} steps/s factored vs "
          f"{report.oracle_steps / report.oracle_s:.0f} oracle -> "
          f"{report.speedup:.1f}x (converge err {report.converge_err_c:.2e}, "
          f"step err {report.oracle_step_err_c:.2e}, batched identical: "
          f"{report.batch_identical})")
    print(f"thermal loop: governed peak {g.max_peak_dram_c:.1f} C / "
          f"{len(g.throttle_events)} throttles vs uncontrolled "
          f"{r.max_peak_dram_c:.1f} C ({r.time_over_limit_s:.1f} s over "
          f"the {r.limit_c:.0f} C limit)")

    failures = []
    if report.speedup < 10.0:
        failures.append(
            f"transient stepping speedup {report.speedup:.1f}x < 10x"
        )
    if report.steps_per_s < steps_floor:
        failures.append(
            f"transient stepping {report.steps_per_s:.0f} steps/s < "
            f"{steps_floor:.0f} floor"
        )
    if report.converge_err_c > 1e-6:
        failures.append(
            f"transient fixed point vs steady solve: "
            f"{report.converge_err_c:.2e} C > 1e-6"
        )
    if report.oracle_step_err_c > 1e-9:
        failures.append(
            f"factored step vs oracle step: "
            f"{report.oracle_step_err_c:.2e} C > 1e-9"
        )
    if not report.batch_identical:
        failures.append(
            "lockstep batched stepping diverged from per-scenario steps"
        )
    if not g.within_limit:
        failures.append(
            f"governed run peaked at {g.max_peak_dram_c:.1f} C over the "
            f"{g.limit_c:.0f} C limit"
        )
    if r.within_limit:
        failures.append(
            "uncontrolled replay stayed under the limit — the scenario "
            "exercises no thermal constraint"
        )
    if not g.throttle_events:
        failures.append("governed run recorded no throttle events")
    return failures


def check_noc(quick: bool) -> list[str]:
    n = 20_000 if quick else 100_000
    rng = np.random.default_rng(1)
    nodes = [f"gpu{i}" for i in range(8)] + [f"dram{i}" for i in range(8)]
    src = rng.integers(0, len(nodes), size=n)
    dst = (src + 1 + rng.integers(0, len(nodes) - 1, size=n)) % len(nodes)
    msgs = [
        SimMessage(nodes[s], nodes[d], 4096.0, k * 1e-9)
        for k, (s, d) in enumerate(zip(src, dst))
    ]

    sim = NocSimulator()
    ref_lat, ref_mk = seed_noc_run(sim, msgs)
    res = sim.run(msgs)
    identical = res.latencies == ref_lat and res.makespan == ref_mk

    t_fast = _best_of(lambda: NocSimulator().run(msgs), 3)
    t_seed = _best_of(lambda: seed_noc_run(NocSimulator(), msgs), 2)
    ratio = t_seed / t_fast
    print(f"noc {n // 1000}k messages: {t_fast * 1e3:.0f} ms vs seed "
          f"{t_seed * 1e3:.0f} ms -> {ratio:.1f}x "
          f"(latencies identical: {identical})")

    failures = []
    if not identical:
        failures.append("NoC fast path diverged from the seed loop")
    if ratio < 5.0:
        failures.append(f"NoC speedup {ratio:.1f}x < 5x")
    return failures


def check_apu_sim(quick: bool) -> list[str]:
    n = 10_000 if quick else 50_000
    trace = default_calibration_trace(n_accesses=n)
    sim = ApuSimulator()

    array = sim.run(trace)
    event = sim.run(trace, engine="event")
    fields = {
        "elapsed": (array.elapsed, event.elapsed),
        "total_flops": (array.total_flops, event.total_flops),
        "mean_memory_latency": (
            array.mean_memory_latency, event.mean_memory_latency
        ),
        "cu_utilization": (array.cu_utilization, event.cu_utilization),
    }
    err = max(
        abs(a - e) / max(abs(e), 1e-300) for a, e in fields.values()
    )
    counts_match = (
        array.dram_accesses == event.dram_accesses
        and array.hit_rates == event.hit_rates
    )

    t_array = _best_of(lambda: sim.run(trace), 3)
    t_event = _best_of(lambda: sim.run(trace, engine="event"), 2)
    ratio = t_event / t_array
    print(f"apu_sim {n // 1000}k accesses: array {t_array * 1e3:.0f} ms vs "
          f"event {t_event * 1e3:.0f} ms -> {ratio:.1f}x "
          f"(max rel err = {err:.2e})")

    failures = []
    if err > 1e-9 or not counts_match:
        failures.append(
            f"apu_sim array engine diverged from event oracle "
            f"(rel err {err:.2e}, counts match: {counts_match})"
        )
    if ratio < 5.0:
        failures.append(f"apu_sim array-engine speedup {ratio:.1f}x < 5x")
    return failures


_MEMSYS_CAPACITY_FRACTIONS = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)


def _memsys_sweep_params(quick: bool):
    n = 10_000 if quick else 50_000
    trace = default_calibration_trace(n_accesses=n)
    capacities = [
        max(4096.0 * 8, fraction * trace.footprint_bytes)
        for fraction in _MEMSYS_CAPACITY_FRACTIONS
    ]
    # Manager capacity at 20% of the stream's unique pages: the
    # migration machinery runs under eviction pressure, as the low end
    # of the experiments' capacity sweep does.
    unique_pages = int(np.unique(trace.addresses // 4096).size)
    manager_capacity = max(4096.0, unique_pages // 5 * 4096.0)
    return n, trace, capacities, manager_capacity


def check_memsys(quick: bool) -> list[str]:
    from dataclasses import astuple

    n, trace, capacities, manager_capacity = _memsys_sweep_params(quick)
    addrs, writes = trace.addresses, trace.is_write
    epochs = np.array_split(addrs, 4)

    def replay(engine: str):
        rb = RowBufferSim(engine=engine)
        rb.run(addrs)
        dram = []
        for capacity in capacities:
            cache = DramCache(capacity, 4096, 8, engine=engine)
            cache.run_trace(addrs, writes)
            dram.append(astuple(cache.stats))
        # The "event" side drives the seed's quadratic re-sort-per-
        # eviction policy: the shipped scalar oracle now uses an
        # incremental heap (PR 5), so the seed-equivalent reference
        # lives here like the thermal/NoC ones do.
        policy = (
            SeedResortHotnessPolicy()
            if engine == "event"
            else HotnessMigrationPolicy()
        )
        manager = MemoryManager(manager_capacity, policy, 4096, engine=engine)
        fractions = manager.run_batch(epochs)
        return astuple(rb.stats), dram, fractions

    array_out = replay("array")
    event_out = replay("event")
    identical = (
        array_out[0] == event_out[0]
        and array_out[1] == event_out[1]
        and all(
            abs(a - e) <= 1e-9 * max(abs(e), 1e-300)
            for a, e in zip(array_out[2], event_out[2])
        )
    )

    t_array = _best_of(lambda: replay("array"), 3)
    t_event = _best_of(lambda: replay("event"), 1)  # scalar manager is slow
    ratio = t_event / t_array
    print(f"memsys {n // 1000}k addresses (row buffer + "
          f"{len(capacities)}-capacity DRAM-cache sweep + 4 migration "
          f"epochs): array {t_array * 1e3:.0f} ms vs event "
          f"{t_event * 1e3:.0f} ms -> {ratio:.1f}x "
          f"(outputs identical: {identical})")

    failures = []
    if not identical:
        failures.append("memsys array engines diverged from the oracles")
    if ratio < 5.0:
        failures.append(f"memsys array-engine speedup {ratio:.1f}x < 5x")
    return failures


def check_memsys_cache(quick: bool) -> list[str]:
    n, trace, capacities, manager_capacity = _memsys_sweep_params(quick)
    addrs, writes = trace.addresses, trace.is_write

    def sweep(cache: MemsysCache):
        cache.rowbuffer_stats(addrs)
        for capacity in capacities:
            cache.dram_stats(addrs, writes, capacity_bytes=capacity)
        cache.manager_fractions(
            addrs, n_epochs=4, capacity_bytes=manager_capacity
        )

    cache = MemsysCache()
    t_cold = _best_of(lambda: sweep(cache), 1)  # first run computes
    t_warm = _best_of(lambda: sweep(cache), 3)  # later runs only look up
    ratio = t_cold / t_warm
    stats = cache.stats()
    print(f"memsys cache {n // 1000}k addresses: cold {t_cold * 1e3:.0f} ms "
          f"vs warm {t_warm * 1e3:.1f} ms -> {ratio:.1f}x "
          f"(hits {stats.hits}, misses {stats.misses})")

    failures = []
    if stats.misses != len(capacities) + 2:
        failures.append(
            f"memsys cache recomputed warm entries "
            f"({stats.misses} misses for {len(capacities) + 2} keys)"
        )
    if ratio < 5.0:
        failures.append(f"memsys cold-vs-warm ratio {ratio:.1f}x < 5x")
    return failures


def check_obs_overhead(quick: bool) -> list[str]:
    """The observability layer's always-on cost on the hottest path.

    Runs the APU simulator's array engine with metrics enabled and again
    under :func:`repro.obs.metrics.disabled`, and requires the
    instrumented run to stay within 5% — the layer's 'cheap enough to
    never turn off' promise. Also asserts the counters actually fired.

    A second gate covers the serving path with *tracing active*: warm
    closed-loop bursts through the in-process service with a live
    tracer (request spans, queue-wait spans, batch spans, SLO
    publication) vs the same bursts with metrics disabled and no
    tracer, again within 5%.
    """
    import gc
    import statistics

    n = 10_000 if quick else 50_000
    rounds, per_batch = 10, 2
    trace = default_calibration_trace(n_accesses=n)
    sim = ApuSimulator()
    sim.run(trace)  # warm-up: JIT-free, but page-in + allocator steady state

    def batch() -> float:
        t0 = time.perf_counter()
        for _ in range(per_batch):
            sim.run(trace)
        return time.perf_counter() - t0

    def measure() -> float:
        # The true per-run cost of the layer is microseconds, far below
        # this environment's run-to-run jitter, so the estimator has to
        # be noise robust: time instrumented/disabled batches
        # back-to-back (alternating which side goes first so drift and
        # warm-second-run effects cancel), and take the median of the
        # per-pair ratios with the cyclic GC parked.
        ratios = []
        gc.collect()
        gc.disable()
        try:
            for k in range(rounds):
                if k % 2 == 0:
                    t_on = batch()
                    with obs_metrics.disabled():
                        t_off = batch()
                else:
                    with obs_metrics.disabled():
                        t_off = batch()
                    t_on = batch()
                ratios.append(t_on / t_off)
        finally:
            gc.enable()
        return statistics.median(ratios) - 1.0

    registry = obs_metrics.default_registry()
    runs_before = registry.snapshot().counter("sim.apu.runs")
    # On a loaded machine a single measurement can still read high, so
    # a measurement over the limit is retried: noise passes eventually,
    # a real systematic regression fails every attempt.
    attempts = 3
    for attempt in range(attempts):
        overhead = measure()
        if overhead <= 0.05:
            break
    runs_delta = registry.snapshot().counter("sim.apu.runs") - runs_before
    expected_runs = (attempt + 1) * rounds * per_batch
    print(f"obs overhead {n // 1000}k accesses ({rounds} paired batches "
          f"of {per_batch}, attempt {attempt + 1}/{attempts}): median "
          f"instrumented/disabled ratio {overhead * 100.0:+.1f}% "
          f"(counter delta: {runs_delta})")

    failures = []
    if runs_delta != expected_runs:
        failures.append(
            f"sim.apu.runs advanced by {runs_delta}, expected "
            f"{expected_runs} (instrumentation not firing?)"
        )
    if overhead > 0.05:
        failures.append(
            f"observability overhead {overhead * 100.0:.1f}% > 5% "
            f"({attempts} attempts)"
        )

    # --- serve path, tracing active -------------------------------
    from repro.perf.evalcache import EvalCache
    from repro.serve.bench import run_arrivals
    from repro.serve.workload import Arrival, synthetic_arrivals

    n_req = 48 if quick else 120
    serve_rounds = 6
    arrivals = [
        Arrival(0.0, a.request)
        for a in synthetic_arrivals(3, n_req, deadline_s=None)
    ]
    cache = EvalCache()
    run_arrivals(arrivals, pool=None, cache=cache)  # warm the caches

    def serve_burst(traced: bool) -> float:
        t0 = time.perf_counter()
        if traced:
            with obs_trace.trace():
                run_arrivals(arrivals, pool=None, cache=cache)
        else:
            with obs_metrics.disabled():
                run_arrivals(arrivals, pool=None, cache=cache)
        return time.perf_counter() - t0

    def measure_serve() -> float:
        ratios = []
        gc.collect()
        gc.disable()
        try:
            for k in range(serve_rounds):
                if k % 2 == 0:
                    t_on = serve_burst(True)
                    t_off = serve_burst(False)
                else:
                    t_off = serve_burst(False)
                    t_on = serve_burst(True)
                ratios.append(t_on / t_off)
        finally:
            gc.enable()
        return statistics.median(ratios) - 1.0

    with obs_trace.trace() as tracer:
        run_arrivals(arrivals, pool=None, cache=cache)
    if not any(e["name"].startswith("serve.") for e in tracer.events):
        failures.append(
            "active tracer recorded no serve.* spans on the serve "
            "path (tracing not wired?)"
        )

    for attempt in range(attempts):
        serve_overhead = measure_serve()
        if serve_overhead <= 0.05:
            break
    print(f"serve obs overhead {n_req} warm requests ({serve_rounds} "
          f"paired bursts, attempt {attempt + 1}/{attempts}): median "
          f"traced/disabled ratio {serve_overhead * 100.0:+.1f}%")
    if serve_overhead > 0.05:
        failures.append(
            f"serve-path observability overhead (tracing active) "
            f"{serve_overhead * 100.0:.1f}% > 5% ({attempts} attempts)"
        )
    return failures


def check_pool_affinity(quick: bool) -> list[str]:
    """The persistent sharded pool's cache-affinity promise.

    A warm repeat sweep on a reused :class:`ShardedPool` must beat the
    cold spawn-per-call baseline >= 5x, recompute zero warm cache keys
    (merged worker ``cache.eval`` deltas: no misses, one hit per tensor
    slab task), and stay bit-identical to the serial DSE — cold, warm,
    and after a worker is killed and respawned. The unit of work is a
    fused (profile-block x CU-slab) tensor slab, so the task count is
    ``n_blocks * n_slabs``.
    """
    from repro.core.config import DesignSpace
    from repro.core.dse import explore
    from repro.perf.evalcache import clear_cache
    from repro.perf.parallel import parallel_explore
    from repro.perf.pool import ShardedPool
    from repro.workloads.catalog import application_names, get_application

    n_shards, n_chunks = 2, 4
    if quick:
        names = ["MaxFlops", "CoMD", "MiniAMR", "SNAP"]
        frequencies = tuple(700e6 + 10e6 * k for k in range(81))
    else:
        names = application_names()
        frequencies = tuple(700e6 + 5e6 * k for k in range(161))
    space = DesignSpace(
        cu_counts=tuple(range(192, 385, 4)),
        frequencies=frequencies,
        bandwidths=tuple(1e12 + 0.25e12 * k for k in range(25)),
    )
    profiles = [get_application(n) for n in names]
    # Mirrors the slab split in repro.perf.parallel.parallel_explore.
    n_blocks = max(1, min(n_chunks, len(profiles)))
    n_slabs = max(1, min(n_chunks, len(space.cu_counts)))
    n_tasks = n_blocks * n_slabs

    serial = explore(profiles, space, cache=False)

    def matches_serial(result) -> bool:
        return (
            result.best_mean_index == serial.best_mean_index
            and dict(result.per_app_best_index)
            == dict(serial.per_app_best_index)
            and all(
                np.array_equal(result.performance[n], serial.performance[n])
                and np.array_equal(result.node_power[n], serial.node_power[n])
                for n in names
            )
        )

    # Cold baseline: what every sweep pays without a persistent pool —
    # spawn workers, compute everything, tear the pool down. The parent
    # caches are cleared first: forked workers inherit the parent's
    # memory, so a warm parent would leak warmth into the "cold" pool.
    clear_cache()
    t0 = time.perf_counter()
    with ShardedPool(n_shards) as cold_pool:
        cold_result = parallel_explore(
            profiles, space, n_chunks=n_chunks, pool=cold_pool
        )
    t_cold = time.perf_counter() - t0

    # Persistent pool: the first sweep warms each worker's own shard;
    # repeat sweeps must be pure cache traffic. batch_size covers each
    # worker's whole queue in one dispatch, so no task is stolen onto a
    # worker that never owned its cache entries.
    clear_cache()
    pool = ShardedPool(n_shards, batch_size=n_tasks)
    try:
        first_result = parallel_explore(
            profiles, space, n_chunks=n_chunks, pool=pool
        )
        t_warm = float("inf")
        snap = None
        for _ in range(3):
            t0 = time.perf_counter()
            warm_result, warm_snap = parallel_explore(
                profiles, space, n_chunks=n_chunks, pool=pool, metrics=True
            )
            elapsed = time.perf_counter() - t0
            if elapsed < t_warm:
                t_warm, snap = elapsed, warm_snap
        ratio = t_cold / t_warm
        misses = snap.counter("cache.eval.misses")
        hits = snap.counter("cache.eval.hits")

        restarts_before = pool.stats().worker_restarts
        pool.kill_worker(0)
        killed_result = parallel_explore(
            profiles, space, n_chunks=n_chunks, pool=pool
        )
        restarts_after = pool.stats().worker_restarts
    finally:
        pool.shutdown()

    identical = all(
        matches_serial(r)
        for r in (cold_result, first_result, warm_result, killed_result)
    )
    print(f"pool affinity {len(profiles)} profiles x {space.size // 1000}k "
          f"points: cold per-call pool {t_cold * 1e3:.0f} ms vs warm reused "
          f"{t_warm * 1e3:.0f} ms -> {ratio:.1f}x (warm misses {misses}, "
          f"hits {hits}/{n_tasks}, identical to serial: {identical})")

    failures = []
    if not identical:
        failures.append("pooled DSE diverged from the serial explore")
    if ratio < 5.0:
        failures.append(f"pool warm-vs-cold speedup {ratio:.1f}x < 5x")
    if misses != 0:
        failures.append(
            f"warm sweep recomputed {misses} cache keys across workers"
        )
    if hits != n_tasks:
        failures.append(
            f"warm sweep saw {hits} cache.eval hits, expected {n_tasks}"
        )
    if restarts_after != restarts_before + 1:
        failures.append(
            f"worker kill produced {restarts_after - restarts_before} "
            f"restarts, expected 1"
        )
    return failures


def check_tensor_eval(quick: bool) -> list[str]:
    """The fused whole-grid tensor evaluation's two promises.

    Speed: one ``NodeModel.evaluate_grid`` broadcast pass over a full
    Table-II-scale ``(P, CU, freq, BW)`` sweep must beat the seed
    per-profile path — ``evaluate_arrays`` plus the
    performance/node-power property materializations and the
    feasibility compare, per profile, exactly what the seed
    ``core.dse.explore`` loop did — by >= 10x.

    Identity: ``explore(engine="tensor")`` and ``explore(
    engine="point")`` must select bit-identical ``best_mean_index`` and
    ``per_app_best_index`` optima on the catalog, and the grids must
    agree to rtol 1e-12 with exactly equal feasibility masks (the
    fused kernel reassociates arithmetic, so values differ by a few
    ULPs — ~8 orders of magnitude below the catalog's tightest argmax
    and budget margins).
    """
    from repro.core.config import DesignSpace
    from repro.core.dse import explore
    from repro.core.node import NodeModel
    from repro.util import alloctune
    from repro.workloads.catalog import application_names, get_application
    from repro.workloads.kernels import ProfileBatch

    # Without this, glibc returns every freed scratch tensor to the OS
    # and the tensor pass re-faults its pages each call (~2x slower).
    alloctune.retain_freed_heap()

    apps = [get_application(n) for n in application_names()]
    scales = 4 if quick else 8
    profiles = [
        app.scaled_problem(float(2 ** k)).with_overrides(
            name=f"{app.name}/x{2 ** k}"
        )
        for app in apps
        for k in range(scales)
    ]
    space = DesignSpace()
    model = NodeModel()
    cus, freqs, bws = space.grid_arrays()
    repeats = 3 if quick else 5

    def point_sweep():
        out = {}
        for profile in profiles:
            ev = model.evaluate_arrays(profile, cus, freqs, bws)
            perf = np.asarray(ev.performance, dtype=float)
            power = np.asarray(ev.node_power, dtype=float)
            out[profile.name] = (perf, power, power <= space.power_budget)
        return out

    batch = ProfileBatch.from_profiles(profiles)

    grid = model.evaluate_grid(batch, space)
    ref = point_sweep()
    max_rel = 0.0
    masks_equal = True
    for i, name in enumerate(grid.names):
        perf, power, feas = ref[name]
        max_rel = max(
            max_rel,
            float(np.abs(grid.performance[i] / perf - 1.0).max()),
            float(np.abs(grid.power[i] / power - 1.0).max()),
        )
        masks_equal = masks_equal and np.array_equal(grid.feasible[i], feas)

    t_tensor = _best_of(lambda: model.evaluate_grid(batch, space), repeats)
    t_point = _best_of(point_sweep, repeats)
    ratio = t_point / t_tensor

    serial_point = explore(apps, space, model, cache=False, engine="point")
    serial_tensor = explore(apps, space, model, cache=False, engine="tensor")
    argmax_identical = (
        serial_tensor.best_mean_index == serial_point.best_mean_index
        and dict(serial_tensor.per_app_best_index)
        == dict(serial_point.per_app_best_index)
    )

    print(f"tensor eval {len(profiles)} profiles x {space.size} points: "
          f"fused {t_tensor * 1e3:.2f} ms vs per-profile "
          f"{t_point * 1e3:.1f} ms -> {ratio:.1f}x "
          f"(max rel err = {max_rel:.2e}, argmax identical: "
          f"{argmax_identical})")

    failures = []
    if max_rel > 1e-12:
        failures.append(
            f"tensor grid diverged from per-profile path: {max_rel:.2e} "
            f"> 1e-12"
        )
    if not masks_equal:
        failures.append("tensor feasibility masks diverged")
    if not argmax_identical:
        failures.append(
            "tensor/point engines selected different DSE optima"
        )
    if ratio < 10.0:
        failures.append(f"tensor evaluation speedup {ratio:.1f}x < 10x")
    return failures


def check_serve(quick: bool) -> list[str]:
    """The serving layer's three acceptance gates.

    * **Identity** — a mixed burst of point/sweep requests served
      through the pooled, coalescing service must answer bit-identical
      to :func:`repro.serve.service.serial_answer` on every request.
    * **Capacity** — warm sustained closed-loop throughput must beat
      the naive one-``pool.run``-per-request baseline >= 5x (the
      coalescing + inline-cache promise).
    * **Tail latency** — replaying an open-loop Poisson schedule at a
      rated load (a quarter of measured capacity, capped) must keep
      p99 within the configured deadline with < 1% shed + expiry.
    """
    import asyncio

    from repro.core.node import NodeModel
    from repro.perf.evalcache import EvalCache
    from repro.perf.pool import ShardedPool
    from repro.serve.bench import naive_baseline_rps, run_arrivals
    from repro.serve.requests import OK, PointResult
    from repro.serve.service import EvalService, serial_answer
    from repro.serve.workload import synthetic_arrivals

    n = 96 if quick else 240
    deadline_s = 0.25
    model = NodeModel()
    cache = EvalCache()  # private: the gate measures its own warmth
    failures: list[str] = []

    with ShardedPool(2) as pool:
        # Identity: every served answer vs the serial oracle.
        identity_arrivals = synthetic_arrivals(7, 32, deadline_s=None)

        async def serve_burst():
            service = EvalService(
                model=model, pool=pool, cache=EvalCache(),
                batch_window_s=0.01,
            )
            async with service:
                return await asyncio.gather(
                    *(service.submit(a.request) for a in identity_arrivals)
                )

        responses = asyncio.run(serve_burst())
        mismatches = 0
        for arrival, response in zip(identity_arrivals, responses):
            if response.status != OK:
                mismatches += 1
                continue
            oracle = serial_answer(arrival.request, model)
            if isinstance(oracle, PointResult):
                same = response.value == oracle
            else:  # DseResult
                same = (
                    response.value.best_mean_index
                    == oracle.best_mean_index
                    and dict(response.value.per_app_best_index)
                    == dict(oracle.per_app_best_index)
                    and all(
                        np.array_equal(
                            response.value.performance[a],
                            oracle.performance[a],
                        )
                        for a in oracle.performance
                    )
                )
            if not same:
                mismatches += 1

        # Capacity: warm closed-loop burst vs the naive baseline.
        # Best-of on both sides, like the other timing gates: one bad
        # scheduler quantum must not fail the run.
        repeats = 2 if quick else 3
        arrivals = synthetic_arrivals(0, n, deadline_s=deadline_s)
        run_arrivals(arrivals, model=model, pool=pool, cache=cache)  # warm
        report = max(
            (
                run_arrivals(arrivals, model=model, pool=pool, cache=cache)
                for _ in range(repeats)
            ),
            key=lambda r: r.throughput_rps,
        )
        base_rps = max(
            naive_baseline_rps(arrivals, pool, model)
            for _ in range(repeats)
        )
        speedup = report.throughput_rps / base_rps if base_rps else 0.0

        # Tail latency at the rated open-loop load.
        rate_hz = max(100.0, min(report.throughput_rps / 4.0, 5000.0))
        open_arrivals = synthetic_arrivals(
            1, n, rate_hz=rate_hz, deadline_s=deadline_s
        )
        open_report = run_arrivals(
            open_arrivals, model=model, pool=pool, cache=cache
        )

    print(f"serve {n} requests: warm {report.throughput_rps:.0f} req/s vs "
          f"naive {base_rps:.0f} req/s -> {speedup:.1f}x; open loop @ "
          f"{rate_hz:.0f} Hz: p99 {open_report.p99_ms:.2f} ms "
          f"(deadline {deadline_s * 1e3:.0f} ms), shed "
          f"{open_report.shed_fraction * 100.0:.2f}% "
          f"(identity mismatches: {mismatches})")

    if mismatches:
        failures.append(
            f"serve answers diverged from serial oracle on "
            f"{mismatches}/{len(identity_arrivals)} requests"
        )
    if speedup < 5.0:
        failures.append(
            f"serve warm throughput {speedup:.1f}x naive baseline < 5x"
        )
    if open_report.p99_ms > deadline_s * 1e3:
        failures.append(
            f"serve open-loop p99 {open_report.p99_ms:.1f} ms over the "
            f"{deadline_s * 1e3:.0f} ms deadline"
        )
    if open_report.shed_fraction >= 0.01:
        failures.append(
            f"serve shed {open_report.shed_fraction * 100.0:.1f}% >= 1% "
            f"at the rated load"
        )
    return failures


def check_fleet(quick: bool) -> list[str]:
    """The sharded multi-node fleet sweep's promises.

    Correctness: the pooled sweep must be bit-identical to the serial
    :meth:`ExascaleSystem.estimate` loop — cold on a fresh pool and
    after a worker death. Shape: one task per ``(group, profile)``
    series. Scheduling: the unkeyed series tasks, dealt round-robin,
    must spread evenly (assignment balance >= 0.75 — deterministic, no
    wall-clock noise).
    """
    from repro.fleet.bench import identical_results
    from repro.fleet.spec import synthetic_fleet
    from repro.fleet.sweep import fleet_sweep, fleet_sweep_serial
    from repro.perf.pool import ShardedPool

    n_shards = 2
    if quick:
        spec = synthetic_fleet(n_nodes=1000, n_groups=6, seed=0)
        cu_counts = tuple(range(192, 385, 16))
    else:
        spec = synthetic_fleet(n_nodes=1000, n_groups=8, seed=0)
        cu_counts = tuple(range(192, 385, 8))

    t0 = time.perf_counter()
    serial = fleet_sweep_serial(spec, cu_counts)
    t_serial = time.perf_counter() - t0

    with ShardedPool(n_shards) as pool:
        t0 = time.perf_counter()
        cold = fleet_sweep(spec, cu_counts, pool=pool)
        t_cold = time.perf_counter() - t0
        counts = pool.last_shard_task_counts()
        balance = pool.assignment_balance()

        restarts_before = pool.stats().worker_restarts
        pool.kill_worker(0)
        killed = fleet_sweep(spec, cu_counts, pool=pool)
        restarts_after = pool.stats().worker_restarts

    identical = all(identical_results(serial, r) for r in (cold, killed))
    print(f"fleet {spec.n_nodes} nodes / {len(spec.groups)} groups x "
          f"{len(cu_counts)} CU points: serial {t_serial * 1e3:.0f} ms vs "
          f"cold pool {t_cold * 1e3:.0f} ms (tasks {sum(counts)} for "
          f"{spec.n_series} series, shards {counts} balance "
          f"{balance:.2f}, identical to serial: {identical})")

    failures = []
    if not identical:
        failures.append("fleet sweep diverged from the serial estimate loop")
    if sum(counts) != spec.n_series:
        failures.append(
            f"fleet sweep submitted {sum(counts)} tasks, expected one per "
            f"series ({spec.n_series})"
        )
    if balance < 0.75:
        failures.append(
            f"fleet shard assignment balance {balance:.2f} < 0.75 "
            f"(counts {counts})"
        )
    if restarts_after != restarts_before + 1:
        failures.append(
            f"worker kill produced {restarts_after - restarts_before} "
            f"restarts, expected 1"
        )
    if t_cold <= 0:  # pragma: no cover - sanity
        failures.append("cold fleet run measured non-positive time")
    return failures


CHECKS = (
    ("thermal", check_thermal),
    ("thermal_transient", check_thermal_transient),
    ("noc", check_noc),
    ("apu_sim", check_apu_sim),
    ("memsys", check_memsys),
    ("memsys_cache", check_memsys_cache),
    ("obs_overhead", check_obs_overhead),
    ("pool_affinity", check_pool_affinity),
    ("tensor_eval", check_tensor_eval),
    ("serve", check_serve),
    ("fleet", check_fleet),
)


def print_bench_summary(path: str) -> None:
    """Headline stats of a ``--benchmark-json`` artifact (either the
    compact format with a ``summary`` block or the legacy pretty one)."""
    summary = load_summary(path)
    width = max((len(n) for n in summary), default=0)
    for name, stats in sorted(summary.items()):
        mean = stats.get("mean_s")
        stddev = stats.get("stddev_s")
        rounds = stats.get("rounds")
        mean_txt = f"{mean * 1e3:10.2f} ms" if mean is not None else "?"
        sd_txt = f"+/- {stddev * 1e3:.2f}" if stddev is not None else ""
        print(f"{name:<{width}}  {mean_txt} {sd_txt}  ({rounds} rounds)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller problem sizes (CI smoke run)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a run manifest JSON for the gate run to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write Chrome trace-event JSON (one span per check) to PATH",
    )
    parser.add_argument(
        "--bench-summary",
        metavar="BENCH_JSON",
        default=None,
        help="print the summary of a --benchmark-json artifact and exit",
    )
    args = parser.parse_args(argv)

    if args.bench_summary:
        print_bench_summary(args.bench_summary)
        return 0

    from contextlib import nullcontext

    failures: list[str] = []
    wall_times: dict[str, float] = {}
    t_start = time.perf_counter()
    tracer_cm = obs_trace.trace() if args.trace_out else nullcontext(None)
    with tracer_cm as tracer:
        for name, check in CHECKS:
            t0 = time.perf_counter()
            with obs_trace.span(f"check.{name}"):
                failures += check(args.quick)
            wall_times[name] = time.perf_counter() - t0
    wall_times["total"] = time.perf_counter() - t_start
    if args.trace_out and tracer is not None:
        tracer.write(args.trace_out)
    if args.metrics_out:
        from repro.obs import manifest as obs_manifest

        obs_manifest.write_manifest(
            args.metrics_out,
            command="check_perf" + (" --quick" if args.quick else ""),
            experiments=[name for name, _ in CHECKS],
            wall_times=wall_times,
        )

    if failures:
        print("\nPERF REGRESSION:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall perf ratios hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
