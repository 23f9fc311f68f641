"""Command-line entry point: regenerate paper artifacts.

Usage::

    python -m repro list                # show available experiments
    python -m repro fig8 table2        # run selected artifacts
    python -m repro all                 # run everything
    python -m repro all --pool-shards 4 # ... across a sharded pool of
                                        # 4 worker processes
    python -m repro all --metrics-out manifest.json --trace-out trace.json
                                        # ... plus a run manifest and a
                                        # Perfetto-loadable span trace
    python -m repro table2 --engine point
                                        # per-profile oracle DSE engine
                                        # (default: fused tensor passes)
    python -m repro serve               # serve benchmark: async batched
                                        # front-end vs naive per-request
                                        # pool round-trips
    python -m repro serve --serve-rate 500 --serve-requests 400
                                        # open-loop tail-latency run
    python -m repro fleet               # fleet benchmark: sharded
                                        # multi-node CU sweep vs the
                                        # serial estimate loop
    python -m repro fleet --fleet-nodes 5000 --fleet-groups 8
                                        # bigger synthetic fleet
    python -m repro thermal-loop        # transient thermal stepping +
                                        # closed-loop governor vs
                                        # uncontrolled replay
    python -m repro thermal-loop --thermal-cycles 4 --thermal-dt-ms 5
                                        # longer, finer-grained schedule
    python -m repro all --metrics-export metrics.jsonl
                                        # stream interval metric diffs
                                        # (JSONL) plus a final Prometheus
                                        # text snapshot alongside
    python -m repro obs report manifest.json
                                        # where-did-the-time-go report
    python -m repro obs diff BENCH_pr7.json BENCH_pr8.json
    python -m repro obs diff .          # BENCH_pr* trajectory check;
                                        # exit status = regressions
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.experiments.registry import EXPERIMENTS


@contextlib.contextmanager
def _metrics_export(path: str | None):
    """Thread-mode live metrics export around a synchronous run."""
    if not path:
        yield None
        return
    from repro.obs.export import PeriodicSampler

    sampler = PeriodicSampler(path, interval_s=0.25)
    sampler.start()
    try:
        yield sampler
    finally:
        sampler.stop()


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["obs"]:
        # Reporting subcommands have their own argparse tree.
        from repro.obs.report import main as obs_main

        return obs_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate tables/figures from 'Design and Analysis of an "
            "APU for Exascale Computing' (HPCA 2017)."
        ),
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help=(
            "experiment ids (see 'list'), or 'all', 'list', 'serve' "
            "(run the serving-layer benchmark), 'fleet' (run the "
            "sharded multi-node fleet benchmark), or 'thermal-loop' "
            "(run the transient thermal closed-loop benchmark)"
        ),
    )
    parser.add_argument(
        "--pool-shards",
        type=int,
        metavar="N",
        default=0,
        help=(
            "fan the experiments across a sharded worker pool of N "
            "processes (default 0: serial in-process); also sizes the "
            "'serve' and 'fleet' benchmark pools (default 2)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("tensor", "point"),
        default="tensor",
        help=(
            "design-space exploration engine: 'tensor' (default) runs "
            "one fused broadcast pass over the whole (profile x CU x "
            "freq x BW) grid, 'point' the per-profile oracle loop; the "
            "choice is recorded in the run manifest"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write a run manifest JSON (git revision, engine choices, "
            "cache counters, wall times, metrics snapshot) to PATH"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "record spans for the run and write Chrome trace-event "
            "JSON to PATH (open in chrome://tracing or Perfetto)"
        ),
    )
    parser.add_argument(
        "--metrics-export",
        metavar="PATH",
        default=None,
        help=(
            "stream interval metric diffs to PATH as JSONL while the "
            "run is live, plus a final cumulative Prometheus text "
            "snapshot next to it (.prom); works for experiments, "
            "'serve', and 'fleet'"
        ),
    )
    serve_group = parser.add_argument_group("serving benchmark")
    serve_group.add_argument(
        "--serve-bench",
        action="store_true",
        help="run the serving-layer benchmark (same as artifact 'serve')",
    )
    serve_group.add_argument(
        "--serve-requests",
        type=int,
        metavar="N",
        default=200,
        help="requests in the synthetic trace (default 200)",
    )
    serve_group.add_argument(
        "--serve-rate",
        type=float,
        metavar="HZ",
        default=None,
        help=(
            "open-loop Poisson arrival rate; omitted = closed-loop "
            "burst (capacity measurement)"
        ),
    )
    serve_group.add_argument(
        "--serve-seed",
        type=int,
        metavar="SEED",
        default=0,
        help="arrival-trace seed (default 0)",
    )
    serve_group.add_argument(
        "--serve-deadline-ms",
        type=float,
        metavar="MS",
        default=250.0,
        help="per-request deadline in ms; 0 disables (default 250)",
    )
    serve_group.add_argument(
        "--serve-baseline",
        action="store_true",
        help=(
            "also measure the naive one-request-per-pool-call baseline "
            "and report the speedup"
        ),
    )
    fleet_group = parser.add_argument_group("fleet benchmark")
    fleet_group.add_argument(
        "--fleet-bench",
        action="store_true",
        help="run the fleet benchmark (same as artifact 'fleet')",
    )
    fleet_group.add_argument(
        "--fleet-nodes",
        type=int,
        metavar="N",
        default=1000,
        help="total nodes in the synthetic fleet (default 1000)",
    )
    fleet_group.add_argument(
        "--fleet-groups",
        type=int,
        metavar="N",
        default=6,
        help="heterogeneous node groups (default 6)",
    )
    fleet_group.add_argument(
        "--fleet-seed",
        type=int,
        metavar="SEED",
        default=0,
        help="synthetic-fleet seed (default 0)",
    )
    thermal_group = parser.add_argument_group("thermal-loop benchmark")
    thermal_group.add_argument(
        "--thermal-loop-bench",
        action="store_true",
        help=(
            "run the transient thermal closed-loop benchmark (same as "
            "artifact 'thermal-loop')"
        ),
    )
    thermal_group.add_argument(
        "--thermal-cycles",
        type=int,
        metavar="N",
        default=2,
        help="sprint/cool phase pairs in the schedule (default 2)",
    )
    thermal_group.add_argument(
        "--thermal-dt-ms",
        type=float,
        metavar="MS",
        default=10.0,
        help="transient integration step in ms (default 10)",
    )
    thermal_group.add_argument(
        "--thermal-steps",
        type=int,
        metavar="N",
        default=400,
        help="steps in the amortized-stepping timing loop (default 400)",
    )
    args = parser.parse_args(argv)

    if args.artifacts == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.serve_bench or args.artifacts == ["serve"]:
        from repro.serve.bench import run_serve_bench

        report = run_serve_bench(
            seed=args.serve_seed,
            n_requests=args.serve_requests,
            rate_hz=args.serve_rate,
            shards=args.pool_shards or 2,
            deadline_s=(
                args.serve_deadline_ms / 1e3
                if args.serve_deadline_ms > 0
                else None
            ),
            baseline=args.serve_baseline,
            metrics_export=args.metrics_export,
        )
        print(report.render())
        if args.metrics_out:
            from repro.obs.manifest import write_manifest

            write_manifest(
                args.metrics_out,
                command="serve-bench",
                extra={"serve_bench": report.as_dict()},
            )
        return 0

    if args.thermal_loop_bench or args.artifacts == ["thermal-loop"]:
        from repro.thermal.bench import run_thermal_loop_bench

        with _metrics_export(args.metrics_export):
            report = run_thermal_loop_bench(
                dt=args.thermal_dt_ms / 1e3,
                factored_steps=args.thermal_steps,
                cycles=args.thermal_cycles,
            )
        print(report.render())
        if args.metrics_out:
            from repro.obs.manifest import write_manifest

            write_manifest(
                args.metrics_out,
                command="thermal-loop-bench",
                extra={"thermal_loop_bench": report.as_dict()},
            )
        ok = (
            report.governed.within_limit
            and not report.replay.within_limit
            and report.batch_identical
        )
        return 0 if ok else 1

    if args.fleet_bench or args.artifacts == ["fleet"]:
        from repro.fleet.bench import run_fleet_bench

        with _metrics_export(args.metrics_export):
            report = run_fleet_bench(
                n_nodes=args.fleet_nodes,
                n_groups=args.fleet_groups,
                seed=args.fleet_seed,
                shards=args.pool_shards or 2,
            )
        print(report.render())
        if args.metrics_out:
            from repro.obs.manifest import write_manifest

            write_manifest(
                args.metrics_out,
                command="fleet-bench",
                extra={"fleet_bench": report.as_dict()},
            )
        return 1 if not report.identical else 0

    if not args.artifacts:
        parser.error(
            "no artifacts requested (try 'list', 'serve', or 'fleet')"
        )

    from repro.core import dse
    from repro.util import alloctune

    dse.set_default_engine(args.engine)
    if args.engine == "tensor":
        # Keep freed tensor scratch pages in-process so repeated fused
        # grid passes run at the warm-allocation floor.
        alloctune.retain_freed_heap()

    names = (
        list(EXPERIMENTS) if args.artifacts == ["all"] else args.artifacts
    )
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(try 'python -m repro list')",
            file=sys.stderr,
        )
        return 2

    with _metrics_export(args.metrics_export):
        if args.pool_shards > 0:
            from repro.perf.parallel import run_experiments
            from repro.perf.pool import ShardedPool

            with ShardedPool(args.pool_shards) as pool:
                results = run_experiments(
                    names,
                    pool=pool,
                    metrics_out=args.metrics_out,
                    trace_out=args.trace_out,
                )
        elif args.metrics_out or args.trace_out:
            from repro.perf.parallel import run_experiments

            results = run_experiments(
                names,
                metrics_out=args.metrics_out,
                trace_out=args.trace_out,
            )
        else:
            results = {name: EXPERIMENTS[name]() for name in names}
    # `names` may repeat or reorder; honour the user's request order.
    for name in names:
        print(results[name].render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
