"""Command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig8", "table2", "dse"):
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "Exaflops" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_unknown_experiment(self, capsys):
        assert main(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "table1", "table2", "dse",
            *(f"fig{i}" for i in range(4, 15)),
        }
        assert expected <= set(EXPERIMENTS)

    def test_every_registered_experiment_runs(self):
        # Smoke-run the fast ones; the slow thermal pair is covered by
        # their dedicated tests and benches.
        skip = {"fig10", "fig11", "dse", "table2"}
        for name, fn in EXPERIMENTS.items():
            if name in skip:
                continue
            result = fn()
            assert result.rendered, name

    def test_metrics_and_trace_out(self, capsys, tmp_path):
        manifest_path = tmp_path / "obs" / "manifest.json"
        trace_path = tmp_path / "obs" / "trace.json"
        assert main([
            "fig7",
            "--metrics-out", str(manifest_path),
            "--trace-out", str(trace_path),
        ]) == 0
        assert "fig7" in capsys.readouterr().out

        import json

        manifest = json.loads(manifest_path.read_text())
        assert manifest["manifest_version"] >= 1
        assert manifest["experiments"] == ["fig7"]
        assert "fig7" in manifest["wall_times_s"]
        assert "counters" in manifest["metrics"]

        trace = json.loads(trace_path.read_text())
        names = [e["name"] for e in trace["traceEvents"]]
        assert "experiment.fig7" in names

    def test_pool_shards(self, capsys, tmp_path):
        # Experiments never fan out over worker processes: every
        # experiment span of a traced run is recorded by this process,
        # with no pool span around them.
        trace_path = tmp_path / "trace.json"
        assert main(["fig7", "table1", "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "Table I" in out

        import json
        import os

        trace = json.loads(trace_path.read_text())
        events = {e["name"]: e for e in trace["traceEvents"]}
        assert "experiments.pool" not in events
        assert "pool.run" not in events
        for name in ("experiment.fig7", "experiment.table1"):
            assert events[name]["pid"] == os.getpid()

    @pytest.mark.parametrize(
        "argv, inner_span",
        [
            (["serve", "--serve-requests", "16"], "serve.batch"),
            (["fleet", "--fleet-nodes", "100", "--fleet-groups", "2"],
             "bench.fleet"),
            (["thermal-loop", "--thermal-steps", "30",
              "--thermal-cycles", "1"], "thermal.loop"),
        ],
        ids=["serve", "fleet", "thermal-loop"],
    )
    def test_trace_out_on_benchmark_subcommands(
        self, argv, inner_span, capsys, tmp_path
    ):
        trace_path = tmp_path / "trace.json"
        assert main([*argv, "--trace-out", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {f"bench.{argv[0]}", inner_span} <= names

    def test_serve_manifest_holds_what_the_registry_recorded(
        self, capsys, tmp_path
    ):
        from repro.obs import metrics as obs_metrics
        from repro.obs.report import render_report

        manifest_path = tmp_path / "serve.json"
        before = obs_metrics.snapshot()
        assert main([
            "serve", "--serve-requests", "16",
            "--metrics-out", str(manifest_path),
        ]) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert "sections" not in manifest
        assert not [
            name for name in manifest["metrics"]["gauges"]
            if name.startswith("serve.slo.")
        ]
        # The warm pass and the measured pass each serve all 16. The
        # registry is process-wide, so count from a snapshot taken
        # before the run.
        served = (
            manifest["metrics"]["counters"]["serve.requests"]
            - before.counter("serve.requests")
        )
        assert served == 32
        assert render_report(str(manifest_path)).startswith("run report:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--serve-rate", "nan"],
            ["serve", "--serve-rate", "-5"],
            ["serve", "--serve-requests", "0"],
            ["serve", "--serve-deadline-ms", "inf"],
            ["serve", "--serve-deadline-ms", "-1"],
            ["serve", "--serve-requests", "2.5"],
            ["fleet", "--fleet-nodes", "-1"],
            ["fleet", "--fleet-nodes", "0"],
            ["fleet", "--fleet-groups", "1.5"],
            ["fleet", "--fleet-nodes", "3", "--fleet-groups", "6"],
            ["thermal-loop", "--thermal-dt-ms", "nan"],
            ["thermal-loop", "--thermal-cycles", "0"],
            ["thermal-loop", "--thermal-steps", "-3"],
            ["thermal-loop", "--thermal-dt-ms", "0"],
        ],
    )
    def test_bad_numeric_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err
