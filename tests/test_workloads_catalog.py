"""The Table I application catalog (and Table II's published optima)."""

import json
import subprocess
import sys

import pytest

from repro.workloads.catalog import (
    APPLICATIONS,
    PAPER_TABLE2,
    application_names,
    get_application,
    iter_applications,
    table1_rows,
)
from repro.workloads.kernels import KernelCategory

PAPER_APPS = (
    "MaxFlops", "CoMD", "CoMD-LJ", "HPGMG",
    "LULESH", "MiniAMR", "XSBench", "SNAP",
)


class TestCatalogContents:
    def test_all_eight_applications_present(self):
        assert set(application_names()) == set(PAPER_APPS)

    def test_categories_match_table1(self):
        cats = {name: p.category for name, p in APPLICATIONS.items()}
        assert cats["MaxFlops"] is KernelCategory.COMPUTE_INTENSIVE
        for balanced in ("CoMD", "CoMD-LJ", "HPGMG"):
            assert cats[balanced] is KernelCategory.BALANCED
        for mem in ("LULESH", "MiniAMR", "XSBench", "SNAP"):
            assert cats[mem] is KernelCategory.MEMORY_INTENSIVE

    def test_names_are_keys(self):
        for name, profile in APPLICATIONS.items():
            assert profile.name == name

    def test_descriptions_nonempty(self):
        for profile in APPLICATIONS.values():
            assert profile.description

    def test_ext_memory_fraction_in_paper_range(self):
        # Section V-B: 46% to 89% of traffic may access off-package
        # memory (MaxFlops is the compute-bound exception).
        for name, p in APPLICATIONS.items():
            if name == "MaxFlops":
                assert p.ext_memory_fraction <= 0.1
            else:
                assert 0.4 <= p.ext_memory_fraction <= 0.9

    def test_maxflops_is_compute_bound(self):
        p = APPLICATIONS["MaxFlops"]
        assert p.bytes_per_flop < 0.05
        assert p.parallel_fraction > 0.95

    def test_provenance_recorded(self):
        for p in APPLICATIONS.values():
            assert "calibrat" in p.provenance.lower()


class TestAccessors:
    def test_get_application(self):
        assert get_application("LULESH").name == "LULESH"

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="LULESH"):
            get_application("NotAnApp")

    def test_iter_matches_names(self):
        assert [p.name for p in iter_applications()] == application_names()

    def test_table1_rows_shape(self):
        rows = table1_rows()
        assert len(rows) == 8
        for category, app, description in rows:
            assert category in {
                "compute-intensive", "balanced", "memory-intensive"
            }
            assert app in PAPER_APPS
            assert description


def _fresh_import(module: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under *prefixes* that importing *module* loads, in a
    fresh interpreter."""
    code = (
        f"import sys, {module}; "
        f"print(*sorted(n for n in sys.modules if n.startswith({prefixes!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


class TestTable2:
    def test_keyed_by_catalog_names(self):
        assert set(PAPER_TABLE2) == set(PAPER_APPS)

    def test_experiment_registry_skips_the_optimizer(self):
        # Table II lives next to Table I, so regenerating the artifacts
        # never loads the calibration search's scipy.optimize. Nor does
        # any run load scipy at all (only the thermal oracle imports
        # scipy.sparse, inside its methods) or networkx (the NoC router
        # is a small Dijkstra). Each entry point gets a fresh interpreter.
        for module in (
            "repro.experiments.registry",  # `repro all`, perfbench artifacts
            "repro.__main__",  # the CLI
            "repro.core.thermal_governor",  # perfbench plan's modules
            "repro.thermal.analysis",
            "repro.fleet.sweep",
        ):
            assert _fresh_import(module, ("scipy", "networkx")) == [], module

    def test_serve_and_plan_skip_the_memsys_engines(self):
        # Serving and fleet planning evaluate the node model and the
        # APU simulator only, so they never load the memory-system
        # replay engines.
        for module in ("repro.serve.service", "repro.fleet.sweep"):
            assert _fresh_import(module, ("repro.memsys",)) == [], module

    def test_table2_and_dse_skip_the_perf_layer(self):
        # The DSE experiments call the tensor engine directly, so `repro
        # all` never loads the worker pool (and multiprocessing) inside
        # an artifact's timed run.
        code = (
            "import sys; "
            "from repro.experiments.registry import EXPERIMENTS; "
            "EXPERIMENTS['table2'](); EXPERIMENTS['dse'](); "
            "print(*sorted(n for n in sys.modules "
            "if n.split('.')[:2] == ['repro', 'perf']))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == []

    def test_traced_cli_run_loads_no_pool(self, tmp_path):
        # A run with a manifest and a trace runs its experiments
        # in-process, as a plain run does: no module of repro.perf (the
        # worker pool's package) and no multiprocessing, yet one wall
        # time and one span per experiment.
        manifest, trace = tmp_path / "m.json", tmp_path / "t.json"
        code = (
            "import sys; from repro.__main__ import main; "
            f"main(['fig7', 'table1', '--metrics-out', {str(manifest)!r}, "
            f"'--trace-out', {str(trace)!r}]); "
            "print('LOADED', *sorted(n for n in sys.modules "
            "if n == 'multiprocessing' "
            "or n.split('.')[:2] == ['repro', 'perf']))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1].split() == ["LOADED"]
        wall_times = json.loads(manifest.read_text())["wall_times_s"]
        assert {"fig7", "table1"} <= set(wall_times)
        events = json.loads(trace.read_text())["traceEvents"]
        assert "experiment.fig7" in {e["name"] for e in events}
