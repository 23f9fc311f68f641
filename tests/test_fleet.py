"""The fleet layer (``repro.fleet``): link tier, specs, CU-axis sweeps.

Covers the link tier's derate-only contract and input validation,
fleet spec validation and synthetic determinism, and the sweep's core
guarantee: the one-pass sweep, every series a row of one evaluation,
is bit-identical to the serial per-point estimate loop on any fleet.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EHPConfig
from repro.core.node import NodeModel
from repro.fleet import (
    LinkTierParams,
    FleetGroup,
    FleetSpec,
    derate,
    derate_machine,
    derate_model,
    fleet_manifest,
    fleet_sweep,
    fleet_sweep_serial,
    synthetic_fleet,
)
from repro.fleet.bench import identical_results, run_fleet_bench
from repro.perf.pool import ShardedPool
from repro.perfmodel.machine import MachineParams
from repro.workloads.catalog import application_names, get_application

CUS = (192, 256, 320, 384)


def small_fleet(link=LinkTierParams(), seed=3):
    return synthetic_fleet(n_nodes=40, n_groups=2, seed=seed, link=link)


def spy_evaluate_arrays(monkeypatch):
    """Record the profile argument and keywords of every
    ``NodeModel.evaluate_arrays`` call."""
    calls = []
    evaluate_arrays = NodeModel.evaluate_arrays

    def spy(model, profile, *args, **kwargs):
        calls.append((profile, kwargs))
        return evaluate_arrays(model, profile, *args, **kwargs)

    monkeypatch.setattr(NodeModel, "evaluate_arrays", spy)
    return calls


# ----------------------------------------------------------------------
# Link tier
# ----------------------------------------------------------------------
class TestLinkTier:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            LinkTierParams(n_links=0)
        with pytest.raises(ValueError):
            LinkTierParams(downlink_fraction=1.0)
        with pytest.raises(ValueError):
            LinkTierParams(protocol_efficiency=0.0)
        with pytest.raises(ValueError):
            LinkTierParams(contention_exponent=2.5)
        with pytest.raises(ValueError):
            LinkTierParams(arbitration_overhead=-0.1)

    @pytest.mark.parametrize(
        "field",
        ["n_links", "link_bandwidth", "link_latency", "hops",
         "arbitration_overhead", "contention_kappa"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            LinkTierParams(**{field: value})

    @pytest.mark.parametrize("field", ["n_links", "hops"])
    def test_count_params_must_be_ints(self, field):
        with pytest.raises(ValueError):
            LinkTierParams(**{field: 2.5})
        with pytest.raises(ValueError):
            LinkTierParams(**{field: True})

    def test_input_validation(self):
        with pytest.raises(ValueError):
            derate(LinkTierParams(), 1.5)
        with pytest.raises(ValueError):
            derate(LinkTierParams(), 0.2, 0)

    def test_only_degrades(self):
        machine = MachineParams()
        for k in (1, 2, 4, 8):
            d = derate(LinkTierParams(), 0.3, k, machine)
            assert d.ext_bandwidth <= machine.ext_bandwidth
            assert d.ext_latency >= machine.ext_latency

    def test_contention_monotonic(self):
        machine = MachineParams()
        prev_bw, prev_lat = np.inf, 0.0
        for k in (1, 2, 3, 4, 6, 8):
            d = derate(LinkTierParams(), 0.3, k, machine)
            assert d.ext_bandwidth <= prev_bw
            assert d.ext_latency >= prev_lat
            prev_bw, prev_lat = d.ext_bandwidth, d.ext_latency

    def test_scalar_in_scalar_out(self):
        d = derate(LinkTierParams(), 0.25, 2)
        assert isinstance(d.ext_bandwidth, float)
        assert isinstance(d.ext_latency, float)

    def test_derate_machine_fields(self):
        machine = MachineParams()
        derated = derate_machine(machine, LinkTierParams(), 0.3, 4)
        assert derated.ext_bandwidth < machine.ext_bandwidth
        assert derated.ext_latency > machine.ext_latency
        # Every other field untouched.
        assert derated.flops_per_cu_cycle == machine.flops_per_cu_cycle
        assert derated.mem_latency == machine.mem_latency

    def test_derate_model_none_is_identity(self):
        model = NodeModel()
        profile = get_application("CoMD")
        assert derate_model(model, None, profile) is model

    def test_derate_model_changes_external_results(self):
        model = NodeModel()
        profile = get_application("XSBench")
        derated = derate_model(model, LinkTierParams(), profile, 4)
        config = EHPConfig(n_cus=320, gpu_freq=1e9, bandwidth=1e12)
        base = model.evaluate(profile, config, ext_fraction=0.5)
        hit = derated.evaluate(profile, config, ext_fraction=0.5)
        assert float(hit.performance) <= float(base.performance)


# ----------------------------------------------------------------------
# Fleet specs
# ----------------------------------------------------------------------
class TestFleetSpec:
    def test_group_validation(self):
        p = get_application("CoMD")
        with pytest.raises(ValueError):
            FleetGroup(name="", profiles=(p,))
        with pytest.raises(ValueError):
            FleetGroup(name="g", profiles=())
        with pytest.raises(ValueError):
            FleetGroup(name="g", profiles=(p, p))
        with pytest.raises(ValueError):
            FleetGroup(name="g", profiles=(p,), n_nodes=0)
        with pytest.raises(ValueError):
            FleetGroup(name="g", profiles=(p,), concurrent_kernels=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_nodes": 2.5},
            {"n_nodes": 2.0},
            {"n_nodes": True},
            {"concurrent_kernels": 1.5},
            {"concurrent_kernels": True},
        ],
    )
    def test_group_counts_must_be_ints(self, bad):
        with pytest.raises(ValueError):
            FleetGroup(name="g", profiles=(get_application("CoMD"),), **bad)

    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf"), -1.0]
    )
    def test_spec_rejects_bad_power_budget(self, budget):
        g = FleetGroup(name="g", profiles=(get_application("CoMD"),))
        with pytest.raises(ValueError):
            FleetSpec(groups=(g,), power_budget_mw=budget)

    def test_spec_validation(self):
        p = get_application("CoMD")
        g = FleetGroup(name="g", profiles=(p,))
        with pytest.raises(ValueError):
            FleetSpec(groups=())
        with pytest.raises(ValueError):
            FleetSpec(groups=(g, g))
        with pytest.raises(ValueError):
            FleetSpec(groups=(g,), power_budget_mw=0.0)

    def test_synthetic_deterministic(self):
        a = synthetic_fleet(n_nodes=100, n_groups=3, seed=7)
        b = synthetic_fleet(n_nodes=100, n_groups=3, seed=7)
        assert a == b
        c = synthetic_fleet(n_nodes=100, n_groups=3, seed=8)
        assert a != c

    def test_synthetic_node_count_exact(self):
        spec = synthetic_fleet(n_nodes=137, n_groups=5, seed=0)
        assert spec.n_nodes == 137
        assert all(g.n_nodes >= 1 for g in spec.groups)

    def test_synthetic_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synthetic_fleet(n_nodes=2, n_groups=3)


# ----------------------------------------------------------------------
# Fleet sweeps
# ----------------------------------------------------------------------
class TestFleetSweep:
    @pytest.mark.parametrize("n_cus", [256.7, 256.0])
    def test_non_integer_cu_counts_rejected(self, n_cus):
        # Never truncated: 256.7 must not silently become 256.
        spec = small_fleet()
        with pytest.raises(ValueError, match="integer"):
            fleet_sweep_serial(spec, (192, n_cus))
        with pytest.raises(ValueError, match="integer"):
            fleet_sweep(spec, (192, n_cus))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_groups=st.integers(min_value=1, max_value=6),
        n_nodes=st.integers(min_value=6, max_value=200_000),
        linked=st.booleans(),
        cu_counts=st.lists(
            st.sampled_from(range(192, 385, 16)),
            min_size=1, max_size=13, unique=True,
        ),
    )
    def test_inprocess_matches_serial(
        self, seed, n_groups, n_nodes, linked, cu_counts
    ):
        spec = synthetic_fleet(
            n_nodes=n_nodes, n_groups=n_groups, seed=seed,
            link=LinkTierParams() if linked else None,
        )
        serial = fleet_sweep_serial(spec, cu_counts)
        assert identical_results(serial, fleet_sweep(spec, cu_counts))

    def test_whole_fleet_is_one_evaluation(self, monkeypatch):
        spec = synthetic_fleet(n_nodes=10_000, n_groups=24, seed=7)
        assert spec.n_series > 40
        calls = spy_evaluate_arrays(monkeypatch)
        result = fleet_sweep(spec, CUS)
        assert len(calls) == 1
        batch, _ = calls[0]
        assert len(batch) == spec.n_series
        monkeypatch.undo()
        assert identical_results(fleet_sweep_serial(spec, CUS), result)

    def test_profile_shared_by_groups_with_different_links(
        self, monkeypatch
    ):
        # XSBench runs in both groups, alone on its links in one and
        # beside three other kernels in the other: two rows with one
        # profile name, two labels and two derates.
        xsbench, comd = get_application("XSBench"), get_application("CoMD")
        link = LinkTierParams()
        spec = FleetSpec(
            groups=(
                FleetGroup(
                    "solo", EHPConfig(n_cus=320, gpu_freq=1e9,
                                      bandwidth=1e12),
                    (xsbench, comd), n_nodes=30, concurrent_kernels=1,
                ),
                FleetGroup(
                    "shared", EHPConfig(n_cus=320, gpu_freq=1.2e9,
                                        bandwidth=3e12),
                    (xsbench,), n_nodes=70, concurrent_kernels=4,
                ),
            ),
            link=link,
        )
        calls = spy_evaluate_arrays(monkeypatch)
        result = fleet_sweep(spec, CUS)
        ((batch, kwargs),) = calls
        assert len(set(batch.names)) == 3
        rows = kwargs["ext_link"]
        for k, row in ((1, 0), (4, 2)):
            want = derate(link, xsbench.write_fraction, k)
            assert rows.ext_bandwidth[row, 0] == want.ext_bandwidth
            assert rows.ext_latency[row, 0] == want.ext_latency
        assert rows.ext_bandwidth[0, 0] != rows.ext_bandwidth[2, 0]
        assert rows.ext_latency[0, 0] != rows.ext_latency[2, 0]
        monkeypatch.undo()
        serial = fleet_sweep_serial(spec, CUS)
        assert identical_results(serial, result)

    def test_no_link_tier_matches_plain_estimate(self):
        # Without a link tier, each series point is literally
        # ExascaleSystem.estimate at the profile's external fraction.
        from repro.core.exascale import ExascaleSystem

        profile = get_application("HPGMG")
        group = FleetGroup(name="g", profiles=(profile,), n_nodes=17)
        spec = FleetSpec(groups=(group,), link=None)
        result = fleet_sweep_serial(spec, CUS)
        system = ExascaleSystem(17, NodeModel())
        for i, n in enumerate(CUS):
            est = system.estimate(
                profile,
                group.config.with_axes(n_cus=n),
                ext_fraction=float(profile.ext_memory_fraction),
            )
            assert result.series_exaflops[("g", profile.name)][i] == \
                est.exaflops
            assert result.series_power_mw[("g", profile.name)][i] == \
                est.machine_power_mw

    def test_rejects_bad_inputs(self):
        spec = small_fleet()
        with pytest.raises(ValueError):
            fleet_sweep(spec, ())
        # 321 CUs do not split across the chiplets.
        with pytest.raises(ValueError):
            fleet_sweep(spec, (321,))

    def test_cu_counts_checked_once_per_distinct_organization(
        self, monkeypatch
    ):
        spec = synthetic_fleet(n_nodes=10_000, n_groups=24, seed=7)
        organizations = {
            (g.config.max_cus, g.config.n_gpu_chiplets) for g in spec.groups
        }
        calls = []
        check = EHPConfig.check_cu_count

        def spy(config, n_cus):
            calls.append(n_cus)
            return check(config, n_cus)

        monkeypatch.setattr(EHPConfig, "check_cu_count", spy)
        fleet_sweep(spec, CUS)
        assert len(calls) == len(organizations) * len(CUS)
        monkeypatch.undo()
        # The same first error as one check per group and count.
        for counts, message in (
            ((), "non-empty"),
            ((192, 256.5), "integers, got 256.5"),
            ((192, 321, 400), "n_cus=321 must divide evenly across 8"),
        ):
            with pytest.raises(ValueError, match=message):
                fleet_sweep(spec, counts)

    def test_first_error_follows_group_order(self):
        # 400 CUs fit the first group's area budget but not the
        # second's, and fail the first group's chiplet split.
        profile = get_application("CoMD")
        spec = FleetSpec(groups=(
            FleetGroup("wide", EHPConfig(max_cus=448, n_gpu_chiplets=7,
                                         n_cus=322), (profile,), n_nodes=4),
            FleetGroup("std", EHPConfig(), (profile,), n_nodes=4),
        ))
        with pytest.raises(ValueError, match="across 7 GPU chiplets"):
            fleet_sweep(spec, (392, 400))
        with pytest.raises(ValueError, match="area budget of 384"):
            fleet_sweep(spec, (392,))

    def test_pooled_bit_identity_cold_warm_and_after_death(self):
        # Callers may still hand fleet_sweep a pool (perfbench's plan
        # workload does). The sweep runs in-process whatever the pool's
        # state: cold, reused, or with a killed worker, it gives the
        # oracle's bits and sends the pool no task.
        spec = synthetic_fleet(n_nodes=60, n_groups=3, seed=5)
        serial = fleet_sweep_serial(spec, CUS)
        with ShardedPool(n_shards=2) as pool:
            cold = fleet_sweep(spec, CUS, pool=pool)
            assert identical_results(serial, cold)
            warm = fleet_sweep(spec, CUS, pool=pool)
            assert identical_results(serial, warm)
            pool.kill_worker(0)
            again = fleet_sweep(spec, CUS, pool=pool)
            assert identical_results(serial, again)
            assert pool.stats().tasks == 0
            assert pool.stats().worker_restarts == 0

    def test_manifest_section(self):
        spec = small_fleet()
        result = fleet_sweep_serial(spec, CUS)
        section = fleet_manifest(result)
        assert section["n_nodes"] == spec.n_nodes
        assert section["n_series"] == spec.n_series
        assert section["cu_counts"] == list(CUS)
        assert section["best"]["cu"] == result.best_cu
        assert "pool" not in section

    def test_best_index_respects_budget(self):
        profile = get_application("MaxFlops")
        group = FleetGroup(name="g", profiles=(profile,), n_nodes=100_000)
        # A tight budget forces the pick away from the raw argmax.
        spec = FleetSpec(groups=(group,), link=None, power_budget_mw=9.0)
        result = fleet_sweep_serial(spec, (192, 256, 320, 384))
        assert result.fleet_power_mw[result.best_index] <= 9.0
        unconstrained = FleetSpec(
            groups=(group,), link=None, power_budget_mw=1e9
        )
        free = fleet_sweep_serial(unconstrained, (192, 256, 320, 384))
        assert free.best_index == int(np.argmax(free.fleet_exaflops))
        assert free.best_index != result.best_index

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_groups=st.integers(min_value=1, max_value=4),
    )
    def test_rollup_invariants(self, seed, n_groups):
        spec = synthetic_fleet(
            n_nodes=10 * n_groups, n_groups=n_groups, seed=seed
        )
        result = fleet_sweep_serial(spec, (256, 320))
        # Fleet curves are the sum of group curves; group curves are
        # the mean of their series; everything is positive.
        fleet_exa = np.zeros(2)
        for g in spec.groups:
            series = [
                result.series_exaflops[(g.name, p.name)]
                for p in g.profiles
            ]
            expected = sum(series) / float(len(series))
            assert np.array_equal(result.group_exaflops[g.name], expected)
            fleet_exa = fleet_exa + result.group_exaflops[g.name]
        assert np.array_equal(result.fleet_exaflops, fleet_exa)
        assert np.all(result.fleet_exaflops > 0)
        assert np.all(result.fleet_power_mw > 0)
        assert 0 <= result.best_index < 2

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_sharded_matches_serial_on_random_fleets(self, seed):
        # A live pool passed as pool= leaves the in-process sweep's
        # bits equal to the oracle's on any fleet.
        spec = synthetic_fleet(n_nodes=30, n_groups=2, seed=seed)
        serial = fleet_sweep_serial(spec, (256, 320))
        with ShardedPool(n_shards=2) as pool:
            sharded = fleet_sweep(spec, (256, 320), pool=pool)
            assert pool.stats().tasks == 0
        assert identical_results(serial, sharded)


# ----------------------------------------------------------------------
# Bench plumbing
# ----------------------------------------------------------------------
class TestFleetBench:
    def test_report_shape(self):
        report = run_fleet_bench(
            n_nodes=20,
            n_groups=2,
            seed=1,
            cu_counts=(256, 320),
        )
        assert report.identical
        assert report.n_nodes == 20
        assert report.n_points == 2
        d = report.as_dict()
        assert d["best"]["cu"] in (256, 320)
        assert "fleet bench:" in report.render()
        assert d["serial_s"] > 0 and d["sweep_s"] > 0

    def test_profile_catalog_covers_fleet(self):
        # synthetic_fleet draws from the live catalog by default.
        spec = synthetic_fleet(n_nodes=10, n_groups=2, seed=0)
        names = set(application_names())
        for g in spec.groups:
            for p in g.profiles:
                assert p.name in names
