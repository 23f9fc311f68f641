"""Traffic matrices and the event-driven NoC simulator."""

import math

import numpy as np
import pytest

from repro.noc.simulator import NocSimulator, SimMessage
from repro.noc.topology import EHPTopology
from repro.noc.traffic import (
    TrafficMatrix,
    chiplet_traffic_summary,
    gpu_dram_traffic_matrix,
)
from repro.workloads.catalog import get_application


@pytest.fixture(scope="module")
def topo():
    return EHPTopology()


class TestTrafficMatrix:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            TrafficMatrix(("a",), ("b", "c"), np.zeros((1, 1)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix(("a",), ("b",), np.array([[-1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # total and out_of_chiplet_fraction read NaN before this check.
        with pytest.raises(ValueError, match="finite"):
            TrafficMatrix(("a",), ("b", "c"), np.array([[1.0, bad]]))

    def test_array_like_bytes_become_a_float_array(self):
        m = TrafficMatrix(("a",), ("b", "c"), [[1, 2]])
        assert m.bytes_.dtype == float
        assert m.total == 3.0

    @pytest.mark.parametrize("bad", [
        [[1.0], [1.0, 2.0]],  # ragged rows
        [["x", "y"]],  # not numbers
        [[1.0, 2.0]],  # numbers, wrong shape
    ])
    def test_bad_nested_list_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            TrafficMatrix(("a", "b"), ("c", "d"), bad)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1.0])
    def test_gpu_matrix_rejects_bad_total(self, topo, total):
        with pytest.raises(ValueError, match="total_bytes"):
            gpu_dram_traffic_matrix(topo, total_bytes=total)

    def test_uniform_interleave_remote_fraction(self, topo):
        # Pure 1/8 locality: 7/8 of traffic leaves the chiplet.
        m = gpu_dram_traffic_matrix(
            topo, 1e9, locality=1 / 8, coherence_fraction=0.0
        )
        assert m.out_of_chiplet_fraction(topo) == pytest.approx(7 / 8)

    def test_full_locality_keeps_traffic_home(self, topo):
        m = gpu_dram_traffic_matrix(
            topo, 1e9, locality=1.0, coherence_fraction=0.0
        )
        assert m.out_of_chiplet_fraction(topo) == pytest.approx(0.0)

    def test_coherence_traffic_is_always_remote(self, topo):
        m = gpu_dram_traffic_matrix(
            topo, 1e9, locality=1.0, coherence_fraction=0.1
        )
        assert m.out_of_chiplet_fraction(topo) == pytest.approx(0.1)

    def test_total_conserved(self, topo):
        m = gpu_dram_traffic_matrix(topo, 3.5e9)
        assert m.total == pytest.approx(3.5e9)

    def test_mean_latency_grows_with_remote_share(self, topo):
        local = gpu_dram_traffic_matrix(topo, 1e9, locality=1.0)
        remote = gpu_dram_traffic_matrix(topo, 1e9, locality=1 / 8)
        assert remote.mean_latency(topo) > local.mean_latency(topo)


class TestChipletTrafficSummary:
    def test_fig7_ranges(self, topo):
        # Paper: remote traffic 60-95%, perf >= 87% of monolithic.
        for name in ("XSBench", "SNAP", "CoMD"):
            s = chiplet_traffic_summary(
                get_application(name), 320, 1e9, 3e12, topology=topo
            )
            remote, perf = s.as_percentages()
            assert 55.0 <= remote <= 95.0, name
            assert 80.0 <= perf <= 100.5, name

    def test_chiplet_never_faster_than_monolithic(self, topo):
        for name in ("XSBench", "SNAP", "CoMD", "MaxFlops"):
            s = chiplet_traffic_summary(
                get_application(name), 320, 1e9, 3e12, topology=topo
            )
            assert s.perf_vs_monolithic <= 1.0 + 1e-9


# NaN/inf sizes or injection times: each gave a NaN latency, an
# infinite makespan, or an error only after the run had finished.
NON_FINITE_MESSAGES = [
    (math.nan, 0.0), (math.inf, 0.0), (64.0, math.nan), (64.0, math.inf),
]


class TestNocSimulator:
    def test_empty_run(self):
        res = NocSimulator().run([])
        assert res.delivered == 0

    def test_single_message_latency(self):
        sim = NocSimulator(link_bandwidth=1e12)
        res = sim.run([SimMessage("gpu0", "dram0", 64, 0.0)])
        assert res.delivered == 1
        # One 3D-stack hop (2 ns) plus 64 B serialization.
        assert res.mean_latency == pytest.approx(2e-9 + 64 / 1e12)

    def test_contention_increases_latency(self):
        sim = NocSimulator(link_bandwidth=64e9)
        sparse = [
            SimMessage("gpu0", "dram5", 4096, i * 1e-6) for i in range(50)
        ]
        dense = [
            SimMessage("gpu0", "dram5", 4096, 0.0) for _ in range(50)
        ]
        lat_sparse = sim.run(sparse).mean_latency
        lat_dense = NocSimulator(link_bandwidth=64e9).run(dense).mean_latency
        assert lat_dense > lat_sparse

    def test_throughput_bounded_by_link(self):
        bw = 100e9
        sim = NocSimulator(link_bandwidth=bw)
        msgs = [SimMessage("gpu0", "dram5", 8192, 0.0) for _ in range(200)]
        res = sim.run(msgs)
        assert res.throughput <= bw * 1.05

    def test_disjoint_paths_do_not_contend(self):
        sim = NocSimulator(link_bandwidth=64e9)
        local = [
            SimMessage(f"gpu{i}", f"dram{i}", 4096, 0.0) for i in range(8)
        ] * 20
        res = sim.run(local)
        # All local 3D hops: latency stays near the uncontended value
        # for one chiplet's queue (messages to distinct stacks never
        # share links).
        single = NocSimulator(link_bandwidth=64e9).run(
            [SimMessage("gpu0", "dram0", 4096, 0.0)] * 20
        )
        assert res.mean_latency == pytest.approx(
            single.mean_latency, rel=1e-6
        )

    def test_message_validation(self):
        with pytest.raises(ValueError):
            SimMessage("a", "b", 0.0, 0.0)
        with pytest.raises(ValueError):
            SimMessage("a", "b", 64.0, -1.0)

    @pytest.mark.parametrize("size, inject", NON_FINITE_MESSAGES)
    def test_message_rejects_non_finite(self, size, inject):
        with pytest.raises(ValueError, match="finite"):
            SimMessage("gpu0", "dram0", size, inject)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_simulator_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="finite"):
            NocSimulator(link_bandwidth=bandwidth)

    def test_p99_at_least_mean(self):
        sim = NocSimulator()
        msgs = [
            SimMessage("gpu0", "dram5", 4096, i * 1e-8) for i in range(500)
        ]
        res = sim.run(msgs)
        assert res.p99_latency >= res.mean_latency * 0.99

    def test_links_property_removed(self):
        # The deprecated NocSimulator.links alias was removed after one
        # deprecation cycle; link stats live on the SimResult.
        sim = NocSimulator()
        msgs = [
            SimMessage("gpu0", "dram5", 4096, i * 1e-8) for i in range(50)
        ]
        res = sim.run(msgs)
        assert res.link_stats
        with pytest.raises(AttributeError):
            sim.links
