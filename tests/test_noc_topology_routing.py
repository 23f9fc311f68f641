"""EHP topology and routing."""

import networkx as nx
import pytest

from repro.noc.routing import hop_latency, monolithic_latency, route
from repro.noc.topology import EHPTopology, NodeKind


@pytest.fixture(scope="module")
def topo():
    t = EHPTopology()
    t.validate()
    return t


class TestTopologyStructure:
    def test_counts(self, topo):
        assert len(topo.gpu_chiplets) == 8
        assert len(topo.cpu_chiplets) == 8
        assert len(topo.dram_stacks) == 8
        assert len(topo.nodes_of_kind(NodeKind.INTERPOSER)) == 6
        assert len(topo.nodes_of_kind(NodeKind.EXT_INTERFACE)) == 8

    def test_connected(self, topo):
        assert nx.is_connected(topo.graph)

    def test_tree_so_every_route_is_unique(self, topo):
        # Connected with one edge fewer than nodes: a tree. Each
        # (src, dst) pair then has exactly one path, so no shortest-path
        # search or tie-break can route any message differently.
        graph = topo.graph
        assert (graph.number_of_nodes(), graph.number_of_edges()) == (38, 37)
        assert nx.is_connected(graph)

    def test_every_gpu_has_local_dram(self, topo):
        for gpu in topo.gpu_chiplets:
            dram = topo.local_dram(gpu)
            assert dram in topo.dram_stacks
            assert topo.graph.has_edge(gpu, dram)

    def test_local_dram_rejects_non_gpu(self, topo):
        with pytest.raises(ValueError):
            topo.local_dram("cpu0")

    def test_cpu_clusters_central(self, topo):
        # CPU chiplets sit on interposers 2 and 3 (the center of the
        # 6-interposer row), per Fig. 2's NUMA-minimizing placement.
        interposers = {topo.interposer_of(c) for c in topo.cpu_chiplets}
        assert interposers == {2, 3}

    def test_gpu_clusters_flank(self, topo):
        interposers = {topo.interposer_of(g) for g in topo.gpu_chiplets}
        assert interposers == {0, 1, 4, 5}

    def test_same_chiplet_relation(self, topo):
        assert topo.same_chiplet("gpu0", "dram0")
        assert topo.same_chiplet("gpu0", "gpu0")
        assert not topo.same_chiplet("gpu0", "dram1")
        assert not topo.same_chiplet("gpu0", "cpu0")


class TestRouting:
    def test_local_dram_is_one_stack_hop(self, topo):
        r = route(topo, "gpu0", "dram0")
        assert r.n_hops == 1
        assert not r.crosses_chiplet
        assert r.tsv_hops == 0

    def test_remote_dram_pays_two_tsvs(self, topo):
        # Section V-A: out-of-chiplet messages pay two vertical hops.
        r = route(topo, "gpu0", "dram7")
        assert r.tsv_hops == 2
        assert r.crosses_chiplet
        assert r.interposer_hops >= 1

    def test_remote_latency_exceeds_local(self, topo):
        assert hop_latency(topo, "gpu0", "dram7") > hop_latency(
            topo, "gpu0", "dram0"
        )

    def test_farther_interposers_cost_more(self, topo):
        # gpu0 is on interposer 0; gpu7's stack is on interposer 5.
        near = hop_latency(topo, "gpu0", "dram2")  # interposer 1
        far = hop_latency(topo, "gpu0", "dram7")  # interposer 5
        assert far > near

    def test_monolithic_latency_removes_tsv_hops(self, topo):
        chiplet = hop_latency(topo, "gpu0", "dram7")
        mono = monolithic_latency(topo, "gpu0", "dram7")
        assert mono < chiplet
        # Exactly the two TSV hops' worth (5 ns each).
        assert chiplet - mono == pytest.approx(2 * 5e-9)

    def test_cpu_to_gpu_route_exists(self, topo):
        r = route(topo, "cpu0", "gpu0")
        assert r.latency > 0

    def test_unknown_endpoint_raises(self, topo):
        with pytest.raises(KeyError):
            route(topo, "gpu0", "nonexistent")

    def test_routes_symmetric_latency(self, topo):
        assert hop_latency(topo, "gpu1", "dram6") == pytest.approx(
            hop_latency(topo, "dram6", "gpu1")
        )
