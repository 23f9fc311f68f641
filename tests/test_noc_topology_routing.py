"""EHP topology and routing."""

import pytest

from repro.noc.routing import hop_latency, monolithic_latency, route
from repro.noc.topology import EHPTopology, Link, NodeKind


@pytest.fixture(scope="module")
def topo():
    t = EHPTopology()
    t.validate()
    return t


def _tree_path(links, src, dst):
    """The first simple path a depth-first search finds from *src* to
    *dst* (the only one when the link table is a tree), or None."""
    stack = [(src, (src,))]
    seen = {src}
    while stack:
        node, path = stack.pop()
        if node == dst:
            return path
        for nxt in links[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + (nxt,)))
    return None


def _n_links(topology):
    return sum(len(nbrs) for nbrs in topology.links.values()) // 2


def _connected(topology):
    start = next(iter(topology.vertices))
    return all(_tree_path(topology.links, start, v) for v in topology.vertices)


class TestTopologyStructure:
    def test_counts(self, topo):
        assert len(topo.gpu_chiplets) == 8
        assert len(topo.cpu_chiplets) == 8
        assert len(topo.dram_stacks) == 8
        assert len(topo.nodes_of_kind(NodeKind.INTERPOSER)) == 6
        assert len(topo.nodes_of_kind(NodeKind.EXT_INTERFACE)) == 8

    def test_connected(self, topo):
        assert _connected(topo)

    def test_link_table_is_symmetric(self, topo):
        assert set(topo.links) == set(topo.vertices)
        for a, nbrs in topo.links.items():
            for b, link in nbrs.items():
                assert topo.links[b][a] is link

    def test_tree_so_every_route_is_unique(self, topo):
        # Connected with one link fewer than vertices: a tree. Each
        # (src, dst) pair then has exactly one path, so no shortest-path
        # search or tie-break can route any message differently.
        assert (len(topo.vertices), _n_links(topo)) == (38, 37)
        assert _connected(topo)

    def test_validate_rejects_a_disconnected_topology(self):
        t = EHPTopology()
        del t.links["gpu0"]["dram0"], t.links["dram0"]["gpu0"]
        with pytest.raises(AssertionError, match="connected"):
            t.validate()
        with pytest.raises(ValueError, match="no route"):
            route(t, "gpu1", "dram0")

    def test_every_gpu_has_local_dram(self, topo):
        for gpu in topo.gpu_chiplets:
            dram = topo.local_dram(gpu)
            assert dram in topo.dram_stacks
            assert dram in topo.links[gpu]

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

    def test_same_chiplet_matches_gpu_dram_pairing(self, topo):
        # Every ordered pair of vertices plus an unknown name: the same
        # stack means the same vertex, or GPU chiplet i with DRAM stack
        # i, whichever the order.
        stacks = [{f"gpu{i}", f"dram{i}"} for i in range(8)]
        names = sorted(topo.vertices) + ["nowhere"]
        assert len(names) == 39
        for a in names:
            for b in names:
                expected = a == b or {a, b} in stacks
                assert topo.same_chiplet(a, b) is expected, (a, b)


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

    def test_every_route_is_the_unique_tree_path(self, topo):
        names = list(topo.vertices)
        for src in names:
            for dst in names:
                path = _tree_path(topo.links, src, dst)
                links = [topo.links[a][b] for a, b in zip(path, path[1:])]
                latency = 0.0
                for link in links:
                    latency += link.latency
                r = route(topo, src, dst)
                assert r.nodes == path
                assert r.latency == latency
                assert r.tsv_hops == sum(k.kind == "tsv" for k in links)
                assert r.interposer_hops == sum(
                    k.kind == "interposer-interposer" for k in links
                )
        assert len(names) ** 2 == 1444

    @pytest.mark.parametrize("shortcut_ns, via_shortcut", [
        (1.0, True), (100.0, False),
    ])
    def test_cycle_routes_the_lower_latency_side(
        self, shortcut_ns, via_shortcut
    ):
        # A shortcut intp0-intp5 closes a cycle: the lateral path it
        # bypasses costs five 15 ns interposer crossings (75 ns).
        t = EHPTopology()
        tree = route(t, "gpu0", "dram7")
        t.links["intp0"]["intp5"] = t.links["intp5"]["intp0"] = Link(
            "interposer-interposer", shortcut_ns * 1e-9
        )
        r = route(t, "gpu0", "dram7")
        if via_shortcut:
            assert r.nodes == (
                "gpu0", "intp0", "intp5", "gpu7", "dram7"
            )
            assert r.interposer_hops == 1
            assert r.latency < tree.latency
        else:
            assert r == tree

    def test_routes_symmetric_latency(self, topo):
        assert hop_latency(topo, "gpu1", "dram6") == pytest.approx(
            hop_latency(topo, "dram6", "gpu1")
        )
