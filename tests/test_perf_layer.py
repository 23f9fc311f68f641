"""The cross-cutting performance layer: cached modal thermal operator,
vectorized assembly, and the NoC fast path."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.noc.simulator import NocSimulator, SimMessage
from repro.thermal.grid import ThermalGrid


class TestVectorizedAssembly:
    @pytest.mark.parametrize("nx,ny", [(4, 3), (9, 5), (22, 8)])
    def test_matches_reference_exactly(self, nx, ny):
        grid = ThermalGrid(10.0, 6.0, nx=nx, ny=ny)
        fast, b_fast = grid._assemble()
        ref, b_ref = grid._assemble_reference()
        fast.sort_indices()
        ref.sort_indices()
        assert np.array_equal(fast.indptr, ref.indptr)
        assert np.array_equal(fast.indices, ref.indices)
        # Diagonal accumulation replays the reference loop's addition
        # order, so the match is bit-exact, not merely approximate.
        assert np.array_equal(fast.data, ref.data)
        assert np.array_equal(b_fast, b_ref)


class TestCachedThermalSolve:
    @pytest.fixture(scope="class")
    def grid(self):
        return ThermalGrid(66.0, 22.0, nx=33, ny=11)

    def test_matches_spsolve(self, grid):
        rng = np.random.default_rng(7)
        maps = rng.random((3, grid.ny, grid.nx))
        field = grid.solve(maps)
        matrix, b_amb = grid._assemble_reference()
        ref = spsolve(matrix, maps.ravel() + b_amb * grid.stack.ambient_c)
        assert np.abs(field.celsius.ravel() - ref).max() < 1e-9

    def test_factorization_reused(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 4, 10] = 5.0
        grid.solve(maps)
        assert grid.factorization_cached
        modes, pivots = grid._modes, grid._pivots[None]
        grid.solve(maps * 2)
        assert grid._modes is modes
        assert grid._pivots[None] is pivots
        grid.invalidate()
        assert not grid.factorization_cached
        assert grid._modes is None

    def test_solve_many_matches_sequential(self, grid):
        rng = np.random.default_rng(11)
        batch = rng.random((5, 3, grid.ny, grid.nx))
        fields = grid.solve_many(batch)
        assert len(fields) == 5
        for k, field in enumerate(fields):
            single = grid.solve(batch[k])
            assert np.abs(field.celsius - single.celsius).max() < 1e-9

    def test_solve_many_validates(self, grid):
        with pytest.raises(ValueError):
            grid.solve_many(np.zeros((3, grid.ny, grid.nx)))
        with pytest.raises(ValueError):
            grid.solve(np.zeros((2, 3, grid.ny, grid.nx)))
        assert grid.solve_many(np.zeros((0, 3, grid.ny, grid.nx))) == []


class TestNocFastPath:
    def _messages(self):
        rng = np.random.default_rng(3)
        nodes = [f"gpu{i}" for i in range(8)] + [f"dram{i}" for i in range(8)]
        pairs = [
            (nodes[a], nodes[b])
            for a, b in rng.integers(0, len(nodes), size=(300, 2))
            if a != b
        ]
        return [
            SimMessage(s, d, 4096.0, (k // 3) * 1e-8)
            for k, (s, d) in enumerate(pairs)
        ]

    def test_link_stats_live_on_result(self):
        msgs = self._messages()
        res = NocSimulator().run(msgs)
        assert res.link_stats
        total_msgs = sum(s.messages for s in res.link_stats.values())
        assert total_msgs >= len(msgs)  # every message crosses >=1 link
        util = res.link_utilization()
        assert util and all(0.0 <= u <= 1.0 for u in util.values())

    def test_links_attribute_removed(self):
        sim = NocSimulator()
        res = sim.run(self._messages())
        assert res.link_stats
        with pytest.raises(AttributeError):
            sim.links

    def test_simulator_utilization_requires_run(self):
        sim = NocSimulator()
        with pytest.raises(RuntimeError):
            sim.link_utilization(1.0)
        res = sim.run(self._messages())
        assert sim.link_utilization(res.makespan) == res.link_utilization()


class TestGeometricMeanAcross:
    def test_guards(self):
        from repro.util.stats import geometric_mean_across

        with pytest.raises(ValueError):
            geometric_mean_across(np.array([]))
        with pytest.raises(ValueError):
            geometric_mean_across(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            geometric_mean_across(np.array([[1.0, -2.0]]))
        out = geometric_mean_across(np.array([[2.0, 8.0], [8.0, 2.0]]))
        assert out == pytest.approx([4.0, 4.0])
