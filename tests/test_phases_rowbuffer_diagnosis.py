"""Phase sequences, row-buffer simulation, and bound diagnosis."""

import numpy as np
import pytest

from repro.memsys.rowbuffer import RowBufferSim
from repro.perfmodel.diagnosis import Bound, diagnose
from repro.workloads.catalog import get_application
from repro.workloads.kernels import KernelCategory
from repro.workloads.phases import (
    Phase,
    PhaseSequence,
    synthetic_md_application,
)
from repro.workloads.traces import TraceGenerator


class TestPhaseSequence:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhaseSequence(name="x", phases=())

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Phase(get_application("CoMD"), weight=0.0)

    def test_from_profiles(self):
        seq = PhaseSequence.from_profiles(
            "job",
            [get_application("CoMD"), get_application("LULESH")],
            weights=[1.0, 3.0],
        )
        assert len(seq) == 2
        assert seq.total_weight == 4.0

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            PhaseSequence.from_profiles(
                "job", [get_application("CoMD")], weights=[1.0, 2.0]
            )

    def test_dominant_phase(self):
        seq = PhaseSequence.from_profiles(
            "job",
            [get_application("CoMD"), get_application("LULESH")],
            weights=[1.0, 3.0],
        )
        assert seq.dominant_phase().profile.name == "LULESH"

    def test_category_mix_sums_to_one(self):
        seq = synthetic_md_application()
        assert sum(seq.category_mix().values()) == pytest.approx(1.0)

    def test_blended_profile_between_extremes(self):
        seq = PhaseSequence.from_profiles(
            "job",
            [get_application("MaxFlops"), get_application("SNAP")],
        )
        blend = seq.blended_profile()
        lo = min(
            get_application("MaxFlops").bytes_per_flop,
            get_application("SNAP").bytes_per_flop,
        )
        hi = max(
            get_application("MaxFlops").bytes_per_flop,
            get_application("SNAP").bytes_per_flop,
        )
        assert lo <= blend.bytes_per_flop <= hi
        assert "blend" in blend.name

    def test_synthetic_md_structure(self):
        seq = synthetic_md_application(iterations=2)
        names = [p.profile.name for p in seq]
        assert names.count("MaxFlops") == 2
        assert names.count("LULESH") == 1  # rebuild every other iteration

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            synthetic_md_application(iterations=0)


class TestRowBufferSim:
    def test_sequential_stream_hits(self):
        sim = RowBufferSim()
        addrs = np.arange(0, 256 * 200, 64)
        stats = sim.run(addrs)
        assert stats.hit_rate > 0.5

    def test_random_stream_misses(self):
        sim = RowBufferSim()
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 32, size=5000)
        stats = sim.run(addrs)
        assert stats.hit_rate < 0.1

    def test_repeat_same_row_hits(self):
        sim = RowBufferSim()
        sim.access(0)
        assert sim.access(64)  # same interleave block -> same bank+row

    def test_trace_locality_ordering(self):
        streaming = TraceGenerator(
            get_application("MaxFlops"), seed=0
        ).generate(10000)
        random = TraceGenerator(
            get_application("MaxFlops").with_overrides(
                latency_sensitivity=0.9
            ),
            seed=0,
        ).generate(10000)
        s1 = RowBufferSim().run(streaming.addresses)
        s2 = RowBufferSim().run(random.addresses)
        assert s1.hit_rate > s2.hit_rate

    def test_reset(self):
        sim = RowBufferSim()
        sim.access(0)
        sim.reset()
        assert sim.stats.accesses == 0
        assert not sim.access(0)  # cold again

    def test_validation(self):
        with pytest.raises(ValueError):
            RowBufferSim(n_banks=0)
        with pytest.raises(ValueError):
            RowBufferSim().access(-1)

    @pytest.mark.parametrize(
        "field", ["n_banks", "row_bytes", "channel_interleave_bytes"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 1.5, 256.0, True]
    )
    def test_geometry_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            RowBufferSim(**{field: value})


class TestDiagnosis:
    def test_maxflops_compute_bound(self):
        d = diagnose(get_application("MaxFlops"), 320, 1e9, 3e12)
        assert d.bound is Bound.COMPUTE
        assert d.compute_share > 0.9

    def test_snap_memory_bound(self):
        d = diagnose(get_application("SNAP"), 320, 1e9, 3e12)
        assert d.bound in (Bound.BANDWIDTH, Bound.LATENCY)

    def test_balanced_kernels_near_knee(self):
        d = diagnose(get_application("CoMD"), 320, 1e9, 3e12)
        assert d.is_balanced()

    def test_shares_sum_to_one(self):
        d = diagnose(get_application("LULESH"), 320, 1e9, 3e12)
        assert (
            d.compute_share + d.bandwidth_share + d.latency_share
        ) == pytest.approx(1.0)

    def test_more_bandwidth_shifts_toward_compute(self):
        lo = diagnose(get_application("SNAP"), 320, 1e9, 1e12)
        hi = diagnose(get_application("SNAP"), 320, 1e9, 7e12)
        assert hi.compute_share > lo.compute_share

    def test_balance_ratio_bounds(self):
        d = diagnose(get_application("CoMD"), 320, 1e9, 3e12)
        assert 0.0 < d.balance_ratio <= 1.0
