"""Multi-chip weak-scaling model tests."""
import pytest

from repro.wavecore.scaling import (
    InterconnectConfig,
    ring_allreduce_time,
    weak_scaling,
)
from repro.zoo import toy_chain


class TestRingAllreduce:
    def test_single_chip_free(self):
        assert ring_allreduce_time(10**9, 1, InterconnectConfig()) == 0.0

    def test_volume_term_saturates(self):
        """2(P-1)/P approaches 2 payloads; time grows slowly past P=4."""
        link = InterconnectConfig(link_latency_s=0.0)
        t2 = ring_allreduce_time(10**9, 2, link)
        t16 = ring_allreduce_time(10**9, 16, link)
        assert t2 < t16 < 2 * t2

    def test_latency_term_linear_in_chips(self):
        link = InterconnectConfig(link_bandwidth_bytes_per_s=1e18,
                                  link_latency_s=1e-6)
        t4 = ring_allreduce_time(1, 4, link)
        t8 = ring_allreduce_time(1, 8, link)
        assert t8 == pytest.approx(t4 * 14 / 6)

    def test_bandwidth_scaling(self):
        fast = InterconnectConfig(link_bandwidth_bytes_per_s=100e9)
        slow = InterconnectConfig(link_bandwidth_bytes_per_s=10e9)
        assert ring_allreduce_time(10**9, 4, fast) < \
            ring_allreduce_time(10**9, 4, slow)


class TestWeakScaling:
    @pytest.fixture(scope="class")
    def points(self):
        return weak_scaling(toy_chain(), chips=(1, 2, 4, 8))

    def test_global_batch_grows(self, points):
        batches = [p.global_batch for p in points]
        assert batches == [32, 64, 128, 256]

    def test_throughput_increases(self, points):
        rates = [p.samples_per_s for p in points]
        assert rates == sorted(rates)

    def test_efficiency_bounded_and_decreasing(self, points):
        effs = [p.scaling_efficiency for p in points]
        assert all(0.0 < e <= 1.0 for e in effs)
        assert effs == sorted(effs, reverse=True)

    def test_single_chip_perfect(self, points):
        assert points[0].scaling_efficiency == pytest.approx(1.0)

    def test_mbs_scales_better_than_baseline_on_big_nets(self, rn50):
        """MBS's shorter step makes the (fixed) all-reduce relatively
        more visible — but absolute throughput must still win, and
        scaling stays efficient out to 32 chips."""
        mbs, mbs32 = weak_scaling(rn50, "mbs2", chips=(8, 32))
        base = weak_scaling(rn50, "baseline", chips=(8,))[0]
        assert mbs.samples_per_s > base.samples_per_s
        assert mbs32.scaling_efficiency > 0.9
