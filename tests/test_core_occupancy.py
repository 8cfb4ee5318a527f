"""Operational occupancy simulation vs the analytic Eq. 1/2 provision."""
import pytest

from repro.core.footprint import block_space_per_sample
from repro.core.occupancy import (
    BufferSim,
    peak_occupancy,
    simulate_block_occupancy,
    validate_schedule_occupancy,
)
from repro.core.policies import make_schedule
from repro.types import MIB
from repro.zoo import toy_chain, toy_inception, toy_residual


class TestBufferSim:
    def test_alloc_free_peak(self):
        sim = BufferSim()
        sim.alloc("a", 100)
        sim.alloc("b", 50)
        sim.free("a")
        sim.alloc("c", 20)
        assert sim.peak == 150
        assert sim.occupancy == 70

    def test_double_alloc_rejected(self):
        sim = BufferSim()
        sim.alloc("a", 1)
        with pytest.raises(RuntimeError, match="double"):
            sim.alloc("a", 1)

    def test_free_unknown_rejected(self):
        with pytest.raises(RuntimeError, match="unknown"):
            BufferSim().free("x")

    def test_rename_preserves_bytes(self):
        sim = BufferSim()
        sim.alloc("a", 42)
        sim.rename("a", "b")
        assert sim.live == {"b": 42}


@pytest.mark.parametrize("sub_batch", [1, 2, 5])
@pytest.mark.parametrize("branch_reuse", [True, False])
@pytest.mark.parametrize("builder", [toy_chain, toy_residual, toy_inception])
def test_analytic_provision_bounds_executed_peak(builder, branch_reuse,
                                                 sub_batch):
    """Eq. 1/2 provisioning is a safe upper bound for every block."""
    net = builder()
    for block in net.blocks:
        provision = block_space_per_sample(block, branch_reuse) * sub_batch
        peak = peak_occupancy(block, sub_batch, branch_reuse)
        assert peak <= provision, block.name


@pytest.mark.parametrize(
    "fixture", ["rn50", "incv3", "alex"]
)
def test_zoo_blocks_bounded(fixture, request):
    net = request.getfixturevalue(fixture)
    for block in net.blocks:
        for branch_reuse in (True, False):
            provision = block_space_per_sample(block, branch_reuse) * 2
            assert peak_occupancy(block, 2, branch_reuse) <= provision


def test_peak_scales_linearly_with_sub_batch(rn50):
    block = rn50.block_named("conv3_1")
    p1 = peak_occupancy(block, 1)
    p4 = peak_occupancy(block, 4)
    assert p4 == 4 * p1 > 0


def test_provision_tight_for_chains(chain_net):
    """For plain chains the analytic space equals the executed peak."""
    for block in chain_net.blocks:
        assert peak_occupancy(block, 3) == pytest.approx(
            block_space_per_sample(block, True) * 3, rel=0.35
        )


def test_branch_reuse_costs_buffer(rn50):
    block = rn50.block_named("conv2_1")
    assert peak_occupancy(block, 2, True) > peak_occupancy(block, 2, False)


def test_trace_balances(residual_net):
    """Every alloc is eventually freed except the block output."""
    for block in residual_net.blocks:
        sim = simulate_block_occupancy(block, 2, True)
        assert len(sim.live) == 1  # exactly the block output remains


class TestScheduleValidation:
    @pytest.mark.parametrize("policy", ["mbs-fs", "mbs1", "mbs2"])
    def test_mbs_schedules_fit(self, rn50, policy):
        sched = make_schedule(rn50, policy, buffer_bytes=10 * MIB)
        assert validate_schedule_occupancy(rn50, sched) == []

    def test_all_zoo_schedules_fit(self, incv3, incv4, alex):
        for net in (incv3, incv4, alex):
            for policy in ("mbs1", "mbs2"):
                for buf in (5, 10, 20):
                    sched = make_schedule(net, policy, buffer_bytes=buf * MIB)
                    assert validate_schedule_occupancy(net, sched) == [], \
                        (net.name, policy, buf)

    def test_violation_detected_for_oversized_claim(self, rn50):
        """Hand-build an infeasible schedule and confirm detection."""
        from repro.core.schedule import GroupPlan, Schedule

        groups = [
            GroupPlan(blocks=(i,), sub_batch=32, iterations=1,
                      block_fused=(True,))
            for i in range(len(rn50.blocks))
        ]
        bad = Schedule(
            policy="mbs2", network=rn50.name, mini_batch=32,
            buffer_bytes=1 * MIB, branch_reuse=True, relu_mask=True,
            groups=tuple(groups),
        )
        assert validate_schedule_occupancy(rn50, bad)
