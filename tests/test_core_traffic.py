"""Unit tests for the DRAM traffic model, including hand-computed cases."""
import pytest

from repro.core.policies import make_schedule
from repro.core.traffic import (
    Category,
    Phase,
    compute_traffic,
)
from repro.graph.blocks import chain_block
from repro.graph.layers import Activation, Conv2D, Norm
from repro.graph.network import Network
from repro.types import MIB, Shape


def tiny_conv_net():
    """input(2x4x4) -> conv 3x3 (4ch) -> norm -> relu, one block."""
    in_shape = Shape(2, 4, 4)
    conv = Conv2D(name="c", in_shape=in_shape, out_channels=4,
                  kernel=3, padding=1)
    norm = Norm(name="n", in_shape=conv.out_shape)
    act = Activation(name="a", in_shape=conv.out_shape)
    block = chain_block("b0", in_shape, [conv, norm, act])
    return Network("tiny", in_shape, (block,), default_mini_batch=4)


class TestBaselineHandComputed:
    """Every byte of the Baseline schedule for the tiny network."""

    N = 4
    IN_B = 2 * 4 * 4 * 2    # input bytes/sample
    OUT_B = 4 * 4 * 4 * 2   # conv/norm/act feature bytes/sample
    W_B = 4 * 2 * 9 * 2     # conv weight bytes
    P_B = 2 * 4 * 2         # norm scale/shift bytes

    @pytest.fixture()
    def report(self):
        net = tiny_conv_net()
        sched = make_schedule(net, "baseline")
        return compute_traffic(net, sched)

    def test_forward_feature_reads(self, report):
        # conv reads input; norm reads conv output twice; act reads once
        expect = self.N * (self.IN_B + 2 * self.OUT_B + self.OUT_B)
        fwd = [r for r in report.records
               if r.phase is Phase.FWD and r.category is Category.FEAT_RD]
        assert sum(r.bytes for r in fwd) == expect

    def test_forward_feature_writes(self, report):
        expect = self.N * 3 * self.OUT_B  # conv, norm, act outputs
        fwd = [r for r in report.records
               if r.phase is Phase.FWD and r.category is Category.FEAT_WR]
        assert sum(r.bytes for r in fwd) == expect

    def test_weight_reads(self, report):
        by_cat = report.by_category()
        assert by_cat[Category.WEIGHT_RD] == 2 * self.W_B  # fwd + bwd

    def test_wgrad_written_once(self, report):
        assert report.by_category()[Category.WGRAD_WR] == self.W_B
        assert Category.WGRAD_RD not in report.by_category()

    def test_backward_grad_flow(self, report):
        by_cat = report.by_category()
        # incoming grads: act, norm, conv (+1 re-read for the second GEMM)
        assert by_cat[Category.GRAD_RD] == self.N * 4 * self.OUT_B
        # outgoing grads: act -> norm tensor, norm -> conv-out tensor
        # (conv is the first layer overall: no input gradient)
        assert by_cat[Category.GRAD_WR] == self.N * 2 * self.OUT_B

    def test_backward_value_reads(self, report):
        by_cat = report.by_category()
        # conv re-reads its input, norm re-reads conv output twice,
        # act (no mask) re-reads its output
        expect = self.N * (self.IN_B + 2 * self.OUT_B + self.OUT_B)
        assert by_cat[Category.CHK_RD] == expect

    def test_norm_params(self, report):
        by_cat = report.by_category()
        assert by_cat[Category.PARAM] == self.P_B + 2 * self.P_B

    def test_no_masks_without_relu_mask(self, report):
        by_cat = report.by_category()
        assert Category.MASK_WR not in by_cat
        assert Category.MASK_RD not in by_cat

    def test_reads_plus_writes_total(self, report):
        assert report.reads() + report.writes() == report.total_bytes


class TestFusedHandComputed:
    """One fully-fused group for the same network (big buffer, MBS)."""

    N = 4
    IN_B = 2 * 4 * 4 * 2
    OUT_B = 4 * 4 * 4 * 2
    W_B = 4 * 2 * 9 * 2

    @pytest.fixture()
    def report(self):
        net = tiny_conv_net()
        sched = make_schedule(net, "mbs2", buffer_bytes=1 * MIB)
        assert sched.groups[0].iterations == 1  # everything fits
        return compute_traffic(net, sched)

    def test_forward_reads_only_input(self, report):
        fwd = [r for r in report.records if r.phase is Phase.FWD]
        feat = sum(r.bytes for r in fwd if r.category is Category.FEAT_RD)
        assert feat == self.N * self.IN_B

    def test_forward_checkpoints(self, report):
        fwd = [r for r in report.records if r.phase is Phase.FWD]
        chk = sum(r.bytes for r in fwd if r.category is Category.CHK_WR)
        # conv output x (norm consumes it in bwd); the block output (act)
        # feeds the loss only, so it is checkpointed as the final output
        assert chk == self.N * 2 * self.OUT_B

    def test_relu_mask_replaces_value_read(self, report):
        by_cat = report.by_category()
        mask_bytes = (4 * 4 * 4 * self.N + 7) // 8
        assert by_cat[Category.MASK_WR] == mask_bytes
        assert by_cat[Category.MASK_RD] == mask_bytes

    def test_fused_cuts_traffic(self, report):
        net = tiny_conv_net()
        base = compute_traffic(net, make_schedule(net, "baseline"))
        assert report.total_bytes < base.total_bytes


class TestIterationScaling:
    def test_weight_traffic_scales_with_iterations(self, rn50):
        fs = compute_traffic(rn50, make_schedule(rn50, "mbs-fs"))
        m2 = compute_traffic(rn50, make_schedule(rn50, "mbs2"))
        # MBS-FS iterates deep heavy layers far more often
        assert fs.by_category()[Category.WEIGHT_RD] > \
            m2.by_category()[Category.WEIGHT_RD]

    def test_wgrad_accumulation_reads(self, rn50):
        sched = make_schedule(rn50, "mbs-fs")
        rep = compute_traffic(rn50, sched)
        by_cat = rep.by_category()
        iters = sched.groups[0].iterations
        # I writes and I-1 reads of the partial sums
        assert by_cat[Category.WGRAD_RD] == pytest.approx(
            by_cat[Category.WGRAD_WR] * (iters - 1) / iters
        )


class TestReportQueries:
    def test_by_kind_and_block(self, residual_net):
        rep = compute_traffic(residual_net, make_schedule(residual_net, "mbs2"))
        assert set(rep.by_block()) <= {b.name for b in residual_net.blocks}
        assert rep.by_kind()
        assert sum(rep.by_phase().values()) == rep.total_bytes

    def test_schedule_network_mismatch_raises(self, chain_net, residual_net):
        sched = make_schedule(chain_net, "baseline")
        # residual_net happens to have the same block count; force mismatch
        from repro.graph.network import Network
        smaller = Network(
            "sub", chain_net.in_shape, chain_net.blocks[:2],
            default_mini_batch=8,
        )
        with pytest.raises(ValueError, match="covers"):
            compute_traffic(smaller, sched)
