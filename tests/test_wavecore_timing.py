"""Unit tests for per-layer timing and DRAM attribution."""
import pytest

from repro.core.policies import make_schedule
from repro.core.subbatch import sub_batch_sequence
from repro.core.traffic import Phase, compute_traffic
from repro.graph.layers import (
    Activation,
    Conv2D,
    FullyConnected,
    Norm,
    Pool,
    PoolKind,
)
from repro.types import Shape
from repro.wavecore.config import DEFAULT_CONFIG
from repro.wavecore.gemm import GemmPhase, conv_gemm
from repro.wavecore.tiling import gemm_cycles
from repro.wavecore.timing import (
    gbuf_bytes_for_layer,
    layer_compute,
    per_layer_dram,
)

CONV = Conv2D(name="c", in_shape=Shape(16, 14, 14), out_channels=32,
              kernel=3, padding=1)


class TestLayerCompute:
    def test_forward_is_one_gemm(self):
        comp = layer_compute(CONV, Phase.FWD, 8, 0, DEFAULT_CONFIG)
        expect = gemm_cycles(conv_gemm(CONV, 8, GemmPhase.FORWARD),
                             DEFAULT_CONFIG)
        assert comp.cycles == expect.cycles
        assert comp.macs == expect.macs

    def test_backward_is_two_gemms(self):
        comp = layer_compute(CONV, Phase.BWD, 8, 0, DEFAULT_CONFIG)
        dg = gemm_cycles(conv_gemm(CONV, 8, GemmPhase.DATA_GRAD),
                         DEFAULT_CONFIG)
        wg = gemm_cycles(conv_gemm(CONV, 8, GemmPhase.WEIGHT_GRAD),
                         DEFAULT_CONFIG)
        assert comp.cycles == dg.cycles + wg.cycles

    def test_skip_data_grad(self):
        comp = layer_compute(CONV, Phase.BWD, 8, 0, DEFAULT_CONFIG,
                             skip_data_grad=True)
        wg = gemm_cycles(conv_gemm(CONV, 8, GemmPhase.WEIGHT_GRAD),
                         DEFAULT_CONFIG)
        assert comp.cycles == wg.cycles

    def test_sub_batch_iterations_cover_mini_batch(self):
        full = layer_compute(CONV, Phase.FWD, 8, 0, DEFAULT_CONFIG)
        split = layer_compute(CONV, Phase.FWD, 8, 3, DEFAULT_CONFIG)
        # 3+3+2: same total MACs, more overhead cycles
        assert split.macs == full.macs
        assert split.cycles >= full.cycles

    def test_vector_layer_time(self):
        act = Activation(name="a", in_shape=Shape(16, 14, 14))
        comp = layer_compute(act, Phase.FWD, 8, 0, DEFAULT_CONFIG)
        assert comp.cycles == 0
        expect = 8 * 16 * 14 * 14 / (DEFAULT_CONFIG.vector_lanes *
                                     DEFAULT_CONFIG.clock_hz)
        assert comp.vector_s == pytest.approx(expect)

    def test_norm_double_pass(self):
        norm = Norm(name="n", in_shape=Shape(16, 14, 14))
        fwd = layer_compute(norm, Phase.FWD, 8, 0, DEFAULT_CONFIG)
        bwd = layer_compute(norm, Phase.BWD, 8, 0, DEFAULT_CONFIG)
        assert bwd.vector_s == pytest.approx(fwd.vector_s * 1.5)  # 3 vs 2


class TestDramAttribution:
    def test_totals_preserved(self, rn50):
        sched = make_schedule(rn50, "mbs2")
        traffic = compute_traffic(rn50, sched)
        dram_map = per_layer_dram(rn50, traffic)
        assert sum(dram_map.values()) == traffic.total_bytes

    def test_keys_reference_real_layers(self, residual_net):
        sched = make_schedule(residual_net, "baseline")
        traffic = compute_traffic(residual_net, sched)
        dram_map = per_layer_dram(residual_net, traffic)
        valid = {
            (b.name, l.name)
            for b in residual_net.blocks for l in b.all_layers()
        }
        for (block, layer, phase) in dram_map:
            assert (block, layer) in valid


class TestGbuf:
    def test_conv_gbuf_exceeds_operand_sizes(self):
        nbytes = gbuf_bytes_for_layer(CONV, Phase.FWD, 8, 0, DEFAULT_CONFIG)
        a_min = 8 * 14 * 14 * 16 * 9 * 2  # im2col-expanded A
        assert nbytes >= a_min

    def test_vector_layer_gbuf(self):
        pool = Pool(name="p", in_shape=Shape(16, 14, 14), pool=PoolKind.MAX,
                    kernel=2, stride=2)
        nbytes = gbuf_bytes_for_layer(pool, Phase.FWD, 8, 0, DEFAULT_CONFIG)
        assert nbytes == 2 * 8 * 16 * 7 * 7 * 2


FC = FullyConnected(name="f", in_shape=Shape(16, 7, 7), out_features=10)


class TestSubBatchCounting:
    """The iterations of a sub-batch split are counted, not enumerated."""

    @pytest.mark.parametrize("layer", [CONV, FC], ids=["conv", "fc"])
    @pytest.mark.parametrize("mini_batch, sub_batch",
                             [(32, 3), (32, 16), (32, 0), (5, 7), (33, 32)])
    def test_equals_the_per_iteration_sums(self, layer, mini_batch,
                                           sub_batch):
        sizes = sub_batch_sequence(mini_batch, sub_batch)
        for phase in (Phase.FWD, Phase.BWD):
            for skip in (False, True):
                comp = layer_compute(layer, phase, mini_batch, sub_batch,
                                     DEFAULT_CONFIG, skip_data_grad=skip)
                each = [layer_compute(layer, phase, s, 0, DEFAULT_CONFIG,
                                      skip_data_grad=skip) for s in sizes]
                assert comp.cycles == sum(c.cycles for c in each)
                assert comp.macs == sum(c.macs for c in each)
            assert gbuf_bytes_for_layer(
                layer, phase, mini_batch, sub_batch, DEFAULT_CONFIG
            ) == sum(gbuf_bytes_for_layer(layer, phase, s, 0, DEFAULT_CONFIG)
                     for s in sizes)

    def test_huge_mini_batch_prices_at_once(self):
        n = 10**30
        full, rem = divmod(n, 3)
        assert rem == 1
        comp = layer_compute(CONV, Phase.BWD, n, 3, DEFAULT_CONFIG)
        three = layer_compute(CONV, Phase.BWD, 3, 0, DEFAULT_CONFIG)
        one = layer_compute(CONV, Phase.BWD, 1, 0, DEFAULT_CONFIG)
        assert comp.cycles == full * three.cycles + one.cycles
        assert comp.macs == n * one.macs
        assert gbuf_bytes_for_layer(CONV, Phase.BWD, n, 3, DEFAULT_CONFIG) \
            == full * gbuf_bytes_for_layer(CONV, Phase.BWD, 3, 0,
                                           DEFAULT_CONFIG) \
            + gbuf_bytes_for_layer(CONV, Phase.BWD, 1, 0, DEFAULT_CONFIG)
