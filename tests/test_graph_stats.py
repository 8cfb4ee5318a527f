"""Unit tests for footprint statistics (Fig. 3 raw material)."""
from repro.graph.stats import layer_stats, reusable_fraction
from repro.types import MIB


def test_layer_stats_scale_with_batch(chain_net):
    s16 = layer_stats(chain_net, mini_batch=16)
    s32 = layer_stats(chain_net, mini_batch=32)
    for a, b in zip(s16, s32):
        assert b.inter_layer_bytes == 2 * a.inter_layer_bytes
        assert b.param_bytes == a.param_bytes  # params batch-independent
        assert b.macs == 2 * a.macs


def test_layer_stats_default_batch(chain_net):
    default = layer_stats(chain_net)
    explicit = layer_stats(chain_net, chain_net.default_mini_batch)
    assert default == explicit


def test_layer_stats_inter_layer_is_in_plus_out(chain_net):
    stats = layer_stats(chain_net, mini_batch=1)
    layers = chain_net.all_layers()
    for stat, layer in zip(stats, layers):
        assert stat.inter_layer_bytes == (
            layer.in_shape.bytes() + layer.out_shape.bytes()
        )


def test_reusable_fraction_monotone_in_buffer(rn50):
    fractions = [
        reusable_fraction(rn50, b * MIB) for b in (1, 5, 10, 40, 400)
    ]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert fractions == sorted(fractions)


def test_reusable_fraction_paper_claim(rn50):
    """Sec. 2: only a small share of ResNet-50 inter-layer data fits in
    10 MiB at N=32 (paper: 9.3%; our in+out accounting gives ~5.5%)."""
    frac = reusable_fraction(rn50, 10 * MIB, mini_batch=32)
    assert frac < 0.15


def test_reusable_fraction_everything_fits_with_huge_buffer(chain_net):
    assert reusable_fraction(chain_net, 10**12) == 1.0
