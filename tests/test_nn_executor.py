"""The paper's central numerical claim: MBS serialization is exact w/ GN."""
import numpy as np
import pytest

from repro.graph.layers import NormKind
from repro.nn.executor import compute_gradients, evaluate, mbs_gradients
from repro.nn.model import NetworkModel
from repro.zoo import toy_chain, toy_inception, toy_residual


def data(rng, n=10, classes=8):
    return rng.normal(size=(n, 3, 32, 32)), rng.integers(0, classes, n)


@pytest.mark.parametrize("builder", [toy_chain, toy_residual, toy_inception])
@pytest.mark.parametrize("sub_batch", [1, 3, 4, 10])
def test_gn_mbs_matches_full_batch(builder, sub_batch, rng):
    net = builder(norm=NormKind.GROUP)
    x, y = data(rng)
    full = NetworkModel(net, seed=3)
    mbs = NetworkModel(net, seed=3)
    full.zero_grads()
    s_full = compute_gradients(full, x, y)
    mbs.zero_grads()
    s_mbs = mbs_gradients(mbs, x, y, sub_batch)
    np.testing.assert_allclose(
        full.gradient_vector(), mbs.gradient_vector(), atol=1e-12
    )
    assert s_full.loss_sum == pytest.approx(s_mbs.loss_sum)
    assert s_full.correct == s_mbs.correct
    assert s_full.samples == s_mbs.samples == len(y)


@pytest.mark.parametrize("builder", [toy_chain, toy_residual])
def test_bn_mbs_diverges(builder, rng):
    net = builder(norm=NormKind.BATCH)
    x, y = data(rng)
    full = NetworkModel(net, seed=3)
    mbs = NetworkModel(net, seed=3)
    full.zero_grads()
    compute_gradients(full, x, y)
    mbs.zero_grads()
    mbs_gradients(mbs, x, y, sub_batch=4)
    diff = np.max(np.abs(full.gradient_vector() - mbs.gradient_vector()))
    assert diff > 1e-4


def test_unnormalized_network_also_exact(rng):
    """Without norm layers MBS is trivially exact too."""
    net = toy_chain(norm=None)
    x, y = data(rng)
    full = NetworkModel(net, seed=3)
    mbs = NetworkModel(net, seed=3)
    full.zero_grads()
    compute_gradients(full, x, y)
    mbs.zero_grads()
    mbs_gradients(mbs, x, y, sub_batch=3)
    np.testing.assert_allclose(
        full.gradient_vector(), mbs.gradient_vector(), atol=1e-12
    )


def test_mbs_stats_cover_all_samples(rng):
    net = toy_chain()
    x, y = data(rng, n=11)
    model = NetworkModel(net, seed=0)
    model.zero_grads()
    stats = mbs_gradients(model, x, y, sub_batch=4)  # 4+4+3
    assert stats.samples == 11
    assert 0 <= stats.correct <= 11
    assert stats.loss_mean == pytest.approx(stats.loss_sum / 11)


def test_evaluate_batches_consistently(rng):
    net = toy_chain()
    model = NetworkModel(net, seed=0)
    x, y = data(rng, n=20)
    small = evaluate(model, x, y, batch=3)
    large = evaluate(model, x, y, batch=20)
    assert small.correct == large.correct
    assert small.loss_sum == pytest.approx(large.loss_sum)
    assert 0.0 <= small.accuracy <= 1.0
