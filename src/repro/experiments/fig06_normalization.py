"""Fig. 6: training effectiveness of GN+MBS vs BN (vs no normalization).

The paper trains ResNet-50 on ImageNet; we substitute a synthetic
classification task and a deep toy CNN (``toy_chain``) — the *relative*
claims carry over: (1) GN+MBS and BN reach the same accuracy, (2) MBS
sub-batching with GN computes bit-identical gradients to full-batch
execution, (3) un-normalized training visibly lags, and (4) normalized
pre-activation means stay near zero while un-normalized ones drift.
"""
from __future__ import annotations

import numpy as np

from repro.graph.layers import NormKind
from repro.nn import NetworkModel, synthetic_dataset, train
from repro.nn.executor import compute_gradients, mbs_gradients
from repro.runtime import ExperimentSpec, register
from repro.zoo import toy_chain


def run(
    epochs: int = 8,
    train_samples: int = 512,
    val_samples: int = 256,
    widths: tuple[int, ...] = (16, 32, 32, 64, 64),
    noise: float = 1.6,
    lr: float = 0.12,
    batch: int = 32,
    sub_batch: int = 4,
    seed: int = 3,
) -> dict:
    data = synthetic_dataset(
        train=train_samples, val=val_samples, noise=noise, seed=seed
    )
    results = {}
    for label, norm, sub in (
        ("BN", NormKind.BATCH, None),
        ("GN+MBS", NormKind.GROUP, sub_batch),
        ("no-norm", None, None),
    ):
        net = toy_chain(widths=widths, num_classes=data.num_classes, norm=norm)
        model = NetworkModel(net, seed=5, dtype=np.float32)
        results[label] = train(
            model, data, epochs=epochs, batch=batch, lr=lr,
            sub_batch=sub, label=label, seed=11,
        )

    # gradient-equivalence probe (the Sec. 3 correctness claim)
    rng = np.random.default_rng(0)
    x = data.x_train[:12]
    y = data.y_train[:12]
    diffs = {}
    for label, norm in (("GN", NormKind.GROUP), ("BN", NormKind.BATCH)):
        net = toy_chain(widths=widths[:3], num_classes=data.num_classes, norm=norm)
        m_full = NetworkModel(net, seed=9)
        m_mbs = NetworkModel(net, seed=9)
        m_full.zero_grads()
        compute_gradients(m_full, x, y)
        m_mbs.zero_grads()
        mbs_gradients(m_mbs, x, y, sub_batch=5)
        diffs[label] = float(
            np.max(np.abs(m_full.gradient_vector() - m_mbs.gradient_vector()))
        )
    return {"curves": results, "gradient_equivalence": diffs}


def render(res: dict) -> None:
    from repro.experiments.plots import line_plot

    print("Fig. 6 — validation error by epoch (synthetic ImageNet stand-in)")
    for label, r in res["curves"].items():
        errs = " ".join(f"{e * 100:5.1f}" for e in r.val_error)
        print(f"  {label:8s}: {errs}")
    print()
    print(line_plot(
        {label: r.val_error for label, r in res["curves"].items()},
        title="validation error vs epoch", y_label="top-1 error",
    ))
    print("\npre-activation means (first / last probe layer, final epoch):")
    for label, r in res["curves"].items():
        print(
            f"  {label:8s}: first={r.first_norm_mean[-1]:+.3f} "
            f"last={r.last_norm_mean[-1]:+.3f}"
        )
    d = res["gradient_equivalence"]
    print(
        f"\nMBS gradient equivalence (max |Δgrad| vs full batch): "
        f"GN={d['GN']:.2e} (exact)  BN={d['BN']:.2e} (broken — why MBS adapts GN)"
    )


SPEC = register(ExperimentSpec(
    name="fig6",
    title="Fig. 6 — GN+MBS vs BN training effectiveness",
    produce=run,
    render=render,
    quick={"epochs": 3, "train_samples": 256, "val_samples": 128},
    sweep={"sub_batch": (2, 4, 8), "seed": (3, 4)},
    artifact=("curves", "gradient_equivalence"),
))
