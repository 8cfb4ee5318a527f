"""Fig. 3: per-layer inter-layer data and parameter size of ResNet-50.

Also reproduces the Sec. 2 observation that only ~9 % of inter-layer data
is reusable with a 10 MiB buffer at mini-batch 32.
"""
from __future__ import annotations

from repro.experiments.common import network
from repro.experiments.tables import format_table, mib
from repro.graph.stats import layer_stats, reusable_fraction
from repro.runtime import ExperimentSpec, register
from repro.types import MIB


def run(net_name: str = "resnet50", mini_batch: int = 32,
        buffer_mib: int = 10) -> dict:
    net = network(net_name)
    stats = sorted(
        layer_stats(net, mini_batch),
        key=lambda s: s.inter_layer_bytes,
        reverse=True,
    )
    frac = reusable_fraction(net, buffer_mib * MIB, mini_batch)
    return {
        "network": net_name,
        "mini_batch": mini_batch,
        "layers": stats,
        "reusable_fraction": frac,
        "buffer_mib": buffer_mib,
    }


def render(res: dict) -> None:
    rows = [
        [i, s.name, s.kind, mib(s.inter_layer_bytes), mib(s.param_bytes)]
        for i, s in enumerate(res["layers"])
    ]
    print(
        format_table(
            ["#", "layer", "kind", "inter-layer MiB", "params MiB"],
            rows[:30] + [["...", f"({len(rows) - 30} more)", "", "", ""]],
            title=(
                f"Fig. 3 — {res['network']} per-layer footprint at "
                f"N={res['mini_batch']} (sorted, top 30)"
            ),
        )
    )
    print(
        f"\nreusable inter-layer data with {res['buffer_mib']} MiB buffer: "
        f"{res['reusable_fraction'] * 100:.1f}%  (paper: 9.3%)"
    )


SPEC = register(ExperimentSpec(
    name="fig3",
    title="Fig. 3 — per-layer footprint and reusable fraction",
    produce=run,
    render=render,
    sweep={
        "net_name": ("resnet50", "resnet101", "inception_v3"),
        "mini_batch": (16, 32, 64),
        "buffer_mib": (5, 10, 20, 40),
    },
    artifact=("network", "mini_batch", "layers", "reusable_fraction"),
))
