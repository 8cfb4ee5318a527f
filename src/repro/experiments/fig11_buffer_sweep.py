"""Fig. 11: ResNet-50 time and DRAM traffic vs global buffer size
(5–40 MiB), normalized to IL at 5 MiB.

Extends the paper's four configurations with the adaptive ``mbs-auto``
policy, whose traffic is never above ``min(mbs1, mbs2)`` at any buffer
size by construction (it optimizes the byte-accurate cost model the
evaluator is built from)."""
from __future__ import annotations

from repro.experiments.common import evaluate_sweep
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register
from repro.types import MIB

POLICIES = ("il", "mbs-fs", "mbs1", "mbs2", "mbs-auto")
BUFFER_MIB = (5, 10, 20, 30, 40)


def run(net_name: str = "resnet50") -> dict:
    cells: dict[tuple[str, int], dict] = {}
    for policy in POLICIES:
        reports = evaluate_sweep(
            net_name, policy, [b * MIB for b in BUFFER_MIB]
        )
        for buf, rep in zip(BUFFER_MIB, reports):
            cells[(policy, buf)] = {
                "time_s": rep.time_s,
                "dram_bytes": rep.dram_bytes,
            }
    ref = cells[("il", 5)]
    norm = {
        k: {
            "time": v["time_s"] / ref["time_s"],
            "traffic": v["dram_bytes"] / ref["dram_bytes"],
        }
        for k, v in cells.items()
    }
    return {"network": net_name, "cells": cells, "normalized": norm}


def render(res: dict) -> None:
    from repro.experiments.plots import line_plot

    for metric in ("time", "traffic"):
        rows = []
        for buf in BUFFER_MIB:
            rows.append(
                [f"{buf} MiB"]
                + [fmt(res["normalized"][(p, buf)][metric]) for p in POLICIES]
            )
        print(format_table(
            ["buffer"] + list(POLICIES), rows,
            title=(
                f"Fig. 11 — {res['network']} normalized {metric} vs global "
                "buffer size (1.0 = IL at 5 MiB)"
            ),
        ))
        print()
        print(line_plot(
            {
                p: [res["normalized"][(p, b)][metric] for b in BUFFER_MIB]
                for p in POLICIES
            },
            title=f"normalized {metric} across buffer sizes 5..40 MiB",
        ))
        print()


SPEC = register(ExperimentSpec(
    name="fig11",
    title="Fig. 11 — time and traffic vs global buffer size",
    produce=run,
    render=render,
    sweep={"net_name": ("resnet50", "resnet101", "inception_v3")},
    artifact=("network", "cells", "normalized"),
))
