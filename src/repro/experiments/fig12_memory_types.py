"""Fig. 12: ResNet-50 training-time sensitivity to the memory type, with
the execution-time breakdown by layer type (Conv / FC / Norm / Pool / Sum)."""
from __future__ import annotations

from repro.experiments.common import evaluate
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register

POLICIES = ("baseline", "archopt", "il", "mbs2")
MEMORIES = ("HBM2x2", "GDDR5", "LPDDR4")
KINDS = ("conv", "fc", "norm", "pool", "add")


def run(net_name: str = "resnet50") -> dict:
    cells: dict[tuple[str, str], dict] = {}
    for policy in POLICIES:
        for mem in MEMORIES:
            rep = evaluate(net_name, policy, memory=mem)
            cells[(policy, mem)] = {
                "time_s": rep.time_s,
                "by_kind": rep.time_by_kind(),
            }
    base = cells[("baseline", "HBM2x2")]["time_s"]
    speedup = {k: base / v["time_s"] for k, v in cells.items()}
    return {"network": net_name, "cells": cells, "speedup": speedup}


def render(res: dict) -> None:
    rows = []
    for policy in POLICIES:
        for mem in MEMORIES:
            cell = res["cells"][(policy, mem)]
            by_kind = cell["by_kind"]
            rows.append(
                [policy, mem, f"{cell['time_s'] * 1e3:7.1f}",
                 fmt(res["speedup"][(policy, mem)])]
                + [f"{by_kind.get(k, 0.0) * 1e3:6.1f}" for k in KINDS]
            )
    print(format_table(
        ["config", "memory", "total ms", "speedup"]
        + [f"{k} ms" for k in KINDS],
        rows,
        title=(
            f"Fig. 12 — {res['network']} training time by memory type "
            "(speedup normalized to Baseline + HBM2x2)"
        ),
    ))


SPEC = register(ExperimentSpec(
    name="fig12",
    title="Fig. 12 — memory-type sensitivity with per-kind breakdown",
    produce=run,
    render=render,
    sweep={"net_name": ("resnet50", "inception_v3")},
    artifact=("network", "cells", "speedup"),
))
