"""Energy sweep: simulated step energy vs global buffer size per policy,
including the adaptive ``mbs-auto`` under the energy objective.

The Sec. 6 companion to ``latency_sweep``: the paper reports 24–30 %
training-energy savings from the same reuse schedules that cut traffic,
because DRAM accesses dominate a memory-bound step's joules.  But the
joules-optimal schedule is not the bytes- or seconds-optimal one —
static power tracks *time* and the global buffer charges sub-batch
re-streaming even when its DRAM cost hides under compute — so
``mbs-auto --objective energy`` optimizes the exact
:class:`~repro.core.cost.EnergyCostModel` instead, and the dominance
table shows it is never costlier than mbs1/mbs2/mbs-auto(traffic or
latency) at any buffer size, by construction.
"""
from __future__ import annotations

from repro.experiments.common import evaluate_sweep
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register
from repro.types import MIB

#: label -> (Tab. 3 policy, grouping objective)
POLICY_SPECS = {
    "baseline": ("baseline", "traffic"),
    "mbs1": ("mbs1", "traffic"),
    "mbs2": ("mbs2", "traffic"),
    "mbs-auto": ("mbs-auto", "traffic"),
    "mbs-auto:lat": ("mbs-auto", "latency"),
    "mbs-auto:en": ("mbs-auto", "energy"),
}
BUFFERS_MIB = (1, 2, 5, 10, 20, 40)

#: Labels the energy objective must never exceed (the property-tested
#: dominance bound: its DP searches a superset of their partitions).
DOMINATED = ("mbs1", "mbs2", "mbs-auto", "mbs-auto:lat")


def run(
    net_name: str = "resnet50",
    buffers_mib: tuple[int, ...] = BUFFERS_MIB,
) -> dict:
    cells: dict[tuple[str, int], dict] = {}
    for label, (policy, objective) in POLICY_SPECS.items():
        reports = evaluate_sweep(
            net_name, policy, [b * MIB for b in buffers_mib],
            objective=objective,
        )
        for buf, rep in zip(buffers_mib, reports):
            cells[(label, buf)] = {
                "energy_j": rep.energy.total_j,
                "dram_share": rep.energy.share("dram"),
                "time_s": rep.time_s,
                "dram_bytes": rep.dram_bytes,
            }
    savings = {
        (label, buf): 1.0 - (
            cells[(label, buf)]["energy_j"]
            / cells[("baseline", buf)]["energy_j"]
        )
        for label, _ in POLICY_SPECS.items() if label != "baseline"
        for buf in buffers_mib
    }
    dominance = {
        buf: {
            "energy_gain": (
                min(cells[(l, buf)]["energy_j"] for l in DOMINATED)
                / cells[("mbs-auto:en", buf)]["energy_j"]
            ),
            "vs_latency_time": (
                cells[("mbs-auto:en", buf)]["time_s"]
                / cells[("mbs-auto:lat", buf)]["time_s"]
            ),
        }
        for buf in buffers_mib
    }
    return {
        "network": net_name,
        "buffers_mib": tuple(buffers_mib),
        "cells": cells,
        "savings": savings,
        "dominance": dominance,
    }


def render(res: dict) -> None:
    from repro.experiments.plots import line_plot

    labels = list(POLICY_SPECS)
    buffers = res["buffers_mib"]
    rows = []
    for buf in buffers:
        rows.append(
            [f"{buf} MiB"]
            + [fmt(res["cells"][(p, buf)]["energy_j"] * 1e3, 3)
               for p in labels]
        )
    print(format_table(
        ["buffer"] + labels, rows,
        title=(
            f"Energy sweep — {res['network']} step energy (mJ) vs "
            "global buffer size"
        ),
    ))
    print()
    rows = []
    for buf in buffers:
        rows.append(
            [f"{buf} MiB"]
            + [fmt(res["savings"][(p, buf)] * 100, 1) + "%"
               for p in labels if p != "baseline"]
        )
    print(format_table(
        ["buffer"] + [p for p in labels if p != "baseline"], rows,
        title=(
            "Energy saving vs Baseline "
            "(paper Sec. 6: MBS saves 24-30% on deep CNNs)"
        ),
    ))
    print()
    print(line_plot(
        {
            p: [res["cells"][(p, b)]["energy_j"] * 1e3 for b in buffers]
            for p in labels
        },
        title=(
            f"step energy (mJ) across buffer sizes "
            f"{buffers[0]}..{buffers[-1]} MiB"
        ),
    ))
    print()
    rows = [
        [f"{buf} MiB",
         fmt(res["dominance"][buf]["energy_gain"]) + "x",
         fmt(res["dominance"][buf]["vs_latency_time"]) + "x"]
        for buf in buffers
    ]
    print(format_table(
        ["buffer", "energy gain", "time vs mbs-auto:lat"], rows,
        title=(
            "Objective dominance — mbs-auto:en vs best other policy "
            "(gain >= 1 by construction; time is the price it may pay)"
        ),
    ))


SPEC = register(ExperimentSpec(
    name="energy_sweep",
    title="Energy sweep — step energy vs buffer size, energy objective",
    produce=run,
    render=render,
    quick={"buffers_mib": (1, 5, 10)},
    sweep={"net_name": ("resnet50", "resnet101", "inception_v3")},
    artifact=("network", "buffers_mib", "cells", "savings", "dominance"),
))
