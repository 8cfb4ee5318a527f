"""Latency sweep: simulated step time vs global buffer size per policy,
including the adaptive ``mbs-auto`` under both objectives.

The Fig. 11 companion for the paper's *actual* end goal (Fig. 10/13):
wall-clock step time.  Because per-layer time is ``max(compute, DRAM)``
under weight double buffering, extra traffic on compute-bound layers is
free in time — so the bytes-optimal ``mbs-auto`` and the time-optimal
``mbs-auto --objective latency`` genuinely diverge on tight buffers.
The divergence table quantifies the trade: step-time gain of the
latency objective against the DRAM bytes it spends to get it.
"""
from __future__ import annotations

from repro.experiments.common import evaluate_sweep
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register
from repro.types import MIB

#: label -> (Tab. 3 policy, grouping objective).  ``mbs-auto:lat+tra``
#: is the lexicographic composite: bit-identical step time to
#: ``mbs-auto:lat``, never more DRAM bytes — the certificate that the
#: latency optimum's bytes are all load-bearing (none hide for free).
POLICY_SPECS = {
    "il": ("il", "traffic"),
    "mbs1": ("mbs1", "traffic"),
    "mbs2": ("mbs2", "traffic"),
    "mbs-auto": ("mbs-auto", "traffic"),
    "mbs-auto:lat": ("mbs-auto", "latency"),
    "mbs-auto:lat+tra": ("mbs-auto", "latency+traffic"),
}
BUFFERS_MIB = (1, 2, 5, 10, 20, 40)


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
                "time_s": rep.time_s,
                "dram_bytes": rep.dram_bytes,
            }
    ref = cells[("il", buffers_mib[0])]
    norm = {
        k: {
            "time": v["time_s"] / ref["time_s"],
            "traffic": v["dram_bytes"] / ref["dram_bytes"],
        }
        for k, v in cells.items()
    }
    divergence = {
        buf: {
            "time_gain": (
                cells[("mbs-auto", buf)]["time_s"]
                / cells[("mbs-auto:lat", buf)]["time_s"]
            ),
            "traffic_cost": (
                cells[("mbs-auto:lat", buf)]["dram_bytes"]
                / cells[("mbs-auto", buf)]["dram_bytes"]
            ),
            # bytes the lexicographic tie-break strips at equal time
            # (1.0 when every byte of the latency optimum is load-bearing)
            "tiebreak_bytes": (
                cells[("mbs-auto:lat+tra", buf)]["dram_bytes"]
                / cells[("mbs-auto:lat", buf)]["dram_bytes"]
            ),
        }
        for buf in buffers_mib
    }
    return {
        "network": net_name,
        "buffers_mib": tuple(buffers_mib),
        "cells": cells,
        "normalized": norm,
        "divergence": divergence,
    }


def render(res: dict) -> None:
    from repro.experiments.plots import line_plot

    labels = list(POLICY_SPECS)
    buffers = res["buffers_mib"]
    for metric in ("time", "traffic"):
        rows = []
        for buf in buffers:
            rows.append(
                [f"{buf} MiB"]
                + [fmt(res["normalized"][(p, buf)][metric]) for p in labels]
            )
        print(format_table(
            ["buffer"] + labels, rows,
            title=(
                f"Latency sweep — {res['network']} normalized {metric} vs "
                f"global buffer size (1.0 = IL at {buffers[0]} MiB)"
            ),
        ))
        print()
        print(line_plot(
            {
                p: [res["normalized"][(p, b)][metric] for b in buffers]
                for p in labels
            },
            title=(
                f"normalized {metric} across buffer sizes "
                f"{buffers[0]}..{buffers[-1]} MiB"
            ),
        ))
        print()
    rows = [
        [f"{buf} MiB",
         fmt(res["divergence"][buf]["time_gain"]) + "x",
         fmt(res["divergence"][buf]["traffic_cost"]) + "x",
         fmt(res["divergence"][buf]["tiebreak_bytes"]) + "x"]
        for buf in buffers
    ]
    print(format_table(
        ["buffer", "step-time gain", "traffic spent", "lat+tra bytes"],
        rows,
        title=(
            "Objective divergence — mbs-auto:lat vs mbs-auto "
            "(gain >= 1 by construction; bytes are the price; the "
            "lat+tra column <= 1 certifies none of them are free)"
        ),
    ))


SPEC = register(ExperimentSpec(
    name="latency_sweep",
    title="Latency sweep — step time vs buffer size, both objectives",
    produce=run,
    render=render,
    quick={"buffers_mib": (1, 5, 10)},
    sweep={"net_name": ("resnet50", "resnet101", "inception_v3")},
    artifact=("network", "buffers_mib", "cells", "normalized", "divergence"),
))
