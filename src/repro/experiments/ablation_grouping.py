"""Footnote-1 ablation: greedy vs exhaustive (optimal) layer grouping.

The paper reports that exhaustive search improves traffic and performance
by roughly 1 % over the greedy optimization.  Note the DP is optimal for
the grouping *cost model* (weight streaming + boundary traffic); measured
end-to-end traffic can deviate from it by a sliver in either direction.
"""
from __future__ import annotations

from repro.core.policies import DEFAULT_BUFFER_BYTES, make_schedule
from repro.core.traffic import compute_traffic
from repro.experiments.common import network
from repro.experiments.tables import fmt, format_table, gib
from repro.runtime import ExperimentSpec, register
from repro.types import MIB
from repro.zoo import PAPER_NETWORKS


def run(networks: tuple[str, ...] = PAPER_NETWORKS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES) -> dict:
    rows = {}
    for name in networks:
        net = network(name)
        out = {}
        for policy in ("mbs1", "mbs2"):
            greedy = compute_traffic(
                net, make_schedule(net, policy, buffer_bytes)
            ).total_bytes
            optimal = compute_traffic(
                net, make_schedule(net, f"{policy}-opt", buffer_bytes)
            ).total_bytes
            out[policy] = {
                "greedy": greedy,
                "optimal": optimal,
                "gap": greedy / optimal - 1.0,
            }
        rows[name] = out
    return {"rows": rows}


def render(res: dict) -> None:
    table = []
    for name, out in res["rows"].items():
        table.append([
            name,
            gib(out["mbs1"]["greedy"]), gib(out["mbs1"]["optimal"]),
            fmt(out["mbs1"]["gap"] * 100, 2) + "%",
            gib(out["mbs2"]["greedy"]), gib(out["mbs2"]["optimal"]),
            fmt(out["mbs2"]["gap"] * 100, 2) + "%",
        ])
    print(format_table(
        ["network", "mbs1 greedy GiB", "mbs1 opt GiB", "gap",
         "mbs2 greedy GiB", "mbs2 opt GiB", "gap"],
        table,
        title="Grouping ablation — greedy vs exhaustive DP (paper: ~1% gap)",
    ))


SPEC = register(ExperimentSpec(
    name="ablation",
    title="Footnote-1 ablation — greedy vs exhaustive layer grouping",
    produce=run,
    render=render,
    sweep={"buffer_bytes": (5 * MIB, 10 * MIB, 20 * MIB)},
    artifact=("rows",),
))
