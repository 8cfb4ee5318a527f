"""Fig. 14: systolic-array utilization with unlimited DRAM bandwidth."""
from __future__ import annotations

from repro.experiments.common import evaluate
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register
from repro.zoo import PAPER_NETWORKS

POLICIES = ("baseline", "archopt", "mbs-fs", "mbs1", "mbs2")


def run(networks: tuple[str, ...] = PAPER_NETWORKS) -> dict:
    grid: dict[str, dict[str, float]] = {}
    for net in networks:
        grid[net] = {
            p: evaluate(net, p, unlimited_bandwidth=True).utilization
            for p in POLICIES
        }
    avg = {
        p: sum(grid[n][p] for n in networks) / len(networks) for p in POLICIES
    }
    return {"grid": grid, "average": avg}


def render(res: dict) -> None:
    rows = [
        [net] + [fmt(res["grid"][net][p], 3) for p in POLICIES]
        for net in res["grid"]
    ]
    rows.append(["AVG"] + [fmt(res["average"][p], 3) for p in POLICIES])
    print(format_table(
        ["network"] + list(POLICIES), rows,
        title="Fig. 14 — systolic array utilization (unlimited DRAM BW)",
    ))
    print("\npaper averages: baseline 0.538, archopt 0.815, "
          "mbs-fs 0.667, mbs1/mbs2 0.786")


SPEC = register(ExperimentSpec(
    name="fig14",
    title="Fig. 14 — systolic-array utilization, unlimited DRAM bandwidth",
    produce=run,
    render=render,
    artifact=("grid", "average"),
))
