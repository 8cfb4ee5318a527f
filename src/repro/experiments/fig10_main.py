"""Fig. 10: execution time (a), energy (b), and DRAM traffic (c) per
training step across six networks and six configurations (Tab. 3)."""
from __future__ import annotations

from repro.experiments.common import evaluate
from repro.experiments.tables import fmt, format_table, gib
from repro.runtime import ExperimentSpec, register
from repro.zoo import PAPER_NETWORKS

POLICIES = ("baseline", "archopt", "il", "mbs-fs", "mbs1", "mbs2")


def run(networks: tuple[str, ...] = PAPER_NETWORKS,
        memory: str = "HBM2") -> dict:
    grid: dict[str, dict[str, dict]] = {}
    for net in networks:
        grid[net] = {}
        for policy in POLICIES:
            rep = evaluate(net, policy, memory=memory)
            grid[net][policy] = {
                "time_s": rep.time_s,
                "energy_j": rep.energy.total_j,
                "dram_bytes": rep.dram_bytes,
                "utilization": rep.utilization,
            }
    return {"grid": grid, "policies": POLICIES, "memory": memory}


def render(res: dict) -> None:
    grid = res["grid"]

    rows = []
    for net, cells in grid.items():
        base = cells["baseline"]["time_s"]
        arch = cells["archopt"]["time_s"]
        rows.append(
            [net]
            + [f"{cells[p]['time_s'] * 1e3:7.1f}" for p in POLICIES]
            + [fmt(base / cells["mbs2"]["time_s"]),
               fmt(arch / cells["mbs2"]["time_s"])]
        )
    print(format_table(
        ["network"] + [f"{p} ms" for p in POLICIES]
        + ["mbs2 vs base", "mbs2 vs archopt"],
        rows, title="Fig. 10a — execution time per training step"))
    print()

    rows = []
    for net, cells in grid.items():
        base = cells["baseline"]["energy_j"]
        rows.append(
            [net]
            + [f"{cells[p]['energy_j']:.2f}" for p in POLICIES]
            + [fmt(cells["mbs2"]["energy_j"] / base)]
        )
    print(format_table(
        ["network"] + [f"{p} J" for p in POLICIES] + ["mbs2/base"],
        rows, title="Fig. 10b — energy per training step"))
    print()

    rows = []
    for net, cells in grid.items():
        arch = cells["archopt"]["dram_bytes"]
        rows.append(
            [net]
            + [gib(cells[p]["dram_bytes"]) for p in POLICIES]
            + [fmt(cells["mbs2"]["dram_bytes"] / arch)]
        )
    print(format_table(
        ["network"] + [f"{p} GiB" for p in POLICIES] + ["mbs2/archopt"],
        rows, title="Fig. 10c — DRAM traffic per training step (per core)"))


SPEC = register(ExperimentSpec(
    name="fig10",
    title="Fig. 10 — time / energy / DRAM traffic across six networks",
    produce=run,
    render=render,
    sweep={"memory": ("HBM2", "HBM2x2", "GDDR5", "LPDDR4")},
    artifact=("grid", "policies", "memory"),
))
