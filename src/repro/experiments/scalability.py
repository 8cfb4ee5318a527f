"""Extension experiment: multi-accelerator weak scaling (Sec. 4.2).

Not a numbered figure in the paper — the "Scalability" paragraph claims
MBS composes with data parallelism because chips only communicate for
the parameter reduction.  This driver quantifies that with a ring
all-reduce model.
"""
from __future__ import annotations

from repro.experiments.common import network
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register
from repro.wavecore.scaling import weak_scaling

CHIPS = (1, 2, 4, 8, 16, 32)


def run(networks: tuple[str, ...] = ("resnet50", "inception_v3"),
        policies: tuple[str, ...] = ("baseline", "mbs2")) -> dict:
    rows = {}
    for name in networks:
        net = network(name)
        rows[name] = {
            policy: weak_scaling(net, policy, chips=CHIPS)
            for policy in policies
        }
    return {"rows": rows, "chips": CHIPS}


def render(res: dict) -> None:
    for name, by_policy in res["rows"].items():
        table = []
        for policy, points in by_policy.items():
            for p in points:
                table.append([
                    policy, p.chips, p.global_batch,
                    f"{p.compute_s * 1e3:7.1f}", f"{p.allreduce_s * 1e3:6.2f}",
                    f"{p.samples_per_s:8.0f}",
                    fmt(p.scaling_efficiency * 100, 1) + "%",
                ])
        print(format_table(
            ["config", "chips", "batch", "compute ms", "reduce ms",
             "samples/s", "efficiency"],
            table, title=f"Weak scaling — {name} (ring all-reduce)",
        ))
        print()


SPEC = register(ExperimentSpec(
    name="scaling",
    title="Weak scaling — MBS under multi-chip data parallelism",
    produce=run,
    render=render,
    sweep={"policies": (("baseline", "mbs2"), ("mbs1", "mbs2"))},
    artifact=("rows", "chips"),
))
