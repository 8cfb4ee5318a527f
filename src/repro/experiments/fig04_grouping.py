"""Fig. 4 & Fig. 5: per-block footprints, minimum iterations, and the MBS
layer grouping / sub-batch schedule for ResNet-50."""
from __future__ import annotations

from repro.core.policies import DEFAULT_BUFFER_BYTES, make_schedule
from repro.core.footprint import block_space_per_sample
from repro.core.subbatch import (
    feasible_sub_batch,
    iteration_count,
    sub_batch_sequence,
)
from repro.experiments.common import network
from repro.experiments.tables import format_table, mib
from repro.runtime import ExperimentSpec, register


def run(
    net_name: str = "resnet50",
    mini_batch: int = 32,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    policy: str = "mbs2",
) -> dict:
    net = network(net_name)
    sched = make_schedule(net, policy, buffer_bytes, mini_batch)
    blocks = []
    for idx, block in enumerate(net.blocks):
        # Each row reflects the provisioning mode that actually governs
        # the block: mbs-auto mixes MBS1/MBS2-style groups per schedule.
        branch_reuse = sched.branch_reuse_of(idx)
        space = block_space_per_sample(block, branch_reuse)
        s = feasible_sub_batch(block, buffer_bytes, mini_batch, branch_reuse)
        blocks.append(
            {
                "name": block.name,
                "space_per_sample": space,
                "sub_batch": s,
                "min_iterations": iteration_count(mini_batch, s),
            }
        )
    groups = [
        {
            "blocks": g.blocks,
            "sub_batch": g.sub_batch,
            "iterations": g.iterations,
            "sequence": sub_batch_sequence(mini_batch, g.sub_batch),
        }
        for g in sched.groups
    ]
    return {
        "network": net_name,
        "mini_batch": mini_batch,
        "blocks": blocks,
        "groups": groups,
        "schedule": sched,
    }


def render(res: dict) -> None:
    group_of = {}
    for gi, g in enumerate(res["groups"], 1):
        for b in g["blocks"]:
            group_of[b] = gi
    rows = [
        [
            i,
            b["name"],
            mib(b["space_per_sample"]),
            b["sub_batch"],
            b["min_iterations"],
            group_of[i],
        ]
        for i, b in enumerate(res["blocks"])
    ]
    print(
        format_table(
            ["#", "block", "MiB/sample", "sub-batch", "min iters", "group"],
            rows,
            title=(
                f"Fig. 4 — {res['network']} per-block footprint, minimum "
                f"iterations and MBS grouping (N={res['mini_batch']})"
            ),
        )
    )
    print("\nFig. 5 — sub-batch schedule per group:")
    for gi, g in enumerate(res["groups"], 1):
        seq = ",".join(str(s) for s in g["sequence"])
        print(
            f"  group{gi}: {g['iterations']} iterations, sizes = {seq}"
        )


SPEC = register(ExperimentSpec(
    name="fig4",
    title="Fig. 4/5 — per-block footprint, min iterations, MBS grouping",
    produce=run,
    render=render,
    sweep={
        "policy": ("mbs1", "mbs2", "mbs-auto"),
        "mini_batch": (16, 32, 64),
    },
    artifact=("network", "mini_batch", "blocks", "groups"),
))
