"""Extension ablation: storage word size (fp16 vs fp32).

The paper evaluates with 16-bit storage (Sec. 5, mixed precision).  This
ablation re-runs the MBS pipeline at 4-byte words: footprints double, so
sub-batches shrink and iterations grow — quantifying how much of MBS's
win depends on the fp16 assumption.
"""
from __future__ import annotations

from repro.core.policies import DEFAULT_BUFFER_BYTES, make_schedule
from repro.core.traffic import compute_traffic
from repro.experiments.common import network
from repro.experiments.tables import fmt, format_table, gib
from repro.runtime import ExperimentSpec, register
from repro.types import MIB


def run(networks: tuple[str, ...] = ("resnet50", "inception_v3"),
        buffer_bytes: int = DEFAULT_BUFFER_BYTES) -> dict:
    rows = {}
    for name in networks:
        net = network(name)
        per_word = {}
        for word_bytes in (2, 4):
            base = compute_traffic(
                net,
                make_schedule(net, "baseline", buffer_bytes,
                              word_bytes=word_bytes),
                word_bytes,
            ).total_bytes
            sched = make_schedule(net, "mbs2", buffer_bytes,
                                  word_bytes=word_bytes)
            mbs = compute_traffic(net, sched, word_bytes).total_bytes
            per_word[word_bytes] = {
                "baseline_bytes": base,
                "mbs2_bytes": mbs,
                "cut": base / mbs,
                "min_sub_batch": min(g.sub_batch for g in sched.groups),
                "groups": len(sched.groups),
            }
        rows[name] = per_word
    return {"rows": rows}


def render(res: dict) -> None:
    table = []
    for name, per_word in res["rows"].items():
        for wb, cell in per_word.items():
            table.append([
                name, f"fp{wb * 8}", gib(cell["baseline_bytes"]),
                gib(cell["mbs2_bytes"]), fmt(cell["cut"]) + "x",
                cell["min_sub_batch"], cell["groups"],
            ])
    print(format_table(
        ["network", "storage", "baseline GiB", "mbs2 GiB", "cut",
         "min sub-batch", "groups"],
        table,
        title="Precision ablation — fp16 vs fp32 storage (10 MiB buffer)",
    ))


SPEC = register(ExperimentSpec(
    name="precision",
    title="Precision ablation — fp16 vs fp32 storage word size",
    produce=run,
    render=render,
    sweep={"buffer_bytes": (5 * MIB, 10 * MIB, 20 * MIB)},
    artifact=("rows",),
))
