"""Fig. 13: NVIDIA V100 vs WaveCore+MBS2 across memory types."""
from __future__ import annotations

from repro.experiments.common import evaluate, network
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register
from repro.wavecore.gpu import simulate_gpu_step

NETWORKS = ("resnet50", "resnet101", "resnet152", "inception_v3")
MEMORIES = ("HBM2x2", "HBM2", "GDDR5", "LPDDR4")


def run(networks: tuple[str, ...] = NETWORKS) -> dict:
    rows = {}
    for name in networks:
        v100_s = simulate_gpu_step(network(name))
        wave = {
            mem: evaluate(name, "mbs2", memory=mem).time_s for mem in MEMORIES
        }
        rows[name] = {
            "v100_s": v100_s,
            "wavecore_s": wave,
            "speedup": {mem: v100_s / t for mem, t in wave.items()},
        }
    return {"rows": rows}


def render(res: dict) -> None:
    table = []
    for name, row in res["rows"].items():
        table.append(
            [name, f"{row['v100_s'] * 1e3:7.1f}"]
            + [
                f"{row['wavecore_s'][m] * 1e3:7.1f} ({fmt(row['speedup'][m])}x)"
                for m in MEMORIES
            ]
        )
    print(format_table(
        ["network", "V100 ms"] + [f"WaveCore {m}" for m in MEMORIES],
        table,
        title=(
            "Fig. 13 — measured-model V100 vs WaveCore+MBS2 per-step time "
            "(mini-batch 64 per device)"
        ),
    ))


SPEC = register(ExperimentSpec(
    name="fig13",
    title="Fig. 13 — V100 vs WaveCore+MBS2 across memory types",
    produce=run,
    render=render,
    artifact=("rows",),
))
