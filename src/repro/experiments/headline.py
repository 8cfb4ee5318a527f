"""Headline numbers: the abstract's 75 % DRAM-traffic cut, 53 % speedup,
26 % energy saving (deep-CNN averages), and the Sec. 3 4.0× traffic cut —
plus what the adaptive ``mbs-auto`` policy buys on top of MBS2 under
each of its objectives (DRAM bytes, simulated step time, and simulated
step energy)."""
from __future__ import annotations

from repro.experiments.common import evaluate
from repro.experiments.tables import fmt, format_table
from repro.runtime import ExperimentSpec, register

DEEP_CNNS = ("resnet50", "resnet101", "resnet152",
             "inception_v3", "inception_v4")


def run(networks: tuple[str, ...] = DEEP_CNNS) -> dict:
    per_net = {}
    for name in networks:
        base = evaluate(name, "baseline")
        arch = evaluate(name, "archopt")
        mbs2 = evaluate(name, "mbs2")
        auto = evaluate(name, "mbs-auto")
        auto_lat = evaluate(name, "mbs-auto", objective="latency")
        auto_en = evaluate(name, "mbs-auto", objective="energy")
        per_net[name] = {
            "traffic_saving": 1.0 - mbs2.dram_bytes / arch.dram_bytes,
            "traffic_cut_x": arch.dram_bytes / mbs2.dram_bytes,
            "speedup_vs_baseline": base.time_s / mbs2.time_s,
            "perf_improvement": base.time_s / mbs2.time_s - 1.0,
            "energy_saving": 1.0 - mbs2.energy.total_j / base.energy.total_j,
            "auto_traffic_cut_x": arch.dram_bytes / auto.dram_bytes,
            "auto_vs_mbs2_x": mbs2.dram_bytes / auto.dram_bytes,
            "auto_lat_speedup_x": base.time_s / auto_lat.time_s,
            "auto_lat_time_gain_x": auto.time_s / auto_lat.time_s,
            "auto_en_saving": (
                1.0 - auto_en.energy.total_j / base.energy.total_j
            ),
            "auto_en_vs_mbs2_x": (
                mbs2.energy.total_j / auto_en.energy.total_j
            ),
        }
    n = len(per_net)
    avg = {
        k: sum(v[k] for v in per_net.values()) / n
        for k in next(iter(per_net.values()))
    }
    return {"per_network": per_net, "average": avg}


def render(res: dict) -> None:
    def _row(name, v):
        return [
            name,
            fmt(v["traffic_saving"] * 100, 1) + "%",
            fmt(v["traffic_cut_x"]) + "x",
            fmt(v["perf_improvement"] * 100, 1) + "%",
            fmt(v["energy_saving"] * 100, 1) + "%",
            fmt(v["auto_traffic_cut_x"]) + "x",
            fmt(v["auto_vs_mbs2_x"]) + "x",
            fmt(v["auto_lat_speedup_x"]) + "x",
            fmt(v["auto_lat_time_gain_x"]) + "x",
            fmt(v["auto_en_saving"] * 100, 1) + "%",
            fmt(v["auto_en_vs_mbs2_x"]) + "x",
        ]

    rows = [_row(name, v) for name, v in res["per_network"].items()]
    rows.append(_row("AVERAGE", res["average"]))
    print(format_table(
        ["network", "DRAM saving", "traffic cut", "perf gain",
         "energy saving", "auto cut", "auto/mbs2", "lat speedup",
         "lat gain", "en(auto) saving", "en auto/mbs2"],
        rows,
        title=(
            "Headline — MBS2 vs conventional training "
            "(paper: 75% DRAM saving / 4.0x cut, 53% perf, 26% energy)"
        ),
    ))


SPEC = register(ExperimentSpec(
    name="headline",
    title="Headline — abstract's traffic / speedup / energy averages",
    produce=run,
    render=render,
    artifact=("per_network", "average"),
))
