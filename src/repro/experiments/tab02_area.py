"""Tab. 2: WaveCore area and peak-power estimate vs other accelerators."""
from __future__ import annotations

from repro.experiments.tables import format_table
from repro.runtime import ExperimentSpec, register
from repro.wavecore.area import estimate_area, estimate_power
from repro.wavecore.config import DEFAULT_CONFIG

#: Published reference points from the paper's Tab. 2.
REFERENCES = [
    ("V100", "12 FFN", 812.0, 1.53, "125 (FP16)", 250.0),
    ("TPU v1", "28", 331.0, 0.70, "92 (INT8)", 43.0),
    ("TPU v2", "N/A", float("nan"), 0.70, "45 (FP16)", float("nan")),
]


def run() -> dict:
    cfg = DEFAULT_CONFIG
    area = estimate_area(cfg)
    power = estimate_power(cfg)
    tops = cfg.cores * cfg.peak_macs_per_s * 2 / 1e12  # MAC = 2 ops
    return {
        "area": area,
        "power_w": power,
        "tops_fp16": tops,
        "clock_ghz": cfg.clock_hz / 1e9,
        "buffer_mib": cfg.cores * cfg.global_buffer_bytes / 2**20,
    }


def render(res: dict) -> None:
    a = res["area"]
    rows = [list(r) for r in REFERENCES]
    rows.append([
        "WaveCore (ours)", "32", f"{a.total_mm2:.1f}",
        f"{res['clock_ghz']:.2f}", f"{res['tops_fp16']:.0f} (FP16)",
        f"{res['power_w']:.0f}",
    ])
    print(format_table(
        ["accelerator", "node nm", "die mm2", "clock GHz", "TOPS", "peak W"],
        rows, title="Tab. 2 — accelerator comparison",
    ))
    print(
        f"\nWaveCore breakdown: PE array {a.pe_array_mm2:.2f} mm2, "
        f"global buffers {a.global_buffer_mm2:.2f} mm2, vector units "
        f"{a.vector_mm2:.2f} mm2, uncore {a.uncore_mm2:.2f} mm2 "
        f"(paper: 534.0 mm2 total, 56 W peak)"
    )


SPEC = register(ExperimentSpec(
    name="tab2",
    title="Tab. 2 — WaveCore area and peak power vs other accelerators",
    produce=run,
    render=render,
    artifact=("area", "power_w", "tops_fp16"),
))
