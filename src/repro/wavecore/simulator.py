"""WaveCore training-step simulator: traffic + timing + energy, end to end."""
from __future__ import annotations

from repro.core.schedule import Schedule
from repro.core.traffic import TrafficReport, compute_traffic
from repro.graph.network import Network
from repro.wavecore.config import WaveCoreConfig, config_for_policy
from repro.wavecore.energy import DEFAULT_ENERGY, EnergyParams, step_energy
from repro.wavecore.report import LayerTiming, StepReport
from repro.wavecore.timing import (
    block_gbuf_bytes,
    block_layer_timings,
    per_layer_dram,
)


def simulate_step(
    net: Network,
    sched: Schedule,
    cfg: WaveCoreConfig | None = None,
    traffic: TrafficReport | None = None,
    energy_params: EnergyParams = DEFAULT_ENERGY,
    unlimited_bandwidth: bool = False,
) -> StepReport:
    """Simulate one training step of ``net`` under ``sched`` on ``cfg``.

    One core is simulated (cores run data-parallel on disjoint samples);
    energy and chip traffic scale by the core count.
    ``unlimited_bandwidth`` zeroes memory time to isolate compute
    utilization (the Fig. 14 methodology).

    This walk is the independent reference for the fast pricing path
    (:mod:`repro.core.steptime`), which the cost models and
    :mod:`repro.api` run; the exactness tests compare the two, so it
    deliberately does not sum that path's per-block records.
    """
    if cfg is None:
        cfg = config_for_policy(sched.policy)
    if traffic is None:
        traffic = compute_traffic(net, sched)

    dram_map = per_layer_dram(net, traffic)

    layers: list[LayerTiming] = []
    total_cycles = 0
    total_macs = 0
    total_gbuf = 0
    # Accumulated per block, then summed: the identical association the
    # latency cost model uses, so a schedule's step time decomposes into
    # per-group prices bit-for-bit (see repro.core.steptime).
    time_s = 0.0

    for idx, block in enumerate(net.blocks):
        group = sched.group_of_block(idx)
        sub_batch = group.sub_batch if sched.block_fused(idx) else 0
        block_s = 0.0
        for lt in block_layer_timings(
            net, idx, sched.mini_batch, sub_batch, cfg,
            lambda name, phase, _b=block.name: dram_map.get(
                (_b, name, phase), 0
            ),
            unlimited_bandwidth=unlimited_bandwidth,
        ):
            layers.append(lt)
            total_cycles += lt.compute_cycles
            total_macs += lt.macs
            block_s += lt.time_s
        time_s += block_s
        total_gbuf += block_gbuf_bytes(
            net, idx, sched.mini_batch, sub_batch, cfg
        )

    utilization = (
        total_macs / (total_cycles * cfg.pe_count) if total_cycles else 0.0
    )
    # DRAM traffic also streams through the global buffer on its way to
    # the local buffers.
    total_gbuf += traffic.total_bytes

    report = StepReport(
        network=net.name,
        policy=sched.policy,
        memory=cfg.memory.name,
        cores=cfg.cores,
        time_s=time_s,
        dram_bytes=traffic.total_bytes,
        gbuf_bytes=total_gbuf,
        macs=total_macs,
        systolic_cycles=total_cycles,
        utilization=utilization,
        layers=layers,
    )
    report.energy = step_energy(
        cfg,
        time_s,
        chip_dram_bytes=report.chip_dram_bytes,
        chip_gbuf_bytes=total_gbuf * cfg.cores,
        chip_macs=total_macs * cfg.cores,
        params=energy_params,
    )
    return report


def step_time(
    net: Network, sched: Schedule, cfg: WaveCoreConfig | None = None
) -> float:
    """Simulated step latency of ``sched`` alone (the Fig. 10/13 objective).

    Equals ``simulate_step(...).time_s`` exactly; the latency cost model
    (:class:`repro.core.cost.LatencyCostModel`) reproduces this number
    from per-group prices bit-for-bit.
    """
    return simulate_step(net, sched, cfg).time_s
