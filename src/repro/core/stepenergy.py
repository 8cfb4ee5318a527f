"""Simulated-step-energy bridge between the scheduler and WaveCore.

The energy model (paper Sec. 4.2 / Sec. 6) prices one training step
from four chip-level totals: DRAM bytes, global-buffer bytes, MAC
count, and the step time (static power).  Every one of those totals
decomposes over blocks with the same locality that lets
:class:`repro.core.cost.TrafficCostModel` decompose DRAM bytes and
:mod:`repro.core.steptime` decompose seconds — a block's traffic,
global-buffer movement, MACs, and time depend only on the block itself,
network-structural facts, and its owning group's facts (sub-batch,
iteration count, edge on-chip flags, provisioning mode).

:func:`block_step_energy` prices one block in joules under any
schedule-like view by running the very traffic walkers, per-layer
timing, and per-access energy constants the simulator runs;
:func:`schedule_step_energy` recomputes the simulator's *totals* in the
simulator's own accumulation order and prices them through the same
:func:`repro.wavecore.energy.step_energy`, so

```python
schedule_step_energy(net, sched, cfg).total_j \
    == simulate_step(net, sched, cfg).energy.total_j
```

holds *bit-for-bit* (asserted zoo-wide in
``tests/test_core_cost_properties.py``).  That exactness gives the
energy-objective ``mbs-auto`` the same dominance guarantee the traffic
and latency objectives enjoy: the grouping DP optimizes the number the
evaluator reports.

Energy disagrees with both bytes and seconds as an objective.  DRAM
accesses dominate a memory-bound step's energy, but the static
component is proportional to *time* and the global-buffer component
scales with sub-batch iteration counts even when the DRAM traffic they
cause hides under compute — so the joules-optimal schedule is in
general neither the bytes-optimal nor the seconds-optimal one (OCCAM
makes the general case that reuse schedules chosen under one cost
metric are suboptimal under another).
"""
from __future__ import annotations

from repro.core.schedule import Schedule
from repro.core.steptime import BlockPricer, _block_seconds, _DramRowReport
from repro.core.traffic import (
    Phase,
    TrafficOptions,
    block_traffic,
    compute_traffic,
    walk_block_traffic,
)
from repro.graph.network import Network
from repro.wavecore.config import WaveCoreConfig, config_for_policy
from repro.wavecore.energy import DEFAULT_ENERGY, EnergyParams, step_energy
from repro.wavecore.report import EnergyBreakdown
from repro.wavecore.timing import (
    attribute_block_dram,
    block_layer_timings,
    gbuf_bytes_for_layer,
    per_layer_dram,
)


def block_step_energy(
    net: Network,
    sched_like,
    idx: int,
    sub_batch: int,
    cfg: WaveCoreConfig,
    options: TrafficOptions | None = None,
    params: EnergyParams = DEFAULT_ENERGY,
    pricer: BlockPricer | None = None,
) -> float:
    """Chip-level joules attributable to block ``idx`` alone.

    ``sched_like`` may be any object exposing the Schedule query surface
    the traffic walkers consume (the cost model passes a single-group
    view); ``sub_batch`` is the block's *effective* sub-batch (0 when it
    streams layerwise).  The block's share of each energy component is
    computed from its own DRAM bytes, global-buffer bytes, MACs, and
    time, scaled to chip level exactly the way the simulator scales its
    totals — per-block prices therefore sum to the simulated step
    energy up to float association (the int-valued byte and MAC totals
    are exact; only the final per-component multiplies reassociate).

    ``pricer`` switches to the vectorized path of
    :func:`repro.core.steptime.block_step_time`: cached compute profile
    and global-buffer bytes, row-binned traffic walk — same values,
    same addition order.
    """
    if pricer is not None:
        _prof, compute_s, macs = pricer.profile(idx, sub_batch)
        rep = _DramRowReport(pricer.rows(idx))
        walk_block_traffic(rep, net, sched_like, idx, options)
        time_s = _block_seconds(compute_s, rep.row_bytes, cfg.core_bandwidth)
        gbuf = pricer.gbuf_bytes(idx, sub_batch) + rep.total_bytes
        return step_energy(
            cfg,
            time_s,
            chip_dram_bytes=rep.total_bytes * cfg.cores,
            chip_gbuf_bytes=gbuf * cfg.cores,
            chip_macs=macs * cfg.cores,
            params=params,
        ).total_j

    traffic = block_traffic(net, sched_like, idx, options)
    dram_map = attribute_block_dram(net.blocks[idx], traffic.records)
    time_s = 0.0
    macs = 0
    for lt in block_layer_timings(
        net, idx, sched_like.mini_batch, sub_batch, cfg,
        lambda name, phase: dram_map.get((name, phase), 0),
    ):
        time_s += lt.time_s
        macs += lt.macs
    gbuf = 0
    for phase in (Phase.FWD, Phase.BWD):
        for layer in net.blocks[idx].all_layers():
            gbuf += gbuf_bytes_for_layer(
                layer, phase, sched_like.mini_batch, sub_batch, cfg
            )
    # DRAM traffic also streams through the global buffer (simulator
    # adds the whole step's total once; per block that is its own share)
    gbuf += traffic.total_bytes
    return step_energy(
        cfg,
        time_s,
        chip_dram_bytes=traffic.total_bytes * cfg.cores,
        chip_gbuf_bytes=gbuf * cfg.cores,
        chip_macs=macs * cfg.cores,
        params=params,
    ).total_j


def schedule_step_energy(
    net: Network,
    sched: Schedule,
    cfg: WaveCoreConfig | None = None,
    options: TrafficOptions | None = None,
    params: EnergyParams = DEFAULT_ENERGY,
) -> EnergyBreakdown:
    """Step energy of a full schedule, bit-exact against the simulator.

    Recomputes the four chip-level totals in the simulator's own
    accumulation order — DRAM bytes from :func:`compute_traffic`,
    per-layer MACs and block-accumulated time from
    :func:`block_layer_timings`, global-buffer bytes from
    :func:`gbuf_bytes_for_layer` — and prices them through the same
    :func:`repro.wavecore.energy.step_energy`, so the returned
    breakdown equals ``simulate_step(net, sched, cfg).energy`` exactly.
    """
    if sched.num_blocks != len(net.blocks):
        raise ValueError(
            f"schedule covers {sched.num_blocks} blocks, network has "
            f"{len(net.blocks)}"
        )
    if cfg is None:
        cfg = config_for_policy(sched.policy)
    traffic = compute_traffic(net, sched, options or TrafficOptions())
    dram_map = per_layer_dram(net, traffic)
    total_macs = 0
    total_gbuf = 0
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
        ):
            total_macs += lt.macs
            block_s += lt.time_s
        time_s += block_s
        for phase in (Phase.FWD, Phase.BWD):
            for layer in block.all_layers():
                total_gbuf += gbuf_bytes_for_layer(
                    layer, phase, sched.mini_batch, sub_batch, cfg
                )
    total_gbuf += traffic.total_bytes
    return step_energy(
        cfg,
        time_s,
        chip_dram_bytes=traffic.total_bytes * cfg.cores,
        chip_gbuf_bytes=total_gbuf * cfg.cores,
        chip_macs=total_macs * cfg.cores,
        params=params,
    )
