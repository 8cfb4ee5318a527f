"""Derive conventional-schedule DRAM traffic from an execution trace.

For a *chain* network (no multi-branch modules) under the Baseline
schedule, every layer streams its input from DRAM and its output back,
so the schedule-independent tensor volumes recorded by the tracer
determine the traffic exactly:

========  =====================================================
FEAT_RD   Σ inputs (normalization layers read theirs twice)
FEAT_WR   Σ outputs
GRAD_RD   Σ output grads, plus one re-read per conv/FC backward
GRAD_WR   Σ input grads (none for the first layer)
CHK_RD    conv/FC inputs + 2× norm inputs + activation outputs
WEIGHT    params once per phase; WGRAD written once
MASK      max-pool indices written and read
========  =====================================================
"""
from __future__ import annotations

from repro.core.traffic import Category, compute_traffic
from repro.core.policies import make_schedule
from repro.graph.layers import Pool, PoolKind
from repro.graph.network import Network
from repro.trace.hooks import TraceEvent
from repro.types import POOL_INDEX_BYTES, WORD_BYTES


def baseline_traffic_from_trace(
    net: Network,
    events: list[TraceEvent],
    word_bytes: int = WORD_BYTES,
) -> dict[Category, int]:
    """Expected Baseline-schedule traffic per category, from real shapes."""
    maxpool_names = {
        l.name
        for l in net.all_layers()
        if isinstance(l, Pool) and l.pool is PoolKind.MAX
    }
    out: dict[Category, int] = {c: 0 for c in Category}
    wb = word_bytes
    fwd = [e for e in events if e.phase == "forward"]
    bwd = [e for e in events if e.phase == "backward"]
    first_layer = fwd[0].layer if fwd else None

    for e in fwd:
        factor = 2 if e.kind == "norm" else 1
        out[Category.FEAT_RD] += factor * e.in_elems * wb
        out[Category.FEAT_WR] += e.out_elems * wb
        if e.kind in ("conv", "fc"):
            out[Category.WEIGHT_RD] += e.param_elems * wb
        elif e.kind == "norm":
            out[Category.PARAM] += e.param_elems * wb
        if e.layer in maxpool_names:
            out[Category.MASK_WR] += e.out_elems * POOL_INDEX_BYTES

    for e in bwd:
        out[Category.GRAD_RD] += e.out_elems * wb
        if e.layer != first_layer:
            out[Category.GRAD_WR] += e.in_elems * wb
        if e.kind in ("conv", "fc"):
            out[Category.GRAD_RD] += e.out_elems * wb  # second backward GEMM
            out[Category.WEIGHT_RD] += e.param_elems * wb
            out[Category.WGRAD_WR] += e.param_elems * wb
            out[Category.CHK_RD] += e.in_elems * wb
        elif e.kind == "norm":
            out[Category.CHK_RD] += 2 * e.in_elems * wb
            out[Category.PARAM] += 2 * e.param_elems * wb
        elif e.kind == "act":
            out[Category.CHK_RD] += e.out_elems * wb
        if e.layer in maxpool_names:
            out[Category.MASK_RD] += e.out_elems * POOL_INDEX_BYTES
    return {c: v for c, v in out.items() if v}


def crosscheck_baseline(
    net: Network,
    events: list[TraceEvent],
    mini_batch: int,
) -> tuple[dict[Category, int], dict[Category, int]]:
    """(analytic, traced) category totals for the Baseline schedule.

    Only valid for chain networks — multi-branch merge traffic has no
    per-module trace event to align with.
    """
    if any(b.is_module for b in net.blocks):
        raise ValueError("crosscheck_baseline requires a chain network")
    sched = make_schedule(net, "baseline", mini_batch=mini_batch)
    analytic = compute_traffic(net, sched).by_category()
    traced = baseline_traffic_from_trace(net, events)
    return analytic, traced
