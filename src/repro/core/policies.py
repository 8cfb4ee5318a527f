"""Schedule construction for the paper's evaluation configurations
(Tab. 3) plus the adaptive cost-model-driven policy.

========  ==========================================================
Baseline  conventional layer-by-layer mini-batch propagation
ArchOpt   identical schedule; weight double buffering is a hardware
          property consumed by the timing model, not the scheduler
IL        inter-layer reuse only where a whole mini-batch fits on chip
MBS-FS    fully-serialized MBS: a single sub-batch size for all layers
MBS1      greedy layer grouping, no inter-branch provisioning
MBS2      MBS1 + inter-branch data reuse (Eq. 1 / Eq. 2 footprints)
MBS-AUTO  adaptive: optimal grouping under the byte-accurate
          ``TrafficCostModel`` with a per-group choice of MBS2-style
          provisioning, MBS1-style, or layerwise streaming — never
          costlier than MBS1 or MBS2 at any buffer size
========  ==========================================================

``mbs1-opt`` / ``mbs2-opt`` swap the greedy merge for the exhaustive DP
(the paper's footnote-1 ablation).  ``mbs1``/``mbs2`` optimize the
paper's closed-form proxy objective (:class:`~repro.core.cost.ProxyCostModel`)
and reproduce the paper's schedules exactly; ``mbs-auto`` optimizes the
same byte-accurate model the traffic evaluator is built from
(:class:`~repro.core.cost.TrafficCostModel`), or — with
``objective="latency"`` — the simulated-step-time model
(:class:`~repro.core.cost.LatencyCostModel`), since weight double
buffering makes the bytes-optimal schedule not always the time-optimal
one.  Two further objectives complete the paper's result triple:
``objective="energy"`` optimizes simulated joules
(:class:`~repro.core.cost.EnergyCostModel`, Sec. 6), and
``objective="latency+traffic"`` is the lexicographic composite —
minimize seconds, tie-break on bytes — that removes the latency DP's
free-bytes pathology (bytes hiding under compute are free in time, so
the pure latency objective spends them arbitrarily).
"""
from __future__ import annotations

from repro.core.cost import (
    EnergyCostModel,
    LatencyCostModel,
    LexicographicCostModel,
    MemoizedCostModel,
    ProxyCostModel,
    TrafficCostModel,
)
from repro.core.grouping import (
    GroupingProblem,
    adaptive_grouping,
    exhaustive_grouping,
    greedy_grouping,
    split_segments,
)
from repro.core.schedule import GroupPlan, Schedule, make_group
from repro.core.subbatch import per_block_sub_batches
from repro.graph.network import Network
from repro.types import MIB, WORD_BYTES
from repro.wavecore.config import WaveCoreConfig, config_for_policy

POLICIES = ("baseline", "archopt", "il", "mbs-fs", "mbs1", "mbs2",
            "mbs1-opt", "mbs2-opt", "mbs-auto")

#: Objectives the adaptive policy can optimize: DRAM bytes, simulated
#: step seconds, seconds-then-bytes lexicographic, or simulated joules.
#: Fixed policies always optimize the paper's proxy.
OBJECTIVES = ("traffic", "latency", "latency+traffic", "energy")

#: Objectives that price the simulated hardware and therefore accept
#: (and need) a pinned :class:`~repro.wavecore.config.WaveCoreConfig`.
HARDWARE_OBJECTIVES = ("latency", "latency+traffic", "energy")

#: Default per-core global buffer (paper Sec. 4.2).
DEFAULT_BUFFER_BYTES = 10 * MIB


def _spilled_group(
    idx: int, mini_batch: int, branch_reuse: bool | None = None
) -> GroupPlan:
    """Singleton group that streams layer-by-layer (conventional flow)."""
    return GroupPlan(
        blocks=(idx,), sub_batch=0, iterations=1, block_fused=(False,),
        branch_reuse=branch_reuse,
    )


def _proxy_groups(
    net: Network,
    feasible: list[int],
    n_batch: int,
    word_bytes: int,
    optimizer,
) -> list[GroupPlan]:
    """mbs1/mbs2-style grouping: the proxy objective per fusable segment."""
    proxy = ProxyCostModel.from_network(net, n_batch, word_bytes)
    groups: list[GroupPlan] = []
    for seg in split_segments(feasible):
        if isinstance(seg, int):
            groups.append(_spilled_group(seg, n_batch))
            continue
        start, end = seg
        problem = GroupingProblem(
            feasible=tuple(feasible[start : end + 1]),
            mini_batch=n_batch,
            cost_model=proxy,
            blocks=tuple(range(start, end + 1)),
        )
        for g_start, g_end in optimizer(problem):
            lo, hi = start + g_start, start + g_end
            s_group = min(feasible[lo : hi + 1])
            groups.append(
                make_group(tuple(range(lo, hi + 1)), s_group, n_batch, feasible)
            )
    return groups


class SweepCaches:
    """The whole-*group* price store shared across a buffer sweep.

    :func:`sweep_schedules` threads one instance through every
    per-buffer ``mbs-auto`` search.  Its keys carry the environment
    facts a group price depends on (``relu_mask`` always, the per-layer
    reuse budget only where it is read), so one instance may safely
    span sweep points whose ``layer_reuse_bytes`` tracks the buffer
    budget — but must *not* span different networks, mini-batch sizes,
    objectives, word widths, energy calibrations, or configs differing
    in anything beyond ``global_buffer_bytes``.  Per-*block* prices are
    not here: they live on the network's
    :class:`~repro.core.steptime.BlockPricer`, whoever asks.

    ``hits``/``misses`` accumulate the group-store counters of every
    search run against this instance, for observability (the
    ``sweep-schedule`` CLI reports them).
    """

    __slots__ = ("group_store", "hits", "misses")

    def __init__(self) -> None:
        self.group_store: dict = {}
        self.hits = 0
        self.misses = 0


def clear_pricing_caches(net: Network) -> None:
    """Drop every cross-call pricing cache hung off a network's objects.

    Restores the cold-start cost of :func:`make_schedule` — the
    network's :class:`~repro.core.steptime.BlockPricer` objects (compute
    profiles and every per-block price memo) and per-block footprint
    scalars are otherwise remembered by the network and block
    instances.  Benchmarks use this to measure the naive
    per-point sweep loop without cross-point reuse; the structural
    shape caches in :mod:`repro.graph` are *not* cleared (they belong
    to the graph, not to pricing).
    """
    net.__dict__.pop("_pricer_cache", None)
    for block in net.blocks:
        block.__dict__.pop("_space_cache", None)
        block.__dict__.pop("_live_sizes", None)


def _auto_model(
    net: Network,
    n_batch: int,
    word_bytes: int,
    relu_mask: bool,
    layer_reuse_bytes: int,
    objective: str,
    cfg: WaveCoreConfig | None,
    caches: SweepCaches | None = None,
) -> MemoizedCostModel:
    """The memoized exact cost model for one ``mbs-auto`` objective.

    With ``caches``, the group store is the sweep-shared dict, so every
    group price computed at one buffer point is reusable at the next.
    """
    env = {"relu_mask": relu_mask, "layer_reuse_bytes": layer_reuse_bytes,
           "word_bytes": word_bytes}
    if objective == "latency":
        inner = LatencyCostModel(net, n_batch, cfg=cfg, **env)
    elif objective == "latency+traffic":
        inner = LexicographicCostModel(
            primary=LatencyCostModel(net, n_batch, cfg=cfg, **env),
            secondary=TrafficCostModel(net, n_batch, **env),
        )
    elif objective == "energy":
        inner = EnergyCostModel(net, n_batch, cfg=cfg, **env)
    else:
        inner = TrafficCostModel(net, n_batch, **env)
    return MemoizedCostModel(
        inner, store=None if caches is None else caches.group_store
    )


def _auto_groups(
    net: Network,
    buffer_bytes: int,
    n_batch: int,
    word_bytes: int,
    feas_reuse: list[int],
    relu_mask: bool,
    layer_reuse_bytes: int,
    objective: str = "traffic",
    cfg: WaveCoreConfig | None = None,
    caches: SweepCaches | None = None,
) -> tuple[list[GroupPlan], MemoizedCostModel]:
    """mbs-auto: optimal grouping + per-group mode under the true model.

    Windows are split at blocks that cannot fuse even without
    provisioning; inside each window the adaptive DP partitions blocks
    and picks MBS2-style / MBS1-style / streaming per group, scored by
    the exact model of the chosen objective: the byte-accurate
    :class:`~repro.core.cost.TrafficCostModel` (the same walkers
    :func:`~repro.core.traffic.compute_traffic` runs on the finished
    schedule); ``objective="latency"`` — the simulated-step-time
    :class:`~repro.core.cost.LatencyCostModel` (the same per-layer
    timing :func:`~repro.wavecore.simulator.simulate_step` runs);
    ``objective="energy"`` — the simulated-step-energy
    :class:`~repro.core.cost.EnergyCostModel` (the same per-access
    constants the simulator prices); or ``objective="latency+traffic"``
    — the lexicographic composite whose primary is the *identical*
    latency model (bit-identical seconds, so the optimum's step time
    matches the pure latency objective's) with exact bytes breaking
    ties.

    Returns ``(groups, model)`` — the chosen partition plus the
    memoized model that priced it, so callers can re-price candidates
    (the ``relu_mask="auto"`` selection) without rebuilding caches.
    """
    feas_plain = per_block_sub_batches(
        net, buffer_bytes, n_batch, branch_reuse=False, word_bytes=word_bytes
    )
    if objective in HARDWARE_OBJECTIVES and cfg is None:
        cfg = config_for_policy("mbs-auto", buffer_bytes=buffer_bytes)
    model = _auto_model(
        net, n_batch, word_bytes, relu_mask, layer_reuse_bytes,
        objective, cfg, caches,
    )
    groups: list[GroupPlan] = []
    for seg in split_segments(feas_plain):
        if isinstance(seg, int):
            # Streams in either mode; record the no-provisioning mode the
            # DP priced it under so fig. 4-style reports stay honest.
            groups.append(_spilled_group(seg, n_batch, branch_reuse=False))
            continue
        start, end = seg
        chosen = adaptive_grouping(
            blocks=tuple(range(start, end + 1)),
            feasible_reuse=tuple(feas_reuse[start : end + 1]),
            feasible_noreuse=tuple(feas_plain[start : end + 1]),
            mini_batch=n_batch,
            cost_model=model,
        )
        for g in chosen:
            lo, hi = start + g.start, start + g.end
            if g.branch_reuse is None:
                groups.append(_spilled_group(lo, n_batch, branch_reuse=False))
                continue
            feas = feas_reuse if g.branch_reuse else feas_plain
            groups.append(
                make_group(
                    tuple(range(lo, hi + 1)), g.sub_batch, n_batch, feas,
                    branch_reuse=g.branch_reuse,
                )
            )
    if caches is not None:
        caches.hits += model.hits
        caches.misses += model.misses
    return groups, model


def make_schedule(
    net: Network,
    policy: str,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    mini_batch: int | None = None,
    word_bytes: int = WORD_BYTES,
    objective: str = "traffic",
    cfg: WaveCoreConfig | None = None,
    relu_mask: bool | str | None = None,
    _caches: SweepCaches | None = None,
) -> Schedule:
    """Build the schedule for one of the paper's configurations.

    ``objective`` selects what the adaptive ``mbs-auto`` policy
    minimizes: DRAM bytes (``"traffic"``, the default), simulated step
    seconds (``"latency"``), seconds with bytes breaking exact ties
    (``"latency+traffic"``), or simulated joules (``"energy"``).  The
    fixed policies optimize the paper's closed-form proxy regardless,
    so any objective other than ``"traffic"`` is rejected for them
    rather than silently ignored.  ``cfg`` pins the hardware the
    latency/energy-family objectives price — pass the same config the
    schedule will be simulated on (memory system, double-buffering
    mode); it defaults to the policy's Tab. 3 configuration and is
    rejected for the traffic objective, where it could only mislead.

    ``relu_mask`` overrides the ReLU-masking trick for ``mbs-auto``
    only (the fixed policies' masking is part of the paper's
    configurations): an explicit bool forces it, and ``"auto"`` runs
    the adaptive search under *both* settings and keeps the schedule
    the objective's exact model prices cheaper — never worse than the
    fixed ``relu_mask=True`` default, since that candidate is priced
    (ties keep it).  ``_caches`` threads sweep-shared pricing state;
    use :func:`sweep_schedules` rather than passing it directly.
    """
    policy = policy.lower()
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; choose from {OBJECTIVES}"
        )
    if objective != "traffic" and policy != "mbs-auto":
        raise ValueError(
            f"objective {objective!r} requires the adaptive 'mbs-auto' "
            f"policy; {policy!r} optimizes the paper's fixed proxy"
        )
    if cfg is not None and objective not in HARDWARE_OBJECTIVES:
        raise ValueError(
            "cfg only parameterizes the hardware-priced objectives "
            f"{HARDWARE_OBJECTIVES}; the {objective!r} objective does "
            "not price hardware"
        )
    if relu_mask is not None:
        if policy != "mbs-auto":
            raise ValueError(
                "relu_mask is fixed by the paper's configuration for "
                f"{policy!r}; only the adaptive 'mbs-auto' accepts an "
                "override"
            )
        if not (relu_mask == "auto" or isinstance(relu_mask, bool)):
            raise ValueError(
                f"relu_mask must be True, False, or 'auto', got "
                f"{relu_mask!r}"
            )
    n_batch = net.default_mini_batch if mini_batch is None else mini_batch

    branch_reuse = policy in ("il", "mbs2", "mbs2-opt", "mbs-fs", "mbs-auto")
    if relu_mask is None or relu_mask == "auto":
        mask = policy.startswith("mbs")
    else:
        mask = relu_mask
    layer_reuse_bytes = 0 if policy in ("baseline", "archopt") else buffer_bytes

    feasible = per_block_sub_batches(
        net, buffer_bytes, n_batch, branch_reuse, word_bytes
    )

    groups: list[GroupPlan] = []
    if policy in ("baseline", "archopt"):
        groups = [_spilled_group(i, n_batch) for i in range(len(net.blocks))]
    elif policy == "il":
        # Maximal runs of blocks whose *entire mini-batch* live set fits.
        i = 0
        while i < len(net.blocks):
            if feasible[i] >= n_batch:
                j = i
                while j + 1 < len(net.blocks) and feasible[j + 1] >= n_batch:
                    j += 1
                groups.append(
                    make_group(tuple(range(i, j + 1)), n_batch, n_batch, feasible)
                )
                i = j + 1
            else:
                groups.append(_spilled_group(i, n_batch))
                i += 1
    elif policy == "mbs-fs":
        fusable = [s for s in feasible if s > 0]
        s_global = min(fusable) if fusable else 0
        for seg in split_segments(feasible):
            if isinstance(seg, int):
                groups.append(_spilled_group(seg, n_batch))
            else:
                start, end = seg
                groups.append(
                    make_group(
                        tuple(range(start, end + 1)), s_global, n_batch, feasible
                    )
                )
    elif policy == "mbs-auto":
        # ``feasible`` above was computed with branch_reuse=True — reuse
        # it as the Eq. 1/2 profile; _auto_groups adds the plain one.
        # The schedule-environment flags are passed through so the DP's
        # cost model can never diverge from the Schedule it emits.
        # Feasibility does not depend on the masking trick, so the
        # relu_mask="auto" candidates share it and differ only in the
        # DP's pricing.
        masks = (True, False) if relu_mask == "auto" else (mask,)
        best: tuple | None = None
        for candidate_mask in masks:
            groups, model = _auto_groups(
                net, buffer_bytes, n_batch, word_bytes, feasible,
                candidate_mask, layer_reuse_bytes, objective, cfg,
                caches=_caches,
            )
            sched = Schedule(
                policy=policy,
                network=net.name,
                mini_batch=n_batch,
                buffer_bytes=buffer_bytes,
                branch_reuse=branch_reuse,
                relu_mask=candidate_mask,
                groups=tuple(groups),
                layer_reuse_bytes=layer_reuse_bytes,
                objective=objective,
            )
            if len(masks) == 1:
                return sched
            # exact evaluator-grade price of the finished candidate —
            # the same number the property tests compare, so "auto is
            # never worse than fixed True" holds by construction
            cost = model.schedule_cost(sched)
            if best is None or cost < best[0]:
                best = (cost, sched)
        return best[1]
    else:  # mbs1 / mbs2 (+ -opt variants)
        optimizer = exhaustive_grouping if policy.endswith("-opt") else greedy_grouping
        groups = _proxy_groups(net, feasible, n_batch, word_bytes, optimizer)

    return Schedule(
        policy=policy,
        network=net.name,
        mini_batch=n_batch,
        buffer_bytes=buffer_bytes,
        branch_reuse=branch_reuse,
        relu_mask=mask,
        groups=tuple(groups),
        layer_reuse_bytes=layer_reuse_bytes,
        objective=objective,
    )


def sweep_schedules(
    net: Network,
    policy: str,
    buffer_sizes,
    mini_batch: int | None = None,
    word_bytes: int = WORD_BYTES,
    objective: str = "traffic",
    cfg: WaveCoreConfig | None = None,
    relu_mask: bool | str | None = None,
    caches: SweepCaches | None = None,
) -> list[Schedule]:
    """Schedules for every buffer size of a sweep, sharing pricing work.

    Semantically identical to calling :func:`make_schedule` once per
    element of ``buffer_sizes`` (the returned schedules are exactly
    those), but for ``mbs-auto`` the per-buffer searches share one
    :class:`SweepCaches` whole-group price store, so a candidate group
    priced at one buffer size is free at every other where it recurs —
    adjacent sweep points explore mostly identical windows, which is
    what makes the batch API an order of magnitude faster than the
    naive per-point loop.  (Per-block prices and compute profiles
    persist on the network's pricer either way.)

    Pass ``caches`` to inspect hit/miss counters afterwards (one is
    created internally otherwise).  ``cfg``, when given, pins the same
    hardware config for every point, matching ``make_schedule``; when
    omitted, each hardware-priced point defaults to its own
    buffer-sized config exactly as the per-point calls would.
    """
    if caches is None and policy.lower() == "mbs-auto":
        caches = SweepCaches()
    return [
        make_schedule(
            net, policy, buffer_bytes, mini_batch, word_bytes,
            objective, cfg, relu_mask, _caches=caches,
        )
        for buffer_bytes in buffer_sizes
    ]
