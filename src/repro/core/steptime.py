"""Per-block pricing: DRAM bytes, simulated seconds and joules.

The timing contract (paper Sec. 4.2) prices a layer at ``max(compute,
DRAM)``: local buffers are double-buffered, so a layer's off-chip
transfers overlap its computation, and with the per-PE second weight
register (ArchOpt, Fig. 8) each GEMM wave's weight fill also hides
under the previous wave's streaming.  Step time is the sum of layer
times in dependency order.  The energy model (Sec. 4.2 / Sec. 6)
prices a step from four chip-level totals: DRAM bytes, global-buffer
bytes, MAC count, and the step time (static power).

Crucially, a block's traffic, simulated time, global-buffer movement
and MACs depend only on the block itself, network-structural facts,
and its owning group's facts — sub-batch, iteration count, edge
on-chip flags, provisioning mode (Sec. 3).  :func:`situation` names
exactly those facts, and :class:`BlockPricer` is the one owner of
every per-block price memoized on them: the bytes, seconds and joules
the scheduling DP's cost models (:mod:`repro.core.cost`) sum over a
candidate group, and the :class:`BlockRecord` the evaluator folds.
Each projection keeps its own memo because each costs a different
walk (OCCAM's point that one byte model serves several metrics):
bytes need no hardware at all, seconds add the compute profile, and a
record adds per-category bytes and global-buffer bytes that only the
evaluator reads.  :meth:`BlockPricer.schedule_totals` folds a finished
schedule's records in the simulator's own association, so

```python
pricer.schedule_totals(sched, word_bytes).seconds \
    == simulate_step(net, sched, cfg).time_s
pricer.schedule_totals(sched, word_bytes).energy \
    == simulate_step(net, sched, cfg).energy
```

hold *bit-for-bit* (asserted zoo-wide in ``tests/test_core_steptime.py``,
``tests/test_core_cost_properties.py`` and ``tests/test_api_facade.py``).
That exactness is what gives the latency- and energy-objective
``mbs-auto`` their dominance guarantees: the grouping DP optimizes the
same number the evaluator reports.
:func:`~repro.wavecore.simulator.simulate_step` deliberately keeps its
own walk (``compute_traffic``, per-layer attribution, ``LayerTiming``
sums): it is the independent reference those tests compare this
module against, so it must not be routed through these memos.

Weight double buffering is honored through the injected
:class:`~repro.wavecore.config.WaveCoreConfig`: with it on, a GEMM wave
costs ``max(m_t, k)`` cycles instead of ``m_t + k``, which shifts
conv/FC layers toward memory-boundness — extra weight re-streaming from
a smaller sub-batch may then be free in *time* while still costing
*bytes*, which is why the latency- and traffic-optimal schedules
genuinely diverge on tight buffers.  Energy agrees with neither: DRAM
accesses dominate a memory-bound step's joules, static power tracks
time, and the global buffer charges sub-batch re-streaming even when
the DRAM traffic it causes hides under compute (OCCAM makes the
general case that reuse schedules chosen under one cost metric are
suboptimal under another).
"""
from __future__ import annotations

import dataclasses
import weakref
from typing import NamedTuple

from repro.core.schedule import Schedule
from repro.core.traffic import (
    Category,
    Phase,
    block_reuse_class,
    walk_block_traffic,
)
from repro.graph.network import Network
from repro.wavecore.config import WaveCoreConfig
from repro.wavecore.energy import DEFAULT_ENERGY, EnergyParams, step_energy
from repro.wavecore.report import EnergyBreakdown
from repro.wavecore.timing import (
    block_compute_profile,
    block_gbuf_bytes,
    dram_layer_resolver,
)


class _DramRowIndex:
    """Resolve raw traffic-record names to per-(layer, phase) row slots.

    Memoizes :func:`repro.wavecore.timing.dram_layer_resolver` per raw
    name, with rows ordered exactly like :func:`block_compute_profile`
    so the dram and compute vectors align.
    """

    __slots__ = ("_resolve", "_by_phase", "n_rows")

    def __init__(self, block) -> None:
        layers = block.all_layers()
        self._resolve = dram_layer_resolver(block)
        # one raw-name -> row cache per phase: the hot `row` lookup then
        # hashes a plain string instead of a (str, enum) tuple
        self._by_phase: dict[Phase, dict[str, int]] = {}
        i = 0
        for phase in (Phase.FWD, Phase.BWD):
            rows = self._by_phase[phase] = {}
            for layer in layers:
                rows[layer.name] = i
                i += 1
        self.n_rows = i

    def row(self, raw: str, phase: Phase) -> int:
        rows = self._by_phase[phase]
        got = rows.get(raw)
        if got is None:
            got = rows[raw] = rows[self._resolve(raw)]
        return got


class _SumTrafficReport:
    """Duck-typed ``TrafficReport`` that keeps only the byte total.

    The cheapest walk: the traffic objective reads a single number per
    block situation, so materializing records or rows is pure churn
    there.
    """

    __slots__ = ("total_bytes",)

    def __init__(self) -> None:
        self.total_bytes = 0

    def add(self, block, layer, kind, phase, category, nbytes) -> None:
        if nbytes > 0:
            self.total_bytes += int(nbytes)


class _DramRowReport:
    """Duck-typed traffic report that bins bytes straight into row slots.

    Stands in for ``TrafficReport`` + ``attribute_block_dram`` on the
    pricing path: walkers call ``add`` and the bytes land
    pre-attributed, with no per-record allocation.
    """

    __slots__ = ("total_bytes", "row_bytes", "_index")

    def __init__(self, index: _DramRowIndex) -> None:
        self._index = index
        self.total_bytes = 0
        self.row_bytes = [0] * index.n_rows

    def add(self, block, layer, kind, phase, category, nbytes) -> None:
        if nbytes > 0:
            n = int(nbytes)
            self.total_bytes += n
            self.row_bytes[self._index.row(layer, phase)] += n


class _RecordReport(_DramRowReport):
    """:class:`_DramRowReport` that also bins bytes per phase and category.

    Each phase's dict keeps categories in the order the walker first
    emits them, so folding blocks in walk order reproduces
    ``TrafficReport.by_category()``'s key order.
    """

    __slots__ = ("fwd", "bwd")

    def __init__(self, index: _DramRowIndex) -> None:
        super().__init__(index)
        self.fwd: dict[Category, int] = {}
        self.bwd: dict[Category, int] = {}

    def add(self, block, layer, kind, phase, category, nbytes) -> None:
        if nbytes > 0:
            n = int(nbytes)
            self.total_bytes += n
            self.row_bytes[self._index.row(layer, phase)] += n
            by_cat = self.fwd if phase is Phase.FWD else self.bwd
            by_cat[category] = by_cat.get(category, 0) + n


class BlockRecord(NamedTuple):
    """What a priced result needs from one block in one situation.

    ``seconds`` is the block's ordered ``max(compute, DRAM)`` sum,
    ``gbuf_bytes`` its global-buffer bytes *excluding* the DRAM bytes
    that also stream through the buffer, and ``fwd``/``bwd`` its
    ``(Category.value, bytes)`` pairs per phase, in first-emission
    order (string keys: the evaluator folds them at every sweep point,
    and an enum member hashes in Python code, a string in C).
    """

    seconds: float
    dram_bytes: int
    macs: int
    gbuf_bytes: int
    fwd: tuple[tuple[str, int], ...]
    bwd: tuple[tuple[str, int], ...]


class ScheduleTotals(NamedTuple):
    """A finished schedule's price (:meth:`BlockPricer.schedule_totals`).

    ``by_category`` maps ``Category.value`` to DRAM bytes, keyed in the
    order ``compute_traffic`` first emits each category.
    """

    seconds: float
    dram_bytes: int
    by_category: dict[str, int]
    energy: EnergyBreakdown


def _block_seconds(
    compute_s: tuple[float, ...],
    row_bytes: list[int],
    core_bandwidth: float,
) -> float:
    """Per-layer ``max(compute, DRAM)`` of one block, summed in row order.

    The same division, ``max`` and ordered sum as the ``LayerTiming``
    accumulation of :func:`~repro.wavecore.simulator.simulate_step`, so
    the total is bit-identical to it.
    """
    total = 0.0
    for compute, nbytes in zip(compute_s, row_bytes):
        dram = nbytes / core_bandwidth
        total += compute if compute >= dram else dram
    return total


def situation(
    net: Network, sched_like, idx: int, sub_batch: int, word_bytes: int
) -> tuple:
    """Name block ``idx``'s situation: every fact its walkers read.

    The key of every per-block memo of :class:`BlockPricer`.
    ``sched_like`` is a :class:`~repro.core.schedule.Schedule` or any
    object with its query surface (the cost models pass a single-group
    view), and is the sole authority on each fact, so a key can never
    disagree with what a walk saw.  ``sub_batch`` is the block's
    *effective* sub-batch: the owning group's when the block fuses, 0
    when it streams layerwise.  The facts are the index, fused flag,
    iteration count, both edge on-chip flags, provisioning mode,
    effective sub-batch (compute time depends on the iteration
    *sequence*, not only its length) and ``relu_mask``; an unfused
    block adds the canonical reuse budget
    (:func:`~repro.core.traffic.block_reuse_class`) its layerwise walk
    reads, under which budgets with identical per-layer fit outcomes
    share one entry.  Word width and mini-batch are not in the key: a
    pricer serves one mini-batch and keeps one memo per word width.
    """
    fused = sched_like.block_fused(idx)
    key = (
        idx, fused, sched_like.iterations_of_block(idx),
        sched_like.boundary_on_chip(idx - 1),
        sched_like.boundary_on_chip(idx),
        sched_like.branch_reuse_of(idx), sub_batch, sched_like.relu_mask,
    )
    if fused:
        return key
    return key + (block_reuse_class(
        net.blocks[idx], sched_like.mini_batch, word_bytes,
        sched_like.layer_reuse_bytes,
    ),)


class BlockPricer:
    """The one owner of per-block pricing state for one network.

    Compute profiles, MAC totals, global-buffer byte counts, and DRAM
    row indexes depend only on ``(net, mini_batch, cfg)`` plus
    ``(idx, sub_batch)`` — never on boundary placement, reuse flags,
    ReLU masking, or the global-buffer budget — so one pricer serves
    every DP probe of every buffer-sweep point that shares a memory
    config.  The cached ``compute_s`` tuples hold exactly the
    ``compute_s`` values of
    :func:`~repro.wavecore.timing.block_layer_timings`, in its order.

    On top of those it memoizes every per-block price on the block's
    :func:`situation`, one memo per projection and word width
    (:meth:`memo`): DRAM bytes (:meth:`walk_bytes`), seconds
    (:meth:`walk_seconds`), joules under one energy calibration
    (:meth:`walk_joules`) and the evaluator's :class:`BlockRecord`
    (:meth:`walk_record`).  The cost models look prices up there, and
    :meth:`schedule_totals` folds a finished schedule's records instead
    of re-walking its blocks, so every price lives as long as the
    network does and is computed once per network.
    """

    __slots__ = ("net", "mini_batch", "cfg", "_profiles", "_gbuf", "_rows",
                 "_memos")

    def __init__(self, net: Network, mini_batch: int, cfg: WaveCoreConfig):
        # A proxy, not a reference: the network holds its pricers
        # (:meth:`shared`), and a cycle would keep a dropped network and
        # every memo below alive until the cyclic collector next runs.
        self.net = weakref.proxy(net)
        self.mini_batch = mini_batch
        self.cfg = cfg
        self._profiles: dict[tuple[int, int],
                             tuple[tuple[float, ...], int]] = {}
        self._gbuf: dict[tuple[int, int], int] = {}
        self._rows: dict[int, _DramRowIndex] = {}
        self._memos: dict[tuple, dict] = {}

    @classmethod
    def shared(
        cls, net: Network, mini_batch: int, cfg: WaveCoreConfig
    ) -> "BlockPricer":
        """The per-network pricer for this ``(mini_batch, cfg)`` point.

        Cached in the (immutable) network's instance ``__dict__``, so its
        lifetime is tied to the network object and repeated schedule
        searches — every point of a buffer sweep, every objective —
        share one set of compute profiles and prices.
        ``global_buffer_bytes`` is excluded from the key: it is the one
        config field a sweep varies, and pricing never reads it.
        """
        cache = net.__dict__.setdefault("_pricer_cache", {})
        key = (mini_batch,) + tuple(
            getattr(cfg, f.name)
            for f in dataclasses.fields(cfg)
            if f.name != "global_buffer_bytes"
        )
        got = cache.get(key)
        if got is None:
            got = cache[key] = cls(net, mini_batch, cfg)
        return got

    def profile(self, idx: int,
                sub_batch: int) -> tuple[tuple[float, ...], int]:
        """``(compute_s per row, total_macs)`` for a block."""
        key = (idx, sub_batch)
        got = self._profiles.get(key)
        if got is None:
            prof = block_compute_profile(
                self.net, idx, self.mini_batch, sub_batch, self.cfg
            )
            compute_s = tuple(r[5] for r in prof)
            macs = 0
            for r in prof:
                macs += r[4]
            got = (compute_s, macs)
            self._profiles[key] = got
        return got

    def gbuf_bytes(self, idx: int, sub_batch: int) -> int:
        key = (idx, sub_batch)
        got = self._gbuf.get(key)
        if got is None:
            got = block_gbuf_bytes(
                self.net, idx, self.mini_batch, sub_batch, self.cfg
            )
            self._gbuf[key] = got
        return got

    def rows(self, idx: int) -> _DramRowIndex:
        got = self._rows.get(idx)
        if got is None:
            got = _DramRowIndex(self.net.blocks[idx])
            self._rows[idx] = got
        return got

    def memo(self, word_bytes: int, projection) -> dict:
        """One projection's memo at one word width, keyed by situation.

        ``projection`` is ``"bytes"``, ``"seconds"``, ``"records"``, or
        the :class:`~repro.wavecore.energy.EnergyParams` joules are
        priced under.  Fetch it once per priced group or schedule, not
        per block: every lookup is then one :func:`situation` tuple
        plus one dict hit.
        """
        key = (projection, word_bytes)
        got = self._memos.get(key)
        if got is None:
            got = self._memos[key] = {}
        return got

    def walk_bytes(self, sched_like, idx: int, word_bytes: int) -> int:
        """Both-phase DRAM bytes of block ``idx`` under ``sched_like``.

        Reads neither the compute profile nor ``cfg``, so the traffic
        objective never computes hardware timing.
        """
        rep = _SumTrafficReport()
        walk_block_traffic(rep, self.net, sched_like, idx, word_bytes)
        return rep.total_bytes

    def walk_seconds(
        self, sched_like, idx: int, sub_batch: int, word_bytes: int
    ) -> float:
        """Simulated time of block ``idx`` alone: its ordered per-layer
        ``max(compute, DRAM)`` sum, as ``simulate_step`` accumulates it."""
        compute_s, _macs = self.profile(idx, sub_batch)
        rep = _DramRowReport(self.rows(idx))
        walk_block_traffic(rep, self.net, sched_like, idx, word_bytes)
        return _block_seconds(compute_s, rep.row_bytes, self.cfg.core_bandwidth)

    def walk_joules(
        self, sched_like, idx: int, sub_batch: int, word_bytes: int,
        params: EnergyParams,
    ) -> float:
        """Chip-level joules attributable to block ``idx`` alone.

        The block's share of each energy component from its own DRAM
        bytes, global-buffer bytes, MACs and time, scaled to chip level
        exactly the way the simulator scales its totals — per-block
        prices therefore sum to the simulated step energy up to float
        association (the int-valued byte and MAC totals are exact; only
        the final per-component multiplies reassociate).
        """
        cfg = self.cfg
        compute_s, macs = self.profile(idx, sub_batch)
        rep = _DramRowReport(self.rows(idx))
        walk_block_traffic(rep, self.net, sched_like, idx, word_bytes)
        time_s = _block_seconds(compute_s, rep.row_bytes, cfg.core_bandwidth)
        # DRAM traffic also streams through the global buffer
        gbuf = self.gbuf_bytes(idx, sub_batch) + rep.total_bytes
        return step_energy(
            cfg,
            time_s,
            chip_dram_bytes=rep.total_bytes * cfg.cores,
            chip_gbuf_bytes=gbuf * cfg.cores,
            chip_macs=macs * cfg.cores,
            params=params,
        ).total_j

    def walk_record(
        self, sched_like, idx: int, sub_batch: int, word_bytes: int
    ) -> BlockRecord:
        """The :class:`BlockRecord` of block ``idx`` under ``sched_like``."""
        compute_s, macs = self.profile(idx, sub_batch)
        rep = _RecordReport(self.rows(idx))
        walk_block_traffic(rep, self.net, sched_like, idx, word_bytes)
        return BlockRecord(
            seconds=_block_seconds(
                compute_s, rep.row_bytes, self.cfg.core_bandwidth
            ),
            dram_bytes=rep.total_bytes,
            macs=macs,
            gbuf_bytes=self.gbuf_bytes(idx, sub_batch),
            fwd=tuple((cat.value, n) for cat, n in rep.fwd.items()),
            bwd=tuple((cat.value, n) for cat, n in rep.bwd.items()),
        )

    def schedule_records(
        self, sched: Schedule, word_bytes: int
    ) -> list[BlockRecord]:
        """One memoized record per block of a finished schedule, in
        block order."""
        net = self.net
        if sched.num_blocks != len(net.blocks):
            raise ValueError(
                f"schedule covers {sched.num_blocks} blocks, network has "
                f"{len(net.blocks)}"
            )
        memo = self.memo(word_bytes, "records")
        records = []
        for g in sched.groups:
            for idx, fused in zip(g.blocks, g.block_fused):
                sub_batch = g.sub_batch if fused else 0
                key = situation(net, sched, idx, sub_batch, word_bytes)
                rec = memo.get(key)
                if rec is None:
                    rec = memo[key] = self.walk_record(
                        sched, idx, sub_batch, word_bytes
                    )
                records.append(rec)
        return records

    def schedule_totals(
        self,
        sched: Schedule,
        word_bytes: int,
        params: EnergyParams = DEFAULT_ENERGY,
    ) -> ScheduleTotals:
        """Price a finished schedule by folding :meth:`schedule_records`.

        The fold runs in the simulator's order: seconds and totals over
        blocks ascending, category bytes forward ascending then backward
        descending (the order ``compute_traffic`` emits its records in).
        Energy is :func:`~repro.wavecore.energy.step_energy` on the four
        chip-level totals, computed once, as in ``simulate_step``.
        """
        records = self.schedule_records(sched, word_bytes)
        time_s = 0.0
        dram_bytes = macs = gbuf_bytes = 0
        by_cat: dict[str, int] = {}
        for rec in records:
            time_s += rec.seconds
            dram_bytes += rec.dram_bytes
            macs += rec.macs
            gbuf_bytes += rec.gbuf_bytes
            for cat, nbytes in rec.fwd:
                by_cat[cat] = by_cat.get(cat, 0) + nbytes
        for rec in reversed(records):
            for cat, nbytes in rec.bwd:
                by_cat[cat] = by_cat.get(cat, 0) + nbytes
        cores = self.cfg.cores
        # DRAM traffic also streams through the global buffer
        energy = step_energy(
            self.cfg,
            time_s,
            chip_dram_bytes=dram_bytes * cores,
            chip_gbuf_bytes=(gbuf_bytes + dram_bytes) * cores,
            chip_macs=macs * cores,
            params=params,
        )
        return ScheduleTotals(time_s, dram_bytes, by_cat, energy)
