"""Composable per-group scheduling cost models.

The layer-grouping optimizer (:mod:`repro.core.grouping`) scores a
contiguous partition of the block sequence as::

    sum(model.group_cost(g) for g in groups)
      + sum(model.boundary_cost(b) for b in interior boundaries)

Two implementations of the :class:`CostModel` protocol exist:

* :class:`ProxyCostModel` — the paper's closed-form objective (weight
  streaming ``W * (4I - 1)`` per group plus ``3 N out_bytes`` per
  off-chip boundary).  This is the model the ``mbs1``/``mbs2`` policies
  optimize, kept bit-exact so their schedules reproduce the paper.
* :class:`TrafficCostModel` — the byte-accurate model.  Each group is
  priced by running the *same* per-block walkers that
  :func:`repro.core.traffic.compute_traffic` uses on a single-group
  view, so the optimization objective can never drift from the
  evaluator: for any schedule,
  ``TrafficCostModel.schedule_cost(sched) ==
  compute_traffic(net, sched).total_bytes`` exactly.  Boundary traffic
  (re-reads of a spilled group input, gradient spill/accumulate) is
  charged to the adjacent blocks by the walkers themselves, so
  :meth:`TrafficCostModel.boundary_cost` is identically zero.

The adaptive ``mbs-auto`` policy (:mod:`repro.core.policies`) optimizes
the :class:`TrafficCostModel`, which fixes the tight-buffer regression
where a fused MBS2 schedule emits more traffic than MBS1: reuse that
does not pay under the true model is simply not selected.

A third implementation prices *seconds* instead of bytes:

* :class:`LatencyCostModel` — simulated step time.  Each member block is
  priced by :meth:`repro.core.steptime.BlockPricer.walk_seconds`, which
  runs the same traffic walkers *and* the same per-layer WaveCore timing
  (``max(compute, DRAM)`` under weight double buffering) that
  :func:`repro.wavecore.simulator.simulate_step` runs, so
  ``schedule_cost(sched) == simulate_step(net, sched, cfg).time_s``
  bit-for-bit.  Because per-layer time saturates at the compute floor,
  extra DRAM traffic on compute-bound layers is free in time but not in
  bytes — the two objectives genuinely diverge on tight buffers, and
  ``mbs-auto --objective latency`` exists to exploit that.

A fourth prices *joules* (paper Sec. 6):

* :class:`EnergyCostModel` — simulated step energy.  Each member block
  is priced by :meth:`repro.core.steptime.BlockPricer.walk_joules`: DRAM
  and global-buffer bytes from the traffic walkers, MACs and block time
  from the WaveCore timing model, composed through the same per-access
  / per-op constants (:func:`repro.wavecore.energy.step_energy`) the
  simulator applies, so ``schedule_cost(sched) ==
  simulate_step(net, sched, cfg).energy.total_j`` bit-for-bit.  Energy
  correlates with neither objective alone — DRAM accesses dominate a
  memory-bound step's joules, static power tracks time, and the
  global-buffer component charges sub-batch re-streaming even when it
  hides under compute — so ``mbs-auto --objective energy`` is a third
  genuinely distinct optimum.

The three walker-backed models hold no prices of their own.  Each is a
projection of the network's :class:`~repro.core.steptime.BlockPricer`:
it names each member's situation with
:func:`~repro.core.steptime.situation` and looks the price up in the
pricer's memo for its projection and word width, walking only on a
miss — so a block situation is priced once per network, whichever DP
call, sweep point or objective asks first.

Finally, :class:`LexicographicCostModel` composes any two of the above
into a tie-broken objective: candidates are compared by the primary
cost first and by the secondary only on exact primary ties
(:class:`LexCost` is the ordered value type the DP accumulates).  The
shipped ``objective="latency+traffic"`` pairing minimizes seconds and
tie-breaks on bytes, which removes the latency DP's free-bytes
pathology: bytes that hide under compute are free in *time*, so the
pure latency objective spends them arbitrarily — the tie-break picks,
among the time-optimal partitions, one that spends the fewest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.core.schedule import Schedule
from repro.core.steptime import BlockPricer, situation
from repro.core.traffic import block_reuse_class
from repro.graph.network import Network
from repro.types import WORD_BYTES, ceil_div
from repro.wavecore.config import DEFAULT_CONFIG, WaveCoreConfig
from repro.wavecore.energy import DEFAULT_ENERGY, EnergyParams


@runtime_checkable
class CostModel(Protocol):
    """Scoring interface the grouping optimizer is generic over.

    ``blocks`` are *absolute* network block indices (contiguous);
    ``sub_batch == 0`` denotes conventional layerwise streaming.
    ``block_fused`` optionally marks which members actually fit at the
    group's sub-batch size (``None`` means all fit when ``sub_batch >
    0``).  Costs are comparable within one model instance only.
    """

    def group_cost(
        self,
        blocks: Sequence[int],
        sub_batch: int,
        branch_reuse: bool,
        block_fused: Sequence[bool] | None = None,
    ) -> float:
        """Cost of blocks forming one group at ``sub_batch``."""
        ...

    def boundary_cost(self, idx: int, branch_reuse: bool) -> float:
        """Cost of an off-chip boundary after block ``idx``."""
        ...


@dataclass(frozen=True)
class ProxyCostModel:
    """The paper's closed-form grouping objective (legacy proxy).

    Scores only the traffic components that obviously depend on the
    grouping: a group iterating ``I`` times streams its weights ``I``
    times in forward and ``I`` times for the backward data gradient and
    touches the weight-gradient partial sums ``2I - 1`` times; an
    off-chip boundary costs one forward re-read of the boundary tensor
    plus a backward gradient write and read.
    """

    weight_bytes: tuple[int, ...]
    out_bytes: tuple[int, ...]
    mini_batch: int

    def __post_init__(self) -> None:
        if len(self.weight_bytes) != len(self.out_bytes):
            raise ValueError("model arrays must have equal length")

    @classmethod
    def from_network(
        cls, net: Network, mini_batch: int, word_bytes: int = WORD_BYTES
    ) -> "ProxyCostModel":
        return cls(
            weight_bytes=tuple(
                sum(l.param_bytes(word_bytes) for l in b.all_layers())
                for b in net.blocks
            ),
            out_bytes=tuple(b.out_shape.bytes(word_bytes) for b in net.blocks),
            mini_batch=mini_batch,
        )

    def group_cost(
        self,
        blocks: Sequence[int],
        sub_batch: int,
        branch_reuse: bool,
        block_fused: Sequence[bool] | None = None,
    ) -> float:
        iters = ceil_div(self.mini_batch, sub_batch) if sub_batch > 0 else 1
        weights = sum(self.weight_bytes[b] for b in blocks)
        return weights * (4 * iters - 1)

    def boundary_cost(self, idx: int, branch_reuse: bool) -> float:
        return 3.0 * self.mini_batch * self.out_bytes[idx]


class _GroupView:
    """Duck-typed Schedule restricted to one candidate group.

    Exposes exactly the query surface the traffic walkers consume.  Both
    group edges are off-chip (true for every inter-group boundary of
    every candidate partition), interior boundaries are on-chip when both
    neighbouring blocks fuse — identical to
    :meth:`repro.core.schedule.Schedule.boundary_on_chip` on the
    assembled schedule.
    """

    __slots__ = ("mini_batch", "relu_mask", "layer_reuse_bytes",
                 "_first", "_last", "_fused", "_iterations", "_branch_reuse")

    def __init__(
        self,
        blocks: Sequence[int],
        iterations: int,
        block_fused: Sequence[bool],
        branch_reuse: bool,
        mini_batch: int,
        relu_mask: bool,
        layer_reuse_bytes: int,
    ):
        self.mini_batch = mini_batch
        self.relu_mask = relu_mask
        self.layer_reuse_bytes = layer_reuse_bytes
        self._first = blocks[0]
        self._last = blocks[-1]
        self._fused = tuple(block_fused)
        self._iterations = iterations
        self._branch_reuse = branch_reuse

    def iterations_of_block(self, idx: int) -> int:
        return self._iterations

    def block_fused(self, idx: int) -> bool:
        if not self._first <= idx <= self._last:
            return False
        return self._fused[idx - self._first]

    def boundary_on_chip(self, idx: int) -> bool:
        if idx < self._first or idx + 1 > self._last:
            return False
        return self.block_fused(idx) and self.block_fused(idx + 1)

    def branch_reuse_of(self, idx: int) -> bool:
        return self._branch_reuse


def _check_schedule_env(model, sched: Schedule) -> None:
    """Reject a schedule whose environment differs from the model's.

    The walker-backed models' ``schedule_cost`` reads the environment
    flags from the *schedule* while ``group_cost`` reads them from the
    *model*; a mismatch would silently break the bit-for-bit agreement
    between the two, so every such model guards with this check.
    """
    env = (sched.mini_batch, sched.relu_mask, sched.layer_reuse_bytes)
    mine = (model.mini_batch, model.relu_mask, model.layer_reuse_bytes)
    if env != mine:
        raise ValueError(
            f"schedule environment {env} does not match this model's "
            f"{mine}; build the model with for_schedule()"
        )


class _WalkerCostModel:
    """The methods every walker-backed cost model shares.

    Subclasses are frozen dataclasses with ``net``, ``mini_batch``,
    ``relu_mask``, ``layer_reuse_bytes``, ``word_bytes`` and ``cfg``
    (a field on the hardware models, a class constant on the traffic
    model) plus a ``_pricer`` set here, and two methods naming their
    projection: ``_prices()``, the pricer's memo of it at this word
    width, and ``_price(view, idx, eff_sub)``, its walk of one block
    under a single-group view.  ``_zero`` is the additive identity of
    the model's cost type.
    """

    _zero = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_pricer",
            BlockPricer.shared(self.net, self.mini_batch, self.cfg),
        )

    def group_cost(
        self,
        blocks: Sequence[int],
        sub_batch: int,
        branch_reuse: bool,
        block_fused: Sequence[bool] | None = None,
    ):
        """Price the members of one candidate group from the pricer.

        Builds the single-group :class:`_GroupView`, then looks each
        member's price up under its :func:`~repro.core.steptime.situation`
        (the view is the sole authority on every fact in the key) and
        walks it through ``_price`` only on a miss.  Accumulation
        starts from ``_zero`` and runs in member order, keeping int sums
        exact and float association reproducible.
        """
        if block_fused is None:
            block_fused = tuple(sub_batch > 0 for _ in blocks)
        iterations = (
            ceil_div(self.mini_batch, sub_batch) if sub_batch > 0 else 1
        )
        view = _GroupView(
            blocks, iterations, block_fused, branch_reuse,
            self.mini_batch, self.relu_mask, self.layer_reuse_bytes,
        )
        net, wb = self.net, self.word_bytes
        memo = self._prices()
        total = self._zero
        for pos, idx in enumerate(blocks):
            eff_sub = sub_batch if block_fused[pos] else 0
            key = situation(net, view, idx, eff_sub, wb)
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._price(view, idx, eff_sub)
            total += value
        return total

    def boundary_cost(self, idx: int, branch_reuse: bool):
        return self._zero  # boundary traffic is charged to the adjacent blocks

    def block_floor(self, idx, subs_reuse, subs_noreuse):
        """Admissible lower bound on this block's fused-member price.

        Prices block ``idx`` fused with *both* edges on-chip — never
        costlier than any real candidate's edge placement, because an
        on-chip edge only removes traffic terms and per-layer
        time/energy are monotone in a layer's DRAM bytes — minimized
        over both provisioning modes and every sub-batch the DP can
        actually assign the block (``subs_*`` from the caller's
        feasibility running-mins).  Probes share the pricer's memo
        with :meth:`group_cost`, so most floor walks are later reused by
        interior DP probes (or vice versa).  Returns ``None`` when no
        fused candidate can contain the block.
        """
        memo = self._prices()
        best = None
        for branch_reuse, subs in ((False, subs_noreuse), (True, subs_reuse)):
            for sub in subs:
                # a 3-wide pseudo-view makes both of idx's edges
                # interior (hence on-chip); walkers never walk the
                # phantom neighbours, only query their fused flags
                view = _GroupView(
                    (idx - 1, idx, idx + 1), ceil_div(self.mini_batch, sub),
                    (True, True, True), branch_reuse,
                    self.mini_batch, self.relu_mask, self.layer_reuse_bytes,
                )
                key = situation(self.net, view, idx, sub, self.word_bytes)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = self._price(view, idx, sub)
                if best is None or value < best:
                    best = value
        return best


@dataclass(frozen=True)
class TrafficCostModel(_WalkerCostModel):
    """Byte-accurate cost model built from the traffic walkers.

    ``group_cost`` prices a candidate group by walking each member block
    with the exact per-layer accounting of
    :func:`repro.core.traffic.compute_traffic`; block traffic depends
    only on the block itself, network-structural facts, and the owning
    group's flags, so per-group sums decompose the schedule total
    without residue.  ``boundary_cost`` is zero by construction — the
    walkers charge every off-chip boundary's reads/writes to the blocks
    on either side.

    Byte walks read no hardware, so the bytes memo lives on the
    network's ``DEFAULT_CONFIG`` pricer whatever the caller simulates
    on (``cfg`` is a class constant, not a field).
    """

    net: Network
    mini_batch: int
    relu_mask: bool = True
    layer_reuse_bytes: int = 0
    word_bytes: int = WORD_BYTES
    _pricer: BlockPricer = field(init=False, repr=False, compare=False)

    cfg = DEFAULT_CONFIG

    @classmethod
    def for_schedule(
        cls, net: Network, sched: Schedule, word_bytes: int = WORD_BYTES,
    ) -> "TrafficCostModel":
        """Model whose flags match an existing schedule's environment."""
        return cls(
            net=net,
            mini_batch=sched.mini_batch,
            relu_mask=sched.relu_mask,
            layer_reuse_bytes=sched.layer_reuse_bytes,
            word_bytes=word_bytes,
        )

    def _prices(self) -> dict:
        return self._pricer.memo(self.word_bytes, "bytes")

    def _price(self, view, idx: int, eff_sub: int) -> int:
        return self._pricer.walk_bytes(view, idx, self.word_bytes)

    def schedule_cost(self, sched: Schedule) -> int:
        """Exact total of a full schedule via group + boundary components.

        Equals ``compute_traffic(net, sched).total_bytes`` for any
        schedule whose environment matches this model (asserted for
        every zoo network × policy in the test suite; a mismatched
        environment is rejected rather than silently mispriced).
        """
        _check_schedule_env(self, sched)
        total = 0
        for g in sched.groups:
            reuse = sched.branch_reuse_of(g.blocks[0])
            total += self.group_cost(
                g.blocks, g.sub_batch, reuse, g.block_fused
            )
            if g.blocks[-1] < sched.num_blocks - 1:
                total += self.boundary_cost(g.blocks[-1], reuse)
        return total


@dataclass(frozen=True)
class LatencyCostModel(_WalkerCostModel):
    """Simulated-step-time cost model (seconds, not bytes).

    ``group_cost`` prices a candidate group by simulating each member
    block with the exact per-layer contract of
    :func:`repro.wavecore.simulator.simulate_step`: DRAM bytes from the
    traffic walkers, compute cycles from the systolic/vector timing
    model under ``cfg`` (including the weight-double-buffering wave
    overlap), combined as ``max(compute, DRAM)`` per layer.  A block's
    time depends only on the block plus its owning group's facts, so
    per-group sums decompose the step time the same way
    :class:`TrafficCostModel` decomposes bytes; ``boundary_cost`` is
    identically zero because boundary *traffic* is charged to the
    adjacent blocks by the walkers and an off-chip boundary has no
    compute of its own.

    Costs are seconds and comparable only across candidates priced by
    one instance (fixed network, mini-batch, hardware config).
    """

    net: Network
    mini_batch: int
    relu_mask: bool = True
    layer_reuse_bytes: int = 0
    cfg: WaveCoreConfig = DEFAULT_CONFIG
    word_bytes: int = WORD_BYTES
    _pricer: BlockPricer = field(init=False, repr=False, compare=False)

    _zero = 0.0

    @classmethod
    def for_schedule(
        cls, net: Network, sched: Schedule,
        cfg: WaveCoreConfig | None = None,
        word_bytes: int = WORD_BYTES,
    ) -> "LatencyCostModel":
        """Model whose flags match an existing schedule's environment."""
        from repro.wavecore.config import config_for_policy

        return cls(
            net=net,
            mini_batch=sched.mini_batch,
            relu_mask=sched.relu_mask,
            layer_reuse_bytes=sched.layer_reuse_bytes,
            cfg=cfg if cfg is not None else config_for_policy(sched.policy),
            word_bytes=word_bytes,
        )

    def _prices(self) -> dict:
        return self._pricer.memo(self.word_bytes, "seconds")

    def _price(self, view, idx: int, eff_sub: int) -> float:
        return self._pricer.walk_seconds(view, idx, eff_sub, self.word_bytes)

    def schedule_cost(self, sched: Schedule) -> float:
        """Exact simulated step time of a full schedule.

        Equals ``simulate_step(net, sched, cfg).time_s`` bit-for-bit
        (asserted for every zoo network × policy in the test suite);
        per-group ``group_cost`` sums agree up to float association.
        The schedule's environment must match this model's — the walkers
        read it from the schedule here but from the model in
        ``group_cost``, so a mismatch would silently break that
        agreement.
        """
        _check_schedule_env(self, sched)
        return self._pricer.schedule_totals(sched, self.word_bytes).seconds


@dataclass(frozen=True)
class EnergyCostModel(_WalkerCostModel):
    """Simulated-step-energy cost model (joules, not bytes or seconds).

    ``group_cost`` prices a candidate group by composing, per member
    block, the exact traffic walk (DRAM plus global-buffer bytes), the
    exact per-layer WaveCore timing (for the static-power share), and
    the per-access/per-op constants of
    :func:`repro.wavecore.energy.step_energy` — the same composition
    :func:`repro.wavecore.simulator.simulate_step` applies to its
    chip-level totals.  A block's joules depend only on the block plus
    its owning group's facts, so per-group sums decompose the step
    energy the same way :class:`LatencyCostModel` decomposes seconds;
    ``boundary_cost`` is identically zero because boundary traffic is
    charged to the adjacent blocks by the walkers and an off-chip
    boundary consumes no compute or static energy of its own.

    Costs are chip-level joules and comparable only across candidates
    priced by one instance (fixed network, mini-batch, hardware config,
    energy calibration).  The pricer keeps one joules memo per
    ``params``.
    """

    net: Network
    mini_batch: int
    relu_mask: bool = True
    layer_reuse_bytes: int = 0
    cfg: WaveCoreConfig = DEFAULT_CONFIG
    word_bytes: int = WORD_BYTES
    params: EnergyParams = DEFAULT_ENERGY
    _pricer: BlockPricer = field(init=False, repr=False, compare=False)

    _zero = 0.0

    @classmethod
    def for_schedule(
        cls, net: Network, sched: Schedule,
        cfg: WaveCoreConfig | None = None,
        word_bytes: int = WORD_BYTES,
        params: EnergyParams = DEFAULT_ENERGY,
    ) -> "EnergyCostModel":
        """Model whose flags match an existing schedule's environment."""
        from repro.wavecore.config import config_for_policy

        return cls(
            net=net,
            mini_batch=sched.mini_batch,
            relu_mask=sched.relu_mask,
            layer_reuse_bytes=sched.layer_reuse_bytes,
            cfg=cfg if cfg is not None else config_for_policy(sched.policy),
            word_bytes=word_bytes,
            params=params,
        )

    def _prices(self) -> dict:
        return self._pricer.memo(self.word_bytes, self.params)

    def _price(self, view, idx: int, eff_sub: int) -> float:
        return self._pricer.walk_joules(
            view, idx, eff_sub, self.word_bytes, self.params
        )

    def schedule_cost(self, sched: Schedule) -> float:
        """Exact simulated step energy of a full schedule, in joules.

        Equals ``simulate_step(net, sched, cfg).energy.total_j``
        bit-for-bit (asserted for every zoo network × policy in the
        test suite); per-group ``group_cost`` sums agree up to float
        association.  As with the latency model, the schedule's
        environment must match this model's.
        """
        _check_schedule_env(self, sched)
        return self._pricer.schedule_totals(
            sched, self.word_bytes, self.params
        ).energy.total_j


class LexCost:
    """Additive, lexicographically ordered cost value.

    The grouping DPs accumulate costs with ``+`` (starting from the
    float ``0.0`` sentinel) and compare with ``<`` (against the float
    ``inf`` sentinel on first touch), so a composite objective only
    needs a value type closed under those operations.  Addition is
    componentwise; comparison is strict lexicographic — the secondary
    component participates only on *exact* primary ties, which is what
    makes the primary component of the DP's optimum bit-identical to
    what a primary-only DP computes (adding ``0.0`` and comparing
    against ``inf`` never perturb a float).
    """

    __slots__ = ("primary", "secondary")

    def __init__(self, primary: float, secondary: float):
        self.primary = primary
        self.secondary = secondary

    def __add__(self, other):
        if isinstance(other, LexCost):
            return LexCost(
                self.primary + other.primary,
                self.secondary + other.secondary,
            )
        if isinstance(other, (int, float)) and other == 0:
            return self  # the optimizers' 0.0 accumulator seed
        # a nonzero scalar has no lexicographic meaning — refusing it
        # keeps a stray float cost from silently skewing either axis
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, LexCost):
            return LexCost(
                self.primary - other.primary,
                self.secondary - other.secondary,
            )
        if isinstance(other, (int, float)) and other == 0:
            return self  # outer-edge boundary_cost sentinel (0.0)
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, LexCost):
            if self.primary != other.primary:
                return self.primary > other.primary
            return self.secondary > other.secondary
        if isinstance(other, (int, float)):
            return self.primary > other  # greedy's 0.0 gain threshold
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, LexCost):
            if self.primary != other.primary:
                return self.primary < other.primary
            return self.secondary < other.secondary
        if isinstance(other, (int, float)):
            return self.primary < other  # float("inf") DP sentinel
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, LexCost):
            return (self.primary == other.primary
                    and self.secondary == other.secondary)
        return NotImplemented

    def __hash__(self):
        return hash((self.primary, self.secondary))

    def __repr__(self):
        return f"LexCost({self.primary!r}, {self.secondary!r})"


@dataclass(frozen=True)
class LexicographicCostModel:
    """Composite objective: minimize ``primary``, tie-break on ``secondary``.

    Both sub-models see the identical group/boundary queries and their
    prices ride together in a :class:`LexCost`, so the DP explores the
    exact same search space with the exact same primary arithmetic a
    primary-only run performs — the optimum's primary cost is therefore
    bit-identical to the primary-only optimum's, while among partitions
    achieving it the secondary cost picks the cheapest (the shipped
    ``latency+traffic`` pairing: never slower than ``objective=
    "latency"``, never spending more bytes than it, property-tested
    zoo-wide).  Requires sub-models whose costs decompose identically
    (both charge boundaries to adjacent blocks — true for every
    walker-backed model here).
    """

    primary: CostModel
    secondary: CostModel

    @property
    def relu_mask(self):
        """Environment flag of the composed objective (primary's)."""
        return getattr(self.primary, "relu_mask", None)

    @property
    def layer_reuse_bytes(self):
        """Environment flag of the composed objective (primary's)."""
        return getattr(self.primary, "layer_reuse_bytes", None)

    def group_cost(
        self,
        blocks: Sequence[int],
        sub_batch: int,
        branch_reuse: bool,
        block_fused: Sequence[bool] | None = None,
    ) -> LexCost:
        return LexCost(
            self.primary.group_cost(blocks, sub_batch, branch_reuse,
                                    block_fused),
            self.secondary.group_cost(blocks, sub_batch, branch_reuse,
                                      block_fused),
        )

    def boundary_cost(self, idx: int, branch_reuse: bool) -> LexCost:
        return LexCost(
            self.primary.boundary_cost(idx, branch_reuse),
            self.secondary.boundary_cost(idx, branch_reuse),
        )

    def block_floor(self, idx, subs_reuse, subs_noreuse) -> LexCost | None:
        """Componentwise floor — admissible for lexicographic pruning.

        The DP's early-exit bound compares *primary* components only
        (a strictly larger primary dominates regardless of secondary),
        so a componentwise lower bound is sufficient.  ``None`` when
        either sub-model cannot provide a floor.
        """
        fp = getattr(self.primary, "block_floor", None)
        fs = getattr(self.secondary, "block_floor", None)
        if fp is None or fs is None:
            return None
        p = fp(idx, subs_reuse, subs_noreuse)
        s = fs(idx, subs_reuse, subs_noreuse)
        if p is None or s is None:
            return None
        return LexCost(p, s)

    def schedule_cost(self, sched: Schedule) -> LexCost:
        """Exact (primary, secondary) totals of a full schedule."""
        return LexCost(
            self.primary.schedule_cost(sched),
            self.secondary.schedule_cost(sched),
        )


class MemoizedCostModel:
    """Cross-call (and cross-sweep) memo of whole-*group* prices.

    Wraps any cost model and caches ``group_cost`` keyed on the exact
    facts a group price can depend on: the member blocks, sub-batch,
    provisioning mode, per-member fused flags, and the wrapped model's
    environment flags that the walkers actually read — ``relu_mask``
    always, and only when some member streams layerwise (the only path
    that consults the per-layer reuse budget) the canonicalized budget
    (:func:`~repro.core.traffic.block_reuse_class` per streaming
    member; the raw ``layer_reuse_bytes`` for models the walkers don't
    back).
    The pricer's per-*block* memos already collapse the DP's O(n²)
    probes to O(n) walks; this layer removes the remaining per-group
    view construction and member loop, and — passed a shared ``store``
    — persists prices across the per-buffer model instances of a
    sweep, where adjacent points re-probe mostly identical windows.

    A shared store must only span models that agree on everything *not*
    in the key: network, mini-batch, objective, hardware config modulo
    the buffer budget, word width, and energy calibration.
    ``hits``/``misses`` count store lookups for observability.
    """

    def __init__(self, inner, store: dict | None = None):
        self.inner = inner
        self._store: dict = {} if store is None else store
        self.hits = 0
        self.misses = 0

    def _reuse_tag(self, blocks, fused_t):
        """Canonical budget component of an unfused group's key.

        Per streaming member, the budget's fit-outcome class; falls back
        to the raw budget for models without a walker environment
        (proxy/stub models), where over-keying merely costs sharing.
        """
        inner = self.inner
        env = inner if hasattr(inner, "net") else getattr(
            inner, "primary", None
        )
        lrb = getattr(inner, "layer_reuse_bytes", None)
        if lrb is None or env is None or not hasattr(env, "net"):
            return lrb
        wb = env.word_bytes
        return tuple(
            block_reuse_class(env.net.blocks[b], env.mini_batch, wb, lrb)
            for b, fused in zip(blocks, fused_t) if not fused
        )

    def group_cost(
        self,
        blocks: Sequence[int],
        sub_batch: int,
        branch_reuse: bool,
        block_fused: Sequence[bool] | None = None,
    ):
        if block_fused is None:
            block_fused = tuple(sub_batch > 0 for _ in blocks)
        fused_t = tuple(block_fused)
        key = (
            tuple(blocks), sub_batch, branch_reuse, fused_t,
            getattr(self.inner, "relu_mask", None),
        )
        if not all(fused_t):
            key += (self._reuse_tag(blocks, fused_t),)
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            value = self._store[key] = self.inner.group_cost(
                blocks, sub_batch, branch_reuse, fused_t
            )
        else:
            self.hits += 1
        return value

    def boundary_cost(self, idx: int, branch_reuse: bool):
        return self.inner.boundary_cost(idx, branch_reuse)

    def block_floor(self, idx, subs_reuse, subs_noreuse):
        fn = getattr(self.inner, "block_floor", None)
        return None if fn is None else fn(idx, subs_reuse, subs_noreuse)

    def schedule_cost(self, sched: Schedule):
        return self.inner.schedule_cost(sched)
