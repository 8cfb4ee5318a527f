"""DRAM traffic accounting for a scheduled training step (Fig. 10c's engine).

The model walks the network once per phase and emits byte-level records
per (block, layer, category).  Semantics follow Sec. 2/3 of the paper:

* **Fused blocks** (inside an MBS group or a fitting IL region) keep
  inter-layer data in the global buffer.  Data needed by back propagation
  — convolution/FC inputs, normalization inputs, pool indices, ReLU masks
  — is checkpointed to DRAM during the forward pass regardless (Fig. 1b).
* **Unfused blocks** stream every layer's input and output through DRAM,
  normalization layers read their input twice (mean/variance pass plus
  the normalize pass), and convolution backward re-reads the output
  gradient for each of its two GEMMs.
* **Weights** are read once per sub-batch iteration of the owning group;
  weight-gradient partial sums are written every iteration and re-read
  every iteration but the first (Sec. 3, "Data Synchronization").
* **Modules without inter-branch provisioning** (MBS1) re-fetch the
  shared block input per consuming branch, spill pre-merge leaves of
  residual blocks, assemble concatenations in DRAM, and accumulate the
  block-input gradient through DRAM.  With provisioning (MBS2, Eq. 1/2)
  all of that stays on chip.
"""
from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.schedule import Schedule
from repro.graph.blocks import Block, MergeKind
from repro.graph.layers import Layer, LayerKind
from repro.graph.network import Network
from repro.types import POOL_INDEX_BYTES, RELU_MASK_BITS, WORD_BYTES

#: Layer kinds whose *input values* are needed again during back propagation.
_CHECKPOINT_CONSUMERS = (LayerKind.CONV, LayerKind.FC, LayerKind.NORM)


class Phase(enum.Enum):
    FWD = "forward"
    BWD = "backward"


class Category(enum.Enum):
    FEAT_RD = "feature_read"
    FEAT_WR = "feature_write"
    WEIGHT_RD = "weight_read"
    WGRAD_WR = "wgrad_write"
    WGRAD_RD = "wgrad_read"
    CHK_WR = "checkpoint_write"
    CHK_RD = "checkpoint_read"
    GRAD_RD = "grad_read"
    GRAD_WR = "grad_write"
    MASK_WR = "mask_write"
    MASK_RD = "mask_read"
    PARAM = "norm_param"


@dataclass(frozen=True)
class TrafficRecord:
    block: str
    layer: str
    kind: str
    phase: Phase
    category: Category
    bytes: int


@dataclass
class TrafficReport:
    """Aggregated DRAM traffic for one training step."""

    records: list[TrafficRecord] = field(default_factory=list)

    def add(
        self,
        block: str,
        layer: str,
        kind: LayerKind | str,
        phase: Phase,
        category: Category,
        nbytes: int,
    ) -> None:
        if nbytes <= 0:
            return
        kind_str = kind.value if isinstance(kind, LayerKind) else str(kind)
        self.records.append(
            TrafficRecord(block, layer, kind_str, phase, category, int(nbytes))
        )

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.records)

    def bytes_by(self, key) -> dict:
        out: dict = {}
        for r in self.records:
            k = key(r)
            out[k] = out.get(k, 0) + r.bytes
        return out

    def by_category(self) -> dict[Category, int]:
        return self.bytes_by(lambda r: r.category)

    def by_phase(self) -> dict[Phase, int]:
        return self.bytes_by(lambda r: r.phase)

    def by_kind(self) -> dict[str, int]:
        return self.bytes_by(lambda r: r.kind)

    def by_block(self) -> dict[str, int]:
        return self.bytes_by(lambda r: r.block)

    def reads(self) -> int:
        rd = (Category.FEAT_RD, Category.WEIGHT_RD, Category.WGRAD_RD,
              Category.CHK_RD, Category.GRAD_RD, Category.MASK_RD,
              Category.PARAM)
        return sum(r.bytes for r in self.records if r.category in rd)

    def writes(self) -> int:
        return self.total_bytes - self.reads()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _chains(block: Block) -> list[tuple[list[Layer], str, int]]:
    """Flatten a block into (layers, input_source, branch_index) chains.

    ``input_source`` is ``"block_in"`` for branch stems and ``"fork:<i>"``
    for child chains hanging off branch *i*'s tail.
    """
    out: list[tuple[list[Layer], str, int]] = []
    for bi, branch in enumerate(block.branches):
        out.append((list(branch.layers), "block_in", bi))
        for child in branch.children:
            out.append((list(child.walk()), f"fork:{bi}", bi))
    return out


def _block_in_consumers(block: Block) -> int:
    """Number of distinct consumers of the block input tensor.

    Every branch consumes it: non-identity branches at their first layer,
    identity branches at the merge point.
    """
    return len(block.branches) if block.is_module else 1


def _mask_bytes(layer: Layer, n: int) -> int:
    return (layer.out_shape.elems * n * RELU_MASK_BITS + 7) // 8


def _nonidentity_leaves(block: Block, word_bytes: int = WORD_BYTES) -> list[int]:
    """Per-sample byte sizes of non-identity branch leaf tensors."""
    out = []
    for branch in block.branches:
        if branch.is_identity:
            continue
        for shape in branch.leaf_shapes(block.in_shape):
            out.append(shape.bytes(word_bytes))
    return out


def _next_block_checkpoints(net: Network, idx: int) -> bool:
    """True when block ``idx``'s output is needed during back propagation
    (i.e. some first layer of the next block is a conv/FC/norm)."""
    if idx + 1 >= len(net.blocks):
        return False
    nxt = net.blocks[idx + 1]
    for branch in nxt.branches:
        layers = branch.layers or tuple(
            l for c in branch.children for l in c.layers[:1]
        )
        if layers and layers[0].kind in _CHECKPOINT_CONSUMERS:
            return True
        if branch.is_identity and nxt.merge is not None:
            continue
    return False


# ----------------------------------------------------------------------
# fused block accounting
# ----------------------------------------------------------------------

def _fwd_fused(
    rep: TrafficReport,
    net: Network,
    sched: Schedule,
    idx: int,
    wb: int,
) -> None:
    block = net.blocks[idx]
    n = sched.mini_batch
    iters = sched.iterations_of_block(idx)
    in_on_chip = sched.boundary_on_chip(idx - 1)
    out_on_chip = sched.boundary_on_chip(idx)
    branch_reuse = sched.branch_reuse_of(idx)
    concat_spill = block.merge is MergeKind.CONCAT and not branch_reuse

    in_bytes = block.in_shape.bytes(wb) * n
    out_bytes = block.out_shape.bytes(wb) * n

    # --- block input reads -------------------------------------------
    reads = 0 if in_on_chip else 1
    if block.is_module and not branch_reuse:
        reads += _block_in_consumers(block) - 1
    rep.add(block.name, f"{block.name}.in", "feature", Phase.FWD,
            Category.FEAT_RD, reads * in_bytes)

    # --- per-layer walk ------------------------------------------------
    for layers, src, bi in _chains(block):
        for i, layer in enumerate(layers):
            if layer.kind in (LayerKind.CONV, LayerKind.FC):
                rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                        Category.WEIGHT_RD, iters * layer.param_bytes(wb))
            elif layer.kind is LayerKind.NORM:
                rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                        Category.PARAM, iters * layer.param_bytes(wb))
            elif layer.kind is LayerKind.ACT and sched.relu_mask:
                rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                        Category.MASK_WR, _mask_bytes(layer, n))
            elif layer.kind is LayerKind.POOL:
                from repro.graph.layers import Pool, PoolKind
                if isinstance(layer, Pool) and layer.pool is PoolKind.MAX:
                    rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                            Category.MASK_WR,
                            layer.out_shape.elems * n * POOL_INDEX_BYTES)
            # checkpoint intra-block edges consumed by conv/fc/norm
            if i > 0 and layer.kind in _CHECKPOINT_CONSUMERS:
                rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                        Category.CHK_WR, layer.in_shape.bytes(wb) * n)

    # fork tails: checkpoint once if any child starts with a consumer;
    # without branch provisioning, later children re-read the tail.
    for bi, branch in enumerate(block.branches):
        if not branch.children:
            continue
        tail = branch.tail_shape(block.in_shape).bytes(wb) * n
        first_kinds = [c.layers[0].kind for c in branch.children if c.layers]
        if any(k in _CHECKPOINT_CONSUMERS for k in first_kinds):
            rep.add(block.name, f"{block.name}.b{bi}.fork", "feature",
                    Phase.FWD, Category.CHK_WR, tail)
        if not branch_reuse and len(branch.children) > 1:
            rep.add(block.name, f"{block.name}.b{bi}.fork", "feature",
                    Phase.FWD, Category.FEAT_RD,
                    (len(branch.children) - 1) * tail)

    # --- merge ---------------------------------------------------------
    if block.merge is MergeKind.ADD and not branch_reuse:
        for leaf_bytes in _nonidentity_leaves(block, wb):
            rep.add(block.name, f"{block.name}.add", LayerKind.ADD, Phase.FWD,
                    Category.FEAT_WR, leaf_bytes * n)
            rep.add(block.name, f"{block.name}.add", LayerKind.ADD, Phase.FWD,
                    Category.FEAT_RD, leaf_bytes * n)

    # --- block output --------------------------------------------------
    needs_chk = _next_block_checkpoints(net, idx) or idx == len(net.blocks) - 1
    if concat_spill:
        # leaves assemble the concatenated output directly in DRAM
        rep.add(block.name, f"{block.name}.out", "feature", Phase.FWD,
                Category.CHK_WR, out_bytes)
    elif needs_chk:
        rep.add(block.name, f"{block.name}.out", "feature", Phase.FWD,
                Category.CHK_WR, out_bytes)
    elif not out_on_chip:
        rep.add(block.name, f"{block.name}.out", "feature", Phase.FWD,
                Category.FEAT_WR, out_bytes)


def _bwd_fused(
    rep: TrafficReport,
    net: Network,
    sched: Schedule,
    idx: int,
    wb: int,
) -> None:
    block = net.blocks[idx]
    n = sched.mini_batch
    iters = sched.iterations_of_block(idx)
    in_on_chip = sched.boundary_on_chip(idx - 1)
    out_on_chip = sched.boundary_on_chip(idx)
    branch_reuse = sched.branch_reuse_of(idx)
    concat_spill = block.merge is MergeKind.CONCAT and not branch_reuse
    last_block = idx == len(net.blocks) - 1

    in_bytes = block.in_shape.bytes(wb) * n
    out_bytes = block.out_shape.bytes(wb) * n

    # --- incoming output gradient --------------------------------------
    if not last_block and (not out_on_chip or concat_spill):
        rep.add(block.name, f"{block.name}.out", "feature", Phase.BWD,
                Category.GRAD_RD, out_bytes)

    # --- per-layer walk -------------------------------------------------
    for layers, src, bi in _chains(block):
        for i, layer in enumerate(layers):
            p = layer.param_bytes(wb)
            if layer.kind in (LayerKind.CONV, LayerKind.FC):
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.WEIGHT_RD, iters * p)
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.WGRAD_WR, iters * p)
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.WGRAD_RD, (iters - 1) * p)
                if i > 0:  # intra-block input values from checkpoint
                    rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                            Category.CHK_RD, layer.in_shape.bytes(wb) * n)
            elif layer.kind is LayerKind.NORM:
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.PARAM, (3 * iters - 1) * p)
                if i > 0:
                    rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                            Category.CHK_RD, layer.in_shape.bytes(wb) * n)
            elif layer.kind is LayerKind.ACT:
                if sched.relu_mask:
                    rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                            Category.MASK_RD, _mask_bytes(layer, n))
                # without the mask trick the activation value read is
                # shared on chip with the consumer conv's checkpoint read
                # except at an off-chip boundary, handled below.
            elif layer.kind is LayerKind.POOL:
                from repro.graph.layers import Pool, PoolKind
                if isinstance(layer, Pool) and layer.pool is PoolKind.MAX:
                    rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                            Category.MASK_RD,
                            layer.out_shape.elems * n * POOL_INDEX_BYTES)

    # post-merge activation at an off-chip boundary without mask trick
    if not sched.relu_mask and not out_on_chip and not last_block:
        tail = block.post_merge[-1] if block.post_merge else None
        layers = block.branches[-1].layers
        last_layer = tail or (layers[-1] if layers else None)
        if last_layer is not None and last_layer.kind is LayerKind.ACT:
            rep.add(block.name, last_layer.name, last_layer.kind, Phase.BWD,
                    Category.CHK_RD, last_layer.out_shape.bytes(wb) * n)

    # --- block input values for weight/norm gradients --------------------
    consumers = 0
    for branch in block.branches:
        first = branch.layers[0] if branch.layers else None
        if first is not None and first.kind in _CHECKPOINT_CONSUMERS:
            consumers += 1
    if consumers:
        count = 1 if (branch_reuse or not block.is_module) else consumers
        rep.add(block.name, f"{block.name}.in", "feature", Phase.BWD,
                Category.CHK_RD, count * in_bytes)
    # fork tails re-read per consuming child without provisioning
    for bi, branch in enumerate(block.branches):
        if not branch.children:
            continue
        tail = branch.tail_shape(block.in_shape).bytes(wb) * n
        kids = sum(
            1 for c in branch.children
            if c.layers and c.layers[0].kind in _CHECKPOINT_CONSUMERS
        )
        if kids:
            count = 1 if branch_reuse else kids
            rep.add(block.name, f"{block.name}.b{bi}.fork", "feature",
                    Phase.BWD, Category.CHK_RD, count * tail)
        if not branch_reuse and len(branch.children) > 1:
            # child gradients accumulate into the tail gradient via DRAM
            rep.add(block.name, f"{block.name}.b{bi}.fork", "feature",
                    Phase.BWD, Category.GRAD_WR,
                    (len(branch.children) - 1) * tail)
            rep.add(block.name, f"{block.name}.b{bi}.fork", "feature",
                    Phase.BWD, Category.GRAD_RD,
                    (len(branch.children) - 1) * tail)

    # --- input gradient --------------------------------------------------
    if idx > 0:
        producers = len(block.branches)
        writes = 0 if in_on_chip else 1
        extra = producers - 1 if (block.is_module and not branch_reuse) else 0
        rep.add(block.name, f"{block.name}.in", "feature", Phase.BWD,
                Category.GRAD_WR, (writes + extra) * in_bytes)
        rep.add(block.name, f"{block.name}.in", "feature", Phase.BWD,
                Category.GRAD_RD, extra * in_bytes)


# ----------------------------------------------------------------------
# unfused (conventional layer-by-layer) block accounting
# ----------------------------------------------------------------------

@dataclass
class _Tensor:
    """One inter-layer tensor inside a block: producer → consumers.

    ``producer is None`` marks the block input; a ``None`` entry in
    ``consumers`` marks the block output.
    """

    name: str
    producer: Layer | None
    consumers: list[Layer | None]
    bytes_per_sample: int


def _block_tensors(block: Block, wb: int) -> list[_Tensor]:
    """Dataflow tensors of one block (used by the layerwise walkers)."""
    tensors: list[_Tensor] = []
    merge = block.merge_layer  # EltwiseAdd for ADD merges, else None
    is_concat = block.merge is MergeKind.CONCAT

    block_in = _Tensor(
        name=f"{block.name}.in",
        producer=None,
        consumers=[],
        bytes_per_sample=block.in_shape.bytes(wb),
    )
    tensors.append(block_in)

    def leaf_consumer() -> Layer | None:
        """What consumes a branch leaf: the ADD layer, or the block output
        (CONCAT assembles leaves directly into the output tensor)."""
        return merge if merge is not None else None

    def walk_chain(layers: list[Layer], producer_tensor: _Tensor,
                   last_consumer: Layer | None) -> None:
        if not layers:
            producer_tensor.consumers.append(last_consumer)
            return
        producer_tensor.consumers.append(layers[0])
        for i, layer in enumerate(layers):
            t = _Tensor(
                name=f"{layer.name}.out",
                producer=layer,
                consumers=[],
                bytes_per_sample=layer.out_shape.bytes(wb),
            )
            tensors.append(t)
            if i + 1 < len(layers):
                t.consumers.append(layers[i + 1])
            else:
                t.consumers.append(last_consumer)

    for branch in block.branches:
        if branch.is_identity:
            block_in.consumers.append(leaf_consumer())
            continue
        if not branch.children:
            walk_chain(list(branch.layers), block_in, leaf_consumer())
            continue
        # chain up to the fork, then one chain per child off the tail
        walk_chain(list(branch.layers), block_in, None)
        tail_tensor = tensors[-1]
        tail_tensor.consumers = []  # replaced by the children
        for child in branch.children:
            walk_chain(child.walk(), tail_tensor, leaf_consumer())

    if merge is not None:
        merged = _Tensor(
            name=f"{merge.name}.out",
            producer=merge,
            consumers=[],
            bytes_per_sample=merge.out_shape.bytes(wb),
        )
        tensors.append(merged)
        walk_chain(list(block.post_merge), merged, None)
    elif block.post_merge:
        raise NotImplementedError(
            f"{block.name}: CONCAT merges followed by post-merge layers are "
            "not modeled (no evaluated network uses this shape)"
        )

    return tensors


def _fits(layer: Layer | None, n: int, wb: int, budget: int) -> bool:
    """IL predicate: a layer's whole-mini-batch live set fits on chip."""
    if layer is None or budget <= 0:
        return False
    live = (layer.in_shape.bytes(wb) + layer.out_shape.bytes(wb)) * n
    return live <= budget


def block_reuse_class(
    block: Block, mini_batch: int, word_bytes: int, budget: int
) -> int:
    """Canonical equivalence class of the reuse budget for one block.

    The layerwise (unfused) walkers consult ``layer_reuse_bytes`` only
    through :func:`_fits`, whose outcome per queried layer is
    ``(in + out) * n <= budget`` — never conditioned on another fit —
    so two budgets falling between the same adjacent per-layer live
    sizes produce bit-identical walks.  Returns how many of the block's
    distinct live sizes fit (the budget's rank on the block's live-size
    ladder), which pricing memo keys use in place of the raw budget so
    a buffer sweep re-walks a streaming block only when a fit outcome
    actually flips.
    """
    cache = block.__dict__.setdefault("_live_sizes", {})
    key = (mini_batch, word_bytes)
    sizes = cache.get(key)
    if sizes is None:
        sizes = cache[key] = tuple(sorted({
            (l.in_shape.bytes(word_bytes) + l.out_shape.bytes(word_bytes))
            * mini_batch
            for l in block.all_layers()
        }))
    return bisect_right(sizes, budget)


def _needed_in_bwd(t: _Tensor, relu_mask: bool) -> bool:
    """Must this tensor have a DRAM copy for back propagation?"""
    if any(c is not None and c.kind in _CHECKPOINT_CONSUMERS
           for c in t.consumers):
        return True
    if t.producer is not None and t.producer.kind is LayerKind.ACT:
        return not relu_mask  # ReLU gradient needs the value without a mask
    return False


def _fwd_unfused(
    rep: TrafficReport,
    net: Network,
    sched: Schedule,
    idx: int,
    wb: int,
) -> None:
    from repro.graph.layers import Pool, PoolKind

    block = net.blocks[idx]
    n = sched.mini_batch
    iters = sched.iterations_of_block(idx)
    budget = sched.layer_reuse_bytes

    # per-layer non-dataflow traffic (weights, masks, params)
    for layer in block.all_layers():
        if layer.kind in (LayerKind.CONV, LayerKind.FC):
            rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                    Category.WEIGHT_RD, iters * layer.param_bytes(wb))
        elif layer.kind is LayerKind.NORM:
            rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                    Category.PARAM, iters * layer.param_bytes(wb))
        elif layer.kind is LayerKind.ACT and sched.relu_mask:
            rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                    Category.MASK_WR, _mask_bytes(layer, n))
        elif isinstance(layer, Pool) and layer.pool is PoolKind.MAX:
            rep.add(block.name, layer.name, layer.kind, Phase.FWD,
                    Category.MASK_WR,
                    layer.out_shape.elems * n * POOL_INDEX_BYTES)

    # dataflow traffic per tensor
    for t in _block_tensors(block, wb):
        nbytes = t.bytes_per_sample * n
        kind = t.producer.kind if t.producer is not None else "feature"
        layer_name = t.name
        edge_on = {
            id(c): _fits(t.producer, n, wb, budget) and _fits(c, n, wb, budget)
            for c in t.consumers if c is not None
        }
        # reads by consumers
        for c in t.consumers:
            if c is None:
                continue
            if edge_on[id(c)]:
                continue
            factor = 2 if c.kind is LayerKind.NORM else 1
            rep.add(block.name, layer_name, kind, Phase.FWD,
                    Category.FEAT_RD, factor * nbytes)
        # write by producer
        if t.producer is None:
            continue  # block input already resides in DRAM
        off_chip_consumer = any(
            c is None or not edge_on[id(c)] for c in t.consumers
        )
        if off_chip_consumer:
            rep.add(block.name, layer_name, kind, Phase.FWD,
                    Category.FEAT_WR, nbytes)
        elif _needed_in_bwd(t, sched.relu_mask):
            rep.add(block.name, layer_name, kind, Phase.FWD,
                    Category.CHK_WR, nbytes)


def _bwd_unfused(
    rep: TrafficReport,
    net: Network,
    sched: Schedule,
    idx: int,
    wb: int,
) -> None:
    from repro.graph.layers import Pool, PoolKind

    block = net.blocks[idx]
    n = sched.mini_batch
    iters = sched.iterations_of_block(idx)
    budget = sched.layer_reuse_bytes
    first_overall = idx == 0

    # per-layer operand traffic
    for layer in block.all_layers():
        in_b = layer.in_shape.bytes(wb) * n
        out_b = layer.out_shape.bytes(wb) * n
        p = layer.param_bytes(wb)
        held = _fits(layer, n, wb, budget)
        if layer.kind in (LayerKind.CONV, LayerKind.FC):
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.WEIGHT_RD, iters * p)
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.WGRAD_WR, iters * p)
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.WGRAD_RD, (iters - 1) * p)
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.CHK_RD, in_b)
            if not held:
                # output gradient re-read by the second backward GEMM
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.GRAD_RD, out_b)
        elif layer.kind is LayerKind.NORM:
            factor = 1 if held else 2
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.CHK_RD, factor * in_b)
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.PARAM, (3 * iters - 1) * p)
        elif layer.kind is LayerKind.ACT:
            if sched.relu_mask:
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.MASK_RD, _mask_bytes(layer, n))
            else:
                rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                        Category.CHK_RD, out_b)
        elif isinstance(layer, Pool) and layer.pool is PoolKind.MAX:
            rep.add(block.name, layer.name, layer.kind, Phase.BWD,
                    Category.MASK_RD,
                    layer.out_shape.elems * n * POOL_INDEX_BYTES)

    # gradient dataflow per tensor (reverse of the forward edges)
    for t in _block_tensors(block, wb):
        nbytes = t.bytes_per_sample * n
        kind = t.producer.kind if t.producer is not None else "feature"
        if t.producer is None and first_overall:
            continue  # no gradient for the input images
        layer_consumers = [c for c in t.consumers if c is not None]
        all_on_chip = (
            t.producer is not None
            and len(layer_consumers) == len(t.consumers)
            and _fits(t.producer, n, wb, budget)
            and all(_fits(c, n, wb, budget) for c in layer_consumers)
        )
        if all_on_chip:
            continue
        k = max(len(t.consumers), 1)
        # Each *local* consumer's backward emits a (partial) gradient; a
        # ``None`` consumer's partial is written by the next block (charged
        # there).  Partials are accumulated (k-1 re-reads) and the
        # producer's backward reads the final gradient once.
        writes = len(layer_consumers)
        reads = (k - 1) + (1 if t.producer is not None else 0)
        rep.add(block.name, t.name, kind, Phase.BWD, Category.GRAD_WR,
                writes * nbytes)
        rep.add(block.name, t.name, kind, Phase.BWD, Category.GRAD_RD,
                reads * nbytes)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def walk_block_traffic(
    rep,
    net: Network,
    sched,
    idx: int,
    word_bytes: int = WORD_BYTES,
) -> None:
    """Run both phase walkers for block ``idx`` into ``rep``.

    ``rep`` is any object with a ``TrafficReport.add``-compatible
    method; ``sched`` any object exposing the Schedule query surface
    (``mini_batch``, ``relu_mask``, ``layer_reuse_bytes``,
    ``iterations_of_block``, ``block_fused``, ``boundary_on_chip``,
    ``branch_reuse_of``) — the cost model in :mod:`repro.core.cost`
    passes a single-group view so the grouping optimizer prices
    candidates with *exactly* these walkers.
    """
    if sched.block_fused(idx):
        _fwd_fused(rep, net, sched, idx, word_bytes)
        _bwd_fused(rep, net, sched, idx, word_bytes)
    else:
        _fwd_unfused(rep, net, sched, idx, word_bytes)
        _bwd_unfused(rep, net, sched, idx, word_bytes)


def compute_traffic(
    net: Network,
    sched: Schedule,
    word_bytes: int = WORD_BYTES,
) -> TrafficReport:
    """Total DRAM traffic of one training step under ``sched``, with
    ``word_bytes`` per tensor element (weights, features, gradients)."""
    if sched.num_blocks != len(net.blocks):
        raise ValueError(
            f"schedule covers {sched.num_blocks} blocks, network has "
            f"{len(net.blocks)}"
        )
    rep = TrafficReport()
    for idx in range(len(net.blocks)):
        if sched.block_fused(idx):
            _fwd_fused(rep, net, sched, idx, word_bytes)
        else:
            _fwd_unfused(rep, net, sched, idx, word_bytes)
    for idx in reversed(range(len(net.blocks))):
        if sched.block_fused(idx):
            _bwd_fused(rep, net, sched, idx, word_bytes)
        else:
            _bwd_unfused(rep, net, sched, idx, word_bytes)
    return rep
