"""Per-sample on-chip space requirements (paper Eq. 1 and Eq. 2).

The space a schedule must provision per sample is the worst-case *live
set* while propagating one sample through a block: each layer holds its
input and output, and multi-branch modules additionally retain the shared
block input until every branch has consumed it and the (partial) block
output until the merge completes.

Two provisioning modes:

* ``branch_reuse=True`` — MBS2: the conditional terms of Eq. 1 / Eq. 2 are
  charged, buying inter-branch locality at the cost of a larger footprint.
* ``branch_reuse=False`` — MBS1: branches are scheduled like independent
  chains; shared data is re-fetched from DRAM, so only the plain
  ``input + output`` live set is charged.
"""
from __future__ import annotations

from repro.graph.blocks import Block, Branch, MergeKind
from repro.graph.layers import Layer, LayerKind
from repro.types import WORD_BYTES


def layer_live_bytes(layer: Layer, word_bytes: int = WORD_BYTES) -> int:
    """Live set of one layer, per sample.

    Activations run in place (output overwrites input); everything else
    holds input and output simultaneously.
    """
    if layer.kind is LayerKind.ACT:
        return layer.in_shape.bytes(word_bytes)
    return layer.in_shape.bytes(word_bytes) + layer.out_shape.bytes(word_bytes)


def _branch_candidates(
    branch: Branch,
    held_in: int,
    held_out: int,
    word_bytes: int,
) -> list[int]:
    """Candidates for one (possibly forked) branch.

    ``held_in`` is retained external input (excluded at the first layer,
    where it is the layer's own input); ``held_out`` is the reserved block
    output, excluded at the final leaf layer which streams into it.
    """
    cands: list[int] = []
    layers = branch.layers
    for i, layer in enumerate(layers):
        extra = (held_in if i > 0 else 0) + held_out
        is_final_leaf = not branch.children and i == len(layers) - 1
        if is_final_leaf:
            extra -= held_out
        cands.append(layer_live_bytes(layer, word_bytes) + extra)
    if branch.children:
        for child in branch.children:
            cands.extend(
                _branch_candidates(
                    child,
                    held_in=held_in,  # parent tail handled via child first-layer input
                    held_out=held_out,
                    word_bytes=word_bytes,
                )
            )
    return cands


def _module_space(block: Block, word_bytes: int) -> int:
    """Eq. 1 (ADD merges) / Eq. 2 (CONCAT merges) with tree branches."""
    block_in = block.in_shape.bytes(word_bytes)
    merged = block.merged_shape.bytes(word_bytes)
    branches = block.branches
    n = len(branches)
    cands: list[int] = []

    for b, branch in enumerate(branches):
        if branch.is_identity:
            continue
        if block.merge is MergeKind.ADD:
            # Eq. 1: retain block input while earlier branches run (so
            # later ones can consume it) and the accumulating merge output
            # once any branch has completed.
            held_in = block_in if b < n - 1 else 0
            held_out = merged if b > 0 else 0
        else:
            # Eq. 2: retain block input until the last branch consumes it
            # and reserve the concatenated output throughout.
            held_in = block_in if b < n - 1 else 0
            held_out = merged
        cands.extend(
            _branch_candidates(branch, held_in=held_in, held_out=held_out,
                               word_bytes=word_bytes)
        )
        # Forked tails additionally retain the fork-point tensor while
        # sibling children execute.
        if branch.children:
            tail = branch.tail_shape(block.in_shape).bytes(word_bytes)
            for c, child in enumerate(branch.children[:-1]):
                extra = tail
                cands.extend(
                    c2 + extra
                    for c2 in _branch_candidates(
                        child, held_in=held_in, held_out=held_out,
                        word_bytes=word_bytes)
                )

    if block.merge is MergeKind.ADD:
        # The merge itself holds every leaf simultaneously (result is
        # accumulated in place into the first leaf).
        leaf_total = 0
        for branch in branches:
            for shape in branch.leaf_shapes(block.in_shape):
                leaf_total += shape.bytes(word_bytes)
        cands.append(leaf_total)

    for layer in block.post_merge:
        cands.append(layer_live_bytes(layer, word_bytes))

    return max(cands) if cands else block_in


def block_space_per_sample(
    block: Block, branch_reuse: bool = True, word_bytes: int = WORD_BYTES
) -> int:
    """Bytes per sample a schedule must provision to fuse this block.

    For single-chain blocks the two modes agree: the worst layer live set.
    For modules, ``branch_reuse=True`` applies Eq. 1 / Eq. 2.

    The result is a pure function of the (immutable) block and the two
    flags — and buffer sweeps recompute it per point — so it is cached
    on the block instance (same pattern as the structural caches in
    :mod:`repro.graph.blocks`).
    """
    cache = block.__dict__.setdefault("_space_cache", {})
    key = (branch_reuse, word_bytes)
    got = cache.get(key)
    if got is None:
        if not block.is_module or not branch_reuse:
            cands = [layer_live_bytes(l, word_bytes) for l in block.all_layers()]
            got = max(cands) if cands else block.in_shape.bytes(word_bytes)
        else:
            got = _module_space(block, word_bytes)
        cache[key] = got
    return got
