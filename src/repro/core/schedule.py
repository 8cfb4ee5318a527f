"""Schedule representation: groups of blocks sharing a sub-batch size."""
from __future__ import annotations

from dataclasses import dataclass

from repro.types import ceil_div


@dataclass(frozen=True)
class GroupPlan:
    """One layer group.

    ``sub_batch == 0`` (with ``fused == False``) denotes conventional
    layer-by-layer streaming of the full mini-batch: every inter-layer
    tensor spills to DRAM.  ``block_fused`` marks blocks whose live set
    actually fits at the group's sub-batch size; an oversized block inside
    a group degrades to layerwise streaming while its neighbours still
    fuse (this only occurs in the IL configuration, where the sub-batch is
    pinned to the full mini-batch).

    ``branch_reuse`` optionally overrides the schedule-wide provisioning
    mode for this group: the adaptive ``mbs-auto`` policy mixes
    MBS2-style (Eq. 1/2) and MBS1-style groups in one schedule.  ``None``
    (the default, and the only value the fixed policies emit) defers to
    :attr:`Schedule.branch_reuse`.
    """

    blocks: tuple[int, ...]
    sub_batch: int
    iterations: int
    block_fused: tuple[bool, ...]
    branch_reuse: bool | None = None

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.block_fused):
            raise ValueError("block_fused must align with blocks")
        if self.blocks != tuple(range(self.blocks[0], self.blocks[-1] + 1)):
            raise ValueError(f"group blocks must be contiguous, got {self.blocks}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")


@dataclass(frozen=True)
class Schedule:
    """A complete training-step schedule for one network.

    ``branch_reuse`` selects Eq. 1 / Eq. 2 provisioning inside modules
    (MBS2); ``relu_mask`` enables the 1-bit ReLU-gradient trick the paper
    applies to all MBS flavours.
    """

    policy: str
    network: str
    mini_batch: int
    buffer_bytes: int
    branch_reuse: bool
    relu_mask: bool
    groups: tuple[GroupPlan, ...]
    #: Budget for per-layer inter-layer reuse inside *unfused* blocks
    #: (the IL mechanism): an edge stays on chip when both adjacent
    #: layers' whole-mini-batch live sets fit within this budget.
    #: 0 disables the mechanism (pure conventional streaming).
    layer_reuse_bytes: int = 0
    #: What the schedule's grouping was optimized for: DRAM ``"traffic"``
    #: (every fixed policy, and mbs-auto's default), simulated step
    #: ``"latency"``, the lexicographic ``"latency+traffic"`` (seconds
    #: first, bytes on exact ties), or simulated step ``"energy"``
    #: (``mbs-repro schedule --objective``; see repro.core.policies).
    objective: str = "traffic"

    def __post_init__(self) -> None:
        covered = [i for g in self.groups for i in g.blocks]
        if covered != list(range(len(covered))):
            raise ValueError(
                f"groups must partition blocks contiguously, got {covered}"
            )

    @property
    def num_blocks(self) -> int:
        # groups partition 0..n-1 in order (checked in __post_init__)
        return self.groups[-1].blocks[-1] + 1 if self.groups else 0

    def group_of_block(self, block_idx: int) -> GroupPlan:
        for g in self.groups:
            if g.blocks[0] <= block_idx <= g.blocks[-1]:
                return g
        raise IndexError(f"block {block_idx} not covered by schedule")

    def block_fused(self, block_idx: int) -> bool:
        g = self.group_of_block(block_idx)
        return g.block_fused[block_idx - g.blocks[0]]

    def branch_reuse_of(self, block_idx: int) -> bool:
        """Provisioning mode governing ``block_idx``: the owning group's
        override when set (mixed-mode ``mbs-auto`` schedules), else the
        schedule-wide :attr:`branch_reuse` flag."""
        g = self.group_of_block(block_idx)
        return self.branch_reuse if g.branch_reuse is None else g.branch_reuse

    def boundary_on_chip(self, block_idx: int) -> bool:
        """True when the tensor between ``block_idx`` and its successor
        stays in the global buffer (same group, both sides fused)."""
        if block_idx < 0 or block_idx >= self.num_blocks - 1:
            return False
        g = self.group_of_block(block_idx)
        if block_idx + 1 > g.blocks[-1]:
            return False  # group boundary
        return self.block_fused(block_idx) and self.block_fused(block_idx + 1)

    def iterations_of_block(self, block_idx: int) -> int:
        return self.group_of_block(block_idx).iterations

    def describe(self) -> str:
        """Human-readable one-line-per-group summary (Fig. 5 style)."""
        objective = (
            "" if self.objective == "traffic"
            else f", objective={self.objective}"
        )
        lines = [
            f"{self.policy} schedule for {self.network}: N={self.mini_batch}, "
            f"buffer={self.buffer_bytes / 2**20:.0f} MiB{objective}"
        ]
        for i, g in enumerate(self.groups, 1):
            fused = "fused" if all(g.block_fused) else (
                "partial" if any(g.block_fused) else "spilled"
            )
            lines.append(
                f"  group{i}: blocks {g.blocks[0]}..{g.blocks[-1]} "
                f"sub-batch={g.sub_batch} iters={g.iterations} [{fused}]"
            )
        return "\n".join(lines)


def make_group(
    block_indices: tuple[int, ...],
    sub_batch: int,
    mini_batch: int,
    feasible: list[int],
    branch_reuse: bool | None = None,
) -> GroupPlan:
    """Construct a group, marking which member blocks actually fit."""
    fused = tuple(
        sub_batch > 0 and feasible[i] >= sub_batch for i in block_indices
    )
    iterations = ceil_div(mini_batch, sub_batch) if sub_batch > 0 else 1
    return GroupPlan(
        blocks=tuple(block_indices),
        sub_batch=sub_batch,
        iterations=iterations,
        block_fused=fused,
        branch_reuse=branch_reuse,
    )
