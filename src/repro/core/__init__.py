"""MBS scheduler: the paper's primary contribution.

Pipeline: per-block per-sample space (Eq. 1 / Eq. 2) → feasible sub-batch
sizes → layer grouping (greedy merge or exhaustive DP) → schedule →
DRAM/global-buffer traffic accounting.
"""
from repro.core.cost import (
    CostModel,
    LatencyCostModel,
    ProxyCostModel,
    TrafficCostModel,
)
from repro.core.footprint import block_space_per_sample
from repro.core.grouping import (
    adaptive_grouping,
    exhaustive_grouping,
    greedy_grouping,
    initial_grouping,
    split_segments,
)
from repro.core.policies import OBJECTIVES, POLICIES, make_schedule
from repro.core.schedule import GroupPlan, Schedule
from repro.core.subbatch import feasible_sub_batch, iteration_count
from repro.core.traffic import TrafficReport, compute_traffic

__all__ = [
    "CostModel",
    "GroupPlan",
    "LatencyCostModel",
    "OBJECTIVES",
    "POLICIES",
    "ProxyCostModel",
    "Schedule",
    "TrafficCostModel",
    "TrafficReport",
    "adaptive_grouping",
    "block_space_per_sample",
    "compute_traffic",
    "exhaustive_grouping",
    "feasible_sub_batch",
    "greedy_grouping",
    "initial_grouping",
    "iteration_count",
    "make_schedule",
    "split_segments",
]
