"""CNN graph intermediate representation.

The IR is deliberately structured the way the MBS paper reasons about
networks: a network is a *sequence of blocks*; a block is either a single
layer or a multi-branch module (residual or inception style) whose
branches are trees of layers.  Blocks are the atoms the scheduler
manipulates ("MBS essentially treats such a block as a layer", Sec. 3).
"""
from repro.graph.layers import (
    Activation,
    Conv2D,
    EltwiseAdd,
    FullyConnected,
    Layer,
    Norm,
    Pool,
)
from repro.graph.blocks import Block, Branch, MergeKind
from repro.graph.network import Network
from repro.graph.serialize import (
    GraphSchemaError,
    dumps_network,
    loads_network,
    network_fingerprint,
)
from repro.graph import stats

__all__ = [
    "Activation",
    "Block",
    "Branch",
    "Conv2D",
    "EltwiseAdd",
    "FullyConnected",
    "GraphSchemaError",
    "Layer",
    "MergeKind",
    "Network",
    "Norm",
    "Pool",
    "dumps_network",
    "loads_network",
    "network_fingerprint",
    "stats",
]
