"""Per-layer timing: systolic GEMMs for conv/FC, vector units for the rest.

The timing contract (Sec. 4.2): local buffers are double-buffered, so a
layer's DRAM transfers overlap its computation — per-layer time is
``max(compute, memory)``.  Layers execute in dependency order, so step
time is the sum of layer times.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.core.traffic import Phase, TrafficRecord, TrafficReport
from repro.graph.blocks import Block
from repro.graph.layers import Conv2D, Layer, LayerKind
from repro.graph.network import Network
from repro.wavecore.config import WaveCoreConfig
from repro.wavecore.gemm import GemmDims, GemmPhase, conv_gemm, fc_gemm
from repro.wavecore.report import LayerTiming
from repro.wavecore.tiling import gemm_cycles

#: Vector-unit passes over the data per layer kind and phase.  Norm layers
#: iterate twice in forward (statistics, then normalize) and several times
#: in backward (reductions plus the gradient expression).
_VECTOR_PASSES = {
    (LayerKind.NORM, Phase.FWD): 2.0,
    (LayerKind.NORM, Phase.BWD): 3.0,
    (LayerKind.ACT, Phase.FWD): 1.0,
    (LayerKind.ACT, Phase.BWD): 1.0,
    (LayerKind.POOL, Phase.FWD): 1.0,
    (LayerKind.POOL, Phase.BWD): 1.0,
    (LayerKind.ADD, Phase.FWD): 2.0,  # reads two operands
    (LayerKind.ADD, Phase.BWD): 1.0,
}


@dataclass(frozen=True)
class LayerCompute:
    cycles: int  # systolic cycles (conv/FC only)
    vector_s: float  # vector-unit time (other kinds)
    macs: int

    @property
    def is_systolic(self) -> bool:
        return self.cycles > 0


def _gemm_phases(phase: Phase, skip_data_grad: bool = False) -> list[GemmPhase]:
    if phase is Phase.FWD:
        return [GemmPhase.FORWARD]
    if skip_data_grad:
        # the first layer of the network never propagates a gradient to
        # the input images
        return [GemmPhase.WEIGHT_GRAD]
    return [GemmPhase.DATA_GRAD, GemmPhase.WEIGHT_GRAD]


def _layer_gemms(
    layer: Layer,
    phase: Phase,
    mini_batch: int,
    sub_batch: int,
    skip_data_grad: bool,
) -> Iterator[tuple[int, GemmDims]]:
    """``(count, dims)`` of each distinct GEMM a systolic layer runs in
    one phase over all sub-batch iterations.

    The iterations have at most two sizes (``sub_batch``, then the
    remainder; ``sub_batch`` 0 is one full-mini-batch pass), counted
    with ``divmod`` rather than enumerated, so the cost is independent
    of ``mini_batch``.
    """
    if sub_batch <= 0:
        sizes = ((mini_batch, 1),)
    else:
        full, rem = divmod(mini_batch, sub_batch)
        sizes = ((sub_batch, full), (rem, 1)) if rem else ((sub_batch, full),)
    gemm = conv_gemm if isinstance(layer, Conv2D) else fc_gemm
    for size, count in sizes:
        for gp in _gemm_phases(phase, skip_data_grad):
            yield count, gemm(layer, size, gp)


def layer_compute(
    layer: Layer,
    phase: Phase,
    mini_batch: int,
    sub_batch: int,
    cfg: WaveCoreConfig,
    skip_data_grad: bool = False,
) -> LayerCompute:
    """Compute cost of one layer in one phase across all sub-batch
    iterations (``sub_batch`` 0 means a single full-mini-batch pass)."""
    if layer.kind in (LayerKind.CONV, LayerKind.FC):
        cycles = 0
        macs = 0
        for count, dims in _layer_gemms(layer, phase, mini_batch, sub_batch,
                                        skip_data_grad):
            t = gemm_cycles(dims, cfg)
            cycles += count * t.cycles
            macs += count * t.macs
        return LayerCompute(cycles=cycles, vector_s=0.0, macs=macs)

    passes = _VECTOR_PASSES.get((layer.kind, phase), 1.0)
    elems = layer.out_shape.elems * mini_batch
    vector_s = passes * elems / (cfg.vector_lanes * cfg.clock_hz)
    return LayerCompute(cycles=0, vector_s=vector_s, macs=0)


def dram_layer_resolver(block: Block) -> Callable[[str], str]:
    """The rule that attributes a traffic record's name to a layer of ``block``.

    Traffic records carry either a real layer name, a ``<layer>.out``
    tensor name, or a block-level name (``<block>.in`` / ``<block>.out`` /
    fork markers).  Block-level forward input traffic executes while the
    first layer streams in; output traffic while the last layer drains —
    and symmetrically in backward.
    """
    layers = block.all_layers()
    names = {l.name for l in layers}
    first = layers[0].name
    last = layers[-1].name

    def resolve(raw: str) -> str:
        if raw in names:
            return raw
        if raw.endswith(".out"):
            return raw[:-4] if raw[:-4] in names else last
        return first  # .in / fork / other block-level markers

    return resolve


def attribute_block_dram(
    block: Block, records: Iterable[TrafficRecord]
) -> dict[tuple[str, Phase], int]:
    """Attribute one block's DRAM traffic records to concrete layers
    (:func:`dram_layer_resolver`)."""
    resolve = dram_layer_resolver(block)
    out: dict[tuple[str, Phase], int] = {}
    for rec in records:
        key = (resolve(rec.layer), rec.phase)
        out[key] = out.get(key, 0) + rec.bytes
    return out


def per_layer_dram(
    net: Network, report: TrafficReport
) -> dict[tuple[str, str, Phase], int]:
    """Attribute a whole step's DRAM traffic records to concrete layers."""
    by_block: dict[str, list[TrafficRecord]] = {}
    for rec in report.records:
        by_block.setdefault(rec.block, []).append(rec)

    unknown = set(by_block) - {b.name for b in net.blocks}
    if unknown:
        # fail loudly: a silently dropped record would under-count DRAM
        # time in every consumer (simulator, latency cost model)
        raise KeyError(
            f"traffic records reference block(s) not in {net.name}: "
            f"{sorted(unknown)}"
        )

    out: dict[tuple[str, str, Phase], int] = {}
    for block in net.blocks:
        attributed = attribute_block_dram(block, by_block.get(block.name, ()))
        for (layer, phase), nbytes in attributed.items():
            out[(block.name, layer, phase)] = nbytes
    return out


def block_compute_profile(
    net: Network,
    idx: int,
    mini_batch: int,
    sub_batch: int,
    cfg: WaveCoreConfig,
) -> tuple[tuple[str, str, Phase, int, int, float], ...]:
    """Buffer-independent compute profile of block ``idx``.

    One row per (layer, phase) in execution order:
    ``(layer_name, kind, phase, systolic_cycles, macs, compute_s)``.
    The profile depends only on ``(net, idx, mini_batch, sub_batch,
    cfg)`` — never on scheduling decisions (boundary placement, reuse,
    ReLU masking) or buffer size — so callers may cache it across DP
    probes and buffer-sweep points.
    """
    block = net.blocks[idx]
    first_layer_name = net.blocks[0].all_layers()[0].name
    rows = []
    for phase in (Phase.FWD, Phase.BWD):
        for layer in block.all_layers():
            comp = layer_compute(
                layer, phase, mini_batch, sub_batch, cfg,
                skip_data_grad=(idx == 0 and layer.name == first_layer_name),
            )
            compute_s = (
                comp.cycles / cfg.clock_hz if comp.is_systolic
                else comp.vector_s
            )
            rows.append((
                layer.name, layer.kind.value, phase,
                comp.cycles, comp.macs, compute_s,
            ))
    return tuple(rows)


def block_layer_timings(
    net: Network,
    idx: int,
    mini_batch: int,
    sub_batch: int,
    cfg: WaveCoreConfig,
    dram_of: Callable[[str, Phase], int],
    unlimited_bandwidth: bool = False,
) -> Iterator[LayerTiming]:
    """Per-layer timing of block ``idx``: both phases, in execution order.

    ``sub_batch`` is the block's *effective* sub-batch (0 when the block
    streams layerwise); ``dram_of(layer_name, phase)`` supplies the DRAM
    bytes attributed to each layer.  This is how the reference
    simulator (:func:`~repro.wavecore.simulator.simulate_step`) combines
    compute and memory time; :class:`~repro.core.steptime.BlockPricer`
    takes the same ``max`` over the same :func:`block_compute_profile`
    rows, and the exactness tests hold the two together.
    """
    block = net.blocks[idx]
    core_bw = cfg.core_bandwidth
    for name, kind, phase, cycles, macs, compute_s in block_compute_profile(
        net, idx, mini_batch, sub_batch, cfg
    ):
        dram = dram_of(name, phase)
        dram_s = 0.0 if unlimited_bandwidth else dram / core_bw
        yield LayerTiming(
            block=block.name,
            layer=name,
            kind=kind,
            phase=phase.value,
            compute_cycles=cycles,
            macs=macs,
            dram_bytes=dram,
            compute_s=compute_s,
            dram_s=dram_s,
        )


def gbuf_bytes_for_layer(
    layer: Layer,
    phase: Phase,
    mini_batch: int,
    sub_batch: int,
    cfg: WaveCoreConfig,
    word_bytes: int = 2,
) -> int:
    """Coarse global-buffer traffic of one layer in one phase.

    For systolic layers: the streamed A operand (im2col-expanded), the B
    panel re-read once per row tile, and the C tile write-back.  For
    vector layers: one read plus one write per pass over the features.
    """
    from repro.types import ceil_div

    if layer.kind in (LayerKind.CONV, LayerKind.FC):
        total = 0
        for count, dims in _layer_gemms(layer, phase, mini_batch, sub_batch,
                                        skip_data_grad=False):
            row_tiles = max(1, ceil_div(dims.gh, cfg.tile_rows))
            a_bytes = dims.gh * dims.k * word_bytes
            b_bytes = row_tiles * dims.k * dims.gw * word_bytes
            c_bytes = dims.gh * dims.gw * word_bytes
            total += count * (a_bytes + b_bytes + c_bytes)
        return total

    passes = _VECTOR_PASSES.get((layer.kind, phase), 1.0)
    return int(2 * passes * layer.out_shape.elems * mini_batch * word_bytes)


def block_gbuf_bytes(
    net: Network,
    idx: int,
    mini_batch: int,
    sub_batch: int,
    cfg: WaveCoreConfig,
    word_bytes: int = 2,
) -> int:
    """Global-buffer traffic of block ``idx`` over both phases.

    A pure integer sum of :func:`gbuf_bytes_for_layer`, independent of
    scheduling decisions and buffer size — cacheable per
    ``(idx, sub_batch)`` like :func:`block_compute_profile`.
    """
    block = net.blocks[idx]
    total = 0
    for phase in (Phase.FWD, Phase.BWD):
        for layer in block.all_layers():
            total += gbuf_bytes_for_layer(
                layer, phase, mini_batch, sub_batch, cfg, word_bytes,
            )
    return total
