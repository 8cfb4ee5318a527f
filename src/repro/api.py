"""The supported public API: schedule pricing as a library call.

Everything that prices a schedule — the CLI ``schedule`` /
``sweep-schedule`` subcommands, the ``mbs-repro serve`` HTTP server,
and direct Python callers — goes through this facade, so all three
surfaces return **bit-identical** costs by construction (one code
path).  A finished schedule is priced by summing the per-block records
:class:`~repro.core.steptime.BlockPricer` memoizes on the network, so
a buffer sweep walks each distinct block situation once instead of
every block of every point; ``tests/test_api_facade.py`` asserts the
sums equal :func:`~repro.core.traffic.compute_traffic` and
:func:`~repro.wavecore.simulator.simulate_step` bit for bit.  The
deeper entry points (:func:`repro.core.policies.make_schedule`, the
cost models, the walkers) remain importable but are *not* covered by
the stability promise; this module is.

Quick start::

    from repro import api

    res = api.price("resnet50", "mbs-auto", buffer_bytes=api.MIB,
                    objective="energy")
    print(res.traffic_bytes, res.step_time_s, res.step_energy_j)

``price`` accepts a zoo name, a built
:class:`~repro.graph.network.Network`, or a schema-1 wire dict
(:mod:`repro.graph.serialize`) — the same three spellings the HTTP
request body takes.  :class:`ScheduleRequest` is the wire-level
request (what ``POST /v1/schedule`` carries), :class:`ScheduleResult`
the wire-level response (what ``--json`` prints); both are frozen
dataclasses with explicit ``to_wire``/``from_wire`` codecs.

The facade spells ``make_schedule``'s ``net=`` as ``network=`` and
its ``cfg=`` as ``hardware=``.
"""
from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.policies import (
    DEFAULT_BUFFER_BYTES,
    HARDWARE_OBJECTIVES,
    OBJECTIVES,
    POLICIES,
    SweepCaches,
    make_schedule,
    sweep_schedules,
)
from repro.core.schedule import Schedule
from repro.core.steptime import BlockPricer
from repro.core.traffic import compute_traffic  # noqa: F401 - traced by perfbench
from repro.graph.network import Network
from repro.graph.serialize import (
    GraphSchemaError,
    network_fingerprint,
    network_from_dict,
)
from repro.types import MIB, WORD_BYTES
from repro.wavecore.config import WaveCoreConfig, config_for_policy
from repro.wavecore.simulator import simulate_step  # noqa: F401 - traced by perfbench
from repro.wire import (
    MAX_WIRE_INT,
    SCHEMA_VERSION,
    read_bool,
    read_envelope,
    read_int,
    read_list,
    read_seconds,
    read_str,
)
from repro.zoo import build as build_zoo_network

__all__ = [
    "GroupSummary",
    "LeaseGrant",
    "MIB",
    "ScheduleRequest",
    "ScheduleResult",
    "SweepJobRequest",
    "SweepJobStatus",
    "graph_fingerprint",
    "objectives",
    "policies",
    "price",
    "request_fingerprint",
    "sweep",
]


def policies() -> tuple[str, ...]:
    """All scheduling policies (the paper's Tab. 3 rows + ``mbs-auto``)."""
    return tuple(POLICIES)


def objectives() -> tuple[str, ...]:
    """All objectives the adaptive policy can optimize."""
    return tuple(OBJECTIVES)


# ---------------------------------------------------------------------------
# request / response types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleRequest:
    """One pricing query, in wire-friendly form.

    Exactly one of ``network`` (zoo name) or ``graph`` (schema-1 wire
    dict) names the network.  Defaults mirror
    :func:`~repro.core.policies.make_schedule`.
    """

    network: str | None = None
    graph: Mapping[str, Any] | None = None
    policy: str = "mbs-auto"
    buffer_bytes: int = DEFAULT_BUFFER_BYTES
    mini_batch: int | None = None
    objective: str = "traffic"
    relu_mask: bool | str | None = None
    word_bytes: int = WORD_BYTES

    _WIRE_KEYS = ("network", "graph", "policy", "buffer_bytes",
                  "mini_batch", "objective", "relu_mask", "word_bytes")

    def __post_init__(self) -> None:
        if (self.network is None) == (self.graph is None):
            raise ValueError(
                "exactly one of 'network' (zoo name) or 'graph' "
                "(wire dict) must be given"
            )

    def resolve_network(self) -> Network:
        """Build the named zoo network or decode the inline graph."""
        if self.network is None:
            return network_from_dict(self.graph)
        return _coerce_network(read_str(self.network, "network"))

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            value = getattr(self, key)
            if value is not None:
                wire[key] = dict(value) if key == "graph" else value
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "ScheduleRequest":
        """Decode and validate a request dict (HTTP body / CLI JSON)."""
        req = cls(**read_envelope(wire, "request", cls._WIRE_KEYS))
        req.validate()
        return req

    def validate(self) -> None:
        """Cheap field validation (full graph decoding happens later)."""
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; choose from "
                f"{OBJECTIVES}"
            )
        for name in ("buffer_bytes", "mini_batch", "word_bytes"):
            value = getattr(self, name)
            if name != "mini_batch" or value is not None:
                read_int(value, name, maximum=MAX_WIRE_INT)
        if not (self.relu_mask is None or self.relu_mask == "auto"
                or isinstance(self.relu_mask, bool)):
            raise ValueError(
                f"relu_mask must be true, false, or 'auto', got "
                f"{self.relu_mask!r}"
            )


@dataclass(frozen=True)
class GroupSummary:
    """Wire-friendly digest of one :class:`~repro.core.schedule.GroupPlan`."""

    first_block: int
    last_block: int
    sub_batch: int
    iterations: int
    #: "fused" | "partial" | "spilled" — the describe() vocabulary.
    fused: str
    branch_reuse: bool | None = None

    _WIRE_KEYS = ("first_block", "last_block", "sub_batch", "iterations",
                  "fused", "branch_reuse")
    _REQUIRED = _WIRE_KEYS[:-1]  # branch_reuse may be absent


@dataclass(frozen=True)
class ScheduleResult:
    """The priced schedule: what every surface returns.

    ``traffic_bytes`` / ``traffic_by_category`` / ``step_time_s`` /
    ``step_energy_j`` sum the schedule's
    :class:`~repro.core.steptime.BlockPricer` records in the
    simulator's order; ``tests/test_api_facade.py`` asserts they equal
    what ``compute_traffic`` and ``simulate_step`` report for the
    schedule (at ``word_bytes``) bit for bit, key order included.
    ``schedule`` carries the full
    :class:`~repro.core.schedule.Schedule` for Python callers; it is
    not part of the wire encoding (``from_wire`` leaves it ``None``).
    """

    network: str
    policy: str
    objective: str
    buffer_bytes: int
    mini_batch: int
    word_bytes: int
    relu_mask: bool
    branch_reuse: bool
    groups: tuple[GroupSummary, ...]
    traffic_bytes: int
    traffic_by_category: Mapping[str, int]
    step_time_s: float
    step_energy_j: float
    energy_dram_share: float
    degraded: bool = False
    schedule: Schedule | None = field(default=None, compare=False)

    _WIRE_KEYS = ("network", "policy", "objective", "buffer_bytes",
                  "mini_batch", "word_bytes", "relu_mask", "branch_reuse",
                  "groups", "traffic_bytes", "traffic_by_category",
                  "step_time_s", "step_energy_j", "energy_dram_share",
                  "degraded")

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            value = getattr(self, key)
            if key == "groups":
                value = [{k: getattr(g, k) for k in GroupSummary._WIRE_KEYS}
                         for g in value]
            elif key == "traffic_by_category":
                value = dict(value)
            wire[key] = value
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "ScheduleResult":
        kwargs = read_envelope(wire, "result", cls._WIRE_KEYS,
                               required=cls._WIRE_KEYS, strict=False)
        kwargs["groups"] = tuple(
            GroupSummary(**read_envelope(
                g, f"groups[{i}]", GroupSummary._WIRE_KEYS,
                required=GroupSummary._REQUIRED, strict=False))
            for i, g in enumerate(read_list(kwargs["groups"], "groups"))
        )
        kwargs["traffic_by_category"] = dict(kwargs["traffic_by_category"])
        return cls(**kwargs)

    def describe(self) -> str:
        """The human-readable text block the CLI prints."""
        objective = (
            "" if self.objective == "traffic"
            else f", objective={self.objective}"
        )
        lines = [
            f"{self.policy} schedule for {self.network}: "
            f"N={self.mini_batch}, "
            f"buffer={self.buffer_bytes / MIB:.0f} MiB{objective}"
            + (" [degraded]" if self.degraded else "")
        ]
        for i, g in enumerate(self.groups, 1):
            lines.append(
                f"  group{i}: blocks {g.first_block}..{g.last_block} "
                f"sub-batch={g.sub_batch} iters={g.iterations} [{g.fused}]"
            )
        lines.append(
            f"\nDRAM traffic/step: {self.traffic_bytes / 2**30:.2f} GiB"
        )
        for cat, nbytes in sorted(self.traffic_by_category.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {cat:18s} {nbytes / 2**20:10.1f} MiB")
        lines.append(
            f"\nsimulated step time: {self.step_time_s * 1e3:.3f} ms"
        )
        lines.append(
            f"simulated step energy: {self.step_energy_j * 1e3:.3f} mJ "
            f"(DRAM share {self.energy_dram_share * 100:.1f}%)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# sweep-job wire types (the distributed /v1/jobs surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepJobRequest:
    """One queued sweep job, in wire-friendly form.

    What ``POST /v1/jobs`` carries and ``mbs-repro submit-sweep``
    builds: a registered experiment artifact plus the sweep axes to
    grid over.  ``axes=None`` grids the spec's declared default sweep
    axes — exactly what ``mbs-repro sweep <artifact>`` would run, in
    the same deterministic point order.  ``max_attempts`` and
    ``lease_timeout_s`` override the coordinator's defaults for this
    job only; ``None`` inherits them.
    """

    artifact: str
    axes: Mapping[str, Sequence[Any]] | None = None
    quick: bool = False
    max_attempts: int | None = None
    lease_timeout_s: float | None = None

    _WIRE_KEYS = ("artifact", "axes", "quick", "max_attempts",
                  "lease_timeout_s")

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            value = getattr(self, key)
            if value is None:
                continue
            if key == "axes":
                value = {k: list(v) for k, v in value.items()}
            wire[key] = value
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "SweepJobRequest":
        """Decode and validate a job submission (HTTP body / CLI JSON)."""
        req = cls(**read_envelope(wire, "job request", cls._WIRE_KEYS,
                                  required=("artifact",)))
        req.validate()
        return req

    def validate(self) -> None:
        """Field validation with path-qualified messages."""
        read_str(self.artifact, "artifact")
        if self.axes is not None:
            if not isinstance(self.axes, Mapping):
                raise ValueError(
                    f"axes: expected an object mapping axis name to a "
                    f"list of values, got {type(self.axes).__name__}"
                )
            for name, values in self.axes.items():
                read_str(name, "axes: axis name")
                if (isinstance(values, (str, bytes))
                        or not isinstance(values, Sequence)
                        or len(values) == 0):
                    raise ValueError(
                        f"axes.{name}: expected a non-empty array of "
                        f"values, got {values!r}"
                    )
        read_bool(self.quick, "quick")
        if self.max_attempts is not None:
            read_int(self.max_attempts, "max_attempts")
        if self.lease_timeout_s is not None:
            read_seconds(self.lease_timeout_s, "lease_timeout_s")

    def describe(self) -> str:
        axes = (
            "its default sweep axes" if self.axes is None
            else " x ".join(
                f"{name}[{len(values)}]"
                for name, values in self.axes.items()
            )
        )
        return (
            f"sweep job: {self.artifact} over {axes}"
            + (" [quick]" if self.quick else "")
        )


@dataclass(frozen=True)
class LeaseGrant:
    """One batch of sweep points granted to a worker.

    What ``POST /v1/lease`` returns: the points (grid index +
    parameter overrides) the worker must compute before the lease
    expires, plus everything it needs to rebuild the tasks locally
    (artifact name, quick flag).  The worker extends the lease by
    heartbeating at least once per ``lease_timeout_s``; a silent
    worker's points are re-queued for someone else.
    """

    job_id: str
    lease_id: str
    worker: str
    artifact: str
    quick: bool
    lease_timeout_s: float
    points: tuple[Mapping[str, Any], ...] = ()

    _WIRE_KEYS = ("job_id", "lease_id", "worker", "artifact", "quick",
                  "lease_timeout_s", "points")

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            value = getattr(self, key)
            if key == "points":
                value = [
                    {"index": p["index"], "overrides": dict(p["overrides"])}
                    for p in value
                ]
            wire[key] = value
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "LeaseGrant":
        kwargs = read_envelope(wire, "lease grant", cls._WIRE_KEYS,
                               required=cls._WIRE_KEYS, strict=False)
        decoded = []
        for i, p in enumerate(read_list(kwargs["points"], "points")):
            p = read_envelope(p, f"points[{i}]", ("index", "overrides"),
                              required=("index", "overrides"), strict=False)
            index = read_int(p["index"], f"points[{i}].index", minimum=0)
            overrides = p["overrides"]
            if not isinstance(overrides, Mapping):
                raise ValueError(
                    f"points[{i}].overrides: expected an object, got "
                    f"{type(overrides).__name__}"
                )
            decoded.append({"index": index, "overrides": dict(overrides)})
        kwargs["points"] = tuple(decoded)
        return cls(**kwargs)

    def describe(self) -> str:
        return (
            f"lease {self.lease_id} ({self.job_id}): "
            f"{len(self.points)} point(s) of {self.artifact}, "
            f"{self.lease_timeout_s:g}s lease timeout"
        )


@dataclass(frozen=True)
class SweepJobStatus:
    """Progress digest of one queued sweep job: what every poll returns.

    ``state`` is ``running`` while any point is pending or leased,
    ``done`` when every point has a manifest, and ``failed`` when the
    queue has drained but some points were poisoned (failed
    ``max_attempts`` times).
    """

    job_id: str
    artifact: str
    quick: bool
    state: str
    total: int
    pending: int
    leased: int
    done: int
    poisoned: int
    max_attempts: int
    lease_timeout_s: float

    _WIRE_KEYS = ("job_id", "artifact", "quick", "state", "total",
                  "pending", "leased", "done", "poisoned", "max_attempts",
                  "lease_timeout_s")

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for key in self._WIRE_KEYS:
            wire[key] = getattr(self, key)
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "SweepJobStatus":
        return cls(**read_envelope(wire, "job status", cls._WIRE_KEYS,
                                   required=cls._WIRE_KEYS, strict=False))

    def describe(self) -> str:
        return (
            f"{self.job_id}: {self.artifact} [{self.state}] "
            f"{self.done}/{self.total} done ({self.leased} leased, "
            f"{self.pending} pending, {self.poisoned} poisoned)"
        )


# ---------------------------------------------------------------------------
# the facade calls
# ---------------------------------------------------------------------------

def _coerce_network(network: Network | str | Mapping) -> Network:
    """Accept a Network, zoo name, or wire dict; return the Network."""
    if isinstance(network, Network):
        return network
    if isinstance(network, str):
        try:
            return build_zoo_network(network)
        except KeyError as exc:
            raise ValueError(str(exc).strip("'\"")) from exc
    if isinstance(network, Mapping):
        return network_from_dict(network)
    raise TypeError(
        "network must be a zoo name, a repro.graph Network, or a "
        f"schema-1 wire dict, got {type(network).__name__}"
    )


def _evaluate(
    net: Network,
    sched: Schedule,
    cfg: WaveCoreConfig,
    word_bytes: int,
    degraded: bool = False,
) -> ScheduleResult:
    """Price a finished schedule from its per-block records.

    :meth:`~repro.core.steptime.BlockPricer.schedule_totals` folds the
    schedule's records in the simulator's order, which also fixes the
    key order of ``traffic_by_category``.  DRAM bytes use
    ``word_bytes``, as the DP's cost models do; global-buffer bytes
    keep the hardware's 2-byte words.
    """
    totals = BlockPricer.shared(net, sched.mini_batch, cfg).schedule_totals(
        sched, word_bytes
    )
    groups = tuple(
        GroupSummary(
            first_block=g.blocks[0],
            last_block=g.blocks[-1],
            sub_batch=g.sub_batch,
            iterations=g.iterations,
            fused="fused" if all(g.block_fused) else (
                "partial" if any(g.block_fused) else "spilled"
            ),
            branch_reuse=g.branch_reuse,
        )
        for g in sched.groups
    )
    return ScheduleResult(
        network=sched.network,
        policy=sched.policy,
        objective=sched.objective,
        buffer_bytes=sched.buffer_bytes,
        mini_batch=sched.mini_batch,
        word_bytes=word_bytes,
        relu_mask=sched.relu_mask,
        branch_reuse=sched.branch_reuse,
        groups=groups,
        traffic_bytes=totals.dram_bytes,
        traffic_by_category=totals.by_category,
        step_time_s=totals.seconds,
        step_energy_j=totals.energy.total_j,
        energy_dram_share=totals.energy.share("dram"),
        degraded=degraded,
        schedule=sched,
    )


def price(
    network: Network | str | Mapping | ScheduleRequest,
    policy: str = "mbs-auto",
    *,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    mini_batch: int | None = None,
    objective: str = "traffic",
    relu_mask: bool | str | None = None,
    word_bytes: int = WORD_BYTES,
    hardware: WaveCoreConfig | None = None,
) -> ScheduleResult:
    """Build and price one schedule; the single source of truth.

    ``network`` may be a zoo name, a built
    :class:`~repro.graph.network.Network`, a schema-1 wire dict, or a
    whole :class:`ScheduleRequest` (in which case the other arguments
    must stay at their defaults).  ``hardware`` pins the accelerator
    config used both by the hardware-priced objectives' DP and by the
    evaluation; it defaults to the policy's Tab. 3 configuration at
    ``buffer_bytes`` — exactly what ``mbs-repro schedule`` has always
    simulated, so the CLI, this facade, and the HTTP server agree
    bit-for-bit.
    """
    if isinstance(network, ScheduleRequest):
        req = network
        return price(
            req.graph if req.network is None else req.network,
            req.policy, buffer_bytes=req.buffer_bytes,
            mini_batch=req.mini_batch, objective=req.objective,
            relu_mask=req.relu_mask, word_bytes=req.word_bytes,
            hardware=hardware,
        )
    net = _coerce_network(network)
    cfg = hardware if hardware is not None else config_for_policy(
        policy, buffer_bytes=buffer_bytes
    )
    sched = make_schedule(
        net, policy, buffer_bytes=buffer_bytes, mini_batch=mini_batch,
        word_bytes=word_bytes, objective=objective,
        cfg=cfg if objective in HARDWARE_OBJECTIVES else None,
        relu_mask=relu_mask,
    )
    return _evaluate(net, sched, cfg, word_bytes)


def sweep(
    network: Network | str | Mapping,
    policy: str = "mbs-auto",
    buffer_sizes: Sequence[int] = (),
    *,
    mini_batch: int | None = None,
    objective: str = "traffic",
    relu_mask: bool | str | None = None,
    word_bytes: int = WORD_BYTES,
    hardware: WaveCoreConfig | None = None,
    caches: SweepCaches | None = None,
) -> list[ScheduleResult]:
    """Price one schedule per buffer size through the batch sweep engine.

    Returns exactly what ``[price(...) for b in buffer_sizes]`` would —
    the per-point searches just share the
    :class:`~repro.core.policies.SweepCaches` pricing state, which is
    an order of magnitude faster for dense ``mbs-auto`` sweeps.  Pass
    ``caches`` to read the memo hit/miss counters afterwards.
    """
    if not buffer_sizes:
        raise ValueError("sweep() needs at least one buffer size")
    net = _coerce_network(network)
    scheds = sweep_schedules(
        net, policy, buffer_sizes, mini_batch=mini_batch,
        word_bytes=word_bytes, objective=objective, cfg=hardware,
        relu_mask=relu_mask, caches=caches,
    )
    return [
        _evaluate(
            net, sched,
            hardware if hardware is not None
            else config_for_policy(policy, buffer_bytes=buffer_bytes),
            word_bytes,
        )
        for buffer_bytes, sched in zip(buffer_sizes, scheds)
    ]


#: Graph fingerprints one process remembers, by zoo name or upload
#: digest; past this many the least recently used is forgotten.
_GRAPH_MEMO_SIZE = 256
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})

_graph_memo_lock = threading.Lock()
_graph_memo: OrderedDict[tuple[str, str], str] = OrderedDict()


def _json_native(obj: Any) -> bool:
    """Whether ``obj`` is built only of the types ``json.loads`` makes.

    ``json.dumps`` writes a tuple as an array, but the graph decoder
    rejects tuples, so a graph holding one must not share a memo entry
    with its all-list twin.
    """
    stack = [obj]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is dict:
            stack.extend(item.values())
        elif kind is list:
            stack.extend(item)
        elif kind not in _JSON_SCALARS:
            return False
    return True


def _graph_memo_key(req: ScheduleRequest) -> tuple[str, str] | None:
    """The memo key of ``req``'s graph, or None to bypass the memo.

    A zoo name is its own key.  An uploaded graph is keyed by the
    SHA-256 of its canonical JSON text, never by Python equality:
    ``True == 1 == 1.0``, but the decoder rejects ``true`` and ``64.0``
    where it wants an integer.
    """
    if req.network is not None:
        return ("network", req.network) if type(req.network) is str else None
    try:
        text = json.dumps(req.graph, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError, RecursionError):
        return None  # not encodable: only Python callers send these
    if not _json_native(req.graph):
        return None
    return "graph", hashlib.sha256(text.encode()).hexdigest()


def graph_fingerprint(req: ScheduleRequest) -> str:
    """``network_fingerprint`` of ``req``'s network, memoized per process.

    A zoo name, or an uploaded graph's canonical JSON text, always
    resolves to the same network, so each is resolved once per process
    while it stays among the ``_GRAPH_MEMO_SIZE`` most recently used.
    Failures are never remembered: a bad graph is decoded again and
    raises its path-qualified
    :class:`~repro.graph.serialize.GraphSchemaError` every time.  Safe
    to call from several threads.
    """
    key = _graph_memo_key(req)
    if key is None:
        return network_fingerprint(req.resolve_network())
    with _graph_memo_lock:
        fingerprint = _graph_memo.get(key)
        if fingerprint is not None:
            _graph_memo.move_to_end(key)
            return fingerprint
    fingerprint = network_fingerprint(req.resolve_network())
    with _graph_memo_lock:
        _graph_memo[key] = fingerprint
        _graph_memo.move_to_end(key)
        while len(_graph_memo) > _GRAPH_MEMO_SIZE:
            _graph_memo.popitem(last=False)
    return fingerprint


def _clear_graph_memo() -> None:
    """Forget every memoized graph fingerprint (a cold start for tests)."""
    with _graph_memo_lock:
        _graph_memo.clear()


def request_fingerprint(req: ScheduleRequest) -> str:
    """Content address of a pricing query: the serve-cache key.

    Keyed on the *graph fingerprint* (not the zoo name, so a name and
    its exported wire graph share cache entries), buffer size,
    objective, policy, mini-batch, relu mask, word width, and the
    hardware config family the policy pins.  The graph fingerprint
    comes from :func:`graph_fingerprint`'s memo, so a repeated query
    builds, decodes and serializes no network.
    """
    graph = graph_fingerprint(req)
    cfg = config_for_policy(req.policy, buffer_bytes=req.buffer_bytes)
    blob = json.dumps(
        {
            "graph": graph,
            "policy": req.policy,
            "buffer_bytes": req.buffer_bytes,
            "mini_batch": req.mini_batch,
            "objective": req.objective,
            "relu_mask": req.relu_mask,
            "word_bytes": req.word_bytes,
            "hardware": repr(cfg),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def degraded_result(req: ScheduleRequest,
                    net: Network | None = None) -> ScheduleResult:
    """The greedy fallback the server returns under load.

    Prices the request's network with the cheap greedy ``mbs2`` policy
    (closed-form proxy objective — no adaptive DP), flagged
    ``degraded: true``.  The hardware-priced objectives cannot ride a
    fixed policy, so the fallback always optimizes the paper's proxy;
    the returned costs are still the exact evaluator numbers for the
    greedy schedule.
    """
    if net is None:
        net = req.resolve_network()
    cfg = config_for_policy(req.policy, buffer_bytes=req.buffer_bytes)
    sched = make_schedule(
        net, "mbs2", buffer_bytes=req.buffer_bytes,
        mini_batch=req.mini_batch, word_bytes=req.word_bytes,
    )
    return _evaluate(net, sched, cfg, req.word_bytes, degraded=True)

