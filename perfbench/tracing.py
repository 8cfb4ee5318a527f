"""Per-layer spans recorded from outside the program (``--trace 1``).

Each layer's public function is wrapped by patching the attribute its
caller looks up (``repro.api.compute_traffic`` for the calls
``repro.api`` makes, ``ResultCache.lookup`` on the class, ...).  A span
is ``(name, start, end, rid)``; ``rid`` names the request, point or
sweep the span worked for.  The client side sets ``rid`` in a context
variable; a server-side entry point, which runs in another task or
thread, finds it again through a key derived from its own arguments
(``expect`` registers key -> rid before the request is sent).

Spans stay in memory.  :meth:`Tracer.report` builds each rid's span
tree by interval containment and gives every layer its self time: its
span time minus the part its child spans cover.
"""
from __future__ import annotations

import contextvars
import inspect
import time
from collections import defaultdict

#: Per-layer metrics, in report order; each has ``_ms`` and ``_calls``.
LAYERS = (
    "serve.server.self",
    "serve.engine.self",
    "serve.engine.wait",
    "serve.jobs.self",
    "graph.resolve",
    "api.fingerprint",
    "runtime.cache.lookup",
    "runtime.cache.store",
    "api.price",
    "api.sweep",
    "core.policies.dp",
    "core.traffic.walk",
    "wavecore.simulator.step",
    "runtime.queue.submit",
    "runtime.queue.lease",
    "runtime.queue.complete",
    "runtime.journal.record",
    "runtime.journal.compact",
)

#: Counts read from public surfaces: ``/v1/stats``, the journal files
#: in the state dir, and ``SweepCaches``.
COUNTERS = (
    "serve.engine.executions",
    "serve.engine.cache_hits",
    "serve.engine.dedup_hits",
    "serve.engine.batched",
    "serve.engine.degraded",
    "serve.engine.errors",
    "runtime.queue.leases_granted",
    "runtime.queue.points_completed",
    "runtime.queue.leases_expired",
    "runtime.queue.manifests_rejected",
    "runtime.journal.events",
    "core.policies.memo_hits",
    "core.policies.memo_misses",
)

#: The engine's pricing entry point runs in a worker thread; its self
#: time is engine time, but it is not a second engine call.
PRICER = "serve.engine.pricer"

_rid: contextvars.ContextVar = contextvars.ContextVar("rid", default=None)
_open: contextvars.ContextVar = contextvars.ContextVar("open", default=())


def set_rid(rid) -> contextvars.Token:
    return _rid.set(rid)


def reset_rid(token: contextvars.Token) -> None:
    _rid.reset(token)


def traced_result(*, attempted, failed, problems, layers, counts,
                  plain_wall, traced_wall, config) -> dict:
    """The ``--trace 1`` result: every per-layer metric.

    A layer or counter the workload bypasses reads 0.  The overhead is
    the traced pass's wall time against ``plain_wall``, the mean of
    the untraced passes of the same inputs run before and after it.
    """
    metrics = {}
    for name, value in layers.items():
        unit = "count" if name.endswith("_calls") else "ms"
        metrics[name] = {"value": value, "unit": unit}
    for name in COUNTERS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    hits = counts.get("core.policies.memo_hits", 0)
    total = hits + counts.get("core.policies.memo_misses", 0)
    metrics["core.policies.memo_hit_ratio"] = {
        "value": hits / total if total else 0.0, "unit": "ratio"}
    metrics["trace.overhead_pct"] = {
        "value": (traced_wall / plain_wall - 1.0) * 100.0, "unit": "%"}
    return {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "config": config,
        "metrics": metrics,
    }


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, object]] = []
        self.rid_by_key: dict = {}
        self._patches: list = []

    def expect(self, key, rid) -> None:
        """Name the rid a server-side entry point will see ``key`` for."""
        self.rid_by_key[key] = rid

    def traced(self, name: str, fn, key=None, note=None):
        """``fn`` wrapped in a span.

        ``key(*args, **kwargs)`` maps an entry point's arguments to the
        key :meth:`expect` registered; ``note(result)`` is registered as
        a key for the current rid (a cache key the store will see).
        A call nested directly in a span of the same name is not a new
        span (``price(request)`` calls ``price`` again).
        """
        spans, rid_by_key = self.spans, self.rid_by_key

        def enter(args, kwargs):
            opened = _open.get()
            if opened and opened[-1] == name:
                return None
            rid_token = None
            if key is not None:
                rid = rid_by_key.get(key(*args, **kwargs))
                if rid is not None:
                    rid_token = _rid.set(rid)
            return rid_token, _open.set(opened + (name,)), time.perf_counter()

        def leave(state, result):
            rid_token, open_token, start = state
            end = time.perf_counter()
            _open.reset(open_token)
            rid = _rid.get()
            spans.append((name, start, end, rid))
            if note is not None and result is not None:
                rid_by_key[note(result)] = rid
            if rid_token is not None:
                _rid.reset(rid_token)

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                if state is None:
                    return await fn(*args, **kwargs)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(state, result)
        else:
            def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                if state is None:
                    return fn(*args, **kwargs)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(state, result)
        return wrapper

    def wrap(self, owner, attr: str, name: str, key=None, note=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, original, key, note))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def report(self, client_wall_s: float) -> dict[str, float]:
        """Per-layer busy totals (ms) and call counts for the run.

        ``client_wall_s`` is the summed wall time of the closed-loop
        clients; what the layers' self times do not cover of it is
        reported as ``trace.unattributed_ms``.
        """
        by_rid = defaultdict(list)
        for span in self.spans:
            by_rid[span[3]].append(span)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for spans in by_rid.values():
            spans = spans + _wait_spans(spans)
            spans.sort(key=lambda s: (s[1], -s[2]))
            children = defaultdict(list)
            stack: list[int] = []
            for i, (_, start, end, _) in enumerate(spans):
                while stack and spans[stack[-1]][2] < end:
                    stack.pop()
                if stack:
                    children[stack[-1]].append((start, end))
                stack.append(i)
            for i, (name, start, end, _) in enumerate(spans):
                covered = _union(children[i])
                layer = "serve.engine.self" if name == PRICER else name
                self_ms[layer] += (end - start - covered) * 1e3
                if name != PRICER:
                    calls[layer] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}_ms"] = self_ms[layer]
            out[f"{layer}_calls"] = calls[layer]
        out["trace.unattributed_ms"] = (
            client_wall_s * 1e3 - sum(self_ms.values())
        )
        return out


def patch_serving(tracer, engine_key) -> None:
    """Wrap the layers a schedule request passes through.

    ``engine_key(wire)`` names the rid of an in-flight request.
    """
    from repro import api
    from repro.runtime.cache import ResultCache
    from repro.serve.engine import ScheduleEngine

    tracer.wrap(ScheduleEngine, "submit", "serve.engine.self",
                key=lambda self, wire: engine_key(wire))
    tracer.wrap(api.ScheduleRequest, "resolve_network", "graph.resolve")
    tracer.wrap(api, "request_fingerprint", "api.fingerprint",
                note=lambda key: key)
    tracer.wrap(ResultCache, "lookup", "runtime.cache.lookup")
    tracer.wrap(ResultCache, "store", "runtime.cache.store",
                key=lambda self, manifest: manifest.get("key"))
    patch_pricing(tracer)


def patch_pricing(tracer) -> None:
    """Wrap the pricing layers as :mod:`repro.api` calls them."""
    from repro import api

    tracer.wrap(api, "price", "api.price")
    tracer.wrap(api, "sweep", "api.sweep")
    tracer.wrap(api, "make_schedule", "core.policies.dp")
    tracer.wrap(api, "sweep_schedules", "core.policies.dp")
    tracer.wrap(api, "compute_traffic", "core.traffic.walk")
    tracer.wrap(api, "simulate_step", "wavecore.simulator.step")


def patch_queue(tracer) -> None:
    """Wrap the layers a job submission, lease or upload passes through.

    The client registers ``submit``, ``lease:<worker>`` and
    ``complete:<point index>`` as the keys of its requests.
    """
    from repro.runtime.cache import ResultCache
    from repro.runtime.journal import Journal
    from repro.runtime.queue import JobQueue
    from repro.serve.jobs import JobHost

    keys = {
        "submit_wire": lambda self, wire: "submit",
        "lease_wire": lambda self, wire: f"lease:{wire['worker']}",
        "complete_wire":
            lambda self, lease_id, wire: f"complete:{wire['index']}",
    }
    for attr, key in keys.items():
        tracer.wrap(JobHost, attr, "serve.jobs.self", key=key)
    for attr in ("submit", "lease", "complete"):
        tracer.wrap(JobQueue, attr, f"runtime.queue.{attr}")
    tracer.wrap(Journal, "record", "runtime.journal.record")
    tracer.wrap(Journal, "compact", "runtime.journal.compact")
    tracer.wrap(ResultCache, "lookup", "runtime.cache.lookup")
    tracer.wrap(ResultCache, "store", "runtime.cache.store")


def _wait_spans(spans):
    """Engine wait: from a miss's last step in ``submit`` to its pricer.

    The waiting itself runs no code to wrap; it is the gap between the
    last span ``submit`` finished before the pricer started and the
    pricer's start.
    """
    waits = []
    for _, p_start, _, rid in (s for s in spans if s[0] == PRICER):
        submits = [s for s in spans if s[0] == "serve.engine.self"
                   and s[1] <= p_start <= s[2]]
        if not submits:
            continue
        submit = submits[0]
        before = [s[2] for s in spans
                  if s is not submit and submit[1] <= s[1]
                  and s[2] <= p_start]
        waits.append(("serve.engine.wait", max(before, default=submit[1]),
                      p_start, rid))
    return waits


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
