"""The async schedule-pricing engine behind ``mbs-repro serve``.

One :class:`ScheduleEngine` owns the production behaviors the HTTP
layer is a thin shell over:

* **dedup** — identical in-flight queries (same request fingerprint)
  share one DP execution; every waiter gets the same result object;
* **batching** — queries arriving within a short window that differ
  *only in buffer size* ride one
  :func:`~repro.api.sweep` dispatch, sharing the cross-point pricing
  caches (PR 6's batch sweep API) instead of paying one cold DP each;
* **result cache** — finished prices persist through
  :class:`~repro.runtime.cache.ResultCache` manifests keyed on the
  request fingerprint (graph fingerprint + buffer + objective +
  hardware config family + relu mask + batch + word width) and the
  *pricing-scoped* code fingerprint (:func:`serve_fingerprint` — the
  import closure of :mod:`repro.api`, which covers core/graph/zoo but
  not ``experiments/``), so a restarted server stays warm, editing an
  experiment driver never cold-starts the serve cache, and a changed
  pricing stack never replays old numbers.  ``cache_max_entries`` /
  ``cache_max_bytes`` bound the store with LRU eviction (evictions are
  counted in ``/v1/stats``);
* **worker processes** — DPs run on a
  :class:`~repro.runtime.pool.WorkerPool` so the event loop never
  blocks on a schedule search;
* **degradation** — a per-request timeout or a saturated queue returns
  the cheap greedy schedule (:func:`repro.api.degraded_result`) with
  ``degraded: true`` instead of queueing unboundedly; the real DP, if
  already dispatched, still completes in the background and lands in
  the cache for the next query.

The pricing callables are injectable (``pricer`` / ``batch_pricer``)
so tests can count executions in-process; the defaults run
:func:`repro.api.price` in the worker pool, which is what makes HTTP
responses bit-identical to the Python facade and the CLI.
"""
from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro import api
from repro.runtime.cache import ResultCache, module_fingerprint
from repro.runtime.pool import WorkerPool

#: Cache "spec" namespace: manifests land in ``<cache root>/serve/``.
CACHE_SPEC = "serve"


def serve_fingerprint() -> str:
    """Code digest the serve cache is scoped to.

    The import closure of :mod:`repro.api` — every module a price can
    depend on (core DP/walkers, graph, zoo, wavecore models) and none
    it can't (experiment drivers, the runtime engine, this file's own
    batching logic).
    """
    return module_fingerprint("repro.api")


def price_wire(wire: Mapping[str, Any]) -> dict[str, Any]:
    """Worker entry point: price one wire request → wire result."""
    req = api.ScheduleRequest.from_wire(wire)
    return api.price(req).to_wire()


def price_batch_wire(wires: list[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Worker entry point for a buffer-size batch.

    All requests share everything but ``buffer_bytes`` (the engine
    groups them that way), so one :func:`repro.api.sweep` call prices
    the whole batch through the shared
    :class:`~repro.core.policies.SweepCaches` — bit-identical to
    per-point :func:`~repro.api.price` calls, just cheaper.
    """
    reqs = [api.ScheduleRequest.from_wire(w) for w in wires]
    first = reqs[0]
    net = first.resolve_network()
    results = api.sweep(
        net, first.policy, [r.buffer_bytes for r in reqs],
        mini_batch=first.mini_batch, objective=first.objective,
        relu_mask=first.relu_mask, word_bytes=first.word_bytes,
    )
    return [r.to_wire() for r in results]


def degraded_wire(wire: Mapping[str, Any]) -> dict[str, Any]:
    """Fallback entry point: the greedy schedule, flagged degraded."""
    req = api.ScheduleRequest.from_wire(wire)
    return api.degraded_result(req).to_wire()


@dataclass
class EngineStats:
    """Observability counters (the ``/v1/stats`` endpoint)."""

    requests: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    #: requests that rode a multi-point sweep dispatch
    batched: int = 0
    #: pricer invocations (one per dispatch, single or batch)
    executions: int = 0
    degraded: int = 0
    errors: int = 0
    #: manifests dropped by the LRU bound on the result cache
    evictions: int = 0

    def to_wire(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in (
            "requests", "cache_hits", "dedup_hits", "batched",
            "executions", "degraded", "errors", "evictions",
        )}


@dataclass
class _Pending:
    key: str
    wire: dict[str, Any]
    group: str
    future: asyncio.Future


class ScheduleEngine:
    """Dedup + batch + cache + degrade around the pricing workers.

    ``workers=0`` prices inline on the event loop's default thread
    executor — the mode tests (and tiny deployments) use; any other
    count owns a :class:`~repro.runtime.pool.WorkerPool` of that size.
    ``cache=None`` disables result persistence (dedup still applies).
    ``cache_max_entries`` / ``cache_max_bytes`` bound the persisted
    serve namespace: least-recently-used manifests are deleted once
    either limit is exceeded (``None`` = unbounded).
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        workers: int = 1,
        timeout_s: float = 30.0,
        max_pending: int = 64,
        batch_window_s: float = 0.002,
        cache_max_entries: int | None = None,
        cache_max_bytes: int | None = None,
        pricer: Callable[[Mapping[str, Any]], dict] | None = None,
        batch_pricer: Callable[[list], list] | None = None,
    ):
        self.cache = cache
        self.pool = WorkerPool(workers) if workers >= 1 else None
        self.timeout_s = timeout_s
        self.max_pending = max_pending
        self.batch_window_s = batch_window_s
        self.cache_max_entries = cache_max_entries
        self.cache_max_bytes = cache_max_bytes
        self._pricer = pricer if pricer is not None else price_wire
        self._batch_pricer = (
            batch_pricer if batch_pricer is not None else price_batch_wire
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: list[_Pending] = []
        self._batcher: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        self.stats = EngineStats()
        #: LRU index over the serve namespace: key -> manifest bytes on
        #: disk, oldest first.  Seeded from whatever a previous server
        #: left behind (mtime order approximates its recency).
        self._lru: OrderedDict[str, int] = OrderedDict()
        self._lru_bytes = 0
        if cache is not None and self._bounded:
            entries = sorted(
                cache.entries(CACHE_SPEC),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
            for path in entries:
                self._lru[path.stem] = path.stat().st_size
                self._lru_bytes += path.stat().st_size
            self._evict()

    # -- key derivation ------------------------------------------------

    @staticmethod
    def _group_signature(req: api.ScheduleRequest) -> str:
        """Batch-compatibility class: the fingerprint minus the buffer.

        Two requests may share one sweep dispatch iff they differ only
        in ``buffer_bytes`` — same graph, policy, objective, relu mask,
        mini-batch, and word width.
        """
        import json

        return json.dumps({
            "graph": api.graph_fingerprint(req),
            "policy": req.policy,
            "mini_batch": req.mini_batch,
            "objective": req.objective,
            "relu_mask": req.relu_mask,
            "word_bytes": req.word_bytes,
        }, sort_keys=True)

    # -- cache layer ---------------------------------------------------

    @property
    def _bounded(self) -> bool:
        return (self.cache_max_entries is not None
                or self.cache_max_bytes is not None)

    def _cache_lookup(self, key: str) -> dict[str, Any] | None:
        if self.cache is None:
            return None
        manifest = self.cache.lookup(CACHE_SPEC, key)
        if manifest is None:
            return None
        if manifest.get("fingerprint") != serve_fingerprint():
            return None  # stale pricing code: never replay old numbers
        if self._bounded:
            if key not in self._lru:  # stored by another process
                size = self.cache.path(CACHE_SPEC, key).stat().st_size
                self._lru[key] = size
                self._lru_bytes += size
            self._lru.move_to_end(key)
        return manifest.get("result")

    def _cache_store(self, key: str, result: Mapping[str, Any]) -> None:
        if self.cache is None:
            return
        path = self.cache.store({
            "spec": CACHE_SPEC,
            "key": key,
            "fingerprint": serve_fingerprint(),
            "result": dict(result),
        })
        if self._bounded:
            self._lru_bytes -= self._lru.pop(key, 0)
            self._lru[key] = path.stat().st_size
            self._lru_bytes += self._lru[key]
            self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used manifests until inside both bounds."""

        def over() -> bool:
            if (self.cache_max_entries is not None
                    and len(self._lru) > self.cache_max_entries):
                return True
            return (self.cache_max_bytes is not None
                    and self._lru_bytes > self.cache_max_bytes)

        while self._lru and over():
            key, size = self._lru.popitem(last=False)
            self._lru_bytes -= size
            path = self.cache.path(CACHE_SPEC, key)
            try:
                path.unlink()
            except OSError:
                pass  # already gone: the bound is still respected
            self.stats.evictions += 1

    # -- the submit path -----------------------------------------------

    async def submit(self, wire: Mapping[str, Any]) -> tuple[dict, dict]:
        """Price one wire request; returns ``(result_wire, meta)``.

        ``meta`` carries the transport flags the response envelope
        reports: ``cached`` / ``deduped`` / ``degraded``.  Raises
        ``ValueError`` (including
        :class:`~repro.graph.serialize.GraphSchemaError`) for requests
        the wire schema rejects — the HTTP layer maps that to 400.
        """
        self.stats.requests += 1
        req = api.ScheduleRequest.from_wire(wire)
        key = api.request_fingerprint(req)

        cached = self._cache_lookup(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached, {"cached": True, "deduped": False,
                            "degraded": bool(cached.get("degraded"))}

        future = self._inflight.get(key)
        if future is not None:
            self.stats.dedup_hits += 1
            return await self._await_priced(key, future, wire, deduped=True)

        if len(self._inflight) >= self.max_pending:
            # load shedding: answer greedily *now* rather than queue
            result = await self._degrade(wire)
            return result, {"cached": False, "deduped": False,
                            "degraded": True}

        loop = asyncio.get_running_loop()
        future = loop.create_future()
        # Consume the exception even if every waiter timed out into the
        # degraded path — an unretrieved future exception warns loudly.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = future
        self._queue.append(_Pending(
            key=key, wire=dict(wire),
            group=self._group_signature(req), future=future,
        ))
        self._kick_batcher()
        return await self._await_priced(key, future, wire, deduped=False)

    async def _await_priced(self, key: str, future: asyncio.Future,
                            wire: Mapping[str, Any], deduped: bool,
                            ) -> tuple[dict, dict]:
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), self.timeout_s
            )
        except asyncio.TimeoutError:
            # The DP keeps running; its result will land in the cache.
            result = await self._degrade(wire)
            return result, {"cached": False, "deduped": deduped,
                            "degraded": True}
        except Exception:
            self.stats.errors += 1
            raise
        return result, {"cached": False, "deduped": deduped,
                        "degraded": bool(result.get("degraded"))}

    async def _degrade(self, wire: Mapping[str, Any]) -> dict[str, Any]:
        """Greedy fallback, off the event loop (thread executor)."""
        self.stats.degraded += 1
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, degraded_wire, dict(wire))

    # -- batch dispatch ------------------------------------------------

    def _kick_batcher(self) -> None:
        if self._batcher is None or self._batcher.done():
            self._batcher = asyncio.get_running_loop().create_task(
                self._drain_queue()
            )

    async def _drain_queue(self) -> None:
        """Collect requests for one batch window, then dispatch groups."""
        while self._queue:
            if self.batch_window_s > 0:
                await asyncio.sleep(self.batch_window_s)
            pending, self._queue = self._queue, []
            groups: dict[str, list[_Pending]] = {}
            for item in pending:
                groups.setdefault(item.group, []).append(item)
            for items in groups.values():
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(items)
                )
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, items: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        executor = self.pool.executor if self.pool is not None else None
        try:
            if len(items) == 1:
                outs = [await loop.run_in_executor(
                    executor, self._pricer, items[0].wire
                )]
            else:
                outs = await loop.run_in_executor(
                    executor, self._batch_pricer,
                    [item.wire for item in items],
                )
                self.stats.batched += len(items)
            self.stats.executions += 1
        except Exception as exc:
            for item in items:
                self._inflight.pop(item.key, None)
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        for item, result in zip(items, outs):
            self._cache_store(item.key, result)
            self._inflight.pop(item.key, None)
            if not item.future.done():
                item.future.set_result(result)

    # -- lifecycle -----------------------------------------------------

    async def aclose(self) -> None:
        """Cancel pending work and release the worker pool."""
        if self._batcher is not None:
            self._batcher.cancel()
        for task in list(self._dispatches):
            task.cancel()
        for future in self._inflight.values():
            if not future.done():
                future.cancel()
        self._inflight.clear()
        self._queue.clear()
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True,
                               terminate=True)
