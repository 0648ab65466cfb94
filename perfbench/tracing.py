"""Span tracing for the traced server process, by wrapping public calls.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces each
layer's public function (or the name a caller module bound it to) with a
wrapper that records one span per call.  A span is ``(rid, span_id,
parent_id, name, start, end, info)`` on ``time.monotonic`` — the clock
the load generator stamps requests with, so client and server times
subtract.

The request id (``rid``) is read from the request payload by the gateway
wrapper and carried in a context variable.  ``loop.run_in_executor`` does
not copy the caller's context into the worker thread, so the tracer also
wraps it to run the submitted function inside a copy of that context:
spans taken in the executor thread keep the request id and parent.
"""

from __future__ import annotations

import asyncio.base_events
import contextvars
import functools
import itertools
import time
import weakref
from typing import Callable, List, Optional

_RID: contextvars.ContextVar = contextvars.ContextVar("perfbench_rid", default=None)
_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=0)


def _shape_rows(args, _out) -> int:
    """fused_scores(block, weights): rows scored = rows x weight vectors."""
    block, weights = args[0], args[1]
    n_weights = weights.shape[0] if getattr(weights, "ndim", 1) == 2 else 1
    return int(block.shape[0]) * int(n_weights)


def _swept_rows(args, _out) -> int:
    """batch_crossings(dk_score, dk_coord, row, column): rows swept."""
    return int(args[2].shape[0])


def _tier(_args, out) -> str:
    return out[1]


def _kept_evicted(_args, out):
    return [int(out[0]), int(out[1])]


class Tracer:
    """Holds the spans of one traced server process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._plans: "weakref.WeakSet" = weakref.WeakSet()

    def _record(self, name, info, started, parent, sid, args, out) -> None:
        extra = info(args, out) if info is not None and out is not None else None
        self.spans.append(
            (_RID.get(), sid, parent, name, started, time.monotonic(), extra)
        )

    def wrap(self, owner, attr: str, name: str, info: Optional[Callable] = None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = _PARENT.get()
            sid = next(tracer._ids)
            token = _PARENT.set(sid)
            started = time.monotonic()
            out = None
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                _PARENT.reset(token)
                tracer._record(name, info, started, parent, sid, args, out)

        if isinstance(owner, type) and isinstance(vars(owner).get(attr), staticmethod):
            setattr(owner, attr, staticmethod(wrapper))
        else:
            setattr(owner, attr, wrapper)

    def wrap_handle(self, gateway_cls) -> None:
        """Wrap the async ``AsyncGateway.handle``; it binds the request id."""
        original = gateway_cls.handle
        tracer = self

        @functools.wraps(original)
        async def handle(gateway, payload):
            rid_token = _RID.set(payload.get("rid"))
            sid = next(tracer._ids)
            token = _PARENT.set(sid)
            started = time.monotonic()
            try:
                return await original(gateway, payload)
            finally:
                _PARENT.reset(token)
                tracer._record("gateway.handle", None, started, 0, sid, None, None)
                _RID.reset(rid_token)

        gateway_cls.handle = handle

    def wrap_plan_build(self, plan_cls) -> None:
        """Span every ``SubspacePlan`` build and keep a weak ref for bytes."""
        original = plan_cls.__init__
        tracer = self

        @functools.wraps(original)
        def __init__(plan, *args, **kwargs):
            parent = _PARENT.get()
            sid = next(tracer._ids)
            started = time.monotonic()
            original(plan, *args, **kwargs)
            tracer._plans.add(plan)
            tracer._record(
                "storage.plan_build",
                lambda _a, p: int(p.nbytes),
                started,
                parent,
                sid,
                None,
                plan,
            )

        plan_cls.__init__ = __init__

    def resident_plan_bytes(self) -> int:
        return int(sum(plan.nbytes for plan in list(self._plans)))

    def install(self) -> "Tracer":
        from repro.core import batch_exec, distributed, engine
        from repro.service import cache, gateway, service
        from repro.storage import plan, sharded

        _carry_context_into_executor()
        self.wrap_handle(gateway.AsyncGateway)
        self.wrap(gateway.AsyncGateway, "_render", "gateway.render")
        self.wrap(service.QueryService, "execute_tiered", "service.execute")
        self.wrap(gateway.ShardedQueryService, "apply_mutations", "service.mutate")
        self.wrap(cache.RegionCache, "lookup", "cache.lookup", _tier)
        self.wrap(cache.RegionCache, "put", "cache.put")
        self.wrap(gateway, "invalidate_region_cache", "invalidation.sweep", _kept_evicted)
        self.wrap(sharded.ShardedIndex, "apply", "storage.apply")
        self.wrap(plan.SubspacePlanCache, "plan_for", "storage.plan_for")
        self.wrap_plan_build(plan.SubspacePlan)
        self.wrap(distributed.DistributedEngine, "compute_many", "engine.compute_many")
        self.wrap(engine.ImmutableRegionEngine, "compute", "engine.fallback")
        for module in (distributed, batch_exec):
            self.wrap(module, "fused_scores", "kernels.fused_scores", _shape_rows)
            self.wrap(module, "fused_topk", "kernels.fused_topk")
            self.wrap(module, "batch_pair_crossings", "kernels.batch_pair_crossings")
            self.wrap(module, "batch_crossings", "kernels.batch_crossings", _swept_rows)
        # The Lemma 1 sweep's first-achiever reductions belong to the sweep.
        self.wrap(distributed, "first_min_index", "kernels.batch_crossings")
        self.wrap(distributed, "first_max_index", "kernels.batch_crossings")
        return self


def _carry_context_into_executor() -> None:
    original = asyncio.base_events.BaseEventLoop.run_in_executor

    @functools.wraps(original)
    def run_in_executor(loop, executor, func, *args):
        return original(loop, executor, contextvars.copy_context().run, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = run_in_executor
