"""Supervised shard transport: retries, respawns, circuit breaking.

:class:`SupervisedTransport` wraps the distributed engine's in-process
shard transport and turns infrastructure failures into one of exactly
three outcomes:

* a **successful retry** — a worker failure classified as a crash (an
  injected crash, a broken pool, a poison pickle, a dropped connection)
  respawns the shard's worker and replays the call under capped
  exponential backoff with jitter, all within the request's remaining
  deadline budget;
* :class:`~repro.errors.ShardUnavailable` — retries exhausted or the
  shard's circuit breaker is open; the distributed engine then degrades
  per policy (oracle fallback or an explicit ``DEGRADED`` error);
* :class:`~repro.errors.DeadlineExceeded` — the request's budget ran out
  mid-supervision; each shard call runs on a dispatcher thread and is
  bounded by ``future.result(timeout=remaining)``, so a stalled call can
  consume at most the budget, never hang the request.  A call that timed
  out keeps running on its dispatcher thread until it returns; the
  storage layer's memos and plan cache are guarded against such a
  straggler overlapping a write.

The per-shard :class:`CircuitBreaker` stops hammering a persistently
failing shard: after ``failure_threshold`` consecutive failures the
circuit *opens* (calls fail fast with :class:`ShardUnavailable` and zero
transport work) until ``reset_after`` seconds pass, when one *half-open*
probe is admitted — success closes the circuit, failure re-opens it.
Clocks and backoff jitter are injectable/seeded, so every supervision
behaviour is deterministic under test.

Fault injection (:class:`~repro.service.faults.FaultPlan`) hooks in
*inside* the dispatched call — an injected ``crash`` takes the exact
recovery path a real worker death takes, and an injected ``slow`` sleeps
where a real stall would, so the chaos suite exercises the production
machinery rather than a simulation of it.
"""

from __future__ import annotations

import pickle
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .._util import require
from ..errors import DeadlineExceeded, ShardUnavailable

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "InjectedWorkerCrash",
    "SupervisedTransport",
    "SupervisionPolicy",
    "SupervisionStats",
]


class InjectedWorkerCrash(RuntimeError):
    """A fault-plan-induced worker death.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the
    supervision layer must detect it through the same "unexpected
    infrastructure failure" classification that catches a real
    ``BrokenProcessPool``, and nothing above supervision may quietly
    absorb it.  Defined here (not in :mod:`repro.service.faults`) so the
    core package never imports the service package.
    """

#: Circuit-breaker states, in the classic closed → open → half-open cycle.
BREAKER_STATES = ("closed", "open", "half_open")

#: Exceptions classified as worker death: the pool (or the injected
#: equivalent) is broken and must be respawned before a retry can work.
#: Poison pickles surface as pickling errors on the submit path or
#: ``EOFError``/``BrokenProcessPool`` on the result path.
_CRASH_ERRORS = (
    BrokenProcessPool,
    InjectedWorkerCrash,
    pickle.PicklingError,
    pickle.UnpicklingError,
    EOFError,
    ConnectionError,
)


class CircuitBreaker:
    """Per-shard breaker: trip after consecutive failures, probe after rest.

    Thread-safe; the clock is injectable so open→half-open transitions
    are testable without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        require(failure_threshold >= 1, "failure_threshold must be >= 1")
        require(reset_after > 0.0, "reset_after must be > 0")
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.transitions = 0

    def _set_state(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self.transitions += 1

    @property
    def state(self) -> str:
        with self._lock:
            self._refresh()
            return self._state

    def _refresh(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_after
        ):
            self._set_state("half_open")
            self._probing = False

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In half-open state exactly one probe is admitted; concurrent
        callers are rejected until the probe settles.
        """
        with self._lock:
            self._refresh()
            if self._state == "closed":
                return True
            if self._state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probing = False
            self._set_state("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._refresh()
            self._consecutive_failures += 1
            if self._state == "half_open" or (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._set_state("open")
                self._opened_at = self._clock()
                self._probing = False

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self._consecutive_failures}, "
            f"transitions={self.transitions})"
        )


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of one supervised transport (all deterministic under test).

    ``call_timeout`` bounds every shard call even for requests without a
    deadline (``None``: unbounded, the pre-supervision behaviour); a
    request deadline always tightens it to the remaining budget.
    """

    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    jitter_seed: int = 0
    failure_threshold: int = 3
    reset_after: float = 1.0
    call_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require(self.backoff_base >= 0.0, "backoff_base must be >= 0")
        require(self.backoff_cap >= self.backoff_base, "backoff_cap < base")
        if self.call_timeout is not None:
            require(self.call_timeout > 0.0, "call_timeout must be > 0")


@dataclass
class SupervisionStats:
    """Failure-path counters of one supervised transport."""

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    failures: int = 0
    open_rejections: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "open_rejections": self.open_rejections,
        }


class SupervisedTransport:
    """A fault-tolerant facade over a shard transport.

    Duck-types the transport surface the distributed engine uses
    (``call``/``map``/``close``, each call taking the request's
    deadline).  Inner calls run on a private dispatcher pool so they can
    be bounded by ``future.result(timeout=...)``; the inner transport
    needs ``call(sid, op, args)``, ``respawn(sid)`` and ``close()``.
    """

    def __init__(
        self,
        inner,
        n_shards: int,
        policy: Optional[SupervisionPolicy] = None,
        fault_plan=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        require(n_shards >= 1, "n_shards must be >= 1")
        self.inner = inner
        self.n_shards = int(n_shards)
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.fault_plan = fault_plan
        self.stats = SupervisionStats()
        self.breakers = [
            CircuitBreaker(
                failure_threshold=self.policy.failure_threshold,
                reset_after=self.policy.reset_after,
                clock=clock,
            )
            for _ in range(self.n_shards)
        ]
        self._sleep = sleep
        self._rng = random.Random(self.policy.jitter_seed)
        self._rng_lock = threading.Lock()
        self._pools_lock = threading.Lock()
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._fanout: Optional[ThreadPoolExecutor] = None

    # -- pools -------------------------------------------------------------

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        with self._pools_lock:
            if self._dispatch is None:
                # Headroom beyond one thread per shard: a timed-out call
                # leaves its dispatcher thread blocked until the inner
                # call returns, and retries must not starve behind it.
                self._dispatch = ThreadPoolExecutor(
                    max_workers=max(8, 2 * self.n_shards),
                    thread_name_prefix="repro-supervise",
                )
            return self._dispatch

    def _fanout_pool(self) -> ThreadPoolExecutor:
        with self._pools_lock:
            if self._fanout is None:
                self._fanout = ThreadPoolExecutor(
                    max_workers=self.n_shards,
                    thread_name_prefix="repro-supervise-map",
                )
            return self._fanout

    # -- supervised call path ---------------------------------------------

    def _invoke(self, sid: int, op: str, args: tuple):
        """The dispatched unit: inject scheduled faults, then call inner."""
        if self.fault_plan is not None:
            spec = self.fault_plan.draw_call(sid)
            if spec is not None:
                if spec.kind == "crash":
                    raise InjectedWorkerCrash(
                        f"injected crash on shard {sid} op {op!r}"
                    )
                self._sleep(spec.seconds)
        return self.inner.call(sid, op, args)

    def _backoff(self, attempt: int, deadline) -> None:
        """Sleep the capped-exponential-with-jitter delay for *attempt*.

        The delay never exceeds the remaining deadline budget; an
        exhausted budget raises instead of sleeping.
        """
        delay = min(
            self.policy.backoff_cap, self.policy.backoff_base * (2.0 ** attempt)
        )
        with self._rng_lock:
            delay *= 0.5 + self._rng.random() / 2.0
        if deadline is not None:
            deadline.check("retry-backoff")
            delay = min(delay, deadline.remaining())
        if delay > 0.0:
            self._sleep(delay)

    def respawn(self, sid: int) -> None:
        """Replace shard *sid*'s worker."""
        self.stats.respawns += 1
        self.inner.respawn(sid)

    def call(self, sid: int, op: str, args: tuple, deadline=None):
        """One supervised shard call: breaker gate, timeout, retry loop."""
        breaker = self.breakers[sid]
        if not breaker.allow():
            self.stats.open_rejections += 1
            raise ShardUnavailable(sid, "circuit open")
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check("shard-dispatch")
            future = self._dispatch_pool().submit(self._invoke, sid, op, args)
            timeout = self.policy.call_timeout
            if deadline is not None:
                timeout = (
                    deadline.timeout("shard-call")
                    if timeout is None
                    else min(timeout, deadline.timeout("shard-call"))
                )
            try:
                result = future.result(timeout=timeout)
            except FuturesTimeout:
                self.stats.timeouts += 1
                self.stats.failures += 1
                breaker.record_failure()
                future.cancel()
                if deadline is not None:
                    deadline.check("shard-timeout")
                failure = ShardUnavailable(
                    sid, f"call {op!r} timed out after {timeout:.3f}s"
                )
            except _CRASH_ERRORS as exc:
                self.stats.failures += 1
                breaker.record_failure()
                self.respawn(sid)
                failure = ShardUnavailable(sid, f"worker died: {exc!r}")
            else:
                breaker.record_success()
                return result
            if attempt >= self.policy.max_retries or not breaker.allow():
                raise failure
            self.stats.retries += 1
            self._backoff(attempt, deadline)
            attempt += 1

    def map(self, calls: List[Tuple[int, str, tuple]], deadline=None) -> List:
        """Supervised fan-out: every call supervised independently.

        All calls run to completion (success or terminal failure) before
        the first failure — in call order, deadline errors first — is
        re-raised, so no retry work is abandoned mid-flight.
        """
        if len(calls) <= 1:
            return [self.call(*call, deadline=deadline) for call in calls]
        futures = [
            self._fanout_pool().submit(self.call, *call, deadline=deadline)
            for call in calls
        ]
        outcomes = []
        for future in futures:
            try:
                outcomes.append((future.result(), None))
            except Exception as exc:  # re-raised below in a stable order
                outcomes.append((None, exc))
        for _, exc in outcomes:
            if isinstance(exc, DeadlineExceeded):
                raise exc
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [result for result, _ in outcomes]

    # -- transport surface -------------------------------------------------

    def close(self) -> None:
        with self._pools_lock:
            dispatch, self._dispatch = self._dispatch, None
            fanout, self._fanout = self._fanout, None
        if fanout is not None:
            fanout.shutdown(wait=True)
        if dispatch is not None:
            dispatch.shutdown(wait=True)
        self.inner.close()

    def breaker_states(self) -> List[str]:
        return [breaker.state for breaker in self.breakers]

    def breaker_transitions(self) -> int:
        return sum(breaker.transitions for breaker in self.breakers)

    def supervision_snapshot(self) -> Dict:
        """JSON-safe failure-path readout (the stats endpoint's source)."""
        snapshot = self.stats.as_dict()
        snapshot["breaker_transitions"] = self.breaker_transitions()
        snapshot["breaker_states"] = self.breaker_states()
        if self.fault_plan is not None:
            snapshot["faults_injected"] = self.fault_plan.counters.as_dict()
        return snapshot

    def __repr__(self) -> str:
        return (
            f"SupervisedTransport(shards={self.n_shards}, "
            f"retries={self.stats.retries}, respawns={self.stats.respawns}, "
            f"breakers={self.breaker_states()})"
        )
