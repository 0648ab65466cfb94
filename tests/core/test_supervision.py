"""Unit tests for the supervised transport and its circuit breakers.

Everything runs against fake inner transports and injectable clocks —
the only real sleeping happens in the timeout tests, bounded to tens of
milliseconds.
"""

from __future__ import annotations

import time

import pytest

from repro.core.supervision import (
    BREAKER_STATES,
    CircuitBreaker,
    InjectedWorkerCrash,
    SupervisedTransport,
    SupervisionPolicy,
)
from repro.errors import DeadlineExceeded, ShardUnavailable
from repro.service import Deadline, FaultPlan, FaultSpec


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class ScriptedInner:
    """Inner transport whose per-call outcomes are scripted up front.

    Each entry of *script* is a value (returned), an exception instance
    (raised), or a float (seconds to really sleep before returning it).
    """

    def __init__(self, script):
        self.script = list(script)
        self.calls = []
        self.respawned = []
        self.closed = False

    def call(self, sid, op, args):
        self.calls.append((sid, op))
        outcome = self.script.pop(0) if self.script else "ok"
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, float):
            time.sleep(outcome)
        return outcome

    def respawn(self, sid):
        self.respawned.append(sid)

    def close(self):
        self.closed = True


def make_transport(script, n_shards=2, fault_plan=None, clock=None, **policy):
    policy.setdefault("backoff_base", 0.0)  # no real backoff sleeps in tests
    kwargs = {"clock": clock} if clock is not None else {}
    return SupervisedTransport(
        ScriptedInner(script),
        n_shards,
        policy=SupervisionPolicy(**policy),
        fault_plan=fault_plan,
        **kwargs,
    )


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after=1.0, clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # concurrent caller rejected

    def test_probe_outcome_closes_or_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.record_failure()  # trip again
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # failed probe
        assert breaker.state == "open" and not breaker.allow()

    def test_transitions_counted(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()  # closed -> open
        clock.advance(1.0)
        _ = breaker.state  # open -> half_open
        breaker.record_success()  # half_open -> closed
        assert breaker.transitions == 3
        assert set(BREAKER_STATES) == {"closed", "open", "half_open"}


class TestSupervisedCall:
    def test_plain_success_passes_through(self):
        transport = make_transport(["result"])
        try:
            assert transport.call(0, "op", ()) == "result"
            assert transport.stats.failures == 0
        finally:
            transport.close()

    def test_crash_respawns_and_retries(self):
        transport = make_transport(
            [InjectedWorkerCrash("boom"), "recovered"], max_retries=2
        )
        try:
            assert transport.call(1, "op", ()) == "recovered"
            assert transport.stats.retries == 1
            assert transport.stats.respawns == 1
            assert transport.inner.respawned == [1]
        finally:
            transport.close()

    def test_retries_exhausted_raises_shard_unavailable(self):
        transport = make_transport(
            [InjectedWorkerCrash("a"), InjectedWorkerCrash("b")], max_retries=1
        )
        try:
            with pytest.raises(ShardUnavailable) as excinfo:
                transport.call(0, "op", ())
            assert excinfo.value.shard == 0
            assert transport.stats.retries == 1
            assert transport.stats.failures == 2
        finally:
            transport.close()

    def test_breaker_opens_and_fails_fast(self):
        clock = FakeClock()
        transport = make_transport(
            [InjectedWorkerCrash("a"), InjectedWorkerCrash("b")],
            clock=clock,
            max_retries=0,
            failure_threshold=2,
        )
        try:
            for _ in range(2):
                with pytest.raises(ShardUnavailable):
                    transport.call(0, "op", ())
            # Circuit open: the inner transport is never touched again.
            n_calls = len(transport.inner.calls)
            with pytest.raises(ShardUnavailable, match="circuit open"):
                transport.call(0, "op", ())
            assert len(transport.inner.calls) == n_calls
            assert transport.stats.open_rejections == 1
            assert transport.breaker_states()[0] == "open"
            # Other shards are unaffected.
            assert transport.call(1, "op", ()) == "ok"
        finally:
            transport.close()

    def test_call_timeout_bounds_a_stalled_worker(self):
        transport = make_transport([0.25], call_timeout=0.02, max_retries=0)
        try:
            start = time.perf_counter()
            with pytest.raises(ShardUnavailable, match="timed out"):
                transport.call(0, "op", ())
            assert time.perf_counter() - start < 0.2
            assert transport.stats.timeouts == 1
        finally:
            transport.close()

    def test_timeout_then_successful_retry(self):
        """A stalled call times out, the retry lands on a healthy worker."""
        transport = make_transport(
            [0.25, "after-stall"], call_timeout=0.02, max_retries=1
        )
        try:
            assert transport.call(0, "op", ()) == "after-stall"
            assert transport.stats.timeouts == 1
            assert transport.stats.retries == 1
        finally:
            transport.close()

    def test_deadline_bounds_a_stalled_worker(self):
        """A stalled shard consumes at most the budget (+ small epsilon),
        never the stall duration — the chaos acceptance criterion."""
        transport = make_transport([0.5], max_retries=2)
        try:
            deadline = Deadline(0.05)
            start = time.perf_counter()
            with pytest.raises((DeadlineExceeded, ShardUnavailable)):
                transport.call(0, "op", (), deadline=deadline)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.3  # budget + epsilon, nowhere near the 0.5s stall
        finally:
            transport.close()

    def test_expired_deadline_raises_before_dispatch(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(0.2)
        transport = make_transport(["never"])
        try:
            with pytest.raises(DeadlineExceeded):
                transport.call(0, "op", (), deadline=deadline)
            assert transport.inner.calls == []
        finally:
            transport.close()

    def test_injected_fault_plan_drives_the_crash_path(self):
        plan = FaultPlan([FaultSpec("crash", 0, 0)])
        transport = make_transport(["fine"], fault_plan=plan, max_retries=1)
        try:
            assert transport.call(0, "op", ()) == "fine"
            assert plan.counters.crashes == 1
            assert transport.stats.respawns == 1
            assert plan.exhausted
        finally:
            transport.close()


class TestSupervisedMap:
    def test_fanout_success(self):
        transport = make_transport(["a", "b"], n_shards=2)
        try:
            assert transport.map([(0, "op", ()), (1, "op", ())]) == ["a", "b"]
        finally:
            transport.close()

    def test_single_call_short_circuit(self):
        transport = make_transport(["only"])
        try:
            assert transport.map([(0, "op", ())]) == ["only"]
        finally:
            transport.close()

    def test_terminal_failure_surfaces_after_all_calls_settle(self):
        transport = make_transport(
            [InjectedWorkerCrash("x"), InjectedWorkerCrash("y")],
            n_shards=2,
            max_retries=0,
        )
        try:
            with pytest.raises(ShardUnavailable):
                transport.map([(0, "op", ()), (1, "op", ())])
            # Both calls settled before the failure surfaced.
            assert len(transport.inner.calls) == 2
        finally:
            transport.close()

    def test_snapshot_is_json_safe(self):
        plan = FaultPlan([FaultSpec("crash", 0, 0)])
        transport = make_transport(["fine"], fault_plan=plan, max_retries=1)
        try:
            transport.call(0, "op", ())
            snapshot = transport.supervision_snapshot()
            assert snapshot["respawns"] == 1
            assert snapshot["faults_injected"]["crashes"] == 1
            assert snapshot["breaker_states"] == ["closed", "closed"]
            import json

            json.dumps(snapshot)  # must serialize for the stats endpoint
        finally:
            transport.close()
