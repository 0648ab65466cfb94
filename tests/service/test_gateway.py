"""Unit tests for the sharded service and the async gateway."""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    Dataset,
    ImmutableRegionEngine,
    InvertedIndex,
    Mutation,
    Query,
    ShardedQueryService,
)
from repro.core.supervision import SupervisionPolicy
from repro.errors import ValidationError
from repro.service import (
    AsyncGateway,
    DurabilityManager,
    FaultPlan,
    FaultSpec,
    TokenBucket,
)
from repro.service.gateway import run_self_test
from repro.storage.durability import DEFAULT_SYNC_CHUNK


def make_dataset(n=60, m=6, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_dense(rng.random((n, m)) * (rng.random((n, m)) < 0.8))


def make_service(**kwargs):
    kwargs.setdefault("n_shards", 3)
    return ShardedQueryService(make_dataset(), **kwargs)


QUERY = Query([0, 2, 4], [0.7, 0.3, 0.5])


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = lambda: clock.t
        clock.t = 0.0
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.t = 1.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_capacity_capped_at_burst(self):
        clock = lambda: clock.t
        clock.t = 0.0
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.t = 100.0  # long idle must not accumulate beyond burst
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()

    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValidationError):
            TokenBucket(rate=1.0, burst=0.5)


class TestShardedQueryService:
    def test_matches_unsharded_oracle(self):
        service = make_service()
        try:
            computation = service.execute(QUERY, 5)
            oracle = ImmutableRegionEngine(
                InvertedIndex(make_dataset()), method="cpt"
            ).compute_many([QUERY], 5, topk_mode="matmul")[0]
            assert computation.result.ids == oracle.result.ids
            for dim in oracle.sequences:
                assert computation.immutable_interval(
                    dim
                ) == oracle.immutable_interval(dim)
        finally:
            service.close()

    def test_only_the_sequential_shard_executor_remains(self):
        with pytest.raises(ValidationError, match="shard_executor"):
            ShardedQueryService(make_dataset(), shard_executor="thread")
        make_service(shard_executor="sequential").close()

    @pytest.mark.parametrize("supervision", [False, True])
    def test_concurrent_queries_match_the_ta_oracle(self, supervision):
        """Threads sharing one sharded service get the oracle's answers."""
        data = make_dataset(n=400, m=6, seed=5)
        rng = np.random.default_rng(11)
        queries = [
            Query(dims, rng.uniform(0.1, 0.9, size=len(dims)))
            for dims in ([0, 2, 4], [1, 3], [0, 1, 5], [2, 3, 4, 5]) * 6
        ]
        oracle = ImmutableRegionEngine(InvertedIndex(make_dataset(n=400, m=6, seed=5)))
        expected = oracle.compute_many(queries, 5, topk_mode="ta")
        service = ShardedQueryService(
            data, n_shards=4, reuse="off", supervision=supervision
        )
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        answers = [None] * len(queries)

        def client(t):
            barrier.wait()
            for i in range(t, len(queries), n_threads):
                answers[i] = service.execute_tiered(queries[i], 5)

        threads = [
            threading.Thread(target=client, args=(t,)) for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        for answer, ref in zip(answers, expected):
            got, tier = answer
            assert tier == "computed"
            assert got.result.ids == ref.result.ids
            assert list(got.result.scores) == list(ref.result.scores)
            assert got.sequences == ref.sequences

    def test_engines_share_one_transport(self):
        service = make_service()
        try:
            cpt = service.engine_for("cpt")
            scan = service.engine_for("scan")
            assert cpt is service.engine_for("cpt")
            assert cpt._transport is scan._transport
            assert cpt._transport is service._shard_transport
        finally:
            service.close()

    def test_region_hit_short_circuits_before_any_shard(self):
        service = make_service()
        try:
            anchor = service.execute(QUERY, 5)
            lower, upper = anchor.immutable_interval(0)
            weight = QUERY.weight_of(0)
            inside = (weight + upper) / 2 if upper > weight else (lower + weight) / 2
            perturbed = QUERY.with_weight(0, inside)

            touched = []
            transport = service._shard_transport
            original_call, original_map = transport.call, transport.map
            transport.call = lambda *a, **kw: (
                touched.append(a), original_call(*a, **kw)
            )[1]
            transport.map = lambda calls, **kw: (
                touched.append(calls), original_map(calls, **kw)
            )[1]
            computation, tier = service.execute_tiered(perturbed, 5)
            assert tier == "region"
            assert touched == []  # served before the shards existed, as it were
            assert computation.result.ids == anchor.result.ids
        finally:
            service.close()

    def test_run_batch_windows_through_distributed_engine(self):
        service = make_service()
        try:
            queries = [QUERY, Query([1, 3], [0.9, 0.2]), QUERY]
            result = service.run_batch(queries, 5)
            assert len(result) == 3
            assert result[0] is result[2]  # single-flight duplicate
            assert result.stats.n_queries == 3
        finally:
            service.close()

    def test_run_stream_serves_drag_from_regions(self):
        service = make_service()
        try:
            anchor = service.execute(QUERY, 5)
            lower, upper = anchor.immutable_interval(0)
            weight = QUERY.weight_of(0)
            inside = (weight + upper) / 2 if upper > weight else (lower + weight) / 2
            result = service.run_stream([QUERY, QUERY.with_weight(0, inside)], 5)
            assert result.stats.n_region_hits == 1
        finally:
            service.close()

    def test_apply_mutations_routes_and_invalidates(self):
        service = make_service()
        try:
            service.execute(QUERY, 5)
            stats = service.apply_mutations(
                [Mutation.update(1, 0, 0.95), Mutation.insert([0, 2], [0.4, 0.3])]
            )
            assert stats.mutation_batches == 1
            assert stats.mutations_applied == 2
            assert stats.regions_kept + stats.regions_evicted >= 1
            # Only the touched shards advanced; parity with a fresh oracle.
            epochs = service.sharded.shard_epochs
            assert epochs[0] == 1 and epochs[-1] == 1 and epochs[1] == 0
            post = service.execute(QUERY, 5)
            oracle = ImmutableRegionEngine(
                InvertedIndex(service.index.dataset)
            ).compute_many([QUERY], 5, topk_mode="matmul")[0]
            assert post.result.ids == oracle.result.ids
            # A cache entry that survived the delta test keeps its original
            # epoch (the regions are proven unchanged); the index moved on.
            assert service.index.epoch == 1
        finally:
            service.close()


class TestAsyncGateway:
    def run(self, coro):
        return asyncio.run(coro)

    def test_ping_and_unknown_op(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            assert self.run(gateway.handle({"op": "ping"}))["ok"]
            response = self.run(gateway.handle({"op": "nope"}))
            assert not response["ok"] and response["error"] == "bad_request"
        finally:
            service.close()

    def test_query_response_shape(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            response = self.run(
                gateway.handle(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                )
            )
            assert response["ok"] and response["tier"] == "computed"
            oracle = ImmutableRegionEngine(
                InvertedIndex(make_dataset())
            ).compute_many([QUERY], 5, topk_mode="matmul")[0]
            assert [tid for tid, _ in response["result"]] == oracle.result.ids
            for dim in oracle.sequences:
                assert response["regions"][str(dim)]["interval"] == list(
                    oracle.immutable_interval(dim)
                )
            # A second identical query is an exact cache hit.
            repeat = self.run(
                gateway.handle(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                )
            )
            assert repeat["tier"] == "exact"
            assert gateway.stats.n_exact_hits == 1
        finally:
            service.close()

    def test_malformed_query_is_an_error_response(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            response = self.run(
                gateway.handle({"op": "query", "dims": [0], "weights": [2.0]})
            )
            assert not response["ok"] and response["error"] == "query_error"
            assert gateway.n_errors == 1
        finally:
            service.close()

    def test_rate_limiter_sheds(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5, rate=1e-9, burst=1.0)
        try:
            first = self.run(
                gateway.handle(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                )
            )
            assert first["ok"]
            second = self.run(gateway.handle({"op": "query", "dims": [0], "weights": [0.5]}))
            assert second["error"] == "rate_limited"
            assert gateway.n_rejected_rate == 1
        finally:
            service.close()

    def test_overload_sheds(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5, max_concurrent=1, max_queue=0)
        try:
            gateway._pending = 1  # simulate a stuck in-flight request
            response = self.run(
                gateway.handle({"op": "query", "dims": [0], "weights": [0.5]})
            )
            assert response["error"] == "overloaded"
            assert gateway.n_rejected_load == 1
        finally:
            service.close()

    def test_mutate_op(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            response = self.run(
                gateway.handle(
                    {
                        "op": "mutate",
                        "mutations": [
                            {"kind": "update", "id": 1, "dim": 0, "value": 0.9},
                            {"kind": "delete", "id": 2},
                            {"kind": "insert", "dims": [0, 1], "values": [0.5, 0.5]},
                        ],
                    }
                )
            )
            assert response["ok"] and response["applied"] == 3
            assert response["epoch"] == 1
            assert gateway.stats.mutations_applied == 3
        finally:
            service.close()

    def test_stats_snapshot_includes_empty_tiers(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            snapshot = self.run(gateway.handle({"op": "stats"}))["stats"]
            assert set(snapshot["tiers"]) == {"exact", "region", "computed"}
            assert snapshot["tiers"]["region"]["n"] == 0.0
        finally:
            service.close()

    def test_error_replies_carry_stable_codes(self):
        """Every error reply has a ``code`` from the stable taxonomy
        alongside the legacy ``error`` string."""
        service = make_service()
        gateway = AsyncGateway(service, k=5, rate=1e-9, burst=1.0)
        try:
            unknown = self.run(gateway.handle({"op": "nope"}))
            assert unknown["code"] == "BAD_REQUEST"
            malformed = self.run(
                gateway.handle({"op": "query", "dims": [0], "weights": [2.0]})
            )
            assert malformed["code"] == "BAD_REQUEST"
            assert malformed["error"] == "query_error"
            self.run(
                gateway.handle(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                )
            )
            shed = self.run(
                gateway.handle({"op": "query", "dims": [0], "weights": [0.5]})
            )
            assert shed["code"] == "OVERLOADED" and shed["error"] == "rate_limited"
        finally:
            service.close()

    def test_deadline_exceeded_reply_is_structured(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            reply = self.run(
                gateway.handle(
                    {
                        "op": "query",
                        "dims": [0, 2, 4],
                        "weights": [0.7, 0.3, 0.5],
                        "deadline_ms": 1e-6,
                    }
                )
            )
            assert reply["code"] == "DEADLINE_EXCEEDED"
            assert reply["error"] == "deadline_exceeded"
            assert reply["budget_ms"] >= 0 and reply["elapsed_ms"] >= 0
            assert gateway.stats.deadline_hits == 1
            bad = self.run(
                gateway.handle(
                    {"op": "query", "dims": [0], "weights": [0.5], "deadline_ms": "x"}
                )
            )
            assert bad["code"] == "BAD_REQUEST"
        finally:
            service.close()

    def test_default_deadline_applies_to_bare_requests(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5, default_deadline_ms=1e-6)
        try:
            reply = self.run(
                gateway.handle(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                )
            )
            assert reply["code"] == "DEADLINE_EXCEEDED"
        finally:
            service.close()

    def test_stats_snapshot_surfaces_failure_counters(self):
        plan = FaultPlan([FaultSpec("crash", 0, 0)])
        service = make_service(
            supervision=SupervisionPolicy(max_retries=1, backoff_base=0.0),
            fault_plan=plan,
        )
        gateway = AsyncGateway(service, k=5)
        try:
            reply = self.run(
                gateway.handle(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                )
            )
            assert reply["ok"]  # retry after respawn succeeded
            snapshot = self.run(gateway.handle({"op": "stats"}))["stats"]
            assert snapshot["supervision"]["respawns"] == 1
            assert snapshot["supervision"]["retries"] == 1
            assert snapshot["failures"]["worker_respawns"] == 1
            assert snapshot["failures"]["shard_retries"] == 1
            assert snapshot["internal_errors"] == 0
        finally:
            service.close()


class TestGatewayShutdown:
    def run(self, coro):
        return asyncio.run(coro)

    def test_draining_sheds_with_structured_error(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            gateway._draining = True
            response = self.run(
                gateway.handle({"op": "query", "dims": [0], "weights": [0.5]})
            )
            assert response["code"] == "OVERLOADED"
            assert response["error"] == "shutting_down"
            assert gateway.n_rejected_load == 1
        finally:
            service.close()

    def test_graceful_drain_completes_in_flight_and_refuses_new(self):
        """Shutdown mid-request: the in-flight request completes, the
        listener refuses new connections, no client task is left behind."""
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        original = service.execute_tiered

        def slow_execute(*args, **kwargs):
            time.sleep(0.15)  # keep the request in flight across shutdown
            return original(*args, **kwargs)

        service.execute_tiered = slow_execute

        async def _run():
            host, port = await gateway.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            await asyncio.sleep(0.05)  # request reaches the service
            shut = asyncio.create_task(gateway.shutdown(drain_seconds=5.0))
            line = await reader.readline()
            writer.close()  # EOF lets the handler task exit promptly
            try:
                await writer.wait_closed()
            except ConnectionResetError:
                pass
            await shut
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return json.loads(line)

        try:
            response = self.run(_run())
            assert response["ok"] and response["tier"] == "computed"
            assert gateway._pending == 0
            assert gateway._client_tasks == set()
            assert gateway._server is None
        finally:
            service.close()


class TestServerRoundTrip:
    def test_json_lines_over_tcp(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)
        try:
            responses = run_self_test(
                gateway,
                [
                    {"op": "ping"},
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]},
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]},
                    "not an object",
                    {"op": "stats"},
                ],
            )
            assert responses[0]["ok"]
            assert responses[1]["tier"] == "computed"
            assert responses[2]["tier"] == "exact"
            assert responses[3]["error"] == "bad_request"
            snapshot = responses[4]["stats"]
            assert snapshot["n_queries"] == 2 and snapshot["n_exact_hits"] == 1
        finally:
            service.close()

    def test_oversized_line_gets_structured_reply_and_close(self):
        service = make_service()
        gateway = AsyncGateway(service, k=5)

        async def exchange(host, port, payload: bytes, hang_up: bool):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(payload)
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(), 10))
            if hang_up:  # expect the server to close: EOF, not a hang
                assert await asyncio.wait_for(reader.read(), 10) == b""
            writer.close()
            await writer.wait_closed()
            return reply

        async def run():
            host, port = await gateway.start("127.0.0.1", 0)
            try:
                big = b'{"op": "ping", "pad": "' + b"x" * 70 * 1024 + b'"}\n'
                too_large = await exchange(host, port, big, hang_up=True)
                query = json.dumps(
                    {"op": "query", "dims": [0, 2, 4], "weights": [0.7, 0.3, 0.5]}
                ).encode()
                served = await exchange(host, port, query + b"\n", hang_up=False)
                return too_large, served
            finally:
                await gateway.stop()

        try:
            reply, answer = asyncio.run(run())
        finally:
            service.close()
        assert reply["ok"] is False and reply["code"] == "BAD_REQUEST"
        assert reply["error"] == "request_too_large"
        assert answer["ok"] and answer["tier"] == "computed"


    def test_oversized_sync_chunk_is_refused_and_connection_serves_on(
        self, tmp_path
    ):
        durability = DurabilityManager(tmp_path / "peer", snapshot_interval=0)
        service = make_service(durability=durability)
        service.snapshot_now()
        gateway = AsyncGateway(service, k=5)

        async def run():
            host, port = await gateway.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)

            async def request(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 10))

            try:
                manifest = await request({"op": "sync_manifest"})
                name = sorted(manifest["manifest"]["artifacts"])[0]
                chunk = {"op": "sync_chunk", "name": name, "offset": 0}
                replies = [
                    await request({**chunk, "length": 10 * 1024 * 1024}),
                    await request({**chunk, "length": 0}),
                    await request({**chunk, "length": DEFAULT_SYNC_CHUNK}),
                    await request({"op": "ping"}),
                ]
            finally:
                writer.close()
                await writer.wait_closed()
                await gateway.stop()
            return replies

        try:
            too_long, empty, full, ping = asyncio.run(run())
        finally:
            service.close()
            durability.close()
        for refused in (too_long, empty):
            assert refused["ok"] is False and refused["code"] == "BAD_REQUEST"
            assert "length" in refused["message"]
        assert full["ok"] and full["op"] == "sync_chunk"
        assert ping["ok"]


def test_cli_self_test(capsys):
    from repro.cli import main

    code = main(
        [
            "serve",
            "--family",
            "kb",
            "--shards",
            "3",
            "--self-test",
            "2",
            "--k",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "self-test: 2 queries over 3 shard(s)" in out


def test_cli_self_test_supervised_surfaces_failure_counters(capsys):
    from repro.cli import main

    code = main(
        [
            "serve",
            "--family",
            "kb",
            "--shards",
            "3",
            "--self-test",
            "2",
            "--k",
            "5",
            "--supervise",
            "--deadline-ms",
            "30000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    snapshot = json.loads(out[out.index("{") :])
    assert set(snapshot["failures"]) == {
        "deadline_hits",
        "degraded_responses",
        "shard_retries",
        "worker_respawns",
        "breaker_transitions",
    }
    assert snapshot["supervision"]["breaker_states"] == ["closed"] * 3
    assert snapshot["supervision"]["open_rejections"] == 0
