"""Service-level dynamic-data tests.

Covers :meth:`QueryService.apply_mutations` (delta-aware region-cache
invalidation, stats reporting, in-place plan patching),
:meth:`QueryService.submit`, and the concurrency contract: mutations
racing query submission across the thread and process executors never
yield torn reads — every returned computation carries the epoch it ran
under, and its result equals the brute-force top-k of *exactly that*
dataset version.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    Dataset,
    Mutation,
    MutationBatch,
    Query,
    QueryService,
    brute_force_topk,
)

from ..conftest import assert_plan_matches_build

N, M, K = 120, 5, 5


@pytest.fixture()
def dataset() -> Dataset:
    rng = np.random.default_rng(42)
    dense = rng.random((N, M)) * (rng.random((N, M)) < 0.8)
    return Dataset.from_dense(dense)


def workload(rng, n_queries: int = 6):
    return [
        Query([0, 1, 2], rng.uniform(0.2, 0.9, size=3)) for _ in range(n_queries)
    ] + [Query([2, 3, 4], rng.uniform(0.2, 0.9, size=3)) for _ in range(2)]


def far_from_boundary_update(dataset: Dataset) -> Mutation:
    """An update of a mid-pack tuple — provably outside every k-band."""
    scores = dataset.scores(np.array([0, 1, 2]), np.array([0.5, 0.5, 0.5]))
    victim = int(np.argsort(scores)[N // 3])
    return Mutation.update(victim, 0, 0.01)


class TestApplyMutations:
    def test_reports_invalidation_stats(self, dataset):
        rng = np.random.default_rng(1)
        with QueryService(dataset, executor="sequential") as service:
            service.run_batch(workload(rng), K)
            cached_before = len(service.cache)
            assert cached_before > 0
            plan = service.index.plans.peek([0, 1, 2])
            assert plan is not None
            stats = service.apply_mutations(
                MutationBatch((far_from_boundary_update(dataset),))
            )
            assert stats.mutation_batches == 1
            assert stats.mutations_applied == 1
            assert stats.regions_kept + stats.regions_evicted == cached_before
            # The update lands on dim 0: the [0, 1, 2] plan is patched in
            # place to what a fresh build would hold; [2, 3, 4] is not.
            assert stats.plans_patched == 1
            assert service.index.plans.peek([0, 1, 2]) is plan
            assert_plan_matches_build(plan, service.index)
            assert stats.wall_seconds > 0.0
            assert "mutations" in stats.as_dict()
            assert "applied in 1 batch(es)" in stats.render()

    def test_result_tuple_mutation_evicts_its_entries(self, dataset):
        rng = np.random.default_rng(2)
        with QueryService(dataset, executor="sequential") as service:
            batch = service.run_batch(workload(rng), K)
            top_id = batch[0].result.ids[0]
            stats = service.apply_mutations(
                MutationBatch((Mutation.delete(top_id),))
            )
            assert stats.regions_evicted >= 1
            # Every post-mutation answer matches the brute oracle on the
            # mutated data — evicted entries recompute, survivors replay.
            mutated = service.index.dataset.compacted()
            for query in workload(np.random.default_rng(2)):
                computation = service.execute(query, K)
                assert computation.result.ids == brute_force_topk(
                    mutated, query, K
                ).ids

    def test_off_subspace_mutations_keep_all_entries(self, dataset):
        rng = np.random.default_rng(3)
        queries = [Query([0, 1], rng.uniform(0.2, 0.9, 2)) for _ in range(5)]
        with QueryService(dataset, executor="sequential") as service:
            service.run_batch(queries, K)
            stats = service.apply_mutations(
                MutationBatch(
                    (
                        Mutation.update(0, 3, 0.9),
                        Mutation.update(1, 4, 0.1),
                    )
                )
            )
            assert stats.regions_evicted == 0
            assert stats.regions_kept == len(service.cache)
            assert service.cache.stats().invalidations == 0

    def test_epoch_visible_on_fresh_computations(self, dataset):
        with QueryService(dataset, executor="sequential") as service:
            query = Query([0, 1], [0.6, 0.4])
            assert service.execute(query, K).epoch == 0
            service.apply_mutations(
                MutationBatch((Mutation.delete(service.execute(query, K).result.ids[0]),))
            )
            assert service.execute(query, K).epoch == 1


class TestSubmit:
    def test_submit_resolves_like_execute(self, dataset):
        with QueryService(dataset, executor="sequential") as service:
            query = Query([0, 1], [0.7, 0.3])
            future = service.submit(query, K)
            assert future.result().result.ids == service.execute(query, K).result.ids


class TestMutationConcurrency:
    """Mutations racing query traffic: no torn reads, ever.

    Each computation is stamped with the epoch it ran under; the test
    snapshots the dataset at every epoch and asserts each computation's
    top-k equals the brute-force answer of *its own* epoch's snapshot.
    A torn read — a computation spanning a mutation — would match
    neither the old nor the new snapshot.
    """

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_no_torn_reads_under_mutation_race(self, dataset, executor):
        rng = np.random.default_rng(7)
        queries = workload(rng, n_queries=4)
        snapshots = {0: dataset.compacted()}
        results = []
        errors = []
        stop = threading.Event()

        with QueryService(
            dataset, executor=executor, max_workers=2, cache_capacity=1024
        ) as service:

            def racer():
                local = np.random.default_rng(threading.get_ident() % 2**32)
                while not stop.is_set():
                    # Unique weights per round: every query is a fresh
                    # computation, so its epoch stamp is the epoch it
                    # actually ran under.
                    dims = [0, 1, 2] if local.random() < 0.5 else [2, 3, 4]
                    round_queries = [
                        Query(dims, local.uniform(0.2, 0.9, 3))
                        for _ in range(3)
                    ]
                    batch = service.run_batch(round_queries, K)
                    results.extend(zip(round_queries, batch.computations))

            threads = [threading.Thread(target=racer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                for round_no in range(4):
                    time.sleep(0.05)
                    batch = MutationBatch(
                        (
                            Mutation.update(
                                int(rng.integers(N)),
                                int(rng.integers(M)),
                                float(rng.uniform(0.0, 1.0)),
                            ),
                            far_from_boundary_update(service.index.dataset),
                        )
                    )
                    service.apply_mutations(batch)
                    epoch = service.index.epoch
                    snapshots[epoch] = service.index.dataset.compacted()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()

        assert results, "racers produced no computations"
        observed_epochs = set()
        for query, computation in results:
            observed_epochs.add(computation.epoch)
            snapshot = snapshots[computation.epoch]
            oracle = brute_force_topk(snapshot, query, K)
            assert computation.result.ids == oracle.ids, (
                f"torn read: computation at epoch {computation.epoch} does "
                f"not match that epoch's data"
            )
        # The race genuinely interleaved: queries ran under more than one
        # epoch.
        assert len(observed_epochs) >= 2

    def test_submit_races_mutations(self, dataset):
        rng = np.random.default_rng(11)
        snapshots = {0: dataset.compacted()}
        with QueryService(dataset, executor="thread", max_workers=4) as service:
            futures = []
            for round_no in range(8):
                for _ in range(6):
                    query = Query([0, 1, 2], rng.uniform(0.2, 0.9, 3))
                    futures.append((query, service.submit(query, K)))
                if round_no % 2 == 1:
                    service.apply_mutations(
                        MutationBatch(
                            (
                                Mutation.update(
                                    int(rng.integers(N)),
                                    int(rng.integers(3)),
                                    float(rng.uniform(0.0, 1.0)),
                                ),
                            )
                        )
                    )
                    snapshots[service.index.epoch] = (
                        service.index.dataset.compacted()
                    )
            for query, future in futures:
                computation = future.result(timeout=30)
                oracle = brute_force_topk(
                    snapshots[computation.epoch], query, K
                )
                assert computation.result.ids == oracle.ids
