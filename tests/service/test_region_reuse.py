"""Service-level tests for the region-aware cache tier.

Covers the ``reuse`` policy knob, the arrival-order stream route, the
:class:`RegionIndex` life-cycle against ``put`` refreshes / capacity
eviction / mutation sweeps (postings must drop atomically with their
parent entries), per-tier statistics, and the concurrency contract: a
mutation racing a region lookup never serves a stale epoch.
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
from repro.service import RegionCache, region_cache_key
from repro.service.cache import rebase_computation

N, M, K = 150, 5, 5


@pytest.fixture()
def dataset() -> Dataset:
    rng = np.random.default_rng(42)
    dense = rng.random((N, M)) * (rng.random((N, M)) < 0.8)
    return Dataset.from_dense(dense)


def perturbed_inside(computation, query, dim):
    """A weight strictly inside *dim*'s current region, off the anchor."""
    region = computation.sequences[dim].current
    lo, hi = region.weight_interval
    for t in (0.5, 0.31, 0.73):
        w = lo + t * (hi - lo)
        if (
            region.contains_weight(w)
            and 0.0 < w <= 1.0
            and w != query.weight_of(dim)
        ):
            return query.with_weight(dim, w)
    return None


class TestReuseKnob:
    def test_region_hit_skips_engine(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            query = Query([0, 1, 2], [0.5, 0.6, 0.4])
            anchor = service.execute(query, K)
            probe = perturbed_inside(anchor, query, 1)
            assert probe is not None
            served = service.execute(probe, K)
            assert served.reuse is not None
            assert served.reuse.dim == 1
            stats = service.cache.stats()
            assert stats.region_hits == 1
            # The view is not inserted: the anchor remains the only entry.
            assert stats.size == 1

    def test_exact_mode_never_region_hits(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="exact") as service:
            query = Query([0, 1, 2], [0.5, 0.6, 0.4])
            anchor = service.execute(query, K)
            probe = perturbed_inside(anchor, query, 1)
            assert probe is not None
            served = service.execute(probe, K)
            assert served.reuse is None
            assert service.cache.stats().region_hits == 0

    def test_off_mode_disables_the_cache(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="off") as service:
            query = Query([0, 1], [0.5, 0.6])
            service.execute(query, K)
            service.execute(query, K)
            assert len(service.cache) == 0
            batch = service.run_batch([query, query], K)
            assert len(batch) == 2
            assert len(service.cache) == 0

    def test_unknown_reuse_mode_rejected(self, dataset):
        with pytest.raises(Exception):
            QueryService(dataset, reuse="fuzzy")

    def test_region_hit_suppresses_engine_work_in_batches(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            query = Query([0, 1, 2], [0.5, 0.6, 0.4])
            anchor = service.execute(query, K)
            probe = perturbed_inside(anchor, query, 2)
            assert probe is not None
            result = service.run_batch([probe, probe, query], K)
            stats = result.stats
            assert stats.n_computed == 0
            assert stats.n_region_hits >= 1
            assert stats.n_exact_hits >= 1
            assert result[0].result.ids == result[1].result.ids

    def test_run_stream_serves_drag_bursts(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            query = Query([0, 1, 2], [0.5, 0.6, 0.4])
            anchor = service.execute(query, K)
            probes = [perturbed_inside(anchor, query, d) for d in (0, 1, 2)]
            probes = [p for p in probes if p is not None]
            assert probes
            result = service.run_stream([query] + probes, K)
            stats = result.stats
            assert stats.n_exact_hits == 1
            assert stats.n_region_hits == len(probes)
            assert stats.n_computed == 0
            rollup = stats.tier_latencies()
            assert set(rollup) <= {"exact", "region", "computed"}
            assert rollup["region"]["n"] == len(probes)
            assert "region" in stats.render()


class TestPutRefresh:
    """ISSUE 5 satellite: refreshing a key is an explicit drop + reinsert."""

    def test_refresh_purges_old_postings(self, dataset):
        rng = np.random.default_rng(9)
        other = Dataset.from_dense(
            rng.random((N, M)) * (rng.random((N, M)) < 0.8)
        )
        query = Query([0, 1, 2], [0.5, 0.6, 0.4])
        with QueryService(dataset, executor="sequential", reuse="region") as a, \
                QueryService(other, executor="sequential", reuse="region") as b:
            comp_old = a.execute(query, K)
            comp_new = b.execute(query, K)

        cache = RegionCache(capacity=8)
        key = region_cache_key(query, K, 0, "cpt", True)
        cache.put(key, comp_old)
        postings_old = cache.stats().postings
        assert postings_old > 0
        cache.put(key, comp_new)
        stats = cache.stats()
        # Exactly the new computation's postings remain; none of the old
        # entry's postings survive the refresh.
        assert stats.size == 1
        expected = sum(len(s.regions) for s in comp_new.sequences.values())
        assert stats.postings == expected
        # Any region hit resolves against the *new* computation.
        probe = perturbed_inside(comp_new, query, 1)
        if probe is not None:
            view, tier = cache.lookup(
                region_cache_key(probe, K, 0, "cpt", True), probe, other
            )
            assert tier == "region"
            assert view.result.ids == list(
                comp_new.sequences[1].current.result_ids
            )

    def test_eviction_purges_postings(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            comps = {}
            for i, dims in enumerate(([0, 1], [1, 2], [2, 3])):
                q = Query(dims, [0.5, 0.6])
                comps[i] = (q, service.execute(q, K))
        cache = RegionCache(capacity=2)
        for i, (q, comp) in comps.items():
            cache.put(region_cache_key(q, K, 0, "cpt", True), comp)
        stats = cache.stats()
        assert stats.size == 2
        assert stats.evictions == 1
        survivors = [comps[1][1], comps[2][1]]
        expected = sum(
            len(s.regions) for c in survivors for s in c.sequences.values()
        )
        assert stats.postings == expected

    def test_clear_drops_postings(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            service.execute(Query([0, 1], [0.5, 0.6]), K)
            assert service.cache.stats().postings > 0
            service.cache.clear()
            assert service.cache.stats().postings == 0
            assert len(service.cache) == 0


class TestSweepInteraction:
    """Sweeps drop postings atomically; peek never resurrects them."""

    def test_sweep_drops_postings_with_entries(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            queries = [
                Query([0, 1, 2], w)
                for w in ([0.5, 0.6, 0.4], [0.3, 0.7, 0.5], [0.8, 0.4, 0.6])
            ]
            for q in queries:
                service.execute(q, K)
            before = service.cache.stats()
            assert before.postings > 0
            kept, dropped = service.cache.sweep_dims(
                range(dataset.n_dims), lambda comp, memo: False
            )
            assert (kept, dropped) == (0, 3)
            after = service.cache.stats()
            assert after.postings == 0
            assert after.invalidations == 3
            # A perturbation that would have region-hit now recomputes.
            probe = Query([0, 1, 2], [0.5, 0.6, 0.4001])
            served = service.execute(probe, K)
            assert served.reuse is None

    def test_partial_sweep_keeps_survivor_postings(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            q_keep = Query([0, 1], [0.5, 0.6])
            q_drop = Query([1, 2], [0.5, 0.6])
            keep_comp = service.execute(q_keep, K)
            service.execute(q_drop, K)
            service.cache.sweep_dims(
                range(dataset.n_dims), lambda comp, memo: comp is keep_comp
            )
            stats = service.cache.stats()
            expected = sum(
                len(s.regions) for s in keep_comp.sequences.values()
            )
            assert stats.postings == expected
            probe = perturbed_inside(keep_comp, q_keep, 0)
            if probe is not None:
                assert service.execute(probe, K).reuse is not None

    def test_peek_does_not_touch_tier_counters(self, dataset):
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            q = Query([0, 1], [0.5, 0.6])
            service.execute(q, K)
            key = region_cache_key(q, K, 0, "cpt", True)
            before = service.cache.stats()
            assert service.cache.peek(key) is not None
            after = service.cache.stats()
            assert (after.hits, after.region_hits, after.misses) == (
                before.hits,
                before.region_hits,
                before.misses,
            )

    def test_mutation_sweep_blocks_stale_region_hits(self, dataset):
        """After apply_mutations returns, evicted regions cannot serve."""
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            query = Query([0, 1, 2], [0.5, 0.6, 0.4])
            anchor = service.execute(query, K)
            probe = perturbed_inside(anchor, query, 1)
            assert probe is not None
            assert service.execute(probe, K).reuse is not None
            # Delete the top tuple: the entry (and its postings) must go.
            top = anchor.result.ids[0]
            stats = service.apply_mutations(MutationBatch((Mutation.delete(top),)))
            assert stats.regions_evicted >= 1
            served = service.execute(probe, K)
            assert served.reuse is None
            assert top not in served.result.ids
            mutated = service.index.dataset.compacted()
            assert served.result.ids == brute_force_topk(mutated, probe, K).ids


class TestRegionRaceSafety:
    """Mutations racing region lookups: every answer is epoch-consistent.

    Reuses the RW-gate harness shape of ``test_mutation_service``: racers
    hammer anchor + perturbed queries while the main thread applies
    mutations; every returned computation (engine-made or region-served)
    must equal the brute-force top-k of the dataset snapshot at its
    stamped epoch — a region view served from an entry the sweep should
    have dropped would fail against every snapshot.
    """

    def test_region_hits_racing_mutations_stay_epoch_consistent(self, dataset):
        rng = np.random.default_rng(7)
        snapshots = {0: dataset.compacted()}
        results = []
        stop = threading.Event()

        with QueryService(
            dataset, executor="sequential", reuse="region", max_workers=2
        ) as service:
            anchors = [
                Query([0, 1, 2], rng.uniform(0.3, 0.8, 3)) for _ in range(3)
            ]

            def racer():
                local = np.random.default_rng(threading.get_ident() % 2**32)
                while not stop.is_set():
                    base = anchors[int(local.integers(len(anchors)))]
                    dim = int(base.dims[int(local.integers(3))])
                    anchor_comp = service.execute(base, K)
                    results.append((base, anchor_comp))
                    probe = perturbed_inside(anchor_comp, base, dim)
                    if probe is not None:
                        results.append((probe, service.execute(probe, K)))

            threads = [threading.Thread(target=racer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                for _ in range(4):
                    time.sleep(0.05)
                    batch = MutationBatch(
                        (
                            Mutation.update(
                                int(rng.integers(N)),
                                int(rng.integers(M)),
                                float(rng.uniform(0.0, 1.0)),
                            ),
                        )
                    )
                    service.apply_mutations(batch)
                    snapshots[service.index.epoch] = (
                        service.index.dataset.compacted()
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()

        assert results, "racers produced no computations"
        n_region = 0
        for query, computation in results:
            if computation.reuse is not None:
                n_region += 1
            snapshot = snapshots[computation.epoch]
            oracle = brute_force_topk(snapshot, query, K)
            assert computation.result.ids == oracle.ids, (
                f"stale serve: answer at epoch {computation.epoch} does not "
                f"match that epoch's data (reuse={computation.reuse})"
            )
        assert n_region > 0, "race exercised no region hits"


class TestRebaseFunction:
    def test_rebase_rejects_nothing_silently(self, dataset):
        """Direct rebase at a strictly-inside weight round-trips cleanly."""
        with QueryService(dataset, executor="sequential", reuse="region") as service:
            query = Query([0, 1, 2], [0.5, 0.6, 0.4])
            anchor = service.execute(query, K, phi=1)
            seq = anchor.sequences[0]
            for region_index, region in enumerate(seq.regions):
                lo, hi = region.weight_interval
                w = lo + 0.5 * (hi - lo)
                if not region.contains_weight(w) or not 0.0 < w <= 1.0:
                    continue
                view = rebase_computation(
                    anchor,
                    query.with_weight(0, w),
                    0,
                    region_index,
                    dataset,
                )
                assert view is not None
                assert view.result.ids == list(region.result_ids)
                assert view.sequences[0].current_index == region_index
                # Contiguity survives re-basing (shared bound objects).
                regions = view.sequences[0].regions
                for left, right in zip(regions, regions[1:]):
                    assert left.upper.delta == right.lower.delta
