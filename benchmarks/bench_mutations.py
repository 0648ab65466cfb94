"""Dynamic-data maintenance benchmark, feeding ``BENCH_mutations.json``.

Measures the cost of keeping a warm serving stack correct under data
churn, comparing two maintenance strategies over the same mutation
stream (updates, deletes, inserts at ~1% of n, grouped into batches):

* **incremental** — :meth:`QueryService.apply_mutations`: sorted-
  insert/tombstone patching of the built inverted lists, in-place
  patching of the resident subspace plans, and the Lemma 1 delta test
  that selectively keeps provably unaffected region-cache entries.
  After each batch the workload is re-answered (mostly cache hits).
* **rebuild-per-mutation** — the naive baseline: after *every single
  mutation* the inverted lists of the serving dimensions are rebuilt
  from scratch and all cached state (plans + regions) is flushed; after
  each batch the workload is recomputed from zero.

Both pipelines observe identical dataset states at every step (the
mutation stream is shared), so the comparison isolates maintenance
strategy.  Correctness of the incremental path is enforced separately by
``tests/properties/test_mutation_parity.py``; this benchmark asserts the
two pipelines return identical top-k answers at the end as a cheap
sanity check.  The incremental run also records how many plans the
stream patched and how many it (re)built, and probes one update off a
resident plan's signature, which must build no plan.

Usage::

    PYTHONPATH=src python benchmarks/bench_mutations.py            # full (n=50k)
    PYTHONPATH=src python benchmarks/bench_mutations.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_mutations.py --check    # fail unless
        # incremental beats rebuild-per-mutation by >= the CI gate (2x)
        # and the off-signature update builds no plan

``--quick --check`` is the CI smoke job; the full run's acceptance bar
is the 5x headline at n=50k, 1% churn.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    Dataset,
    InvertedIndex,
    Mutation,
    MutationBatch,
    Query,
    QueryService,
)
from repro.datasets.synthetic import generate_correlated
from repro.datasets.workloads import sample_queries

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_mutations.json"

#: The acceptance configuration: n=50k, 1% churn.
HEADLINE = dict(n=50_000, n_dims=12, qlen=4, k=10, churn=0.01, batch=50)

#: The --check gate (CI smoke): incremental total wall time vs
#: rebuild-per-mutation total wall time.
GATE_SPEEDUP = 2.0

N_SIGNATURES = 4
N_QUERIES = 32


def build_workload(data: Dataset, qlen: int, seed: int):
    bases = sample_queries(
        data, qlen=qlen, n_queries=N_SIGNATURES, seed=seed, min_column_nnz=50
    )
    rng = np.random.default_rng(seed + 1)
    queries = []
    for i in range(N_QUERIES):
        base = bases[i % N_SIGNATURES]
        queries.append(Query(base.dims, rng.uniform(0.1, 1.0, size=qlen)))
    return queries


def mutation_stream(data: Dataset, workload, churn: float, batch: int, seed: int):
    """~churn·n mutations over the workload's dimensions, in batches.

    80% value updates, 10% deletes, 10% inserts — the updates land on
    serving dimensions so every batch genuinely patches hot lists.
    """
    rng = np.random.default_rng(seed)
    hot_dims = sorted({int(d) for q in workload for d in q.dims})
    n_mutations = max(batch, int(data.n_tuples * churn))
    batches = []
    next_id = data.n_tuples
    deleted: set[int] = set()
    for start in range(0, n_mutations, batch):
        mutations = []
        for _ in range(min(batch, n_mutations - start)):
            roll = rng.random()
            if roll < 0.8:
                while True:
                    tid = int(rng.integers(next_id))
                    if tid not in deleted:
                        break
                mutations.append(
                    Mutation.update(
                        tid,
                        int(rng.choice(hot_dims)),
                        float(rng.uniform(0.0, 1.0)),
                    )
                )
            elif roll < 0.9:
                while True:
                    tid = int(rng.integers(next_id))
                    if tid not in deleted:
                        break
                deleted.add(tid)
                mutations.append(Mutation.delete(tid))
            else:
                size = int(rng.integers(2, len(hot_dims) + 1))
                dims = rng.choice(hot_dims, size=size, replace=False)
                mutations.append(
                    Mutation.insert(dims.tolist(), rng.uniform(0.05, 1.0, size))
                )
                next_id += 1
        batches.append(MutationBatch(tuple(mutations)))
    return batches


def copy_dataset(data: Dataset) -> Dataset:
    indptr, indices, values = data.csr_arrays
    return Dataset(indptr.copy(), indices.copy(), values.copy(), data.n_dims)


def off_signature_builds(service: QueryService, workload) -> int:
    """Plan builds caused by one update off a resident plan's signature.

    Updates the dimension fewest workload signatures hold, then looks up
    the plan of every signature without it: an untouched plan is only
    re-stamped, so the count must be 0.
    """
    signatures = sorted({tuple(int(d) for d in q.dims) for q in workload})
    dataset = service.index.dataset
    dim = min(
        range(dataset.n_dims), key=lambda d: sum(d in sig for sig in signatures)
    )
    off = [sig for sig in signatures if dim not in sig]
    tid = next(t for t in range(dataset.n_tuples) if t not in dataset.deleted_ids)
    plans = service.index.plans
    for signature in off:
        plans.plan_for(signature)
    builds = plans.stats().builds
    service.apply_mutations(MutationBatch((Mutation.update(tid, dim, 0.5),)))
    for signature in off:
        plans.plan_for(signature)
    return plans.stats().builds - builds


def run_incremental(data: Dataset, workload, batches, k: int):
    """Warm service + apply_mutations + re-answer per batch."""
    with QueryService(data, executor="sequential", topk_mode="matmul") as service:
        service.run_batch(workload, k)  # warm (not timed: both pipelines warm)
        kept = evicted = 0
        plans_before = service.index.plans.stats()
        start = time.perf_counter()
        for batch in batches:
            stats = service.apply_mutations(batch)
            kept += stats.regions_kept
            evicted += stats.regions_evicted
            service.run_batch(workload, k)
        seconds = time.perf_counter() - start
        plans_after = service.index.plans.stats()
        final = service.run_batch(workload, k)
        answers = [c.result.ids for c in final]
        plans = {
            "patched": plans_after.patches - plans_before.patches,
            "rebuilt": plans_after.builds - plans_before.builds,
            "off_signature_builds": off_signature_builds(service, workload),
        }
    invalidation = {"regions_kept": kept, "regions_evicted": evicted}
    return seconds, answers, invalidation, plans


def run_rebuild_per_mutation(data: Dataset, workload, batches, k: int):
    """The naive baseline: full list rebuild after every mutation, full
    cache flush + workload recompute after every batch."""
    hot_dims = sorted({int(d) for q in workload for d in q.dims})
    index = InvertedIndex(data)
    index.warm(hot_dims)
    with QueryService(index, executor="sequential", topk_mode="matmul") as warm:
        warm.run_batch(workload, k)  # same warm start as the other pipeline
    start = time.perf_counter()
    for batch in batches:
        for mutation in batch:
            data.apply(MutationBatch((mutation,)))
            index = InvertedIndex(data)  # rebuild: all lists from scratch
            index.warm(hot_dims)
        with QueryService(index, executor="sequential", topk_mode="matmul") as service:
            service.run_batch(workload, k)  # cold cache: recompute everything
    seconds = time.perf_counter() - start
    with QueryService(index, executor="sequential", topk_mode="matmul") as service:
        answers = [c.result.ids for c in service.run_batch(workload, k)]
    return seconds, answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny CI grid")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless incremental maintenance beats "
        f"rebuild-per-mutation by >= {GATE_SPEEDUP}x",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    config = dict(HEADLINE)
    if args.quick:
        config["n"] = 5_000
        config["batch"] = 10

    data = generate_correlated(n_tuples=config["n"], n_dims=config["n_dims"], seed=0)
    workload = build_workload(data, config["qlen"], seed=1)
    batches = mutation_stream(
        data, workload, config["churn"], config["batch"], seed=2
    )
    n_mutations = sum(len(b) for b in batches)
    print(
        f"n={config['n']}, {n_mutations} mutations in {len(batches)} batches, "
        f"{N_QUERIES} queries / {N_SIGNATURES} signatures, k={config['k']}"
    )

    incremental_data = copy_dataset(data)
    rebuild_data = copy_dataset(data)

    inc_seconds, inc_answers, invalidation, plans = run_incremental(
        incremental_data, workload, batches, config["k"]
    )
    reb_seconds, reb_answers = run_rebuild_per_mutation(
        rebuild_data, workload, batches, config["k"]
    )
    if inc_answers != reb_answers:
        print("FATAL: pipelines disagree on final answers", file=sys.stderr)
        return 2

    speedup = reb_seconds / inc_seconds
    checked = invalidation["regions_kept"] + invalidation["regions_evicted"]
    keep_rate = invalidation["regions_kept"] / checked if checked else 0.0
    print(
        f"incremental: {inc_seconds:8.3f} s   "
        f"(regions kept {invalidation['regions_kept']}, "
        f"evicted {invalidation['regions_evicted']}, "
        f"keep rate {keep_rate:.1%})"
    )
    print(
        f"plans:       patched {plans['patched']}, rebuilt {plans['rebuilt']}, "
        f"built by an off-signature update {plans['off_signature_builds']}"
    )
    print(f"rebuild/mut: {reb_seconds:8.3f} s")
    print(f"speedup:     {speedup:8.2f}x")

    payload = {
        "meta": {
            "bench": "bench_mutations",
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": {**config, "n_queries": N_QUERIES, "n_signatures": N_SIGNATURES},
        "n_mutations": n_mutations,
        "incremental_seconds": inc_seconds,
        "rebuild_per_mutation_seconds": reb_seconds,
        "speedup": speedup,
        "invalidation": {**invalidation, "keep_rate": keep_rate},
        "plans": plans,
        "gate": {
            "required_speedup": GATE_SPEEDUP,
            "speedup": speedup,
            "off_signature_builds": plans["off_signature_builds"],
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check and speedup < GATE_SPEEDUP:
        print(
            f"REGRESSION: incremental maintenance is only {speedup:.2f}x over "
            f"rebuild-per-mutation (gate: {GATE_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    if args.check and plans["off_signature_builds"]:
        print(
            f"REGRESSION: an update off a resident plan's signature caused "
            f"{plans['off_signature_builds']} plan build(s) (gate: 0)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
