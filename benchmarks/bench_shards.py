"""Shard-count scaling benchmark, feeding ``BENCH_shards.json``.

Measures what the sharded compute path (:mod:`repro.core.distributed`)
buys on the interactive ``slider_drag`` workload: identically configured
:class:`ShardedQueryService` instances (``reuse="off"`` — every tick runs
the engine, isolating compute from caching) answer the same stream over
1, 2, 4, and 8 row-range shards.

On one core the win is *work deletion*, not parallelism: each shard
publishes per-signature coordinate maxima, the coordinator turns them
into exact IEEE-754 shard-skip certificates (no tolerances), and with
rows arranged so high-scoring tuples cluster in the first shards — the
sorted layout below, standing in for any score-correlated partitioner —
the tail shards are certified away from both the top-k merge and the
Lemma 1 sweeps.  The same stream also runs over the rows in generator
order (``random_layout`` in the JSON), where few shards can be certified
away; that run is reported, not gated.  Answers are asserted
bit-identical to the 1-shard (= unsharded) configuration, per layout,
before any number is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_shards.py            # full (n=150k)
    PYTHONPATH=src python benchmarks/bench_shards.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_shards.py --check    # fail unless
        # 4 shards beat 1 shard by >= the CI gate (2.5x)

``--quick --check`` is the CI smoke job.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import Dataset, InvertedIndex, ShardedIndex, ShardedQueryService
from repro.datasets.synthetic import generate_correlated
from repro.datasets.workloads import slider_drag

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_shards.json"

#: The acceptance configuration (full mode).
HEADLINE = dict(
    n=150_000,
    n_dims=12,
    rho=0.7,
    qlen=4,
    k=10,
    n_anchors=10,
    drags_per_anchor=30,
    step_scale=0.002,
    cold_fraction=0.1,
)

SHARD_COUNTS = (1, 2, 4, 8)

#: The --check gate (CI smoke): 4-shard throughput over 1-shard.
GATE_SPEEDUP = 2.5
GATE_SHARDS = 4


def score_sorted(data: Dataset) -> Dataset:
    """Rows reordered by descending coordinate sum.

    Contiguous range sharding is layout-sensitive: certificates delete a
    shard only when its coordinate maxima are dominated.  Sorting by row
    mass concentrates the competitive tuples in the first shards — the
    layout a score-aware partitioner would produce — and is what the
    benchmark is parameterised on.  Parity with the unsharded oracle
    holds for *any* layout (property-tested); only the speedup depends
    on it.
    """
    indptr, indices, values = data.csr_arrays
    n, m = data.n_tuples, data.n_dims
    row_ids = np.repeat(np.arange(n), np.diff(indptr))
    sums = np.zeros(n)
    np.add.at(sums, row_ids, values)
    dense = np.zeros((n, m))
    dense[row_ids, indices] = values
    order = np.argsort(-sums, kind="stable")
    return Dataset.from_dense(dense[order])


def answers_of(result):
    """Everything the parity check compares bit-for-bit across configs."""
    return [
        (
            computation.result.ids,
            [float(s) for s in computation.result.scores],
            {
                int(dim): computation.immutable_interval(dim)
                for dim in computation.sequences
            },
        )
        for computation in result.computations
    ]


def run_all_shards(index: InvertedIndex, workload, k: int, repeats: int = 5):
    """Time every shard count interleaved; returns per-count timing + answers.

    All shard counts share one prebuilt global index, so only the
    per-shard state differs between configurations.  Two untimed passes
    per service warm plans, zone statistics, and the allocator; the
    timed repeats then cycle *round-robin* over the shard counts so
    machine-level drift (frequency scaling, co-tenancy) hits every
    configuration equally, and each count keeps its best-of-``repeats``
    wall time — with ``reuse="off"`` every repeat does identical
    deterministic work, so the minimum is the least-noise observation.
    The combination is what keeps a ratio gate stable in CI.
    """
    services = {
        n_shards: ShardedQueryService(
            ShardedIndex(index, n_shards), reuse="off"
        )
        for n_shards in SHARD_COUNTS
    }
    seconds = {n_shards: float("inf") for n_shards in SHARD_COUNTS}
    answers = {}
    try:
        for service in services.values():
            for _ in range(2):
                service.run_stream(workload, k)  # untimed warm passes
        for _ in range(repeats):
            for n_shards, service in services.items():
                gc.collect()
                start = time.perf_counter()
                result = service.run_stream(workload, k)
                seconds[n_shards] = min(
                    seconds[n_shards], time.perf_counter() - start
                )
                answers[n_shards] = answers_of(result)
    finally:
        for service in services.values():
            service.close()
    return seconds, answers


def measure_layout(index: InvertedIndex, workload, k: int):
    """Time every shard count on one row layout; ``None`` on a parity miss."""
    seconds, answers = run_all_shards(index, workload, k)
    for n_shards in SHARD_COUNTS[1:]:
        if answers[n_shards] != answers[1]:
            print(
                f"FATAL: {n_shards}-shard answers differ from 1-shard",
                file=sys.stderr,
            )
            return None
    runs = {}
    for n_shards in SHARD_COUNTS:
        qps = len(workload) / seconds[n_shards]
        runs[n_shards] = dict(seconds=seconds[n_shards], qps=qps)
        print(
            f"{n_shards} shard(s): {seconds[n_shards]:8.3f} s  "
            f"({qps:9.1f} q/s, "
            f"speedup {seconds[1] / seconds[n_shards]:5.2f}x)"
        )
    speedups = {s: seconds[1] / seconds[s] for s in SHARD_COUNTS}
    return dict(n_queries=len(workload), runs=runs, speedups=speedups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny CI grid")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless {GATE_SHARDS} shards beat 1 shard "
        f"by >= {GATE_SPEEDUP}x on the slider workload",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    config = dict(HEADLINE)
    if args.quick:
        config.update(n=100_000, n_anchors=6, drags_per_anchor=20)

    generated = generate_correlated(
        n_tuples=config["n"],
        n_dims=config["n_dims"],
        rho=config["rho"],
        seed=0,
    )
    layouts = {}
    for layout, data in (
        ("score-sorted", score_sorted(generated)),
        ("generator-order", generated),
    ):
        workload = slider_drag(
            data,
            qlen=config["qlen"],
            n_anchors=config["n_anchors"],
            drags_per_anchor=config["drags_per_anchor"],
            seed=1,
            step_scale=config["step_scale"],
            cold_fraction=config["cold_fraction"],
            min_column_nnz=50,
        )
        print(
            f"n={config['n']} ({layout} rows), {len(workload)} queries "
            f"({config['n_anchors']} anchors x {config['drags_per_anchor']} "
            f"ticks), k={config['k']}, shard counts {SHARD_COUNTS}"
        )
        layouts[layout] = measure_layout(InvertedIndex(data), workload, config["k"])
        if layouts[layout] is None:
            return 2
    sorted_run, random_run = layouts["score-sorted"], layouts["generator-order"]
    gate_speedup = sorted_run["speedups"][GATE_SHARDS]
    print(f"speedup at {GATE_SHARDS} shards (score-sorted): {gate_speedup:.2f}x")

    payload = {
        "meta": {
            "bench": "bench_shards",
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "config": config,
        "n_queries": sorted_run["n_queries"],
        "shard_counts": list(SHARD_COUNTS),
        "runs": {str(s): sorted_run["runs"][s] for s in SHARD_COUNTS},
        "speedups": {str(s): sorted_run["speedups"][s] for s in SHARD_COUNTS},
        "random_layout": {
            "layout": "generator order (rows as generated, not sorted)",
            "n_queries": random_run["n_queries"],
            "runs": {str(s): random_run["runs"][s] for s in SHARD_COUNTS},
            "speedups": {str(s): random_run["speedups"][s] for s in SHARD_COUNTS},
        },
        "gate": {
            "shards": GATE_SHARDS,
            "required_speedup": GATE_SPEEDUP,
            "speedup": gate_speedup,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check and gate_speedup < GATE_SPEEDUP:
        print(
            f"REGRESSION: {GATE_SHARDS} shards are only {gate_speedup:.2f}x "
            f"over 1 shard (gate: {GATE_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
