"""Command-line interface: ``python -m repro <command>``.

Eight subcommands:

``demo``
    Run the paper's Figure 1 running example and print the region report.
``regions``
    Generate a dataset (``--family wsj|kb|st``), sample one query, compute
    immutable regions with the chosen method and print the report (or JSON
    with ``--json``).
``compare``
    Run all four methods on the same workload and print the cost table —
    a one-command miniature of the paper's evaluation.
``batch``
    Push a whole query workload through the pooled, cached
    :class:`~repro.service.QueryService` and print throughput, latency
    percentiles, cache hit rate, and per-method cost rollups; ``--repeat``
    re-runs the workload to show cache-hit scaling.
``serve``
    Stand up the sharded serving stack — a
    :class:`~repro.service.ShardedQueryService` over ``--shards``
    row-range shards behind the :class:`~repro.service.AsyncGateway`
    JSON-lines TCP front door; ``--self-test N`` instead runs N sampled
    queries through an ephemeral server round-trip and exits.  With
    ``--data-dir`` the stack is durable: recover-on-boot, a fsynced
    mutation WAL, periodic checksummed snapshots every
    ``--snapshot-interval`` batches, and a final snapshot on graceful
    drain.
``loadtest``
    Open-loop load harness: build (or load) a timestamped arrival
    schedule over a slider-drag workload, replay it against an
    in-process sharded service — or a live gateway via ``--gateway`` —
    firing each request at its scheduled instant regardless of
    completion, and report p50/p99/p99.9 and SLO attainment per
    offered-load step (``BENCH_slo.json``); ``--check`` gates on
    "p99 < X ms and attainment >= Y" and fails on empty samples.
``snapshot``
    Offline snapshot creation: write one checksummed snapshot generation
    into ``--data-dir`` — of the recovered state when the dir already
    holds state, else of a freshly generated ``--family`` dataset — so a
    later ``repro serve --data-dir`` boots from it.
``recover``
    Recovery dry run (read-only): print every snapshot generation's
    checksum verdict, the chosen generation's manifest, the replayable
    WAL span, and the region-atlas header; exit non-zero when the data
    dir is unrecoverable.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .bench.harness import ExperimentRunner
from .core.engine import (
    BACKENDS,
    METHODS,
    TOPK_MODES,
    ImmutableRegionEngine,
    compute_immutable_regions,
)
from .core.reporting import computation_to_dict, render_report
from .datasets.base import Dataset
from .datasets.image import generate_image_features
from .datasets.synthetic import generate_correlated
from .datasets.text import generate_text_corpus
from .datasets.workloads import sample_queries
from .core.distributed import SHARD_FAILURE_POLICIES
from .errors import RecoveryError
from .service import EXECUTORS, REUSE_MODES, AsyncGateway, QueryService, ShardedQueryService
from .service.gateway import run_self_test, serve as serve_gateway
from .service.recovery import DurabilityManager, has_state
from .storage.durability import SnapshotStore, WriteAheadLog, read_atlas_info
from .storage.index import InvertedIndex
from .storage.sharded import ShardedIndex
from .topk.query import Query

__all__ = ["main"]

_FAMILIES = ("wsj", "kb", "st")


def _build_dataset(family: str, seed: int):
    """Generate a laptop-sized dataset of the requested family."""
    if family == "wsj":
        data, stats = generate_text_corpus(n_docs=5_000, vocab_size=1_200, seed=seed)
        return data, stats.idf
    if family == "kb":
        return generate_image_features(n_tuples=2_000, n_dims=200, seed=seed), None
    return generate_correlated(n_tuples=10_000, n_dims=12, seed=seed), None


def _sample_query(data, idf, qlen: int, seed: int) -> Query:
    workload = sample_queries(
        data,
        qlen=qlen,
        n_queries=1,
        seed=seed,
        weight_scheme="idf" if idf is not None else "uniform",
        idf=idf,
        min_column_nnz=20,
    )
    return workload[0]


def _cmd_demo(args: argparse.Namespace) -> int:
    data = Dataset.from_dense(
        [[0.8, 0.32], [0.7, 0.5], [0.1, 0.8], [0.1, 0.6]]
    )
    query = Query([0, 1], [0.8, 0.5])
    computation = compute_immutable_regions(
        data, query, k=2, method=args.method, phi=args.phi, backend=args.backend
    )
    print(render_report(computation))
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    data, idf = _build_dataset(args.family, args.seed)
    query = _sample_query(data, idf, args.qlen, args.seed)
    engine = ImmutableRegionEngine(
        InvertedIndex(data),
        method=args.method,
        count_reorderings=not args.composition_only,
        backend=args.backend,
    )
    computation = engine.compute(query, k=args.k, phi=args.phi)
    if args.json:
        json.dump(computation_to_dict(computation), sys.stdout, indent=2)
        print()
    else:
        print(render_report(computation))
        metrics = computation.metrics
        print(
            f"cost: {metrics.evals.evaluated_candidates} candidate evaluations, "
            f"{metrics.io_seconds:.4f} s simulated I/O, "
            f"{metrics.cpu_seconds * 1000:.2f} ms CPU"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    data, idf = _build_dataset(args.family, args.seed)
    index = InvertedIndex(data)
    workload = sample_queries(
        data,
        qlen=args.qlen,
        n_queries=args.queries,
        seed=args.seed,
        weight_scheme="idf" if idf is not None else "uniform",
        idf=idf,
        min_column_nnz=20,
    )
    runner = ExperimentRunner(index, backend=args.backend)
    print(
        f"{args.family} family, k={args.k}, qlen={args.qlen}, "
        f"phi={args.phi}, {args.queries} queries "
        f"({args.backend} backend)\n"
    )
    print(f"{'method':>8} | {'eval/dim':>10} | {'I/O (s)':>10} | {'CPU (ms)':>10}")
    print("-" * 48)
    for method in METHODS:
        aggregate = runner.run_point(method, workload, k=args.k, phi=args.phi)
        print(
            f"{method:>8} | {aggregate.evaluated_per_dim:>10.2f} | "
            f"{aggregate.io_seconds:>10.4f} | {aggregate.cpu_seconds * 1000:>10.3f}"
        )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    data, idf = _build_dataset(args.family, args.seed)
    workload = sample_queries(
        data,
        qlen=args.qlen,
        n_queries=args.queries,
        seed=args.seed,
        weight_scheme="idf" if idf is not None else "uniform",
        idf=idf,
        min_column_nnz=20,
    )
    service = QueryService(
        InvertedIndex(data),
        method=args.method,
        executor=args.executor,
        max_workers=args.workers,
        cache_capacity=args.cache_size,
        backend=args.backend,
        topk_mode=args.topk_mode,
        batch_window=args.batch_window,
        reuse=args.reuse,
    )
    passes = []
    for index in range(args.repeat):
        result = service.run_batch(workload, k=args.k, phi=args.phi)
        passes.append(result.stats)
        if not args.json:
            print(f"pass {index + 1}/{args.repeat} — {result.stats.render()}")
            print()
    cache_stats = service.cache.stats()
    if args.json:
        json.dump(
            {
                "family": args.family,
                "method": args.method,
                "backend": args.backend,
                "topk_mode": args.topk_mode,
                "batch_window": args.batch_window,
                "executor": args.executor,
                "workers": args.workers,
                "k": args.k,
                "phi": args.phi,
                "qlen": args.qlen,
                "passes": [stats.as_dict() for stats in passes],
                "reuse": args.reuse,
                "cache": {
                    "hits": cache_stats.hits,
                    "region_hits": cache_stats.region_hits,
                    "misses": cache_stats.misses,
                    "evictions": cache_stats.evictions,
                    "postings": cache_stats.postings,
                    "size": cache_stats.size,
                    "hit_rate": cache_stats.hit_rate,
                },
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(
            f"cache over all passes: {cache_stats.hits} exact + "
            f"{cache_stats.region_hits} region hits / "
            f"{cache_stats.lookups} lookups ({cache_stats.hit_rate:.1%}), "
            f"{cache_stats.size} entries resident "
            f"({cache_stats.postings} region postings)"
        )
        if args.repeat > 1 and passes[0].wall_seconds > 0:
            speedup = passes[0].wall_seconds / max(passes[-1].wall_seconds, 1e-12)
            print(
                f"repeat speedup: pass 1 took {passes[0].wall_seconds:.3f} s, "
                f"pass {args.repeat} took {passes[-1].wall_seconds:.3f} s "
                f"({speedup:.1f}x)"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    durability = None
    recovered = None
    if args.join is not None:
        # Peer warmup: stream the peer's durable state into our data dir
        # over the gateway protocol, then boot through the ordinary
        # recover-on-boot path — bit-identical to booting from the
        # peer's own disk.
        from .service.replication import warm_from_peer

        if args.data_dir is None:
            print("--join requires --data-dir", file=sys.stderr)
            return 2
        if has_state(args.data_dir):
            print(
                f"refusing to join: {args.data_dir} already holds durable "
                "state (recover from it, or point --data-dir elsewhere)",
                file=sys.stderr,
            )
            return 2
        host, _, port = args.join.rpartition(":")
        try:
            report = warm_from_peer(
                host or "127.0.0.1", int(port), args.data_dir
            )
        except (RecoveryError, ConnectionError, ValueError) as exc:
            print(f"join failed: {exc}", file=sys.stderr)
            return 1
        print(
            f"warmed from peer {args.join}: generation "
            f"{report['generation']} (epoch {report['epoch']}), "
            f"{report['artifacts']} artifact(s) in {report['chunks']} "
            f"chunk(s), {report['bytes']} bytes"
        )
    if args.data_dir is not None:
        durability = DurabilityManager(
            args.data_dir, snapshot_interval=args.snapshot_interval
        )
        if has_state(args.data_dir):
            recovered = durability.recover()
            report = recovered.report
            print(
                f"recovered generation {report.chosen_generation} "
                f"(epoch {report.snapshot_epoch}) + "
                f"{report.wal_records_replayed} WAL record(s) "
                f"-> epoch {report.recovered_epoch} "
                f"in {report.recovery_seconds:.3f} s"
                + (
                    f"; rejected {len(report.rejected)} generation(s)"
                    if report.rejected
                    else ""
                )
            )
    if recovered is not None:
        data = recovered.index
        idf = None
    else:
        data, idf = _build_dataset(args.family, args.seed)
    service_kwargs = dict(
        n_shards=args.shards,
        method=args.method,
        backend=args.backend,
        reuse=args.reuse,
        on_shard_failure=args.on_shard_failure,
        supervision=True if args.supervise else None,
    )
    if args.replicas > 1:
        from .service.replication import ReplicaSet

        service = ReplicaSet.build(
            data,
            args.replicas,
            durability=durability,
            set_kwargs={"probe_interval": args.probe_interval},
            **service_kwargs,
        )
        print(
            f"replica set: {args.replicas} replicas, primary "
            f"{service.primary_name}"
            + (
                f", probing every {args.probe_interval:g} s"
                if args.probe_interval > 0
                else ""
            )
        )
    else:
        service = ShardedQueryService(
            data, durability=durability, **service_kwargs
        )
    if durability is not None:
        if recovered is not None:
            loaded, skipped = durability.load_atlas_into(
                service.cache, service.index.dataset
            )
            if loaded:
                print(f"region atlas: {loaded} warm region(s) reloaded")
            elif skipped != "no atlas on disk":
                print(f"region atlas skipped: {skipped}")
        else:
            # Fresh data dir: persist generation 1 before serving, so a
            # crash before the first periodic snapshot still recovers.
            service.snapshot_now()
    gateway_kwargs = dict(
        k=args.k,
        phi=args.phi,
        max_concurrent=args.max_concurrent,
        rate=args.rate,
        default_deadline_ms=args.deadline_ms,
    )
    if args.self_test is not None:
        workload = sample_queries(
            service.index.dataset,
            qlen=args.qlen,
            n_queries=args.self_test,
            seed=args.seed,
            weight_scheme="idf" if idf is not None else "uniform",
            idf=idf,
            min_column_nnz=20,
        )
        gateway = AsyncGateway(service, **gateway_kwargs)
        requests = [{"op": "ping"}]
        requests += [
            {
                "op": "query",
                "dims": [int(d) for d in query.dims],
                "weights": [float(w) for w in query.weights],
            }
            for query in workload
        ]
        requests.append({"op": "stats"})
        try:
            responses = run_self_test(gateway, requests)
        finally:
            service.close()
        failed = [r for r in responses if not r.get("ok")]
        snapshot = responses[-1].get("stats", {})
        print(
            f"self-test: {len(responses) - 2} queries over "
            f"{service.n_shards} shard(s); "
            f"{len(failed)} failed responses"
        )
        print(json.dumps(snapshot, indent=2))
        return 1 if failed else 0
    serve_gateway(service, host=args.host, port=args.port, **gateway_kwargs)
    service.close()
    return 0


def _parse_endpoints(spec: str) -> Optional[List[Tuple[str, int]]]:
    """``HOST:PORT[,HOST:PORT...]`` -> endpoint list, or None if malformed."""
    endpoints: List[Tuple[str, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        host, _, port = entry.rpartition(":")
        try:
            endpoints.append((host or "127.0.0.1", int(port)))
        except ValueError:
            return None
    return endpoints or None


def _loadtest_knee(args: argparse.Namespace) -> int:
    """Binary-search the max offered rate meeting the SLO (``--find-knee``)."""
    from .datasets.workloads import slider_drag
    from .loadgen import (
        GatewayTarget,
        InProcessTarget,
        LoadStep,
        SloGate,
        build_report,
        build_schedule,
        find_knee,
        run_replay,
        sample_update_mutations,
    )
    from .service.faults import FaultPlan

    data, idf = _build_dataset(args.family, args.seed)
    workload = slider_drag(
        data,
        qlen=args.qlen,
        n_anchors=args.anchors,
        drags_per_anchor=args.drags,
        seed=args.seed,
        cold_fraction=args.cold_fraction,
        cold_signatures=args.cold_signatures,
        weight_scheme="idf" if idf is not None else "uniform",
        idf=idf,
        min_column_nnz=20,
    )
    mutations = (
        sample_update_mutations(
            data, n=256, seed=args.seed + 17, scale=args.mutation_scale
        )
        if args.mutation_rate > 0
        else []
    )
    gate = SloGate(p99_ms=args.slo_p99_ms, attainment=args.slo_attainment)
    fault_plan = None
    if args.faults > 0:
        fault_plan = FaultPlan.sample(
            seed=args.seed + 41,
            n_shards=args.shards,
            n_faults=args.faults,
            stall_seconds=args.fault_stall_ms / 1000.0,
        )
        print(f"injecting {fault_plan!r}")

    service = None
    if args.gateway is not None:
        endpoints = _parse_endpoints(args.gateway)
        if endpoints is None:
            print(f"bad --gateway {args.gateway!r}", file=sys.stderr)
            return 2

        def make_target():
            return GatewayTarget(
                endpoints[0][0],
                endpoints[0][1],
                k=args.k,
                phi=args.phi,
                method=args.method,
                deadline_ms=args.deadline_ms,
                endpoints=endpoints,
            )

    else:
        service = ShardedQueryService(
            data,
            n_shards=args.shards,
            method=args.method,
            backend=args.backend,
            reuse=args.reuse,
            on_shard_failure=args.on_shard_failure,
            fault_plan=fault_plan,
        )

        def make_target():
            return InProcessTarget(
                service,
                k=args.k,
                phi=args.phi,
                method=args.method,
                deadline_ms=args.deadline_ms,
                max_workers=args.max_workers,
                max_pending=args.max_pending,
            )

    def probe(rate: float) -> Tuple[bool, Dict]:
        # Same workload, same seed, one step at the probed rate: probes
        # differ only in offered load.  run_replay closes the target; the
        # backing service (if in-process) is shared across probes.
        schedule = build_schedule(
            list(workload),
            [LoadStep(rate=rate, duration=args.duration, process=args.process)],
            seed=args.seed,
            mutations=mutations,
            mutation_rate=args.mutation_rate,
            meta={"family": args.family, "qlen": args.qlen, "probe": rate},
        )
        start = time.perf_counter()
        outcomes = run_replay(schedule, make_target(), speed=args.speed)
        wall = time.perf_counter() - start
        report = build_report(
            outcomes, schedule, wall_seconds=wall, seed=args.seed
        )
        passed, failures = gate.evaluate(report.steps)
        step = report.steps[0].as_dict() if report.steps else {}
        p99 = step.get("latency_ms", {}).get("p99")
        print(
            f"probe {rate:g} qps: {'pass' if passed else 'FAIL'}"
            + (f" (p99 {p99:.2f} ms)" if isinstance(p99, float) else "")
        )
        return passed, {"step": step, "failures": failures}

    try:
        result = find_knee(
            probe, args.knee_lo, args.knee_hi, iterations=args.knee_iterations
        )
    finally:
        if service is not None:
            service.close()
    payload = {
        "bench": "loadtest-knee",
        "knee_qps": result.knee_qps,
        "knee": result.as_dict(),
        "slo": gate.as_dict(),
        "meta": {
            "family": args.family,
            "qlen": args.qlen,
            "seed": args.seed,
            "duration": args.duration,
            "target": args.gateway or f"in-process {args.shards} shard(s)",
            "faults": fault_plan.counters.as_dict() if fault_plan else None,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif result.knee_qps is None:
        print(
            f"no knee: even {args.knee_lo:g} qps missed the SLO "
            f"(p99 < {gate.p99_ms:g} ms, attainment >= {gate.attainment:.2%})"
        )
    else:
        print(
            f"knee: {result.knee_qps:g} qps sustains p99 < {gate.p99_ms:g} ms "
            f"at >= {gate.attainment:.2%} attainment "
            f"({len(result.probes)} probes in [{result.lo:g}, {result.hi:g}])"
        )
    if args.out is not None and not args.json:
        print(f"wrote {args.out}")
    if args.check and result.knee_qps is None:
        print("SLO GATE FAILED: no probed rate met the SLO", file=sys.stderr)
        return 1
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .datasets.workloads import slider_drag
    from .loadgen import (
        GatewayTarget,
        InProcessTarget,
        LoadStep,
        Schedule,
        SloGate,
        build_report,
        build_schedule,
        run_replay,
        sample_update_mutations,
    )
    from .service.faults import FaultPlan

    if args.find_knee:
        if args.replay is not None:
            print(
                "--find-knee builds a fresh single-step schedule per probe; "
                "it cannot be combined with --replay",
                file=sys.stderr,
            )
            return 2
        return _loadtest_knee(args)
    if args.replay is not None:
        schedule = Schedule.load(args.replay)
        print(f"loaded replay file {args.replay}: {schedule!r}")
    else:
        data, idf = _build_dataset(args.family, args.seed)
        workload = slider_drag(
            data,
            qlen=args.qlen,
            n_anchors=args.anchors,
            drags_per_anchor=args.drags,
            seed=args.seed,
            cold_fraction=args.cold_fraction,
            cold_signatures=args.cold_signatures,
            weight_scheme="idf" if idf is not None else "uniform",
            idf=idf,
            min_column_nnz=20,
        )
        try:
            rates = [float(r) for r in args.rates.split(",") if r.strip()]
        except ValueError:
            print(f"bad --rates {args.rates!r}", file=sys.stderr)
            return 2
        if not rates:
            print("--rates must name at least one step", file=sys.stderr)
            return 2
        steps = [
            LoadStep(rate=rate, duration=args.duration, process=args.process)
            for rate in rates
        ]
        mutations = (
            sample_update_mutations(
                data, n=256, seed=args.seed + 17, scale=args.mutation_scale
            )
            if args.mutation_rate > 0
            else []
        )
        schedule = build_schedule(
            list(workload),
            steps,
            seed=args.seed,
            mutations=mutations,
            mutation_rate=args.mutation_rate,
            meta={
                "family": args.family,
                "qlen": args.qlen,
                "workload": workload.description,
            },
        )
        print(f"built schedule: {schedule!r}")
    if args.replay_out is not None:
        path = schedule.save(args.replay_out)
        print(f"wrote replay file {path}")
        if args.plan_only:
            return 0

    fault_plan = None
    if args.faults > 0:
        fault_plan = FaultPlan.sample(
            seed=args.seed + 41,
            n_shards=args.shards,
            n_faults=args.faults,
            stall_seconds=args.fault_stall_ms / 1000.0,
        )
        print(f"injecting {fault_plan!r}")

    service = None
    if args.gateway is not None:
        endpoints = _parse_endpoints(args.gateway)
        if endpoints is None:
            print(f"bad --gateway {args.gateway!r}", file=sys.stderr)
            return 2
        target = GatewayTarget(
            endpoints[0][0],
            endpoints[0][1],
            k=args.k,
            phi=args.phi,
            method=args.method,
            deadline_ms=args.deadline_ms,
            endpoints=endpoints,
        )
    else:
        data, _ = _build_dataset(args.family, args.seed)
        service = ShardedQueryService(
            data,
            n_shards=args.shards,
            method=args.method,
            backend=args.backend,
            reuse=args.reuse,
            on_shard_failure=args.on_shard_failure,
            fault_plan=fault_plan,
        )
        target = InProcessTarget(
            service,
            k=args.k,
            phi=args.phi,
            method=args.method,
            deadline_ms=args.deadline_ms,
            max_workers=args.max_workers,
            max_pending=args.max_pending,
        )

    start = time.perf_counter()
    try:
        outcomes = run_replay(schedule, target, speed=args.speed)
    finally:
        if service is not None:
            service.close()
    wall = time.perf_counter() - start

    meta = {
        "bench": "loadtest",
        "family": args.family,
        "qlen": args.qlen,
        "seed": args.seed,
        "target": args.gateway or f"in-process {args.shards} shard(s)",
        "reuse": args.reuse,
        "deadline_ms": args.deadline_ms,
        "speed": args.speed,
        "faults": fault_plan.counters.as_dict() if fault_plan else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    report = build_report(
        outcomes, schedule, wall_seconds=wall, seed=args.seed, meta=meta
    )
    gate = None
    payload = report.as_dict()
    if args.check:
        gate = SloGate(
            p99_ms=args.slo_p99_ms,
            attainment=args.slo_attainment,
            at_rate=args.slo_at_rate,
        )
        passed, failures = gate.evaluate(report.steps)
        payload["gate"] = gate.as_dict() | {
            "passed": passed,
            "failures": failures,
        }
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(report.render())
        if args.out is not None:
            print(f"wrote {args.out}")
    if gate is not None:
        passed, failures = gate.evaluate(report.steps)
        if not passed:
            for failure in failures:
                print(f"SLO GATE FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"SLO gate passed: p99 < {gate.p99_ms:g} ms and attainment >= "
            f"{gate.attainment:.2%} on every gated step"
        )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    manager = DurabilityManager(args.data_dir)
    try:
        if has_state(args.data_dir):
            # Re-snapshot the recovered state: compacts the WAL tail into
            # a fresh generation without standing up the serving stack.
            state = manager.recover()
            dataset = state.dataset
            if state.is_sharded:
                sharded = state.index
                path = manager.snapshot(
                    dataset,
                    starts=list(sharded.starts),
                    shard_epochs=list(sharded.shard_epochs),
                )
            else:
                path = manager.snapshot(dataset)
            source = (
                f"recovered state (generation {state.report.chosen_generation}"
                f" + {state.report.wal_records_replayed} WAL record(s))"
            )
        else:
            dataset, _ = _build_dataset(args.family, args.seed)
            sharded = ShardedIndex(dataset, args.shards)
            path = manager.snapshot(
                dataset,
                starts=list(sharded.starts),
                shard_epochs=list(sharded.shard_epochs),
            )
            source = f"fresh {args.family} dataset ({args.shards} shard(s))"
    except RecoveryError as exc:
        print(f"snapshot failed: {exc}", file=sys.stderr)
        return 1
    finally:
        manager.close()
    print(
        f"snapshot of {source} -> {path} "
        f"(epoch {dataset.epoch}, fingerprint {dataset.fingerprint()[:12]}...)"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recovery dry run: read-only inspection of a data dir."""
    data_dir = Path(args.data_dir)
    store = SnapshotStore(data_dir)
    infos = store.generations(verify=True)
    records, torn_bytes, rejected_wal = WriteAheadLog.inspect(
        data_dir / "wal.log"
    )
    atlas = None
    atlas_problem = ""
    atlas_path = data_dir / "atlas.bin"
    if atlas_path.exists():
        try:
            atlas = read_atlas_info(atlas_path)
        except RecoveryError as exc:
            atlas_problem = str(exc)

    chosen = None
    replayable = 0
    problem = ""
    for info in reversed(infos):
        if not info.valid:
            continue
        epoch = int(info.manifest["epoch"])
        tail = [r for r in records if r.epoch > epoch]
        expected = epoch
        gap = False
        for record in tail:
            expected += 1
            if record.epoch != expected:
                gap = True
                break
        if gap:
            continue
        chosen = info
        replayable = len(tail)
        break
    if chosen is None:
        problem = (
            "no checksum-valid snapshot generation with a contiguous "
            "WAL span"
            if infos
            else "no snapshot generations on disk"
        )

    payload = {
        "data_dir": str(data_dir),
        "recoverable": chosen is not None,
        "problem": problem,
        "generations": [
            {
                "generation": info.generation,
                "valid": info.valid,
                "problem": info.problem,
                "epoch": (
                    int(info.manifest["epoch"])
                    if info.manifest and "epoch" in info.manifest
                    else None
                ),
            }
            for info in infos
        ],
        "chosen": (
            {
                "generation": chosen.generation,
                "manifest": chosen.manifest,
                "replayable_wal_records": replayable,
                "recovered_epoch": int(chosen.manifest["epoch"]) + replayable,
            }
            if chosen is not None
            else None
        ),
        "wal": {
            "records": len(records),
            "span": (
                [records[0].epoch, records[-1].epoch] if records else None
            ),
            "torn_bytes": torn_bytes,
            "checksum_rejections": rejected_wal,
        },
        "atlas": (
            {
                "fingerprint": atlas.fingerprint,
                "epoch": atlas.epoch,
                "entries": atlas.n_entries,
            }
            if atlas is not None
            else None
        ),
        "atlas_problem": atlas_problem,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0 if chosen is not None else 1

    print(f"data dir: {data_dir}")
    if not infos:
        print("no snapshot generations on disk")
    for info in infos:
        verdict = "ok" if info.valid else f"REJECTED ({info.problem})"
        epoch = (
            info.manifest.get("epoch") if info.manifest is not None else "?"
        )
        marker = " <- chosen" if chosen is info else ""
        print(f"  gen-{info.generation:08d}  epoch {epoch}  {verdict}{marker}")
    first, last = (
        (records[0].epoch, records[-1].epoch) if records else (None, None)
    )
    print(
        f"WAL: {len(records)} record(s), span [{first}, {last}], "
        f"{torn_bytes} torn byte(s)"
        + (", 1 checksum rejection" if rejected_wal else "")
    )
    if atlas is not None:
        print(
            f"atlas: {atlas.n_entries} entries at epoch {atlas.epoch} "
            f"(fingerprint {atlas.fingerprint[:12]}...)"
        )
    elif atlas_problem:
        print(f"atlas: unreadable ({atlas_problem})")
    if chosen is not None:
        print(
            f"recovery would use gen-{chosen.generation:08d} + "
            f"{replayable} WAL record(s) -> epoch "
            f"{int(chosen.manifest['epoch']) + replayable}"
        )
        return 0
    print(f"UNRECOVERABLE: {problem}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Immutable regions for subspace top-k queries "
        "(Mouratidis & Pang, VLDB 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_family: bool = True) -> None:
        p.add_argument("--method", choices=METHODS, default="cpt")
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--phi", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--backend",
            choices=BACKENDS,
            default="vector",
            help="hot-path implementation: vectorized kernels (default) "
            "or the scalar reference loops",
        )
        if with_family:
            p.add_argument("--family", choices=_FAMILIES, default="wsj")
            p.add_argument("--qlen", type=int, default=4)

    demo = sub.add_parser("demo", help="run the paper's Figure 1 example")
    common(demo, with_family=False)
    demo.set_defaults(handler=_cmd_demo)

    regions = sub.add_parser("regions", help="regions for one sampled query")
    common(regions)
    regions.add_argument("--json", action="store_true", help="emit JSON")
    regions.add_argument(
        "--composition-only",
        action="store_true",
        help="ignore reorderings inside R(q) (paper §7.4)",
    )
    regions.set_defaults(handler=_cmd_regions)

    compare = sub.add_parser("compare", help="cost table across all methods")
    common(compare)
    compare.add_argument("--queries", type=int, default=5)
    compare.set_defaults(handler=_cmd_compare)

    batch = sub.add_parser(
        "batch", help="run a query workload through the pooled QueryService"
    )
    common(batch)
    batch.add_argument("--queries", type=int, default=100, help="workload size")
    batch.add_argument(
        "--workers", type=int, default=None, help="pool size (default: executor's)"
    )
    batch.add_argument("--executor", choices=EXECUTORS, default="thread")
    batch.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="passes over the workload (later passes exercise the cache)",
    )
    batch.add_argument(
        "--cache-size", type=int, default=1024, help="RegionCache capacity"
    )
    batch.add_argument(
        "--topk-mode",
        choices=TOPK_MODES,
        default="ta",
        help="top-k execution: 'ta' replays the paper's threshold algorithm "
        "(exact access counters); 'matmul' is the fused cross-query serving "
        "fast path (identical regions, counters not simulated)",
    )
    batch.add_argument(
        "--batch-window",
        type=int,
        default=128,
        help="max queries per fused compute_many window",
    )
    batch.add_argument(
        "--reuse",
        choices=REUSE_MODES,
        default="region",
        help="cache-reuse policy: 'region' (default) serves single-dim "
        "weight perturbations from cached immutable regions, 'exact' "
        "replays bit-identical repeats only, 'off' always computes",
    )
    batch.add_argument("--json", action="store_true", help="emit JSON")
    batch.set_defaults(handler=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="sharded serving: JSON-lines TCP gateway over index shards"
    )
    common(serve)
    serve.add_argument("--shards", type=int, default=4, help="row-range shard count")
    serve.add_argument(
        "--shard-executor",
        choices=("sequential",),
        default="sequential",
        help="accepted only for existing callers: shards are always called "
        "in-process, interleaving shard-skip certificates with the merge",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9736)
    serve.add_argument(
        "--max-concurrent", type=int, default=8, help="in-flight request cap"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="token-bucket admission rate in requests/second (default: off)",
    )
    serve.add_argument(
        "--reuse",
        choices=REUSE_MODES,
        default="region",
        help="cache-reuse policy (region hits answer before any shard is touched)",
    )
    serve.add_argument(
        "--self-test",
        type=int,
        default=None,
        metavar="N",
        help="run N sampled queries through an ephemeral server and exit",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline in milliseconds; exhaustion "
        "returns a structured DEADLINE_EXCEEDED reply (default: none)",
    )
    serve.add_argument(
        "--supervise",
        action="store_true",
        help="wrap the shard transport in a supervisor: worker respawn, "
        "capped-backoff retries, per-shard circuit breakers",
    )
    serve.add_argument(
        "--on-shard-failure",
        choices=SHARD_FAILURE_POLICIES,
        default="oracle",
        help="when a shard stays down: 'oracle' recomputes exactly on the "
        "embedded unsharded engine, 'degraded' returns an explicit "
        "DEGRADED reply naming the shards consulted",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="durable state directory: recover on boot, WAL every "
        "mutation, snapshot periodically and on graceful drain "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=8,
        metavar="N",
        help="with --data-dir: take a snapshot every N acknowledged "
        "mutation batches (0 disables periodic snapshots; default 8)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="run N in-process replicas behind the front door: primary "
        "for writes (epoch-fenced replication to the rest), any healthy "
        "replica for reads, automatic failover (default: 1)",
    )
    serve.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="with --replicas: seconds between background health probes "
        "feeding the per-replica circuit breakers (0 disables)",
    )
    serve.add_argument(
        "--join",
        default=None,
        metavar="HOST:PORT",
        help="warm the (empty) --data-dir from a running peer gateway "
        "before booting: stream its newest checksum-valid snapshot, WAL, "
        "and region atlas over the wire, then recover from it",
    )
    serve.set_defaults(handler=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="open-loop replay load test with tail-latency SLO gates",
    )
    common(loadtest)
    loadtest.add_argument(
        "--rates",
        default="100,200",
        help="comma-separated offered-load steps in queries/second "
        "(each runs for --duration seconds)",
    )
    loadtest.add_argument(
        "--duration", type=float, default=5.0, help="seconds per load step"
    )
    loadtest.add_argument(
        "--process",
        choices=("fixed", "poisson", "bursty"),
        default="poisson",
        help="arrival process: deterministic spacing, seeded Poisson, or "
        "on/off bursts at the same average rate",
    )
    loadtest.add_argument(
        "--anchors", type=int, default=24, help="slider-drag anchor queries"
    )
    loadtest.add_argument(
        "--drags", type=int, default=30, help="drag ticks per anchor"
    )
    loadtest.add_argument(
        "--cold-fraction", type=float, default=0.1, help="cold-traffic rate"
    )
    loadtest.add_argument(
        "--cold-signatures",
        type=int,
        default=8,
        help="recurring cold subspaces (popularity pool)",
    )
    loadtest.add_argument(
        "--mutation-rate",
        type=float,
        default=0.0,
        help="concurrent mutation stream in mutations/second racing the "
        "query arrivals (default: read-only)",
    )
    loadtest.add_argument(
        "--mutation-scale",
        type=float,
        default=0.05,
        help="relative size of mutation value nudges",
    )
    loadtest.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="replay an existing schedule file instead of generating one",
    )
    loadtest.add_argument(
        "--replay-out",
        type=Path,
        default=None,
        help="write the generated schedule to a replay file",
    )
    loadtest.add_argument(
        "--plan-only",
        action="store_true",
        help="with --replay-out: write the replay file and exit",
    )
    loadtest.add_argument(
        "--gateway",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="drive live `repro serve` gateway(s) over TCP instead of an "
        "in-process service; several comma-separated endpoints form a "
        "failover group (connections rotate past dead gateways)",
    )
    loadtest.add_argument("--shards", type=int, default=4)
    loadtest.add_argument("--reuse", choices=REUSE_MODES, default="region")
    loadtest.add_argument(
        "--on-shard-failure", choices=SHARD_FAILURE_POLICIES, default="oracle"
    )
    loadtest.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; exhaustion counts against SLO "
        "attainment as a deadline hit",
    )
    loadtest.add_argument(
        "--max-workers",
        type=int,
        default=16,
        help="in-process service concurrency (driver thread pool)",
    )
    loadtest.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="shed arrivals beyond this many in flight (default: unbounded)",
    )
    loadtest.add_argument(
        "--faults",
        type=int,
        default=0,
        metavar="N",
        help="inject a seeded FaultPlan of N transport faults "
        "(crash/slow; implies supervision, in-process target only)",
    )
    loadtest.add_argument(
        "--fault-stall-ms",
        type=float,
        default=50.0,
        help="stall length of injected 'slow' faults",
    )
    loadtest.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="time rescale: 2.0 replays twice as fast (doubles every rate)",
    )
    loadtest.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_slo.json"),
        help="SLO report output path",
    )
    loadtest.add_argument("--json", action="store_true", help="emit JSON")
    loadtest.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every gated step meets the SLO "
        "(empty samples fail — no data is never a perfect p99)",
    )
    loadtest.add_argument(
        "--slo-p99-ms",
        type=float,
        default=100.0,
        help="gate: p99 end-to-end latency bound in milliseconds",
    )
    loadtest.add_argument(
        "--slo-attainment",
        type=float,
        default=0.99,
        help="gate: minimum fraction of offered queries answered ok",
    )
    loadtest.add_argument(
        "--slo-at-rate",
        type=float,
        default=None,
        help="gate only the step at this offered rate (default: all steps)",
    )
    loadtest.add_argument(
        "--find-knee",
        action="store_true",
        help="binary-search the highest offered rate meeting the SLO "
        "(--slo-p99-ms / --slo-attainment) instead of sweeping --rates; "
        "records knee_qps in the report",
    )
    loadtest.add_argument(
        "--knee-lo",
        type=float,
        default=50.0,
        help="with --find-knee: lowest probed rate (qps)",
    )
    loadtest.add_argument(
        "--knee-hi",
        type=float,
        default=800.0,
        help="with --find-knee: highest probed rate (qps)",
    )
    loadtest.add_argument(
        "--knee-iterations",
        type=int,
        default=5,
        help="with --find-knee: bisection steps after bracketing "
        "(resolution = (hi-lo)/2^N; each step costs one replay)",
    )
    loadtest.set_defaults(handler=_cmd_loadtest)

    snapshot = sub.add_parser(
        "snapshot",
        help="write one checksummed snapshot generation into a data dir",
    )
    common(snapshot)
    snapshot.add_argument("--data-dir", required=True)
    snapshot.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard fence persisted with a fresh dataset's snapshot",
    )
    snapshot.set_defaults(handler=_cmd_snapshot)

    recover = sub.add_parser(
        "recover",
        help="recovery dry run: checksum verdicts, manifest, WAL span",
    )
    recover.add_argument("--data-dir", required=True)
    recover.add_argument("--json", action="store_true", help="emit JSON")
    recover.set_defaults(handler=_cmd_recover)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
