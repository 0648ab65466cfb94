"""The benchmark's three workloads: dataset, query stream, rates, phases.

Everything here is a pure function of ``(workload, seed, seconds)``: the
same arguments give the same dataset, the same query pool, the same
open-loop arrival times and the same mutation stream.  The server only
ever receives the generated dataset (as CSR arrays) and the requests.

Rows stay in generator order (a random layout); nothing is sorted by
score, so shard-skip certificates get no help from the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.synthetic import generate_correlated
from repro.datasets.workloads import sample_queries, slider_drag
from repro.loadgen.schedule import LoadStep, build_schedule, sample_update_mutations
from repro.topk.query import Query

QLEN = 4
N_DIMS = 12
#: The recurring subspaces of every workload (cold signatures).
N_SIGNATURES = 8
#: Slider ticks per anchor; with 10% cold queries about nine in ten
#: queries of a drag stream are region-tier hits.
DRAGS_PER_ANCHOR = 40


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    n_rows: int
    traffic: str  # "drag" (slider_drag) or "cold" (fresh weights on 8 subspaces)
    low_rate: float  # offered queries/second in the warm-up and low phases
    high_rate: float  # offered queries/second in the high phase
    #: Bound on peak_qps that sizes the peak query pool: at least five times
    #: the figure measured on a 2-core host, so a large speedup still has
    #: fresh queries.  A run whose peak phase empties the pool fails.
    peak_qps_cap: float
    mutation_rate: float = 0.0  # update mutations/second over all phases
    oracle_per_phase: int = 8  # replies per phase checked against the oracle


#: Why each workload exists is recorded in BENCHMARK.json (``why``) and
#: perfbench/predictions.json.  Low and high rates are about 1/6 and 1/3 of
#: each workload's peak_qps on a 2-core host: at 1/2 the queueing amplified
#: the host's own speed changes past the benchmark's bounds.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="drag-10k",
            n_rows=10_000,
            traffic="drag",
            low_rate=200.0,
            high_rate=400.0,
            peak_qps_cap=10_000.0,
            oracle_per_phase=12,
        ),
        WorkloadSpec(
            name="cold-100k",
            n_rows=100_000,
            traffic="cold",
            low_rate=30.0,
            high_rate=60.0,
            peak_qps_cap=1000.0,
        ),
        WorkloadSpec(
            name="churn-100k",
            n_rows=100_000,
            traffic="drag",
            low_rate=50.0,
            high_rate=110.0,
            peak_qps_cap=3000.0,
            mutation_rate=5.0,
        ),
    )
}


#: Measured rounds per run.  Each round runs the low, high and peak
#: phases in turn, so every metric samples the whole run rather than one
#: slice of it: a burst of host noise moves each metric a little instead
#: of moving one metric a lot, and per-round figures can be medianed.
ROUNDS = 5
#: Tail of each peak phase without refills, so its backlog drains before
#: the next round's low phase starts.
PEAK_DRAIN = 0.25


@dataclass(frozen=True)
class Segment:
    """One phase of one round, as offsets (s) from the run start."""

    phase: str  # "warmup", "low", "high" or "peak"
    round: int  # 0 for the warm-up, then 1..ROUNDS
    start: float
    end: float


@dataclass(frozen=True)
class Phases:
    """Phase lengths (seconds) of one run; the measured ones sum to *seconds*."""

    warmup: float
    low: float  # per round
    high: float  # per round
    peak: float  # per round, drain tail included

    @classmethod
    def for_seconds(cls, seconds: float) -> "Phases":
        per_round = seconds / ROUNDS
        return cls(
            warmup=max(1.0, 0.1 * seconds),
            low=0.35 * per_round,
            high=0.35 * per_round,
            peak=0.3 * per_round,
        )

    def segments(self) -> List[Segment]:
        out = [Segment("warmup", 0, 0.0, self.warmup)]
        t = self.warmup
        for r in range(1, ROUNDS + 1):
            for phase, length in (("low", self.low), ("high", self.high), ("peak", self.peak)):
                out.append(Segment(phase, r, t, t + length))
                t += length
        return out

    @property
    def total(self) -> float:
        return self.segments()[-1].end


@dataclass
class Plan:
    """The generated inputs of one run."""

    spec: WorkloadSpec
    seed: int
    phases: Phases
    dataset: object
    setup: List[Query]  # one query per recurring signature
    #: (at, op, Query | Mutation, segment), sorted by *at*
    timed: List[Tuple[float, str, object, Segment]]
    peak_pool: List[Query]  # consumed in order by the closed peak phases


def _drag_pool(dataset, seed: int, n_queries: int) -> List[Query]:
    workload = slider_drag(
        dataset,
        qlen=QLEN,
        n_anchors=int(np.ceil(n_queries / (DRAGS_PER_ANCHOR + 1))),
        drags_per_anchor=DRAGS_PER_ANCHOR,
        seed=seed,
        cold_fraction=0.1,
        cold_signatures=N_SIGNATURES,
    )
    return list(workload.queries)


def _signatures(dataset, seed: int) -> List[Query]:
    """The recurring subspaces: slider_drag's cold-signature bases."""
    return list(
        sample_queries(
            dataset, qlen=QLEN, n_queries=N_SIGNATURES, seed=seed + 104_729
        ).queries
    )


def _fresh_weights(bases: List[Query], rng, n_queries: int) -> List[Query]:
    return [
        Query(bases[i % len(bases)].dims, rng.uniform(0.2, 0.9, QLEN))
        for i in range(n_queries)
    ]


def build_plan(name: str, seed: int, seconds: float) -> Plan:
    spec = WORKLOADS[name]
    phases = Phases.for_seconds(seconds)
    segments = phases.segments()
    dataset = generate_correlated(n_tuples=spec.n_rows, n_dims=N_DIMS, seed=seed)
    bases = _signatures(dataset, seed)
    rng = np.random.default_rng([seed, 7])
    setup = _fresh_weights(bases, rng, len(bases))
    open_loop = [s for s in segments if s.phase != "peak"]
    rate = {"warmup": spec.low_rate, "low": spec.low_rate, "high": spec.high_rate}
    expected = sum(rate[s.phase] * (s.end - s.start) for s in open_loop)
    peak_queries = int(np.ceil(spec.peak_qps_cap * phases.peak * ROUNDS))
    n_pool = int(np.ceil(expected * 1.2)) + peak_queries
    if spec.traffic == "drag":
        pool = _drag_pool(dataset, seed, n_pool)
    else:
        pool = _fresh_weights(bases, rng, n_pool)
    timed: List[Tuple[float, str, object, Segment]] = []
    cursor = 0
    for i, segment in enumerate(open_loop):
        # The stream continues in workload order across segments.
        schedule = build_schedule(
            pool[cursor:],
            [LoadStep(rate[segment.phase], segment.end - segment.start, "poisson")],
            seed=seed * 1000 + i,
        )
        timed += [
            (segment.start + a.at, "query", pool[cursor + a.index], segment)
            for a in schedule.arrivals
        ]
        cursor += len(schedule.arrivals)
    if cursor + peak_queries > len(pool):  # exact repeats would hit the cache
        raise ValueError(f"query pool of {len(pool)} too small for {name}")
    if spec.mutation_rate > 0.0:
        n_mut = int(spec.mutation_rate * phases.total)
        mutations = sample_update_mutations(dataset, n_mut, seed=seed + 3)
        gap = 1.0 / spec.mutation_rate
        for j, mutation in enumerate(mutations):
            at = (j + 0.5) * gap
            segment = next(s for s in segments if at < s.end)
            timed.append((at, "mutate", mutation, segment))
    timed.sort(key=lambda item: (item[0], item[1]))
    return Plan(
        spec=spec,
        seed=seed,
        phases=phases,
        dataset=dataset,
        setup=setup,
        timed=timed,
        peak_pool=pool[cursor:],
    )
