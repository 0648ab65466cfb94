"""The per-layer ledger of one traced run.

The population is every ``ok`` query of the ``low`` and ``high`` phases.
For each, the end-to-end latency (reply received minus scheduled time)
splits into:

* ``loadgen.send_lag`` — scheduled time to the write (generator lateness);
* ``gateway.conn_queue`` — time the request sat behind the previous one
  on its pipelined connection (that one's ``handle`` end minus our send);
* ``gateway.wire`` — the rest of the client round trip outside
  ``AsyncGateway.handle``: socket transfer, line parse, reply encode;
* the self time of every server span of the request: its duration minus
  the durations of its child spans.

The ledger reports means, because means add: the layer means plus
``ledger.residual_ms`` equal the mean end-to-end latency.  Per-layer
p50/p99 are printed beside them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

KERNELS = ("fused_scores", "fused_topk", "batch_pair_crossings", "batch_crossings")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _ok(request) -> bool:
    return bool(request.reply and request.reply.get("ok"))


def _self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus its children's durations."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] in own:
            own[s[2]] -= s[5] - s[4]
    return own


def layer_metrics(requests, spans, plan_bytes, reference, lag, outstanding_max, setup_done):
    """Per-layer metrics (name -> (value, unit)) and the printable ledger."""
    by_rid: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        by_rid[span[0]].append(span)
    handle_end = {
        rid: s[5] for rid, group in by_rid.items() for s in group if s[3] == "gateway.handle"
    }
    previous_end: Dict[int, float] = {}
    for conn in {r.conn for r in requests}:
        ordered = sorted((r for r in requests if r.conn == conn), key=lambda r: r.sent)
        for before, after in zip(ordered, ordered[1:]):
            previous_end[after.rid] = handle_end.get(before.rid, float("-inf"))

    population = [
        r
        for r in requests
        if r.op == "query" and r.phase in ("low", "high") and _ok(r) and r.rid in handle_end
    ]
    rows: Dict[str, List[float]] = defaultdict(list)  # layer -> per-request ms
    samples: Dict[str, List[float]] = defaultdict(list)  # named distributions, ms
    counts: Dict[str, float] = defaultdict(float)
    e2e = []
    for r in population:
        group = by_rid[r.rid]
        own = _self_times(group)
        handle = next(s for s in group if s[3] == "gateway.handle")
        span_ms = (handle[5] - handle[4]) * 1e3
        queue = min(max(previous_end.get(r.rid, float("-inf")) - r.sent, 0.0), handle[4] - r.sent)
        per_layer: Dict[str, float] = defaultdict(float)
        per_layer["loadgen.send_lag"] = (r.sent - r.due) * 1e3
        per_layer["gateway.conn_queue"] = queue * 1e3
        per_layer["gateway.wire"] = (r.received - r.sent - queue) * 1e3 - span_ms
        for s in group:
            per_layer[s[3]] += own[s[1]] * 1e3
            name, ms, extra = s[3], (s[5] - s[4]) * 1e3, s[6]
            samples[name].append(ms)
            if name == "cache.lookup":
                counts[f"tier.{extra}"] += 1
                samples[f"cache.lookup.{extra}"].append(ms)
            elif name == "service.execute":
                samples["gateway.dispatch_wait"].append((s[4] - handle[4]) * 1e3)
                samples["service.self"].append(own[s[1]] * 1e3)
            elif name == "engine.compute_many":
                samples["engine.merge_self"].append(own[s[1]] * 1e3)
                counts["computed"] += 1
            elif name == "storage.plan_build":
                counts["plan_builds"] += 1
            elif name == "storage.plan_for":
                counts["plan_lookups"] += 1
            elif name == "engine.fallback":
                counts["fallbacks"] += 1
            elif name == "kernels.fused_scores":
                counts["fused_scores_calls"] += 1
                counts["rows_scored"] += extra or 0
            elif name == "kernels.batch_crossings" and extra is not None:
                counts["rows_swept"] += extra
        samples["gateway.handle_self"].append(own[handle[1]] * 1e3)
        for name, ms in per_layer.items():
            rows[name].append(ms)
        e2e.append(r.latency * 1e3)

    n = len(population)
    means = {name: float(np.sum(values)) / n for name, values in rows.items()}
    mean_e2e = float(np.mean(e2e))
    residual = mean_e2e - sum(means.values())

    mutation_rids = {r.rid for r in requests if r.op == "mutate" and r.phase in ("low", "high")}
    mutation_spans = [s for rid in mutation_rids for s in by_rid.get(rid, ())]
    sweeps = [s for s in mutation_spans if s[3] == "invalidation.sweep"]
    kept = sum(s[6][0] for s in sweeps if s[6])
    evicted = sum(s[6][1] for s in sweeps if s[6])
    mutation_path = {}
    if sweeps:
        mutation_path = {
            f"{name}_ms.{q}": _pct(
                [(s[5] - s[4]) * 1e3 for s in mutation_spans if s[3] == name], pct
            )
            for name in ("service.mutate", "storage.apply", "invalidation.sweep")
            for q, pct in (("p50", 50), ("p99", 99))
        }
        mutation_path["invalidation.keep_share"] = kept / max(kept + evicted, 1)
    builds_after_setup = sum(1 for s in spans if s[3] == "storage.plan_build" and s[4] >= setup_done)

    lookups = sum(v for k, v in counts.items() if k.startswith("tier."))
    computed = max(counts["computed"], 1.0)
    measured = [r for r in requests if r.phase in ("low", "high", "peak")]
    shed = sum(1 for r in measured if r.reply and r.reply.get("code") == "OVERLOADED")
    # The untraced reference ran the first round's open-loop phases only.
    traced_low, plain_low = (
        [r.latency for r in run if r.phase == "low" and r.round == 1 and r.op == "query" and _ok(r)]
        for run in (requests, reference)
    )

    def kernel_ms(name: str) -> float:
        return float(np.sum(rows.get(f"kernels.{name}", [0.0]))) / computed

    metrics: Dict[str, Tuple[float, str]] = {
        "loadgen.fire_lag_p99_ms": (_pct(lag, 99), "ms"),
        "loadgen.fire_lag_max_ms": (float(lag.max()), "ms"),
        "loadgen.outstanding_max": (float(outstanding_max), "count"),
        "gateway.wire_ms.p50": (_pct(rows["gateway.wire"], 50), "ms"),
        "gateway.wire_ms.p99": (_pct(rows["gateway.wire"], 99), "ms"),
        "gateway.conn_queue_ms.mean": (means["gateway.conn_queue"], "ms"),
        "gateway.dispatch_wait_ms.p50": (_pct(samples["gateway.dispatch_wait"], 50), "ms"),
        "gateway.dispatch_wait_ms.p99": (_pct(samples["gateway.dispatch_wait"], 99), "ms"),
        "gateway.handle_self_ms.p50": (_pct(samples["gateway.handle_self"], 50), "ms"),
        "gateway.render_ms.p50": (_pct(samples["gateway.render"], 50), "ms"),
        "gateway.shed_share": (shed / max(len(measured), 1), "share"),
        "service.execute_ms.p50": (_pct(samples["service.execute"], 50), "ms"),
        "service.execute_ms.p99": (_pct(samples["service.execute"], 99), "ms"),
        "service.self_ms.p50": (_pct(samples["service.self"], 50), "ms"),
        "service.self_ms.p99": (_pct(samples["service.self"], 99), "ms"),
        "service.mutations": (float(len(mutation_rids)), "count"),
        "cache.lookup_ms.p50": (_pct(samples["cache.lookup"], 50), "ms"),
        "cache.lookup_ms.p99": (_pct(samples["cache.lookup"], 99), "ms"),
        "cache.lookup_ms.miss.p50": (_pct(samples["cache.lookup.miss"], 50), "ms"),
        "cache.put_ms.p50": (_pct(samples["cache.put"], 50), "ms"),
        "cache.region_hit_share": (counts["tier.region"] / max(lookups, 1), "share"),
        "cache.exact_hit_share": (counts["tier.exact"] / max(lookups, 1), "share"),
        "cache.miss_share": (counts["tier.miss"] / max(lookups, 1), "share"),
        "invalidation.sweeps": (float(len(sweeps)), "count"),
        "invalidation.regions_kept": (float(kept), "count"),
        "invalidation.regions_evicted": (float(evicted), "count"),
        "storage.plan_builds": (counts["plan_builds"], "count"),
        "storage.plan_hit_share": (
            1.0 - counts["plan_builds"] / max(counts["plan_lookups"], 1), "share"
        ),
        "storage.plan_bytes": (float(plan_bytes), "bytes"),
        "engine.compute_ms.p50": (_pct(samples["engine.compute_many"], 50), "ms"),
        "engine.compute_ms.p99": (_pct(samples["engine.compute_many"], 99), "ms"),
        "engine.merge_self_ms.p50": (_pct(samples["engine.merge_self"], 50), "ms"),
        "engine.ta_fallbacks": (counts["fallbacks"], "count"),
        **{f"kernels.{k}_ms.per_query": (kernel_ms(k), "ms") for k in KERNELS},
        "kernels.fused_scores_calls_per_query": (counts["fused_scores_calls"] / computed, "count"),
        "kernels.rows_scored_per_query": (counts["rows_scored"] / computed, "count"),
        "kernels.rows_swept_per_query": (counts["rows_swept"] / computed, "count"),
        "trace.overhead_share": (float(np.mean(traced_low) / np.mean(plain_low) - 1.0), "share"),
        # Zero up to rounding by construction (wire is the round trip's
        # remainder outside handle), so it is reported but not declared.
        "ledger.residual_ms": (residual, "ms"),
    }
    ledger = {
        "population": n,
        "mean_e2e_ms": mean_e2e,
        "layers": {
            name: {
                "mean_ms": means[name],
                "p50_ms": _pct(values, 50),
                "p99_ms": _pct(values, 99),
            }
            for name, values in sorted(rows.items(), key=lambda kv: -means[kv[0]])
        },
        "residual_ms": residual,
        "mutation_path": mutation_path,
        "plan_builds_after_setup": builds_after_setup,
        # Per-call distributions that exist only on some workloads.
        "per_call_ms": {
            name: {"calls": len(samples[name]), "p50": _pct(samples[name], 50), "p99": _pct(samples[name], 99)}
            for name in (
                "cache.lookup.region",
                "cache.lookup.exact",
                "cache.lookup.miss",
                "storage.plan_build",
                "engine.fallback",
            )
            if samples[name]
        },
        "computed_queries": counts["computed"],
    }
    return metrics, ledger


def print_ledger(ledger: Dict) -> None:
    print(
        f"per-layer ledger over {ledger['population']} ok low+high queries "
        f"(mean end-to-end {ledger['mean_e2e_ms']:.4f} ms):"
    )
    print(f"  {'layer':32s} {'mean ms':>10s} {'p50 ms':>10s} {'p99 ms':>10s}")
    for name, row in ledger["layers"].items():
        print(f"  {name:32s} {row['mean_ms']:10.4f} {row['p50_ms']:10.4f} {row['p99_ms']:10.4f}")
    total = sum(row["mean_ms"] for row in ledger["layers"].values())
    print(f"  {'sum of layer means':32s} {total:10.4f}")
    print(f"  {'ledger.residual_ms':32s} {ledger['residual_ms']:10.4g}")
    for name, value in ledger["mutation_path"].items():
        print(f"  mutation path {name:32s} {value:10.4f}")
    for name, row in ledger["per_call_ms"].items():
        print(f"  per call {name:28s} {row['calls']:6d} calls, p50 {row['p50']:.4f} ms, p99 {row['p99']:.4f} ms")
    print(f"  plan builds after set-up (all phases): {ledger['plan_builds_after_setup']}")
