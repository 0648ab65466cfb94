"""Collect benchmark runs and judge them by the benchmark's own bounds.

Subcommands (run from the root of a checkout)::

    # N runs of one workload, seeds 1..N, results saved under DIR
    python3 perfbench/compare.py collect --workload cold-100k --runs 10 --out DIR

    # parent vs change: N pairs, alternating which checkout runs first,
    # both sides of a pair on the same seed
    python3 perfbench/compare.py pairs --parent PATH --change PATH \\
        --workload cold-100k --runs 10 --out DIR

    # run-to-run spread of one set: IQR / median against each bound
    python3 perfbench/compare.py spread DIR

    # verdict per workload and end-to-end metric
    python3 perfbench/compare.py verdict PARENT_DIR CHANGE_DIR

A verdict follows the benchmark's rules: *improved* when the change wins
at least nine pairs in ten and the medians differ by more than the
parent's quartile spread (or every change run beats every parent run);
*unresolved* when the parent's own spread exceeds the bound; *worse*
when the change's median is worse than the parent's by more than the
bound; *no worse* otherwise.  Judge runs made by ``pairs``: two sets
taken minutes apart also differ by how fast the host was at the time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def _definitions() -> Tuple[Dict[str, Dict], int]:
    """End-to-end metric definitions by name, and the run length."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> Dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"run failed in {checkout} (seed {seed}):\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _save(out: Path, name: str, workload: str, seed: int, result: Dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "result": result}
    (out / f"{name}.json").write_text(json.dumps(record))
    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
    print(f"{name}: correct={result['correct']} failed={result['failed']} {values}", flush=True)


def _load(directory: Path) -> Dict[str, Dict[int, Dict]]:
    runs: Dict[str, Dict[int, Dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {})[record["seed"]] = record["result"]
    return runs


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cmd_collect(args) -> None:
    _, seconds = _definitions()
    for i in range(args.runs):
        seed = args.first_seed + i
        result = _run(Path.cwd(), args.workload, seed, seconds)
        _save(Path(args.out), f"{args.workload}-seed{seed}", args.workload, seed, result)


def cmd_pairs(args) -> None:
    _, seconds = _definitions()
    sides = [("parent", Path(args.parent)), ("change", Path(args.change))]
    for i in range(args.runs):
        seed = args.first_seed + i
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            result = _run(checkout, args.workload, seed, seconds)
            _save(Path(args.out) / side, f"{args.workload}-seed{seed}", args.workload, seed, result)


def cmd_spread(args) -> None:
    definitions, _ = _definitions()
    worst = 0.0
    for workload, by_seed in sorted(_load(Path(args.dir)).items()):
        results = list(by_seed.values())
        print(f"{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed: {sum(r['failed'] for r in results)}")
        for name, definition in definitions.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            share = spread / definition["bound"]
            worst = max(worst, share)
            print(f"  {name:26s} median {median:12.5g}  IQR/median {spread:7.4f}  "
                  f"bound {definition['bound']:.2f}  ({share:5.2f} of bound)")
    print(f"largest spread: {worst:.2f} of its bound")


def _verdict(definition: Dict, parent: List[float], change: List[float]) -> str:
    sign = 1.0 if definition["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "improved"
    if p_med and (p_q3 - p_q1) / abs(p_med) > definition["bound"]:
        return "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * c < sign * p)
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        return "improved"
    if p_med and sign * (c_med - p_med) / abs(p_med) > definition["bound"]:
        return "worse"
    return "no worse"


def cmd_verdict(args) -> None:
    definitions, _ = _definitions()
    parent_runs, change_runs = _load(Path(args.parent)), _load(Path(args.change))
    for workload in sorted(set(parent_runs) & set(change_runs)):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs[workload]))
        print(f"{workload}: {len(seeds)} pairs")
        print(f"  {'metric':26s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
              f"{'won':>5s}  verdict")
        for name, definition in definitions.items():
            parent = [parent_runs[workload][s]["metrics"][name]["value"] for s in seeds]
            change = [change_runs[workload][s]["metrics"][name]["value"] for s in seeds]
            sign = 1.0 if definition["better"] == "lower" else -1.0
            won = sum(1 for p, c in zip(parent, change) if sign * c < sign * p) / len(seeds)
            pq, cq = _quartiles(parent), _quartiles(change)
            print(f"  {name:26s} {pq[1]:12.5g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] {won:5.0%}  "
                  f"{_verdict(definition, parent, change)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    pairs = sub.add_parser("pairs")
    for p in (collect, pairs):
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--out", required=True)
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("dir")
    verdict = sub.add_parser("verdict")
    verdict.add_argument("parent")
    verdict.add_argument("change")
    args = parser.parse_args()
    {"collect": cmd_collect, "pairs": cmd_pairs, "spread": cmd_spread, "verdict": cmd_verdict}[
        args.command
    ](args)


if __name__ == "__main__":
    main()
