"""The benchmark's server process: ``repro serve`` defaults over given data.

Usage (started by ``run.py``, from the checkout root)::

    python3 perfbench/server.py --data DATA.npz --out RESULT.json [--trace]

Loads the generated dataset (CSR arrays), builds the
``ShardedQueryService`` and ``AsyncGateway`` exactly as ``repro serve``
does with its default arguments, and serves on an OS-assigned port
through :func:`repro.service.gateway.serve`, which prints the bound
address.  SIGUSR1 records a CPU/RSS mark; SIGTERM drains and stops.  On
exit it writes *RESULT.json*: the marks, peak RSS and, with ``--trace``,
every recorded span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.cli import build_parser  # noqa: E402
from repro.datasets.base import Dataset  # noqa: E402
from repro.service.gateway import ShardedQueryService, serve  # noqa: E402


def _usage() -> dict:
    times = os.times()
    return {
        "t": time.monotonic(),
        "cpu_s": times.user + times.system,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()

    marks = []
    signal.signal(signal.SIGUSR1, lambda *_: marks.append(_usage()))

    with np.load(args.data) as arrays:
        dataset = Dataset(
            arrays["indptr"], arrays["indices"], arrays["values"], int(arrays["n_dims"])
        )
    # The same service and gateway arguments `repro serve` passes.
    cli = build_parser().parse_args(["serve"])
    service = ShardedQueryService(
        dataset,
        n_shards=cli.shards,
        shard_executor=cli.shard_executor,
        method=cli.method,
        backend=cli.backend,
        reuse=cli.reuse,
        on_shard_failure=cli.on_shard_failure,
        supervision=True if cli.supervise else None,
    )
    try:
        serve(
            service,
            host="127.0.0.1",
            port=0,
            k=cli.k,
            phi=cli.phi,
            max_concurrent=cli.max_concurrent,
            rate=cli.rate,
            default_deadline_ms=cli.deadline_ms,
        )
    finally:
        service.close()
    result = {"marks": marks, "final": _usage()}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["plan_bytes"] = tracer.resident_plan_bytes()
    tmp = Path(args.out + ".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
