"""Bit-for-bit check of served answers against the unsharded TA oracle.

The oracle is ``ImmutableRegionEngine(...).compute_many(...,
topk_mode="ta")`` over a private copy of the generated dataset, rendered
through the gateway's own reply renderer.  A served reply matches when
its epoch, result ids and scores, and every dimension's weight and
interval equal the oracle's after a JSON round trip (JSON floats
round-trip exactly, infinities included).  A region-tier hit carries
only the dimension it was proven for (the other dimensions' regions
depend on the moved weight), so it must carry exactly one dimension and
that one must match; every other tier must carry every query dimension.

Mutations are replayed in acknowledged-epoch order, so each sampled
reply is checked against the dataset version it was served from.
"""

from __future__ import annotations

import copy
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import ImmutableRegionEngine
from repro.datasets.base import Dataset
from repro.service.gateway import AsyncGateway
from repro.storage.index import InvertedIndex
from repro.storage.mutations import Mutation, MutationBatch
from repro.topk.query import Query

_COMPARED = ("epoch", "result", "regions")


def canonical(reply: Dict) -> Dict:
    """The compared part of a reply, normalised by a JSON round trip."""
    return json.loads(json.dumps({key: reply.get(key) for key in _COMPARED}))


def corrupt(reply: Dict) -> Dict:
    """A copy of *reply* with its first score moved by one ulp."""
    bad = copy.deepcopy(reply)
    tid, score = bad["result"][0]
    bad["result"][0] = [tid, float(np.nextafter(score, np.inf))]
    return bad


def _difference(served: Dict, want: Dict) -> str:
    """The first differing field of two canonical replies, for the report."""
    if served["result"] != want["result"]:
        return f"result {served['result']} != oracle {want['result']}"
    if served["epoch"] != want["epoch"]:
        return f"epoch {served['epoch']} != oracle {want['epoch']}"
    for dim in sorted(set(served["regions"]) | set(want["regions"])):
        got, exp = served["regions"].get(dim), want["regions"].get(dim)
        if got != exp:
            return f"dim {dim}: {got} != oracle {exp}"
    return "differs"


class Oracle:
    """The unsharded TA engine over a private, epoch-replayed dataset."""

    def __init__(self, csr: Tuple, method: str, k: int, phi: int, backend: str) -> None:
        indptr, indices, values, n_dims = csr
        self.index = InvertedIndex(Dataset(indptr, indices, values, n_dims))
        self.engine = ImmutableRegionEngine(self.index, method=method, backend=backend)
        self.k = k
        self.phi = phi

    def expected(self, query: Query) -> Dict:
        computation = self.engine.compute_many(
            [query], self.k, phi=self.phi, topk_mode="ta"
        )[0]
        return canonical(AsyncGateway._render(computation, "oracle", 0.0))

    def advance(self, epoch: int, acked: Dict[int, Mutation]) -> None:
        while self.index.epoch < epoch:
            self.index.apply(MutationBatch((acked[self.index.epoch + 1],)))


def check(
    oracle: Oracle,
    samples: List[Tuple[Query, Dict]],
    acked: Dict[int, Mutation],
) -> Tuple[List[str], bool]:
    """Check *samples* (query, served reply); returns (mismatches, self-test ok).

    *acked* maps each acknowledged epoch to the mutation that produced
    it.  A reply served at an epoch the acknowledgements do not reach is
    a mismatch.  The self-test feeds one corrupted copy of the first
    sampled reply through the same comparison and must see it fail.
    """
    mismatches: List[str] = []
    self_test: Optional[bool] = None
    for query, reply in sorted(samples, key=lambda item: item[1]["epoch"]):
        epoch = int(reply["epoch"])
        if any(e not in acked for e in range(oracle.index.epoch + 1, epoch + 1)):
            mismatches.append(f"epoch {epoch}: not reachable from acknowledged mutations")
            continue
        oracle.advance(epoch, acked)
        want = oracle.expected(query)
        if reply.get("tier") == "region" and len(reply["regions"]) == 1:
            want["regions"] = {
                dim: region for dim, region in want["regions"].items() if dim in reply["regions"]
            }
        served = canonical(reply)
        if served != want:
            mismatches.append(
                f"dims {list(map(int, query.dims))} epoch {epoch} tier "
                f"{reply.get('tier')}: {_difference(served, want)}"
            )
        if self_test is None:
            self_test = canonical(corrupt(reply)) != want
    return mismatches, bool(self_test)
