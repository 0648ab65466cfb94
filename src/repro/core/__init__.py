"""Core contribution: immutable-region computation.

Implements the paper's algorithms over the substrates:

* :mod:`~repro.core.lemma1` — the order-preservation interval of Lemma 1;
* :mod:`~repro.core.regions` — bounds, immutable regions, region sequences;
* :mod:`~repro.core.scan` — the Scan baseline (Algorithms 1–2) and its
  Phase 2 variants (full scan / pruned pool);
* :mod:`~repro.core.candidates` — the C0/CH/CL partition and the Lemma
  2–4 pruning selectors;
* :mod:`~repro.core.thresholding` — candidate thresholding (Algorithm 3);
* :mod:`~repro.core.phi` — the one-off φ≥0 machinery (plane sweep, lower
  envelope, threshold lines);
* :mod:`~repro.core.iterative` — the iterative φ>0 processing used by Scan
  and by the Figure 15 comparison variants;
* :mod:`~repro.core.brute` — a brute-force oracle over the whole dataset
  (tests and the STB-style baseline);
* :mod:`~repro.core.engine` — the public entry point
  (:class:`~repro.core.engine.ImmutableRegionEngine`).
"""

from .concurrent import (
    concurrent_deviation_safe,
    cross_polytope_margin,
    sensitivity_profile,
)
from .engine import ImmutableRegionEngine, RegionComputation, compute_immutable_regions

# Imported after .engine: the distributed coordinator pulls in the kernel
# package, whose module graph must be entered via the engine's import
# order (datasets before kernels) to stay acyclic.
from .distributed import DistributedEngine
from .regions import Bound, BoundKind, ImmutableRegion, RegionSequence

__all__ = [
    "DistributedEngine",
    "ImmutableRegionEngine",
    "RegionComputation",
    "compute_immutable_regions",
    "Bound",
    "BoundKind",
    "ImmutableRegion",
    "RegionSequence",
    "concurrent_deviation_safe",
    "cross_polytope_margin",
    "sensitivity_profile",
]
