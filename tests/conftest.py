"""Shared fixtures: the paper's running example and small data generators.

Also registers the hypothesis ``ci`` profile (fixed derandomized seed,
no deadline) selected via ``HYPOTHESIS_PROFILE=ci`` — the CI coverage
job runs the property suites reproducibly and without timing flakes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import Dataset, InvertedIndex, Query

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# ----------------------------------------------------------------------
# The paper's running example (Figure 1):
#   d1 = (0.8, 0.32), d2 = (0.7, 0.5), d3 = (0.1, 0.8), d4 = (0.1, 0.6)
#   q = (0.8, 0.5), k = 2  ->  R(q) = [d2, d1]
# Library ids are zero-based: paper d1 -> id 0, ..., d4 -> id 3.
# ----------------------------------------------------------------------

RUNNING_EXAMPLE_ROWS = [
    [0.8, 0.32],
    [0.7, 0.5],
    [0.1, 0.8],
    [0.1, 0.6],
]


@pytest.fixture()
def example_dataset() -> Dataset:
    """The Figure 1 dataset."""
    return Dataset.from_dense(RUNNING_EXAMPLE_ROWS)


@pytest.fixture()
def example_index(example_dataset: Dataset) -> InvertedIndex:
    """Inverted index over the Figure 1 dataset."""
    return InvertedIndex(example_dataset)


@pytest.fixture()
def example_query() -> Query:
    """The Figure 1 query q = (0.8, 0.5)."""
    return Query([0, 1], [0.8, 0.5])


def random_sparse_dataset(
    rng: np.random.Generator,
    n_tuples: int,
    n_dims: int,
    density: float = 0.6,
) -> Dataset:
    """Continuous-valued random sparse dataset (general position w.p. 1)."""
    dense = rng.random((n_tuples, n_dims))
    dense *= rng.random((n_tuples, n_dims)) < density
    return Dataset.from_dense(dense)


def random_query(
    rng: np.random.Generator, dataset: Dataset, qlen: int
) -> Query:
    """Random query over dimensions that have at least one non-zero entry."""
    eligible = [d for d in range(dataset.n_dims) if dataset.column_nnz(d) > 0]
    assert len(eligible) >= qlen, "dataset too sparse for requested qlen"
    dims = sorted(rng.choice(eligible, size=qlen, replace=False).tolist())
    weights = rng.uniform(0.2, 0.9, size=qlen)
    return Query(dims, weights)


def assert_plan_matches_build(plan, index) -> None:
    """*plan* (patched in place) is bit-identical to a fresh build on *index*.

    Compares the epoch, the column store, ``block``, ``nnz_rows`` (values
    and dtype), the zone statistics, and every rank array *plan* has
    built so far.
    """
    from repro.storage.plan import SubspacePlan

    fresh = SubspacePlan(index, plan.signature)
    assert plan.epoch == fresh.epoch == index.epoch
    assert plan.n_tuples == fresh.n_tuples
    for j in range(plan.qlen):
        assert np.array_equal(plan.column(j), fresh.column(j))
        assert plan.column(j).flags["C_CONTIGUOUS"]
    assert np.array_equal(plan.block, fresh.block)
    assert plan.nnz_rows.dtype == fresh.nnz_rows.dtype
    assert np.array_equal(plan.nnz_rows, fresh.nnz_rows)
    assert plan.nnz_ge2_total == fresh.nnz_ge2_total
    ours, theirs = plan.zone, fresh.zone
    assert np.array_equal(ours.maxima, theirs.maxima)
    assert np.array_equal(ours.minima, theirs.minima)
    assert (ours.n_positive, ours.nnz_ge2_total, ours.n_rows) == (
        theirs.n_positive,
        theirs.nnz_ge2_total,
        theirs.n_rows,
    )
    for j in list(plan._asc_ranks):
        assert np.array_equal(plan.asc_rank(j), fresh.asc_rank(j))
    for j in list(plan._desc_ranks):
        assert np.array_equal(plan.desc_rank(j), fresh.desc_rank(j))
