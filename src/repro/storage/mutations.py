"""Dataset mutations: typed updates applied as versioned batches.

The paper's immutable region certifies a top-k result against *weight*
perturbations; this module is the entry point for *data* perturbations.
A :class:`MutationBatch` groups three kinds of :class:`Mutation`:

* **insert** — a new sparse row; its tuple id is assigned on apply
  (``n_tuples`` at that moment; ids are never reused);
* **delete** — tombstones an existing tuple: its row becomes empty, it
  disappears from every inverted list, and its id stays allocated so
  every other tuple id — and hence every cached structure keyed on ids —
  remains stable;
* **update** — replaces one coordinate of one tuple (value ``0.0``
  removes the stored coordinate, matching the sparse model).

Applying a batch through :meth:`~repro.datasets.base.Dataset.apply` (or
:meth:`~repro.storage.index.InvertedIndex.apply`, which additionally
patches the built inverted lists and the resident subspace plans) bumps
the container's *epoch* — the version counter plans and cached region
computations are stamped with — and returns one :class:`AppliedMutation` delta per
mutation.  The delta carries the touched row's sparse contents before and
after the change: exactly what the service layer's delta-aware region
invalidation (:mod:`repro.service.invalidation`) needs to decide which
cached regions provably survive.

The correctness contract (property-tested in
``tests/properties/test_mutation_parity.py``): after any sequence of
batches, the incrementally maintained index is **bit-identical** — list
arrays, plan blocks, engine outputs, access counters — to an index built
from scratch on :meth:`Dataset.compacted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .._util import require
from ..errors import DatasetError

__all__ = ["AppliedMutation", "Mutation", "MutationBatch"]

_KINDS = ("insert", "delete", "update")


@dataclass(frozen=True)
class Mutation:
    """One atomic dataset change; build via the named constructors.

    Attributes
    ----------
    kind:
        ``"insert"``, ``"delete"``, or ``"update"``.
    tuple_id:
        Target tuple (``None`` for inserts — the id is assigned on apply).
    dims, values:
        Insert: the new row's sparse contents.  Update: one-element arrays
        holding the touched dimension and its new value.
    """

    kind: str
    tuple_id: Optional[int] = None
    dims: Tuple[int, ...] = ()
    values: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DatasetError(f"unknown mutation kind {self.kind!r}")

    @classmethod
    def insert(
        cls, dims: Iterable[int], values: Iterable[float]
    ) -> "Mutation":
        """A new sparse row ``(dims, values)``; zeros are dropped on apply."""
        dims_arr = np.asarray(list(dims), dtype=np.int64)
        values_arr = np.asarray(list(values), dtype=np.float64)
        if dims_arr.shape != values_arr.shape or dims_arr.ndim != 1:
            raise DatasetError("insert dims and values must be 1-D and equal length")
        if dims_arr.size and np.unique(dims_arr).size != dims_arr.size:
            raise DatasetError("insert row has duplicate dimensions")
        order = np.argsort(dims_arr, kind="stable")
        return cls(
            kind="insert",
            dims=tuple(int(d) for d in dims_arr[order]),
            values=tuple(float(v) for v in values_arr[order]),
        )

    @classmethod
    def delete(cls, tuple_id: int) -> "Mutation":
        """Tombstone tuple *tuple_id* (its id stays allocated, row empties)."""
        return cls(kind="delete", tuple_id=int(tuple_id))

    @classmethod
    def update(cls, tuple_id: int, dim: int, value: float) -> "Mutation":
        """Set tuple *tuple_id*'s coordinate at *dim* (0.0 removes it)."""
        return cls(
            kind="update",
            tuple_id=int(tuple_id),
            dims=(int(dim),),
            values=(float(value),),
        )

    def __repr__(self) -> str:
        if self.kind == "insert":
            return f"Mutation.insert(dims={self.dims}, values={self.values})"
        if self.kind == "delete":
            return f"Mutation.delete({self.tuple_id})"
        return (
            f"Mutation.update({self.tuple_id}, dim={self.dims[0]}, "
            f"value={self.values[0]:.6g})"
        )


@dataclass(frozen=True)
class MutationBatch:
    """An ordered batch of mutations applied atomically under one epoch bump.

    Order matters: each mutation sees the dataset state left by its
    predecessors (an update may touch a row inserted earlier in the same
    batch).  Build directly from a sequence of :class:`Mutation` or grow
    one incrementally via :meth:`builder`-style module helpers.
    """

    mutations: Tuple[Mutation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mutations", tuple(self.mutations))
        require(len(self.mutations) >= 1, "a mutation batch cannot be empty")
        for mutation in self.mutations:
            if not isinstance(mutation, Mutation):
                raise DatasetError(
                    f"batch items must be Mutation objects, got {mutation!r}"
                )

    def __len__(self) -> int:
        return len(self.mutations)

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self.mutations)

    def touched_ids(self) -> List[Optional[int]]:
        """Target tuple ids in batch order (``None`` for inserts)."""
        return [m.tuple_id for m in self.mutations]

    def __repr__(self) -> str:
        kinds = {}
        for m in self.mutations:
            kinds[m.kind] = kinds.get(m.kind, 0) + 1
        inner = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return f"MutationBatch(n={len(self.mutations)}, {inner})"


@dataclass(frozen=True)
class AppliedMutation:
    """The delta record of one applied mutation.

    Holds the touched row's sparse contents before and after the change —
    enough to replay the mutation against any derived structure (inverted
    lists, cached columns) and to run the service layer's region delta
    test without consulting pre-mutation storage.
    """

    kind: str
    tuple_id: int
    old_dims: Tuple[int, ...]
    old_values: Tuple[float, ...]
    new_dims: Tuple[int, ...]
    new_values: Tuple[float, ...]

    def coordinate_changes(
        self,
    ) -> Iterator[Tuple[int, Optional[float], Optional[float]]]:
        """Yield ``(dim, old_value, new_value)`` for every changed coordinate.

        ``None`` stands for "absent" on the corresponding side; equal
        stored values are skipped (no list entry moves).
        """
        old = dict(zip(self.old_dims, self.old_values))
        new = dict(zip(self.new_dims, self.new_values))
        for dim in sorted(set(old) | set(new)):
            old_v, new_v = old.get(dim), new.get(dim)
            if old_v != new_v:
                yield dim, old_v, new_v

    def coords_at(self, dims: np.ndarray, *, new: bool) -> np.ndarray:
        """The old or new row projected onto *dims* (zeros filled in)."""
        row_dims = self.new_dims if new else self.old_dims
        row_values = self.new_values if new else self.old_values
        lookup = dict(zip(row_dims, row_values))
        return np.asarray(
            [lookup.get(int(d), 0.0) for d in dims], dtype=np.float64
        )

    def __repr__(self) -> str:
        return (
            f"AppliedMutation({self.kind}, d{self.tuple_id}, "
            f"nnz {len(self.old_dims)}->{len(self.new_dims)})"
        )
