"""Permutations as index vectors.

A permutation of size n is a 1-D int64 array ``p`` that is a bijection on
``{0..n-1}``.  Applied to the rows of a matrix it acts as ``out[i] = src[p[i]]``,
i.e. the dense matrix with a one at ``(i, p[i])`` left-multiplying ``src``.
Composition and inversion are exact index operations; no permutation is ever
materialized as a dense 0/1 matrix outside of small test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssignmentFormatError

Perm = np.ndarray


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError(f"permutation size must be >= 1, got {n}")
    return np.arange(n, dtype=np.int64)


def check_permutation(p, size: int | None = None) -> Perm:
    """Validate and return ``p`` as an int64 index vector.

    Raises AssignmentFormatError on a dtype that is not integer (bool
    included), on duplicate or out-of-range indices, or when the length does
    not match ``size``.  Messages name the first offending position and the
    count, never the whole vector.
    """
    arr = np.asarray(p)
    if arr.ndim != 1 or arr.size == 0:
        raise AssignmentFormatError(f"permutation must be a non-empty 1-D index vector, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise AssignmentFormatError(f"permutation must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    n = arr.size
    if size is not None and n != size:
        raise AssignmentFormatError(f"permutation has length {n}, expected {size}")
    bad = np.flatnonzero((arr < 0) | (arr >= n))
    if bad.size:
        raise AssignmentFormatError(
            f"permutation has {bad.size} index(es) out of range 0..{n - 1}, "
            f"the first at position {bad[0]}: {arr[bad[0]]}"
        )
    seen = np.zeros(n, dtype=bool)
    seen[arr] = True
    if not seen.all():
        order = np.argsort(arr, kind="stable")
        repeats = order[1:][arr[order[1:]] == arr[order[:-1]]]
        first = int(repeats.min())
        raise AssignmentFormatError(
            f"permutation repeats {repeats.size} index(es), "
            f"the first at position {first}: {arr[first]}"
        )
    return arr


def compose(a: Perm, b: Perm) -> Perm:
    """Return a∘b, i.e. the permutation mapping i to a[b[i]]."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size != b.size:
        raise ValueError(f"cannot compose permutations of sizes {a.size} and {b.size}")
    return a[b]


def inverse(a: Perm) -> Perm:
    """Return the permutation q with a[q[i]] == i for all i."""
    return np.argsort(np.asarray(a, dtype=np.int64), kind="stable").astype(np.int64)


def random_permutation(n: int, rng: np.random.Generator) -> Perm:
    return rng.permutation(n).astype(np.int64)


def join_heads(inter, intras) -> Perm:
    """One permutation of an attention block's H*d_k output units from its
    two levels: destination head i is source head ``inter[i]``, and unit r of
    destination head i is unit ``intras[i][r]`` of that source head.  No unit
    crosses a head boundary.  ``PermutationAssignment.block`` reads the two
    levels back."""
    inter = check_permutation(inter)
    if len(intras) != inter.size:
        raise AssignmentFormatError(f"expected {inter.size} intra-head permutations, got {len(intras)}")
    d_k = check_permutation(intras[0]).size
    return np.concatenate([inter[i] * d_k + check_permutation(q, size=d_k) for i, q in enumerate(intras)])


@dataclass
class PermutationAssignment:
    """Maps permutation-variable ids to index vectors.

    ``heads`` holds the head count of each attention variable.  Its head
    structure is read off the index vector (``block``), so files can
    round-trip it and theorem-level checks can inspect it.
    """

    perms: dict[str, Perm] = field(default_factory=dict)
    heads: dict[str, int] = field(default_factory=dict)

    def block(self, var_id: str) -> tuple[Perm, tuple[Perm, ...]] | None:
        """The ``(inter, intras)`` that ``join_heads`` turns into ``var_id``'s
        index vector; None if it has no head count or its index vector mixes
        units across heads."""
        n_heads = self.heads.get(var_id)
        p = np.asarray(self.perms[var_id])
        if n_heads is None or p.size % n_heads:
            return None
        rows = check_permutation(p).reshape(n_heads, -1)
        d_k = rows.shape[1]
        inter = rows[:, 0] // d_k
        if not np.all(rows // d_k == inter[:, None]):
            return None
        return inter, tuple(rows % d_k)

    def copy(self) -> "PermutationAssignment":
        return PermutationAssignment({k: v.copy() for k, v in self.perms.items()}, dict(self.heads))

    def __eq__(self, other) -> bool:
        """Equal when written to the same file: a file records a head count
        only for a vector that ``block`` reads as head structure."""
        if not isinstance(other, PermutationAssignment):
            return NotImplemented
        if set(self.perms) != set(other.perms):
            return False
        return all(
            np.array_equal(self.perms[k], other.perms[k])
            and (self.block(k) and self.heads[k]) == (other.block(k) and other.heads[k])
            for k in self.perms
        )
