"""Exact rational scalars, small dense matrices, and canonical-form subspaces.

Everything here computes over ``fractions.Fraction``; no operation rounds.
Subspace bases are stored in reduced row echelon form, which is unique for a
given row space, so two subspaces are equal exactly when their stored bases
are identical entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch

Scalar = Fraction
Vector = tuple[Fraction, ...]
ScalarLike = Union[Fraction, int, str]

F0 = Fraction(0)
F1 = Fraction(1)


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or exact-number string to a rational.

    Accepted strings are integers ("3"), fractions ("2/5"), and finite
    decimals ("0.05", parsed exactly as 1/20). Floats are rejected: binary
    floats would silently smuggle rounding error into the exact core.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact number: {value!r}") from exc
    raise TypeError(f"not an exact number: {value!r}")


def format_scalar(value: Fraction) -> str:
    return str(value)


def vector(values: Sequence[ScalarLike]) -> Vector:
    return tuple(scalar(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of lengths {len(u)} and {len(v)}")
    total = F0
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"subtracting vectors of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix with row-major entries."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise DimensionMismatch(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionMismatch(f"ragged row of length {len(r)}, expected {self.cols}")

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[ScalarLike]], cols: Optional[int] = None) -> "Matrix":
        entries = tuple(vector(r) for r in rows_data)
        if cols is None:
            if not entries:
                raise DimensionMismatch("column count required for a matrix with no rows")
            cols = len(entries[0])
        return cls(len(entries), cols, entries)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        entries = tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n))
        return cls(n, n, entries)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} columns vs vector of length {len(v)}")
        return tuple(dot(r, v) for r in self.entries)


def rref(rows: Sequence[Sequence[Fraction]], cols: Optional[int] = None) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot column indices)."""
    work = [list(r) for r in rows]
    if cols is None:
        cols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        head = work[r][c]
        if head != 1:
            work[r] = [x / head if x else x for x in work[r]]
        base = work[r]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                if f:
                    work[i] = [a - f * b if b else a for a, b in zip(work[i], base)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rank(m: Matrix) -> int:
    """Rank by exact Gaussian elimination."""
    return len(rref(m.entries, m.cols)[1])


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held as its unique reduced-row-echelon basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise DimensionMismatch(
                    f"basis vector of length {len(b)} in ambient dimension {self.ambient_dim}"
                )

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence[Fraction]]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        rows, _ = rref(vectors, ambient_dim)
        return cls(ambient_dim, tuple(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        return Matrix(len(self.basis), self.ambient_dim, self.basis)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        residual = list(v)
        for row in self.basis:
            c = next(j for j, x in enumerate(row) if x)
            f = residual[c]
            if f:
                residual = [a - f * b if b else a for a, b in zip(residual, row)]
        return not any(residual)


def nullspace(m: Matrix) -> Subspace:
    """The kernel {v : m v = 0}, in canonical form. Satisfies rank-nullity."""
    rows, pivots = rref(m.entries, m.cols)
    pivot_set = set(pivots)
    raw: list[list[Fraction]] = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [F0] * m.cols
        v[f] = F1
        for i, p in enumerate(pivots):
            coeff = rows[i][f]
            if coeff:
                v[p] = -coeff
        raw.append(v)
    return Subspace.from_vectors(m.cols, raw)


def orthogonal_complement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s; an involution on canonical subspaces."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    return nullspace(s.basis_matrix())


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a (decided exactly). Ambient dims must match."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"comparing subspaces of ambient dimensions {a.ambient_dim} and {b.ambient_dim}"
        )
    return all(a.contains_vector(v) for v in b.basis)
