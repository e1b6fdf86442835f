"""Exact rational scalars, small dense matrices, and canonical-form subspaces.

Everything here computes over ``fractions.Fraction``; no operation rounds.
``dot`` sums on integers internally: it keeps one numerator over the least
common denominator of the products seen so far and builds a single Fraction
for the result. Its entries must be exact rationals (with integer
``numerator`` and ``denominator``); a float raises TypeError. ``dot`` serves
data that is built fresh and read once, such as a linear program's rows.

A fixed row that is read again and again (a prior set's constraint, an
action's utility) is compiled once into a ``SparseRow``: the indices of its
nonzero entries and their integer numerators over one row denominator.
``sparse_dot`` multiplies it with a vector of exact rationals and returns
the unreduced ``(numerator, denominator)`` pair, so a comparison can
cross-multiply without building a Fraction.

A subspace holds its basis in reduced row echelon form, which is unique for
a given row space, so two subspaces are equal exactly when their stored
bases are identical entry for entry. Because it is unique, ``rref`` can
eliminate on integers: each row is scaled by the lcm of its denominators,
each pivot (``_clear_column``, which the simplex in ``lp`` shares) makes its
head h positive and turns every other row with an entry f in its column into
h * row - f * pivot row over the gcd of its entries (``_combine``), and a
Fraction is built only for the rows it returns. A pivot lists its row's
nonzero (column, entry) pairs once, and ``_combine`` divides h and f by
their gcd, copies the row (or scales it by the reduced h) and updates it
only at those columns. It never writes into a row it is given, because the
simplex shares tableau rows between a cached phase 1 and its phase-2
copies. ``rank``, ``Subspace.contains_vector`` and ``subspace_contains``
need only the number of pivots, so they count the pivots of that same pass
and build no Fraction.
An entry that is not an exact rational raises TypeError in all of them.

A kernel, and so an orthogonal complement of any dimension, costs one
elimination: the matrix is reduced with its columns reversed, and the kernel
vectors read off that are already in canonical form (see ``nullspace``).

Every matrix has one integer view, ``Matrix._integer_entries``: its entries
as integer rows over one denominator, computed on first read and cached.
``Matrix._over`` builds a matrix from integer rows, one Fraction per distinct
value, and keeps the rows as its view. ``nullspace`` eliminates the view's
rows, and hands its basis's view over on the subspace's one ``basis_matrix()``.
``_integer_difference`` is u - v scaled to integers, for a caller that needs
only the line of the difference.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DigitLimitExceeded, DimensionMismatch

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
    try:
        return str(value)
    except ValueError as exc:  # CPython's int-to-text digit limit
        digits = sys.get_int_max_str_digits()
        raise DigitLimitExceeded(f"a result has more than {digits} digits, too many to print") from exc


def vector(values: Sequence[ScalarLike]) -> Vector:
    return tuple(scalar(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of lengths {len(u)} and {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            try:
                n = a.numerator * b.numerator
                d = a.denominator * b.denominator
            except AttributeError:
                bad = b if hasattr(a, "numerator") and hasattr(a, "denominator") else a
                raise TypeError(f"not an exact number: {bad!r}") from None
            if d == den:
                num += n
            else:
                g = gcd(d, den)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
    return Fraction(num, den)


class SparseRow(NamedTuple):
    """A fixed rational row: entry ``indices[i]`` is ``numerators[i] / denominator``.

    Every other entry is zero, and the denominator is positive.
    """

    indices: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


def _inexact(values) -> TypeError:
    """The TypeError naming the first of values that is not an exact rational."""
    bad = next(x for x in values if not (hasattr(x, "numerator") and hasattr(x, "denominator")))
    return TypeError(f"not an exact number: {bad!r}")


def sparse_row(values: Sequence[Fraction]) -> SparseRow:
    """Compile a row of exact rationals; an inexact entry raises TypeError."""
    try:
        indices = [j for j, v in enumerate(values) if v.numerator]
    except AttributeError:
        raise _inexact(values) from None
    den = lcm(*[values[j].denominator for j in indices])
    numerators = [values[j].numerator * (den // values[j].denominator) for j in indices]
    return SparseRow(tuple(indices), tuple(numerators), den)


def sparse_dot(row: SparseRow, v: Sequence[Fraction]) -> tuple[int, int]:
    """row . v as an unreduced (numerator, denominator) pair, the denominator positive.

    Only the row's nonzero positions of v are read, and zeros among them are
    skipped by their numerator. An inexact entry read raises TypeError.
    """
    num, den = 0, 1
    try:
        for j, a in zip(row.indices, row.numerators):
            x = v[j]
            n = x.numerator
            if n:
                d = x.denominator
                if d == den:
                    num += a * n
                else:
                    g = gcd(d, den)
                    num = num * (d // g) + a * n * (den // g)
                    den = den // g * d
    except AttributeError:
        raise TypeError(f"not an exact number: {x!r}") from None
    return num, den * row.denominator


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"subtracting vectors of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def _integer_difference(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[int, ...]:
    """u - v times the lcm of every denominator in u and v: integers on the line of u - v.

    An entry that is not an exact rational raises TypeError.
    """
    if len(u) != len(v):
        raise DimensionMismatch(f"subtracting vectors of lengths {len(u)} and {len(v)}")
    try:
        den = lcm(*[a.denominator for a in u], *[b.denominator for b in v])
        return tuple(
            [
                a.numerator * (den // a.denominator) - b.numerator * (den // b.denominator)
                for a, b in zip(u, v)
            ]
        )
    except AttributeError:
        raise _inexact((*u, *v)) from None


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

    @cached_property
    def _integer_entries(self) -> tuple[int, list[list[int]]]:
        """(den, rows) with entry (i, j) = rows[i][j] / den, den positive; nothing may change rows.

        Computed from the entries on first read, unless ``_over`` or ``nullspace``
        supplied it. Not a field: == and repr ignore it. An inexact entry raises TypeError.
        """
        entries = self.entries
        try:
            den = lcm(*[x.denominator for row in entries for x in row])
            return den, [[x.numerator * (den // x.denominator) for x in row] for row in entries]
        except AttributeError:
            raise _inexact(x for row in entries for x in row) from None

    @classmethod
    def _over(cls, den: int, rows: list[list[int]], cols: int) -> "Matrix":
        """The matrix with entries Fraction(x, den) over integer rows, den positive.

        One Fraction is built per distinct value. The rows themselves, not a
        copy, become ``_integer_entries``; nothing may change them afterwards.
        """
        get = {x: Fraction(x, den) for x in set().union(*rows)}.__getitem__
        # tuple() of a list, as in lp._row_duals: from a map, +1 MB peak RSS on marginal-solve
        m = cls(len(rows), cols, tuple([tuple(list(map(get, row))) for row in rows]))
        m.__dict__["_integer_entries"] = (den, rows)
        return m


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each nonzero row over the lcm of its denominators, divided by the gcd of its entries.

    A nonzero multiple of a row spans the same line, so the integer rows
    span the same space. An entry that is not an exact rational raises
    TypeError.
    """
    out = []
    for row in rows:
        try:
            den = lcm(*[x.denominator for x in row])
            if den == 1:
                ints = [x.numerator for x in row]
            else:
                ints = [x.numerator * (den // x.denominator) for x in row]
        except AttributeError:
            raise _inexact(row) from None
        g = gcd(*ints)
        if g:
            out.append([x // g for x in ints] if g != 1 else ints)
    return out


def _nonzero(row: list[int]) -> list[tuple[int, int]]:
    """The (column, entry) pairs of row's nonzero entries."""
    return [(j, b) for j, b in enumerate(row) if b]


def _combine(row: list[int], f: int, pivot: list[tuple[int, int]], h: int) -> list[int]:
    """h * row - f * prow over its gcd; for h > 0 a positive multiple of row - (f/h) * prow.

    pivot is ``_nonzero(prow)``. h and f are first divided by their gcd, which
    leaves the result, a primitive vector, unchanged. The result is a new
    list: row is copied (or scaled) and then updated only at prow's nonzero
    columns, so a row shared with another tableau is never written into.
    """
    g = gcd(h, f)
    if g > 1:
        h //= g
        f //= g
    out = row.copy() if h == 1 else [a * h for a in row]
    for j, b in pivot:
        out[j] -= f * b
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _clear_column(rows: list[list[int]], r: int, c: int) -> None:
    """Pivot on (r, c): make the head positive, then clear column c in every other row.

    Rows are replaced, never written into; each keeps gcd 1, so a pivot row needs no division.
    """
    prow = rows[r]
    h = prow[c]
    if h < 0:
        h = -h
        rows[r] = prow = [-x for x in prow]
    targets = [i for i, row in enumerate(rows) if row[c] and i != r]
    if targets:
        pivot = _nonzero(prow)
        for i in targets:
            rows[i] = _combine(rows[i], rows[i][c], pivot, h)


def _eliminate(work: list[list[int]], cols: int) -> list[int]:
    """Gauss-Jordan elimination of the integer rows in place; returns the pivot columns.

    Each pivot clears its column in every other row, so each pivot row
    divided by its head is a row of the reduced row echelon form.
    """
    pivots: list[int] = []
    r = 0
    n = len(work)
    for c in range(cols):
        if r == n:
            break
        i = r
        while i < n and not work[i][c]:
            i += 1
        if i == n:
            continue
        work[i], work[r] = work[r], work[i]
        _clear_column(work, r, c)
        pivots.append(c)
        r += 1
    return pivots


def rref(rows: Sequence[Sequence[Fraction]], cols: int) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot column indices).

    The elimination runs on integer rows; each returned row is a pivot row
    divided by its head, and only its entries become Fractions.
    """
    work = _integer_rows(rows)
    pivots = _eliminate(work, cols)
    out = []
    for row, c in zip(work, pivots):
        h = row[c]
        out.append(tuple([F0 if not x else F1 if x == h else Fraction(x, h) for x in row]))
    return out, pivots


def _pivot_count(rows: Sequence[Sequence[Fraction]], cols: int) -> int:
    """The rank of the rows: the number of pivots of ``rref``'s pass; builds no Fraction."""
    return len(_eliminate(_integer_rows(rows), cols))


def rank(m: Matrix) -> int:
    """Rank by exact Gaussian elimination."""
    return _pivot_count(m.entries, m.cols)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held as its unique reduced-row-echelon basis.

    The constructor reduces the vectors it is given, so ``==``, which
    compares stored bases, holds exactly for equal spans.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise DimensionMismatch(
                    f"basis vector of length {len(b)} in ambient dimension {self.ambient_dim}"
                )
        object.__setattr__(self, "basis", tuple(rref(self.basis, self.ambient_dim)[0]))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence[Fraction]]) -> "Subspace":
        return cls(ambient_dim, tuple(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        """The basis as a matrix, one row per vector: built once, then the same object."""
        m = self.__dict__.get("_matrix")
        if m is None:
            m = self.__dict__["_matrix"] = Matrix(len(self.basis), self.ambient_dim, self.basis)
        return m

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        """Whether v lies in the span: adding it to the basis leaves the rank at dim."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        return _pivot_count(self.basis + (tuple(v),), self.ambient_dim) == self.dim


def nullspace(m: Matrix) -> Subspace:
    """The kernel {v : m v = 0}, in canonical form. Satisfies rank-nullity.

    Reducing with the columns reversed leaves each pivot row zero past its
    pivot p, so free column f gives e_f - sum_p row_p[f] e_p with leading 1
    at f and zeros at the other free columns: already the canonical basis.

    It eliminates m's integer view, and hands over its ``basis_matrix()``'s view
    over den, the lcm of the pivot rows' denominators: free column f's row
    is den at f and -den * row_p[f] at each pivot p.
    """
    n = m.cols
    rows, pivots = rref([r[::-1] for r in m._integer_entries[1]], n)
    den = lcm(*[x.denominator for row in rows for x in row])
    # each pivot row in column order, as Fractions and as integers over den
    pivot_rows = [
        (n - 1 - p, row[::-1], [x.numerator * (den // x.denominator) for x in reversed(row)])
        for p, row in zip(pivots, rows)
    ]
    pivot_columns = {p for p, _, _ in pivot_rows}
    basis: list[Vector] = []
    integers: list[list[int]] = []
    for f in range(n):
        if f in pivot_columns:
            continue
        v = [F0] * n
        v[f] = F1
        w = [0] * n
        w[f] = den
        for p, row, ints in pivot_rows:
            if ints[f]:
                v[p] = -row[f]
                w[p] = -ints[f]
        basis.append(tuple(v))
        integers.append(w)
    s = _canonical(n, tuple(basis))
    matrix = s.__dict__["_matrix"] = Matrix(len(basis), n, s.basis)
    matrix.__dict__["_integer_entries"] = (den, integers)
    return s


def _canonical(ambient_dim: int, basis: tuple[Vector, ...]) -> Subspace:
    """A subspace over a basis already in reduced row echelon form, not reduced again."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "ambient_dim", ambient_dim)
    object.__setattr__(s, "basis", basis)
    return s


def orthogonal_complement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s; an involution on canonical subspaces."""
    return nullspace(s.basis_matrix())


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subset of a: adding b's basis to a's leaves the rank at a.dim."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"comparing subspaces of ambient dimensions {a.ambient_dim} and {b.ambient_dim}"
        )
    return _pivot_count(a.basis + b.basis, a.ambient_dim) == a.dim
