"""Exact two-phase simplex with primal, dual, Farkas, and ray certificates.

Programs minimize or maximize a rational objective over variables with
optional per-variable lower bounds (``None`` means free), subject to
equality rows and ``<=`` rows. The solver always minimizes internally; a max
program is negated on the way in and its certificate negated on the way out.

Pivoting follows Bland's rule (lowest eligible index enters, ratio ties
break toward the lowest basic index), so the solver terminates on every
input and identical programs produce identical outcomes.

The tableau holds integers, each row with gcd 1. A constraint row stands for
``rows[i][j] / rows[i][basis[i]]``: its basic variable's coefficient is 1,
so its entry in its basic column is its denominator. The cost row has no
basic column, and keeps its denominator in one extra column, where every
constraint row holds 0 and which Bland's rule never lets enter. Every pivot
is ``numerics._clear_column``, the one integer row operation that ``rref``
also runs: the pivot row's head is made positive, and every other row
becomes ``h*row - f*prow`` divided by the gcd of its entries. So every
denominator is positive, a stored entry has the sign of the value it stands
for, and the ratio rhs/t of a row is ``row[-1] / row[enter]`` (the row's
denominator cancels), compared by cross-multiplying. Bland's rule thus sees
the same signs and the same ratios as over a Fraction tableau, makes the
same choices, and returns the same outcomes and certificates. Fractions
are built only for the returned point, value and certificate.

A program's rows are read through one integer view, ``LinearProgram._rows``:
the eq rows, then the ub rows, each ``numerics.sparse_row`` of its row,
computed on first read and cached, unless the builder handed the same rows
over already compiled (``_with_rows``). Only ``model``'s identified sets do,
for their two programs: there the checker reads the builder's rows, not its
own compilation of the Fraction rows, and the builder vouches that the view
is the program. Every other program, each supporting-prior system and its
refutation included, is checked against this module's own compilation of
its rows. Each standard-form row is built from the view as integers over
the lcm of its row denominator and its rhs's; the objective is laid out as
``sparse_row`` of it. A cost row is priced (``_price``) as one integer sum of
the rows whose basic columns it holds, over the lcm of their heads.

Phase 1 does not read the objective. ``_phase_one`` runs it and drives the
artificials out, returning the feasible tableau (or a Farkas certificate);
``_phase_two`` prices one objective and runs Bland's phase 2 from a copy of
that tableau. ``solve_lp`` composes the two, and returns any outcome only
after ``verify_outcome`` has checked it. ``model.IdentifiedSet`` caches its
phase 1, so the worst cases over one identified set each run only phase 2.
Bland's rule is deterministic, so each returns exactly what a fresh solve would.

Certificate conventions, writing y for equality multipliers, w for
inequality multipliers, and s for lower-bound multipliers (s is zero on
free variables):

* Optimal, min:   A_eq^T y + A_ub^T w + s = c,  w <= 0, s >= 0, and
  b_eq.y + b_ub.w + l.s equals the optimal value.
* Optimal, max:   same with w >= 0, s <= 0.
* Infeasible:     A_eq^T y + A_ub^T w + s = 0,  w <= 0, s >= 0, and
  b_eq.y + b_ub.w + l.s > 0 (sense-independent).
* Unbounded:      a feasible base point plus a direction r with
  A_eq r = 0, A_ub r <= 0, r >= 0 on bounded variables, and an objective
  that strictly improves along r.

``verify_outcome`` checks these against the program's data, its rows read
through the same view. Optima and refutations share one dual test, and an
optimum's point, a ray's base point and its direction share one point test
(``_point_feasible``, which reads every rhs and bound as 0 for the
direction, and tests each row with ``numerics.sparse_dot``, compared by
cross-multiplying). The dual test's stationarity (``_stationary``) sums the
rows with a nonzero multiplier, weighted, as integers over one lcm, and
compares each column with target - s by cross-multiplying. Its other sums
go through ``dot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import gt, lt
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DimensionMismatch
from .numerics import (
    SparseRow,
    Vector,
    _clear_column,
    dot,
    sparse_dot,
    sparse_row,
)

F0 = Fraction(0)
F1 = Fraction(1)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class DualCertificate:
    eq: Vector
    ub: Vector
    lb: Vector


@dataclass(frozen=True)
class FarkasCertificate:
    eq: Vector
    ub: Vector
    lb: Vector


@dataclass(frozen=True)
class ImprovingRay:
    direction: Vector
    base_point: Vector


Certificate = Union[DualCertificate, FarkasCertificate, ImprovingRay]


_EXACT_TYPES = {int, Fraction}


def _require_exact(*parts: Iterable) -> None:
    """Raise TypeError on an entry of the parts that is not an int or a Fraction.

    Parts holding only ints and Fractions pass in one pass over their types;
    any other type (a bool, a subclass, a float) runs the isinstance loop,
    which accepts bools and subclasses and names the first bad entry.
    """
    if set(map(type, chain(*parts))) <= _EXACT_TYPES:
        return
    for v in chain(*parts):
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"not an exact number: {v!r} (int or Fraction required)")


@dataclass(frozen=True)
class LinearProgram:
    objective: Vector
    sense: str = "min"
    eq_matrix: tuple[Vector, ...] = ()
    eq_rhs: Vector = ()
    ub_matrix: tuple[Vector, ...] = ()
    ub_rhs: Vector = ()
    lower_bounds: Optional[tuple[Optional[Fraction], ...]] = None

    def __post_init__(self) -> None:
        n = len(self.objective)
        if n == 0:
            raise DimensionMismatch("a program needs at least one variable")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.eq_matrix) != len(self.eq_rhs):
            raise DimensionMismatch("equality matrix and rhs lengths differ")
        if len(self.ub_matrix) != len(self.ub_rhs):
            raise DimensionMismatch("inequality matrix and rhs lengths differ")
        rows = self.eq_matrix + self.ub_matrix
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch(f"constraint row of length {len(row)}, expected {n}")
        if self.lower_bounds is not None and len(self.lower_bounds) != n:
            raise DimensionMismatch("lower_bounds length differs from variable count")
        bounded = [lb for lb in self.lower_bounds or () if lb is not None]
        _require_exact(self.objective, *rows, self.eq_rhs, self.ub_rhs, bounded)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def bounds(self) -> tuple[Optional[Fraction], ...]:
        if self.lower_bounds is None:
            return (F0,) * self.n_vars
        return self.lower_bounds

    @cached_property
    def _rows(self) -> tuple[SparseRow, ...]:
        """The eq rows, then the ub rows, each compiled with ``sparse_row``; nothing may change it.

        Computed on first read, unless the builder handed over the same rows
        compiled (``_with_rows``). Not a field: == and repr ignore it, and
        ``replace`` computes it afresh. Every part of the solver and its
        checker reads rows here.
        """
        return tuple([sparse_row(row) for row in self.eq_matrix + self.ub_matrix])


def _with_rows(program: LinearProgram, rows: tuple[SparseRow, ...]) -> LinearProgram:
    """The program, its ``_rows`` view handed over: its eq rows, then its ub rows, compiled.

    For a builder that already holds those rows compiled; only an identified
    set's two programs are handed over this way. The simplex and its
    checker both read this view, so a view that disagreed with the Fraction
    rows would mislead both alike: the builder vouches for every entry. Only
    the count is checked here; each read pairs the view with the rhs strictly.
    """
    if len(rows) != len(program.eq_matrix) + len(program.ub_matrix):
        raise DimensionMismatch(
            f"{len(rows)} compiled rows handed over for "
            f"{len(program.eq_matrix) + len(program.ub_matrix)} constraint rows"
        )
    program.__dict__["_rows"] = rows
    return program


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    optimal_point: Optional[Vector] = None
    optimal_value: Optional[Fraction] = None
    certificate: Optional[Certificate] = None


class _Standard:
    """Standard form rows z = rhs (rhs >= 0), z >= 0, held as integer rows.

    Each row is built from the program's compiled row (``_rows``) as integers
    over the lcm of its denominator and its rhs's, with its slack (for a <=
    row) and its artificial column: [structural | artificial identity | 0 |
    rhs]. The rhs is shifted by the lower bounds only where one is nonzero.
    The objective is not read; ``cost_row`` lays one out over the same
    columns, with its denominator in the column that every constraint row
    leaves 0.
    """

    def __init__(self, program: LinearProgram) -> None:
        bounds = self.bounds = program.bounds()

        # Structural columns: one per bounded variable (shifted by its lower
        # bound), a +/- pair per free variable, then one slack per <= row.
        var_cols: list[int] = []
        n_base = 0
        for lb in bounds:
            var_cols.append(n_base)
            n_base += 2 if lb is None else 1
        self.var_cols = var_cols
        self.n_base = n_base
        n_eq = self.n_eq = len(program.eq_matrix)
        compiled = program._rows
        n_struct = self.n_struct = n_base + len(program.ub_matrix)
        self.width = n_struct + len(compiled) + 2
        # the lower bounds as a vector, None read as 0, if any is nonzero
        lows = tuple([lb or F0 for lb in bounds]) if any(bounds) else None

        # Equality rows first, then <= rows with their slacks; a row whose
        # shifted rhs is negative is negated (sign -1 in signs).
        self.rows: list[list[int]] = []
        self.signs: list[int] = []
        rhs = chain(program.eq_rhs, program.ub_rhs)
        for i, (coeffs, r) in enumerate(zip(compiled, rhs, strict=True)):
            if lows is not None:
                shift, shift_den = sparse_dot(coeffs, lows)
                if shift:
                    r -= Fraction(shift, shift_den)
            sign = -1 if r < 0 else 1
            den = lcm(r.denominator, coeffs.denominator)
            row = self._place(coeffs.indices, coeffs.numerators, sign * (den // coeffs.denominator))
            if i >= n_eq:
                row[n_base + i - n_eq] = sign * den
            row[n_struct + i] = den
            row[-1] = sign * r.numerator * (den // r.denominator)
            self.rows.append(row)
            self.signs.append(sign)

    def _place(self, indices: Sequence[int], numerators: Sequence[int], scale: int) -> list[int]:
        """A zero row of the tableau's width, scale * numerators[i] at variable indices[i]'s columns."""
        row = [0] * self.width
        var_cols, bounds = self.var_cols, self.bounds
        for j, a in zip(indices, numerators):
            x = scale * a
            col = var_cols[j]
            row[col] = x
            if bounds[j] is None:
                row[col + 1] = -x
        return row

    def cost_row(self, objective: Sequence[Fraction], sense: str) -> list[int]:
        """The objective to minimize (negated for max): ``sparse_row`` of it, over its lcm."""
        compiled = sparse_row(objective)
        row = self._place(compiled.indices, compiled.numerators, -1 if sense == "max" else 1)
        row[-2] = compiled.denominator
        return row

    def point_from(self, by_col: dict[int, Fraction], shift: bool = True) -> Vector:
        """Program variables from column values; points are shifted by the bounds, rays not."""
        out = []
        for lb, col in zip(self.bounds, self.var_cols):
            x = by_col.get(col, F0)
            if lb is None:
                x -= by_col.get(col + 1, F0)
            elif shift and lb:
                x += lb
            out.append(x)
        return tuple(out)


def _price(cost: list[int], rows: list[list[int]], basis: list[int]) -> list[int]:
    """The cost row with every basic column eliminated: the reduced costs.

    Row i stands for row_i / h_i, h_i = row_i[basis[i]] > 0, and every other
    row holds 0 in its basic column. So over L = lcm of the h_i whose basic
    column the cost row prices, the reduced costs are the one integer sum
    L * cost - sum_i cost[basis[i]] * (L / h_i) * row_i, added in at each
    row's nonzero entries and divided by its gcd: the one primitive row with
    a positive denominator, whatever order the rows are taken in.
    """
    terms = [(row, cost[c], row[c]) for row, c in zip(rows, basis) if cost[c]]
    if not terms:
        return cost
    den = lcm(*[h for _, _, h in terms])
    priced = [den * x for x in cost] if den > 1 else cost.copy()
    for row, f, h in terms:
        k = -f * (den // h)
        for j, x in enumerate(row):
            if x:
                priced[j] += k * x
    g = gcd(*priced)
    return [x // g for x in priced] if g > 1 else priced


def _run(rows: list[list[int]], basis: list[int], n_allowed: int):
    """Bland's rule loop over entering columns 0..n_allowed-1; rows[-1] is the cost row."""
    m = len(basis)
    while True:
        z = rows[-1]
        enter = None
        for j in range(n_allowed):
            if z[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal", None
        # ratio rhs/t of row i is row[-1] / row[enter]: its basic entry cancels,
        # so ratios are compared by cross-multiplying
        leave = None
        for i in range(m):
            row = rows[i]
            t = row[enter]
            if t > 0:
                if leave is None:
                    leave, best_rhs, best_t = i, row[-1], t
                    continue
                lhs = row[-1] * best_t
                rhs = best_rhs * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_t = i, row[-1], t
        if leave is None:
            return "unbounded", enter
        _clear_column(rows, leave, enter)  # the cost row (last) included
        basis[leave] = enter


class _Feasible(NamedTuple):
    """Phase 1's final tableau: a feasible basis, no objective read yet."""

    std: _Standard
    rows: list[list[int]]  # the constraint rows, without a cost row
    basis: list[int]


def _phase_one(program: LinearProgram) -> Union[_Feasible, FarkasCertificate]:
    """Phase 1 and the drive-out of artificials, or a Farkas certificate of emptiness."""
    std = _Standard(program)
    m = len(std.rows)
    n_struct = std.n_struct
    rows = list(std.rows)
    basis = [n_struct + i for i in range(m)]

    # Minimize the sum of artificials (denominator 1), priced out from the start.
    rows.append(_price([0] * n_struct + [1] * m + [1, 0], rows, basis))

    status, _ = _run(rows, basis, n_struct)
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if rows[-1][-1] < 0:
        return FarkasCertificate(*_row_duals(std, rows[-1], 1))

    # Drive basic artificials out where a structural pivot exists; rows with
    # no structural entry are redundant and stay inert at zero.
    for r in range(m):
        if basis[r] >= n_struct:
            col = next((j for j in range(n_struct) if rows[r][j]), None)
            if col is not None:
                _clear_column(rows, r, col)
                basis[r] = col
    return _Feasible(std, rows[:m], basis)


def _phase_two(start: _Feasible, objective: Sequence[Fraction], sense: str) -> LpOutcome:
    """Bland's phase 2 for one objective, from a copy of phase 1's tableau."""
    _require_exact(objective)
    std = start.std
    rows = start.rows + [_price(std.cost_row(objective, sense), start.rows, start.basis)]
    basis = list(start.basis)

    status, enter = _run(rows, basis, std.n_struct)
    n_base = std.n_base  # point_from reads no slack or artificial column: none is built
    z_by_col = {c: Fraction(row[-1], row[c]) for row, c in zip(rows, basis) if c < n_base}

    if status == "unbounded":
        d_by_col = {enter: F1}
        for row, c in zip(rows, basis):
            t = row[enter]
            if t and c < n_base:
                d_by_col[c] = Fraction(-t, row[c])
        ray = ImprovingRay(
            direction=std.point_from(d_by_col, shift=False),
            base_point=std.point_from(z_by_col),
        )
        return LpOutcome(status=LpStatus.UNBOUNDED, certificate=ray)

    point = std.point_from(z_by_col)
    value = dot(objective, point)
    duals = _row_duals(std, rows[-1], 0)
    if sense == "max":
        # tuples of lists, not of generators: see _row_duals
        duals = tuple([tuple([-v for v in part]) for part in duals])
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        optimal_point=point,
        optimal_value=value,
        certificate=DualCertificate(*duals),
    )


def solve_lp(program: LinearProgram) -> LpOutcome:
    """Solve exactly; an outcome that fails ``verify_outcome`` raises AssertionError instead."""
    start = _phase_one(program)
    if isinstance(start, FarkasCertificate):
        outcome = LpOutcome(status=LpStatus.INFEASIBLE, certificate=start)
    else:
        outcome = _phase_two(start, program.objective, program.sense)
    if not verify_outcome(program, outcome):
        raise AssertionError(f"an {outcome.status.value} outcome failed its own certificate check")
    return outcome


def _row_duals(std: _Standard, z: list[int], unit: int) -> tuple[Vector, Vector, Vector]:
    """The (eq, ub, lb) multipliers of the program, read off the cost row z over z[-2].

    Row i's multiplier is unit minus its artificial's cost, times the row's
    sign; the equality rows come first. A variable's lower-bound multiplier
    is its column's reduced cost.
    """
    n_struct = std.n_struct
    den = z[-2]
    y = [Fraction(sign * (unit * den - z[n_struct + i]), den) for i, sign in enumerate(std.signs)]
    # tuple() of a list, not of a generator: a tuple grown from a generator is
    # resized in place and, once freed, stocks CPython's per-size tuple free
    # list; over a 16 s marginal-solve benchmark run that added 1.4 MB of peak RSS
    lb = [F0 if b is None else Fraction(z[col], den) for b, col in zip(std.bounds, std.var_cols)]
    return tuple(y[: std.n_eq]), tuple(y[std.n_eq :]), tuple(lb)


def _point_feasible(
    program: LinearProgram, point: Sequence[Fraction], homogeneous: bool = False
) -> bool:
    """Whether point meets every row and lower bound; homogeneous reads each rhs and bound as 0.

    Each row is the program's compiled row, multiplied with ``sparse_dot`` and
    compared with its rhs by cross-multiplying.
    """
    if len(point) != program.n_vars:
        return False
    bounds = program.bounds()
    if homogeneous:
        bounds = [None if lb is None else F0 for lb in bounds]
    if any(lb is not None and x < lb for lb, x in zip(bounds, point)):
        return False
    n_eq = len(program.eq_matrix)
    rhs = chain(program.eq_rhs, program.ub_rhs)
    for i, (row, b) in enumerate(zip(program._rows, rhs, strict=True)):
        num, den = sparse_dot(row, point)
        if homogeneous:
            lhs, rhs = num, 0
        else:
            lhs, rhs = num * b.denominator, b.numerator * den
        if (lhs != rhs) if i < n_eq else (lhs > rhs):
            return False
    return True


def _stationary(
    rows: Sequence[SparseRow],
    multipliers: Sequence[Fraction],
    s: Sequence[Fraction],
    target: Sequence[Fraction],
) -> bool:
    """Whether sum_i multipliers[i] * rows[i] + s == target, computed on integers.

    Each compiled row with a nonzero multiplier y is weighted by y; the
    weighted rows are summed as integers over one common denominator, the
    lcm of each y's denominator times its row's, and each column's sum is
    compared with target - s by cross-multiplying. Every entry must be
    exact, as ``verify_outcome`` has checked.
    """
    terms = []
    for y, compiled in zip(multipliers, rows, strict=True):
        if y:
            terms.append((y.numerator, y.denominator * compiled.denominator, compiled))
    den = lcm(*[d for _, d, _ in terms])
    sums = [0] * len(target)
    for num, d, compiled in terms:
        k = num * (den // d)
        for j, a in zip(compiled.indices, compiled.numerators):
            sums[j] += k * a
    for total, sj, t in zip(sums, s, target):
        # total / den == t - sj, with t - sj over t.denominator * sj.denominator
        td, sd = t.denominator, sj.denominator
        if total * td * sd != (t.numerator * sd - sj.numerator * td) * den:
            return False
    return True


def verify_outcome(program: LinearProgram, outcome: LpOutcome) -> bool:
    """Re-check an outcome against the raw program data, exactly.

    Every entry that the status's test reads (the multipliers, the point,
    the value, the ray) must be an int or a Fraction; any other raises
    TypeError before any test runs. The point and stationarity tests read
    the program's compiled rows (``_rows``) and compare integers by
    cross-multiplying; the sign, free-variable, objective and bound tests
    read Fractions.
    """
    cert = outcome.certificate
    if outcome.status is LpStatus.UNBOUNDED:
        # a ray is a feasible base point plus a feasible point of the homogeneous program
        if not isinstance(cert, ImprovingRay):
            return False
        _require_exact(cert.direction, cert.base_point)
        if not _point_feasible(program, cert.base_point):
            return False
        if not _point_feasible(program, cert.direction, homogeneous=True):
            return False
        gain = dot(program.objective, cert.direction)
        return gain < 0 if program.sense == "min" else gain > 0

    n = program.n_vars
    if outcome.status is LpStatus.OPTIMAL:
        point, value = outcome.optimal_point, outcome.optimal_value
        if not isinstance(cert, DualCertificate) or point is None or value is None:
            return False
        _require_exact(cert.eq, cert.ub, cert.lb, point, (value,))
        if not _point_feasible(program, point) or dot(program.objective, point) != value:
            return False
        # the comparisons that reject a w and an s: w >= 0 and s <= 0 at a max optimum
        bad_w, bad_s = (lt, gt) if program.sense == "max" else (gt, lt)
        target = program.objective
    elif outcome.status is LpStatus.INFEASIBLE:
        if not isinstance(cert, FarkasCertificate):
            return False
        _require_exact(cert.eq, cert.ub, cert.lb)
        bad_w, bad_s, target, value = gt, lt, (F0,) * n, None
    else:
        return False

    # the one dual test: the signs of w and s, A_eq^T y + A_ub^T w + s = target,
    # s = 0 on every free variable, and the bound b_eq.y + b_ub.w + l.s, which
    # equals an optimum's value and is > 0 for a refutation
    if any(bad_w(v, 0) for v in cert.ub) or any(bad_s(v, 0) for v in cert.lb):
        return False
    if len(cert.eq) != len(program.eq_matrix) or len(cert.ub) != len(program.ub_matrix):
        return False
    if len(cert.lb) != n:
        return False
    if not _stationary(program._rows, (*cert.eq, *cert.ub), cert.lb, target):
        return False
    bounds = program.bounds()
    if any(s for s, lb in zip(cert.lb, bounds) if lb is None):
        return False
    lows = tuple(F0 if lb is None else lb for lb in bounds)
    bound = dot(cert.eq, program.eq_rhs) + dot(cert.ub, program.ub_rhs) + dot(cert.lb, lows)
    return bound > 0 if value is None else bound == value
