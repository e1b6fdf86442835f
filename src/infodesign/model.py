"""Primitive objects: decision problems, prior sets, experiments, identified sets.

A decision maker with utility u over actions and finitely many states faces
an unknown state distribution. They observe only the message distribution an
experiment induces from the true distribution mu, and treat every prior in
the polytope that reproduces that message distribution as plausible: the
polytope cut by mu + ker(experiment), an ``IdentifiedSet``.

The rows a problem reads again and again, the prior set's constraints and
the actions' utilities, are compiled once per object into sparse integer
form (``numerics.SparseRow``) and cached on it; only this module reads them.
Membership, segments, payoffs and best responses compare integers by
cross-multiplying, and ``IdentifiedSet.minimize`` reuses the set's phase 1.
Each action's payoff at mu is compiled once per problem and read whenever
mu itself is passed. An experiment's columns are checked on its matrix's
integer view (``Matrix._integer_entries``), the one that ``nullspace`` later
eliminates, so the check and the kernel share one conversion.

The linear programs built here hand their rows over to ``lp`` already
compiled (``LinearProgram._rows``), each ``sparse_row`` of the program's own
row, so the simplex and its checker compile none of them and a view agrees
with its program by construction. ``PriorPolytope.feasibility_program``
hands over the prior set's rows; each identified set builds one program over
its rows (``IdentifiedSet._program``), which its phase 1 solves and
``maxmin``'s program extends with one u_a - t row per action.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from . import lp
from .errors import DimensionMismatch
from .numerics import (
    Matrix,
    SparseRow,
    Subspace,
    Vector,
    _integer_difference,
    dot,
    nullspace,
    sparse_dot,
    sparse_row,
    vector,
)

F0 = Fraction(0)
F1 = Fraction(1)


def _is_distribution(values: Sequence[Fraction]) -> bool:
    """Whether every entry is nonnegative and the entries sum to exactly one.

    The sum is kept as one integer numerator over the least common
    denominator seen so far, so no Fraction is built. An entry that is not an
    exact rational raises TypeError.
    """
    num, den = 0, 1
    for v in values:
        try:
            n, d = v.numerator, v.denominator
        except AttributeError:
            raise TypeError(f"not an exact number: {v!r}") from None
        if n < 0:
            return False
        if d == den:
            num += n
        elif n:
            g = gcd(d, den)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return num == den


@dataclass(frozen=True)
class PriorPolytope:
    """Priors over states: the probability simplex cut by affine constraints.

    The simplex conditions (coordinates nonnegative, summing to one) are
    implicit; ``eq``/``ub`` rows are the extra linear restrictions. The set
    must be nonempty: construction verifies this, either by checking a
    declared member exactly or by solving ``feasibility_program()``, whose
    point or refutation ``lp.solve_lp`` has verified.
    """

    dimension: int
    eq_matrix: tuple[Vector, ...] = ()
    eq_rhs: Vector = ()
    ub_matrix: tuple[Vector, ...] = ()
    ub_rhs: Vector = ()
    known_member: InitVar[Optional[Sequence[Fraction]]] = None

    def __post_init__(self, known_member) -> None:
        if self.dimension < 1:
            raise DimensionMismatch("prior polytope needs at least one state")
        if len(self.eq_matrix) != len(self.eq_rhs) or len(self.ub_matrix) != len(self.ub_rhs):
            raise DimensionMismatch("constraint matrix and rhs lengths differ")
        for row in self.eq_matrix + self.ub_matrix:
            if len(row) != self.dimension:
                raise DimensionMismatch(
                    f"constraint row of length {len(row)} over {self.dimension} states"
                )
        for b in self.eq_rhs + self.ub_rhs:
            if not isinstance(b, (int, Fraction)):
                raise TypeError(f"not an exact number: {b!r}")
        if known_member is not None:
            if not self.contains(vector(known_member)):
                raise ValueError("declared member lies outside the prior set")
        elif lp.solve_lp(self.feasibility_program()).status is not lp.LpStatus.OPTIMAL:
            raise ValueError("prior set is empty")

    @classmethod
    def simplex(cls, dimension: int) -> "PriorPolytope":
        uniform = (F1 / dimension,) * dimension if dimension else ()  # 0 is refused, not divided by
        return cls(dimension, known_member=uniform)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.dimension:
            raise DimensionMismatch(
                f"point of length {len(point)} in a {self.dimension}-state prior set"
            )
        if not _is_distribution(point):
            return False
        eq_rows, ub_rows = self._sparse_rows
        for row, b in zip(eq_rows, self.eq_rhs):
            num, den = sparse_dot(row, point)
            if num * b.denominator != b.numerator * den:
                return False
        for row, b in zip(ub_rows, self.ub_rhs):
            num, den = sparse_dot(row, point)
            if num * b.denominator > b.numerator * den:
                return False
        return True

    def feasibility_program(
        self, ub_matrix: tuple[Vector, ...] = (), ub_rhs: Vector = ()
    ) -> lp.LinearProgram:
        """A zero-objective program: sum to one, the equalities, the set's <= rows, then these.

        The set's rows are handed over compiled; the sum-to-one row and the
        added rows are compiled here, from the program's own rows.
        """
        n = self.dimension
        program = lp.LinearProgram(
            objective=(F0,) * n,
            sense="min",
            eq_matrix=((F1,) * n,) + self.eq_matrix,
            eq_rhs=(F1,) + self.eq_rhs,
            ub_matrix=self.ub_matrix + ub_matrix,
            ub_rhs=self.ub_rhs + ub_rhs,
        )
        eq_rows, ub_rows = self._sparse_rows
        added = tuple([sparse_row(row) for row in ub_matrix])
        ones = sparse_row(program.eq_matrix[0])
        return lp._with_rows(program, (ones,) + eq_rows + ub_rows + added)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[SparseRow, ...], tuple[SparseRow, ...]]:
        """The eq and ub rows, compiled once for membership tests and segment cuts."""
        eq_rows = tuple([sparse_row(row) for row in self.eq_matrix])
        return eq_rows, tuple([sparse_row(row) for row in self.ub_matrix])


@dataclass(frozen=True)
class MixedAction:
    """A probability vector over the action list."""

    weights: Vector

    def __post_init__(self) -> None:
        if not self.weights:
            raise DimensionMismatch("mixed action over zero actions")
        if not _is_distribution(self.weights):
            raise ValueError("mixed action weights must be nonnegative and sum to one")

    @classmethod
    def pure(cls, index: int, n_actions: int) -> "MixedAction":
        if not 0 <= index < n_actions:
            raise IndexError(f"pure action index {index} out of range {n_actions}")
        return cls(tuple(F1 if a == index else F0 for a in range(n_actions)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(a for a, w in enumerate(self.weights) if w)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class InformationStructure:
    """A finite message set and a column-stochastic experiment matrix.

    Column j is the message distribution sent in state j. The kernel of the
    matrix determines everything the structure reveals: kernel {0} means the
    state distribution is pinned down exactly.
    """

    messages: tuple[str, ...]
    experiment: Matrix

    def __post_init__(self) -> None:
        if self.experiment.rows != len(self.messages):
            raise DimensionMismatch(
                f"{len(self.messages)} messages but {self.experiment.rows} matrix rows"
            )
        if not self.messages:
            raise DimensionMismatch("experiment needs at least one message")
        den, rows = self.experiment._integer_entries  # entry (i, j) is rows[i][j] / den
        for j, col in enumerate(zip(*rows)):
            if min(col) < 0 or sum(col) != den:
                raise ValueError(f"experiment column {j} is not a probability vector")

    @property
    def n_states(self) -> int:
        return self.experiment.cols

    @cached_property
    def kernel(self) -> Subspace:
        return nullspace(self.experiment)

    @property
    def is_fully_informative(self) -> bool:
        return self.kernel.dim == 0

    @property
    def is_almost_fully_informative(self) -> bool:
        return self.kernel.dim <= 1

    @classmethod
    def identity(cls, n_states: int) -> "InformationStructure":
        labels = tuple(f"m{i}" for i in range(n_states))
        return cls(labels, Matrix.identity(n_states))

    @classmethod
    def single_message(cls, n_states: int) -> "InformationStructure":
        return cls(("m0",), Matrix(1, n_states, ((F1,) * n_states,)))


def kernel_of(structure: InformationStructure) -> Subspace:
    """Nullspace of the experiment matrix, in canonical form."""
    return structure.kernel


@dataclass(frozen=True)
class DecisionProblem:
    """States, actions, utility, the true distribution, and the prior set."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    utility: Matrix  # one row per action, one column per state
    mu: Vector
    priors: PriorPolytope

    def __post_init__(self) -> None:
        if not self.states or not self.actions:
            raise DimensionMismatch("need at least one state and one action")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be unique")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("action labels must be unique")
        if self.utility.rows != len(self.actions) or self.utility.cols != len(self.states):
            raise DimensionMismatch("utility matrix shape does not match labels")
        if len(self.mu) != len(self.states):
            raise DimensionMismatch("mu length does not match the state count")
        if self.priors.dimension != len(self.states):
            raise DimensionMismatch("prior set dimension does not match the state count")
        if not _is_distribution(self.mu):
            raise ValueError("mu must be a probability vector")
        if not self.priors.contains(self.mu):
            raise ValueError("mu lies outside the prior set")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def utility_row(self, action: int) -> Vector:
        return self.utility.row(action)

    @cached_property
    def _utility_rows(self) -> tuple[SparseRow, ...]:
        """Each action's utility row, compiled once for payoffs and best responses."""
        return tuple([sparse_row(row) for row in self.utility.entries])

    @cached_property
    def _mu_payoffs(self) -> tuple[tuple[int, int], ...]:
        """Each action's payoff u_a . mu as a ``sparse_dot`` pair, compiled once."""
        return tuple([sparse_dot(row, self.mu) for row in self._utility_rows])

    def _payoff_pairs(self, nu: Sequence[Fraction]) -> Sequence[tuple[int, int]]:
        """Each action's u_a . nu as a ``sparse_dot`` pair; mu itself reads the compiled ones."""
        if nu is self.mu:
            return self._mu_payoffs
        if len(nu) != self.n_states:
            raise DimensionMismatch("state distribution length does not match the problem")
        return [sparse_dot(row, nu) for row in self._utility_rows]

    def pure_payoffs(self, nu: Sequence[Fraction]) -> Vector:
        """Each pure action's payoff u_a . nu, exactly; nu need not be a distribution."""
        return tuple([Fraction(*pair) for pair in self._payoff_pairs(nu)])

    def segment(self, d: Vector) -> tuple[Fraction, Fraction]:
        """Exact [lo, hi] such that mu + lam d is in the prior set iff lo <= lam <= hi.

        [0, 0] when d is zero or breaks an equality of the prior set, the sum to
        one included (d is compiled once, by ``sparse_row``). Each cut c lam <= b
        (a <= row of the prior set, or mu_s + lam d_s >= 0) is kept as the
        integer ratio b / c = p / q, q of the sign of c, and the cuts are
        compared by cross-multiplying; only lo and hi become Fractions.
        """
        if len(d) != self.n_states:
            raise DimensionMismatch("direction length does not match the state count")
        step = sparse_row(d)  # d_s = a / den at each of its nonzero s
        if not step.indices or sum(step.numerators):
            return F0, F0
        eq_rows, ub_rows = self.priors._sparse_rows
        if any([sparse_dot(row, d)[0] for row in eq_rows]):
            return F0, F0
        mu, den = self.mu, step.denominator
        ratios = [  # -d_s lam <= mu_s
            (mu[s].numerator * den, -mu[s].denominator * a)
            for s, a in zip(step.indices, step.numerators)
        ]
        for row, b in zip(ub_rows, self.priors.ub_rhs):  # (row . d) lam <= b - row . mu
            c_num, c_den = sparse_dot(row, d)
            if c_num:
                m_num, m_den = sparse_dot(row, self.mu)
                slack = b.numerator * m_den - m_num * b.denominator
                ratios.append((slack * c_den, b.denominator * m_den * c_num))
        lo: Optional[tuple[int, int]] = None
        hi: Optional[tuple[int, int]] = None
        for p, q in ratios:
            if q > 0:  # lam <= p / q
                if hi is None or p * hi[1] < hi[0] * q:
                    hi = (p, q)
            elif lo is None or p * lo[1] > lo[0] * q:  # lam >= p / q, q < 0
                lo = (p, q)
        if lo is None or hi is None or lo[0] < 0 or hi[0] < 0:  # lo > 0 or hi < 0
            raise AssertionError("kernel segment must be bounded and contain zero")
        return Fraction(*lo), Fraction(*hi)

    def mixed_utility(self, alpha: MixedAction) -> Vector:
        """Per-state expected utility of a mixed action."""
        if len(alpha) != self.n_actions:
            raise DimensionMismatch("mixed action length does not match the action count")
        support = alpha.support
        if len(support) == 1:  # a pure action: its weight is one
            return self.utility.row(support[0])
        # w_a u_a over the common denominator of every w_a and row denominator
        rows = self._utility_rows
        weights = alpha.weights
        scales = [weights[a].denominator * rows[a].denominator for a in support]
        den = lcm(*scales)
        sums = [0] * self.n_states
        for a, scale in zip(support, scales):
            factor = weights[a].numerator * (den // scale)
            row = rows[a]
            for j, x in zip(row.indices, row.numerators):
                sums[j] += factor * x
        return tuple([Fraction(x, den) if x else F0 for x in sums])

    def action_index(self, action) -> int:
        if isinstance(action, int):
            if not 0 <= action < self.n_actions:
                raise IndexError(f"action index {action} out of range")
            return action
        try:
            return self.actions.index(action)
        except ValueError:
            raise KeyError(f"unknown action label {action!r}") from None


def payoff(alpha: MixedAction, nu: Sequence[Fraction], problem: DecisionProblem) -> Fraction:
    """Expected utility sum_a sum_s alpha(a) u(a,s) nu(s), exactly.

    nu need not be a distribution: the solver also takes the payoff's slope
    along a kernel direction.
    """
    if len(nu) != problem.n_states:
        raise DimensionMismatch("state distribution length does not match the problem")
    if len(alpha) != problem.n_actions:
        raise DimensionMismatch("mixed action length does not match the action count")
    support = alpha.support
    if nu is problem.mu:
        pairs = [problem._mu_payoffs[a] for a in support]
    else:
        rows = problem._utility_rows
        pairs = [sparse_dot(rows[a], nu) for a in support]
    if len(support) == 1:  # a pure action: its compiled row
        return Fraction(*pairs[0])
    # sum_a w_a (u_a . nu) over the support, with no per-state mixed row
    weights = alpha.weights
    return dot([weights[a] for a in support], [Fraction(*pair) for pair in pairs])


def best_responses(problem: DecisionProblem, nu: Sequence[Fraction]) -> tuple[int, ...]:
    """Indices of pure actions maximizing expected utility under nu, exactly."""
    payoffs = problem._payoff_pairs(nu)
    top_num, top_den = payoffs[0]
    for num, den in payoffs:
        if num * top_den > top_num * den:
            top_num, top_den = num, den
    return tuple([a for a, (num, den) in enumerate(payoffs) if num * top_den == top_num * den])


def is_best_response(problem: DecisionProblem, alpha: MixedAction, nu: Sequence[Fraction]) -> bool:
    """Whether every action alpha plays is a best response to nu."""
    return set(alpha.support) <= set(best_responses(problem, nu))


def push_forward(structure: InformationStructure, nu: Sequence[Fraction]) -> Vector:
    """Message distribution induced by a state distribution."""
    return structure.experiment.matvec(tuple(nu))


@dataclass(frozen=True)
class IdentifiedSet:
    """Priors of the base set in mu + kernel; the experiment's matrix rows pin the LP over it.

    It holds no reference to the ``InformationStructure`` it came from.
    """

    base: PriorPolytope
    mu: Vector
    kernel: Subspace
    experiment: Matrix

    def contains(self, point: Sequence[Fraction]) -> bool:
        if not self.base.contains(point):
            return False
        # the shift from mu, taken as integers on its line, must lie in the kernel
        return self.kernel.contains_vector(_integer_difference(point, self.mu))

    @cached_property
    def pinned_pushforward(self) -> Vector:
        """The message distribution mu induces, which every member reproduces; computed once."""
        return self.experiment.matvec(self.mu)

    def equality_rows(self) -> tuple[tuple[Vector, ...], Vector]:
        """Full equality block of the H-representation (base rows plus pinning rows)."""
        return self._program.eq_matrix, self._program.eq_rhs

    def inequality_rows(self) -> tuple[tuple[Vector, ...], Vector]:
        return self._program.ub_matrix, self._program.ub_rhs

    @cached_property
    def _program(self) -> lp.LinearProgram:
        """The zero-objective program over the prior set's and the pinning rows, compiled once."""
        eq_rows, ub_rows = self.base._sparse_rows
        pinning = tuple([sparse_row(row) for row in self.experiment.entries])
        program = lp.LinearProgram(
            objective=(F0,) * self.base.dimension,
            eq_matrix=self.base.eq_matrix + self.experiment.entries,
            eq_rhs=self.base.eq_rhs + self.pinned_pushforward,
            ub_matrix=self.base.ub_matrix,
            ub_rhs=self.base.ub_rhs,
        )
        return lp._with_rows(program, eq_rows + pinning + ub_rows)

    def _maxmin_program(self, problem: DecisionProblem) -> lp.LinearProgram:
        """min t over (nu, t), nu in the set and u_a . nu <= t for every action a of problem.

        Rows: the set's equalities, then one row u_a - t per action, then the
        set's inequalities, with t a free last variable. The set's rows and
        their compiled view are ``_program``'s (a zero t entry leaves a compiled
        row as it is). problem is the one the set was identified for; a
        problem over another number of states raises DimensionMismatch.
        """
        n = self.base.dimension
        base = self._program
        actions = tuple([row + (-F1,) for row in problem.utility.entries])
        program = lp.LinearProgram(
            objective=(F0,) * n + (F1,),
            sense="min",
            eq_matrix=tuple([row + (F0,) for row in base.eq_matrix]),
            eq_rhs=base.eq_rhs,
            ub_matrix=actions + tuple([row + (F0,) for row in base.ub_matrix]),
            ub_rhs=(F0,) * problem.n_actions + base.ub_rhs,
            lower_bounds=(F0,) * n + (None,),
        )
        n_eq = len(base.eq_matrix)
        compiled = tuple([sparse_row(row) for row in actions])
        return lp._with_rows(program, base._rows[:n_eq] + compiled + base._rows[n_eq:])

    def minimize(self, objective: Sequence[Fraction]) -> tuple[Fraction, Vector]:
        """Exact minimum of a linear objective over the set, and a minimizer: phase 2 only.

        Unlike ``lp.solve_lp``, this returns the optimum without checking it.
        """
        if len(objective) != self.base.dimension:
            raise DimensionMismatch("objective length does not match the state count")
        start = self._phase_one
        if isinstance(start, lp.FarkasCertificate):
            raise AssertionError("the identified set contains mu, so phase 1 must be feasible")
        out = lp._phase_two(start, objective, "min")
        if out.status is not lp.LpStatus.OPTIMAL:
            raise AssertionError("inner minimization over a nonempty compact set must be optimal")
        return out.optimal_value, out.optimal_point

    @cached_property
    def _phase_one(self):
        """The simplex's phase 1 on ``_program``; it reads no objective, so one serves them all."""
        return lp._phase_one(self._program)


def identified_set(problem: DecisionProblem, structure: InformationStructure) -> IdentifiedSet:
    """The identified set of mu under the structure; the same object again for the same problem.

    The structure remembers the last (problem, set) pair, compared by
    identity, so the worst cases of one problem share one phase 1. Nothing
    in the memo refers back to the structure, so it makes no reference cycle.
    """
    memo = structure.__dict__.get("_identified")
    if memo is not None and memo[0] is problem:
        return memo[1]
    if structure.n_states != problem.n_states:
        raise DimensionMismatch("experiment columns do not match the problem's states")
    # contains mu: DecisionProblem checked that mu is in the prior set
    iset = IdentifiedSet(problem.priors, problem.mu, structure.kernel, structure.experiment)
    structure.__dict__["_identified"] = (problem, iset)
    return iset


@dataclass(frozen=True)
class PayoffPartition:
    """States grouped by exact equality of their utility columns."""

    classes: tuple[tuple[int, ...], ...]
    all_nontrivial: bool  # every class has at least two states


def payoff_equivalence_classes(problem: DecisionProblem) -> PayoffPartition:
    groups: dict[Vector, list[int]] = {}
    for s in range(problem.n_states):
        groups.setdefault(problem.utility.column(s), []).append(s)
    classes = tuple(tuple(members) for members in groups.values())
    classes = tuple(sorted(classes, key=lambda c: c[0]))
    return PayoffPartition(classes, all(len(c) >= 2 for c in classes))
