"""Worst cases, saddle points and supporting priors.

The identified set of an experiment is the prior polytope intersected with
the affine slice mu + ker(experiment) (``model.IdentifiedSet``, which holds
the kernel). Minimizations over it split on k, the kernel's dimension, read
off the set:

* k <= 1: the set is a segment mu + lam d, lam in [lo, hi] (the point mu,
  d = 0, when k = 0); every payoff is a line in lam, so one closed form
  gives both the worst case of an action and the saddle point.
* k >= 2: one linear program over the state distribution nu >= 0, with the
  prior set's rows and the experiment's pinning rows. The experiment's rows
  sum to the all-ones row, so pinning them also makes nu sum to one. Its
  phase 1 reads no objective, so the identified set solves it once for the
  worst cases of every action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from .model import (
    DecisionProblem,
    InformationStructure,
    MixedAction,
    identified_set,
    payoff,
)
from .numerics import Subspace, Vector, dot, sparse_dot, vec_sub

F0 = Fraction(0)
F1 = Fraction(1)


def _segment(problem: DecisionProblem, d: Vector) -> tuple[Fraction, Fraction]:
    """Exact [lo, hi] such that mu + lam d is in the prior set iff lo <= lam <= hi.

    [0, 0] when d is zero or breaks an equality of the prior set. Each cut
    c lam <= b (a <= row of the prior set, or mu_s + lam d_s >= 0) is kept as
    the integer ratio b / c = p / q, q of the sign of c, and the cuts are
    compared by cross-multiplying; only lo and hi become Fractions.
    """
    mu = problem.mu
    priors = problem.priors
    eq_rows, ub_rows = priors._sparse_rows
    if any([sparse_dot(row, d)[0] for row in eq_rows]):
        return F0, F0
    ratios = []
    try:
        for ds, ms in zip(d, mu):  # -d_s lam <= mu_s
            dn = ds.numerator
            if dn:
                ratios.append((ms.numerator * ds.denominator, -ms.denominator * dn))
    except AttributeError:
        raise TypeError(f"not an exact number: {ds!r}") from None
    if not ratios:
        return F0, F0
    for row, b in zip(ub_rows, priors.ub_rhs):  # (row . d) lam <= b - row . mu
        c_num, c_den = sparse_dot(row, d)
        if c_num:
            m_num, m_den = sparse_dot(row, mu)
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


def worst_case(
    problem: DecisionProblem, structure: InformationStructure, alpha: MixedAction
) -> tuple[Fraction, Vector]:
    """Exact minimum of the action's payoff over the identified set, with a minimizer.

    For k <= 1 the minimizer is the end of the segment the payoff falls
    towards, the smallest lam when the payoff is flat along it; for k >= 2
    the optimal point of one LP, whose phase 1 the identified set solves
    once for every action (see ``model.IdentifiedSet``).
    """
    iset = identified_set(problem, structure)
    if iset.kernel.dim <= 1:
        d = _direction(iset.kernel)
        mean, slope = payoff(alpha, problem.mu, problem), payoff(alpha, d, problem)
        _, nu, value = _segment_saddle(problem, d, (mean,), (slope,))
        return value, nu
    u = problem.mixed_utility(alpha)
    start = iset._phase_one
    if not isinstance(start, lp._Feasible):
        raise AssertionError("the identified set contains mu, so phase 1 must be feasible")
    out = lp._phase_two(start, u, "min")
    if out.status is not lp.LpStatus.OPTIMAL:
        raise AssertionError("inner minimization over a nonempty compact set must be optimal")
    return out.optimal_value, out.optimal_point


@dataclass(frozen=True)
class SaddleCertificate:
    """Witness (alpha*, nu*) that a maxmin problem is solved at `value`.

    alpha* best-responds to nu*, nu* is worst for alpha* over the identified
    set, and both facts are checkable exactly via `verify`.
    """

    alpha_star: MixedAction
    nu_star: Vector
    value: Fraction

    def verify(self, problem: DecisionProblem, structure: InformationStructure) -> bool:
        if payoff(self.alpha_star, self.nu_star, problem) != self.value:
            return False
        value = self.value
        for row in problem._utility_rows:
            num, den = sparse_dot(row, self.nu_star)
            if num * value.denominator > value.numerator * den:
                return False
        if not identified_set(problem, structure).contains(self.nu_star):
            return False
        return worst_case(problem, structure, self.alpha_star)[0] == self.value


def maxmin(problem: DecisionProblem, structure: InformationStructure) -> SaddleCertificate:
    """Solve max over mixed actions of the worst-case payoff, with a saddle witness.

    By the minimax theorem the value is also the minimum, over the
    identified set, of the best pure-action payoff; a minimizer is the
    worst-case prior nu*. How it is found depends on the kernel dimension k:

    * k <= 1: the best pure payoff along the segment mu + lam d (the point
      mu when k = 0) is the upper envelope of one line per action, minimized
      at an endpoint or at a crossing of two lines. alpha* is the first
      active action whose slope does not pull the payoff below the value
      inside the segment, or, at a kink, the flat mix of the steepest rising
      and falling active actions.
    * k >= 2: one linear program, min t over nu in the identified set
      subject to u_a . nu <= t for every action a. nu* is its optimal point
      and alpha* the negated duals of the action rows.
    """
    iset = identified_set(problem, structure)
    if iset.kernel.dim <= 1:
        d = _direction(iset.kernel)
        means = [Fraction(*sparse_dot(row, problem.mu)) for row in problem._utility_rows]
        slopes = [Fraction(*sparse_dot(row, d)) for row in problem._utility_rows]
        weights, nu, value = _segment_saddle(problem, d, means, slopes)
        return SaddleCertificate(MixedAction(weights), nu, value)

    n_actions = problem.n_actions
    rows = tuple(problem.utility_row(a) for a in range(n_actions))
    n = problem.n_states
    eq, eq_rhs = iset.equality_rows()
    ub, ub_rhs = iset.inequality_rows()
    program = lp.LinearProgram(
        objective=(F0,) * n + (F1,),
        sense="min",
        eq_matrix=tuple(row + (F0,) for row in eq),
        eq_rhs=eq_rhs,
        ub_matrix=tuple(row + (-F1,) for row in rows) + tuple(row + (F0,) for row in ub),
        ub_rhs=(F0,) * n_actions + ub_rhs,
        lower_bounds=(F0,) * n + (None,),
    )
    out = lp.solve_lp(program)
    if out.status is not lp.LpStatus.OPTIMAL or not lp.verify_outcome(program, out):
        raise AssertionError("maxmin program must have a verified optimum")
    alpha_star = MixedAction(tuple(-w for w in out.certificate.ub[:n_actions]))
    return SaddleCertificate(alpha_star, out.optimal_point[:n], out.optimal_value)


def _direction(kernel: Subspace) -> Vector:
    """The segment's direction d: the basis vector of a kernel with k = 1, zero when k = 0."""
    return kernel.basis[0] if kernel.dim else (F0,) * kernel.ambient_dim


def _segment_saddle(
    problem: DecisionProblem, d: Vector, means: Sequence[Fraction], slopes: Sequence[Fraction]
) -> tuple[Vector, Vector, Fraction]:
    """Closed-form saddle (weights, minimizer, value) of lines on mu + lam d, lam in [lo, hi].

    Line a is means[a] + slopes[a] lam: a payoff row dotted with mu and with d.
    """
    lo, hi = _segment(problem, d)
    n_actions = len(means)

    def envelope(lam: Fraction) -> Fraction:
        return max(m + c * lam for m, c in zip(means, slopes))

    candidates = {lo, hi}
    for a in range(n_actions):
        for b in range(a):
            if slopes[a] != slopes[b]:
                lam = (means[b] - means[a]) / (slopes[a] - slopes[b])
                if lo < lam < hi:
                    candidates.add(lam)
    value, lam = min((envelope(lam), lam) for lam in candidates)

    def stays_above(slope: Fraction) -> bool:
        # a line through the value at lam stays >= it on [lo, hi]
        return (slope >= 0 or lam == hi) and (slope <= 0 or lam == lo)

    active = [a for a in range(n_actions) if means[a] + slopes[a] * lam == value]
    weights = [F0] * n_actions
    pick = next((a for a in active if stays_above(slopes[a])), None)
    if pick is not None:
        weights[pick] = F1
    else:
        # a kink inside the segment: mix the steepest rising and falling
        # active lines into a flat one
        up = max(active, key=lambda a: slopes[a])
        down = min(active, key=lambda a: slopes[a])
        weights[up] = slopes[down] / (slopes[down] - slopes[up])
        weights[down] = F1 - weights[up]

    # saddle conditions, exactly: value = envelope(lam) holds by construction,
    # so no action beats the value at lam; alpha* must attain it there and
    # nowhere fall below it on the segment
    slope = dot(weights, slopes)
    if dot(weights, means) + slope * lam != value or not stays_above(slope):
        raise AssertionError("segment saddle conditions fail")
    return tuple(weights), tuple(m + lam * v if v else m for m, v in zip(problem.mu, d)), value


def best_responses(problem: DecisionProblem, nu: Sequence[Fraction]) -> tuple[int, ...]:
    """Indices of pure actions maximizing expected utility under nu, exactly."""
    if len(nu) != problem.n_states:
        raise AssertionError("state distribution length does not match the problem")
    payoffs = [sparse_dot(row, nu) for row in problem._utility_rows]
    top_num, top_den = payoffs[0]
    for num, den in payoffs:
        if num * top_den > top_num * den:
            top_num, top_den = num, den
    return tuple([a for a, (num, den) in enumerate(payoffs) if num * top_den == top_num * den])


@dataclass(frozen=True)
class SupportingPrior:
    """A prior under which the action is optimal and no better than under mu."""

    nu: Vector
    slack: Fraction  # payoff at mu minus payoff at nu; nonnegative


def supporting_prior_program(problem: DecisionProblem, alpha: MixedAction) -> lp.LinearProgram:
    """The prior set's program plus u_a.nu <= u_alpha.nu for all a and u_alpha.nu <= u_alpha.mu."""
    u_alpha = problem.mixed_utility(alpha)
    gaps = tuple(vec_sub(problem.utility_row(a), u_alpha) for a in range(problem.n_actions))
    program = problem.priors.feasibility_program()
    return replace(
        program,
        ub_matrix=program.ub_matrix + gaps + (u_alpha,),
        ub_rhs=program.ub_rhs + (F0,) * problem.n_actions + (dot(u_alpha, problem.mu),),
    )


def _supporting_outcome(problem: DecisionProblem, alpha: MixedAction) -> lp.LpOutcome:
    """The supporting-prior program's feasibility outcome; a refutation is verified first."""
    program = supporting_prior_program(problem, alpha)
    outcome = lp.feasible_point(program)
    if outcome.status is not lp.LpStatus.OPTIMAL and not lp.verify_outcome(program, outcome):
        raise AssertionError("supporting-prior refutation failed its own Farkas check")
    return outcome


def supporting_prior(problem: DecisionProblem, alpha: MixedAction) -> Optional[SupportingPrior]:
    """A witness prior supporting alpha, or None if a verified refutation shows none exists."""
    out = _supporting_outcome(problem, alpha)
    if out.status is not lp.LpStatus.OPTIMAL:
        return None
    nu = out.optimal_point
    u_alpha = problem.mixed_utility(alpha)
    return SupportingPrior(nu=nu, slack=dot(u_alpha, problem.mu) - dot(u_alpha, nu))


def is_implementable(problem: DecisionProblem, alpha: MixedAction) -> bool:
    """Whether some experiment makes alpha worst-case optimal."""
    return supporting_prior(problem, alpha) is not None
