"""Worst cases, saddle points, supporting priors, and the researcher's pick.

The identified set of an experiment is the prior polytope intersected with
the affine slice mu + ker(experiment). Minimizations over it split on k, the
kernel's dimension:

* k = 0: the set is the single point mu.
* k = 1: the set is a segment mu + lam d with lam in [lo, hi]; every payoff
  is a line in lam, so minima have closed forms.
* k >= 2: one linear program over the state distribution nu >= 0, with the
  prior set's rows and the experiment's pinning rows. The experiment's rows
  sum to the all-ones row, so pinning them also makes nu sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from .errors import NoImplementableActionError
from .model import (
    DecisionProblem,
    InformationStructure,
    MixedAction,
    identified_set,
    kernel_of,
    payoff,
)
from .numerics import Vector, dot

F0 = Fraction(0)
F1 = Fraction(1)


def _segment(problem: DecisionProblem, d: Vector) -> tuple[Fraction, Fraction]:
    """Exact [lo, hi] such that mu + lam d is in the prior set iff lo <= lam <= hi."""
    mu = problem.mu
    priors = problem.priors
    if any(dot(row, d) for row in priors.eq_matrix):
        return F0, F0
    cuts = [(dot(row, d), b - dot(row, mu)) for row, b in zip(priors.ub_matrix, priors.ub_rhs)]
    cuts += [(-ds, ms) for ds, ms in zip(d, mu)]
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for c, b in cuts:  # c * lam <= b
        if c > 0:
            hi = b / c if hi is None else min(hi, b / c)
        elif c < 0:
            lo = b / c if lo is None else max(lo, b / c)
    if lo is None or hi is None or lo > F0 or hi < F0:
        raise AssertionError("kernel segment must be bounded and contain zero")
    return lo, hi


def _along(mu: Vector, d: Vector, lam: Fraction) -> Vector:
    return tuple(m + lam * v if v else m for m, v in zip(mu, d))


def worst_case(
    problem: DecisionProblem, structure: InformationStructure, alpha: MixedAction
) -> tuple[Fraction, Vector]:
    """Exact minimum of the action's payoff over the identified set, with a minimizer."""
    u = problem.mixed_utility(alpha)
    mu = problem.mu
    kernel = kernel_of(structure)
    if kernel.dim == 0:
        return dot(u, mu), mu
    if kernel.dim == 1:
        d = kernel.basis[0]
        lo, hi = _segment(problem, d)
        c = dot(u, d)
        lam = hi if c < 0 else (lo if c > 0 else F0)
        return dot(u, mu) + c * lam, _along(mu, d, lam)
    iset = identified_set(problem, structure)
    eq, eq_rhs = iset.equality_rows()
    ub, ub_rhs = iset.inequality_rows()
    out = lp.solve_lp(
        lp.LinearProgram(
            objective=u, sense="min", eq_matrix=eq, eq_rhs=eq_rhs, ub_matrix=ub, ub_rhs=ub_rhs
        )
    )
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
        for a in range(problem.n_actions):
            if dot(problem.utility_row(a), self.nu_star) > self.value:
                return False
        # membership in the identified set: inside the prior set and shifted
        # from mu along the experiment's kernel
        if not problem.priors.contains(self.nu_star):
            return False
        shift = tuple(a - b for a, b in zip(self.nu_star, problem.mu))
        if not kernel_of(structure).contains_vector(shift):
            return False
        return worst_case(problem, structure, self.alpha_star)[0] == self.value


def maxmin(problem: DecisionProblem, structure: InformationStructure) -> SaddleCertificate:
    """Solve max over mixed actions of the worst-case payoff, with a saddle witness.

    By the minimax theorem the value is also the minimum, over the
    identified set, of the best pure-action payoff; a minimizer is the
    worst-case prior nu*. How it is found depends on the kernel dimension k:

    * k = 0: nu* = mu, and alpha* is the first best pure response to it.
    * k = 1: the best pure payoff along the segment mu + lam d is the upper
      envelope of one line per action; it is minimized at an endpoint or at
      a crossing of two lines. alpha* is an active action whose slope does
      not pull the payoff below the value inside the segment, or, at a kink,
      the mix of the steepest rising and falling active actions that is flat.
    * k >= 2: one linear program, min t over nu in the identified set
      subject to u_a . nu <= t for every action a. nu* is its optimal point
      and alpha* the negated duals of the action rows.
    """
    mu = problem.mu
    n_actions = problem.n_actions
    kernel = kernel_of(structure)
    if kernel.dim == 0:
        means = tuple(dot(problem.utility_row(a), mu) for a in range(n_actions))
        best = max(means)
        return SaddleCertificate(MixedAction.pure(means.index(best), n_actions), mu, best)
    if kernel.dim == 1:
        return _segment_saddle(problem, kernel.basis[0])

    n = problem.n_states
    iset = identified_set(problem, structure)
    eq, eq_rhs = iset.equality_rows()
    ub, ub_rhs = iset.inequality_rows()
    program = lp.LinearProgram(
        objective=(F0,) * n + (F1,),
        sense="min",
        eq_matrix=tuple(row + (F0,) for row in eq),
        eq_rhs=eq_rhs,
        ub_matrix=tuple(problem.utility_row(a) + (-F1,) for a in range(n_actions))
        + tuple(row + (F0,) for row in ub),
        ub_rhs=(F0,) * n_actions + ub_rhs,
        lower_bounds=(F0,) * n + (None,),
    )
    out = lp.solve_lp(program)
    if out.status is not lp.LpStatus.OPTIMAL or not lp.verify_outcome(program, out):
        raise AssertionError("maxmin program must have a verified optimum")
    alpha_star = MixedAction(tuple(-w for w in out.certificate.ub[:n_actions]))
    return SaddleCertificate(alpha_star, out.optimal_point[:n], out.optimal_value)


def _segment_saddle(problem: DecisionProblem, d: Vector) -> SaddleCertificate:
    """Closed-form saddle on the segment mu + lam d, lam in [lo, hi]."""
    lo, hi = _segment(problem, d)
    n_actions = problem.n_actions
    rows = [problem.utility_row(a) for a in range(n_actions)]
    means = [dot(row, problem.mu) for row in rows]
    slopes = [dot(row, d) for row in rows]

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
    return SaddleCertificate(MixedAction(tuple(weights)), _along(problem.mu, d, lam), value)


def best_responses(problem: DecisionProblem, nu: Sequence[Fraction]) -> tuple[int, ...]:
    """Indices of pure actions maximizing expected utility under nu, exactly."""
    if len(nu) != problem.n_states:
        raise AssertionError("state distribution length does not match the problem")
    payoffs = [dot(problem.utility_row(a), nu) for a in range(problem.n_actions)]
    top = max(payoffs)
    return tuple(a for a, v in enumerate(payoffs) if v == top)


@dataclass(frozen=True)
class SupportingPrior:
    """A prior under which the action is optimal and no better than under mu."""

    nu: Vector
    slack: Fraction  # payoff at mu minus payoff at nu; nonnegative


def supporting_prior_program(problem: DecisionProblem, alpha: MixedAction) -> lp.LinearProgram:
    """Feasibility system for a supporting prior of alpha."""
    n = problem.n_states
    u_alpha = problem.mixed_utility(alpha)
    priors = problem.priors
    ub_matrix = list(priors.ub_matrix)
    ub_rhs = list(priors.ub_rhs)
    for a in range(problem.n_actions):
        row = problem.utility_row(a)
        ub_matrix.append(tuple(row[s] - u_alpha[s] for s in range(n)))
        ub_rhs.append(F0)
    ub_matrix.append(u_alpha)
    ub_rhs.append(dot(u_alpha, problem.mu))
    return lp.LinearProgram(
        objective=(F0,) * n,
        sense="min",
        eq_matrix=((F1,) * n,) + priors.eq_matrix,
        eq_rhs=(F1,) + priors.eq_rhs,
        ub_matrix=tuple(ub_matrix),
        ub_rhs=tuple(ub_rhs),
    )


def supporting_prior(problem: DecisionProblem, alpha: MixedAction) -> Optional[SupportingPrior]:
    """A witness prior supporting alpha, or None if the system is infeasible."""
    out = lp.feasible_point(supporting_prior_program(problem, alpha))
    if out.status is not lp.LpStatus.OPTIMAL:
        return None
    nu = out.optimal_point
    u_alpha = problem.mixed_utility(alpha)
    return SupportingPrior(nu=nu, slack=dot(u_alpha, problem.mu) - dot(u_alpha, nu))


def is_implementable(problem: DecisionProblem, alpha: MixedAction) -> bool:
    """Whether some experiment makes alpha worst-case optimal."""
    return supporting_prior(problem, alpha) is not None


@dataclass(frozen=True)
class ResearcherOptimum:
    action: int
    supporting: SupportingPrior
    structure: InformationStructure
    certificate: "SaddleCertificate"


def researcher_optimum(
    problem: DecisionProblem, researcher_values: Sequence[Fraction]
) -> ResearcherOptimum:
    """Best implementable pure action for the researcher, with its experiment.

    Only pure actions are scanned; ties break toward the earlier action.
    """
    from .design import implementing_structure  # local import, design builds on solver

    if len(researcher_values) != problem.n_actions:
        raise AssertionError("researcher values must cover every action")
    candidates = [
        a
        for a in range(problem.n_actions)
        if is_implementable(problem, MixedAction.pure(a, problem.n_actions))
    ]
    if not candidates:
        raise NoImplementableActionError("no pure action is implementable")
    best = max(candidates, key=lambda a: (researcher_values[a], -a))
    alpha = MixedAction.pure(best, problem.n_actions)
    structure, certificate = implementing_structure(problem, alpha)
    u_alpha = problem.mixed_utility(alpha)
    supporting = SupportingPrior(
        nu=certificate.nu_star,
        slack=dot(u_alpha, problem.mu) - certificate.value,
    )
    return ResearcherOptimum(best, supporting, structure, certificate)
