"""Worst cases, saddle points and supporting priors.

The identified set of an experiment is the prior polytope intersected with
the affine slice mu + ker(experiment) (``model.IdentifiedSet``, which holds
the kernel). Minimizations over it split on k, the kernel's dimension, read
off the set:

* k <= 1: the set is a segment mu + lam d, lam in [lo, hi] (the point mu,
  d = 0, when k = 0; see ``DecisionProblem.segment``); every payoff is a
  line in lam, so one closed form gives the worst case and the saddle point.
* k >= 2: one linear program over the state distribution nu >= 0, with the
  prior set's rows and the experiment's pinning rows. The experiment's rows
  sum to the all-ones row, so pinning them also makes nu sum to one.
  ``IdentifiedSet.minimize`` solves its phase 1 once for every action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import lp
from .model import (
    DecisionProblem,
    InformationStructure,
    MixedAction,
    identified_set,
    is_best_response,
    payoff,
)
from .numerics import Subspace, Vector, dot, vec_sub

F0 = Fraction(0)
F1 = Fraction(1)


def worst_case(
    problem: DecisionProblem, structure: InformationStructure, alpha: MixedAction
) -> tuple[Fraction, Vector]:
    """Exact minimum of the action's payoff over the identified set, with a minimizer.

    For k <= 1 the minimizer is the end of the segment the payoff falls
    towards, the smallest lam when the payoff is flat along it; for k >= 2
    it is the one ``IdentifiedSet.minimize`` finds from the set's phase 1.
    Unlike ``lp.solve_lp``, nothing checks that phase-2 optimum: at k >= 2
    the minimizer and value are returned unverified.
    """
    iset = identified_set(problem, structure)
    if iset.kernel.dim <= 1:
        _, nu, value = _segment_saddle(problem, iset.kernel, lambda v: (payoff(alpha, v, problem),))
        return value, nu
    return iset.minimize(problem.mixed_utility(alpha))


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
        # with payoff = value, no action beats the value iff alpha* plays best responses
        alpha, nu = self.alpha_star, self.nu_star
        if payoff(alpha, nu, problem) != self.value or not is_best_response(problem, alpha, nu):
            return False
        if not identified_set(problem, structure).contains(nu):
            return False
        return worst_case(problem, structure, alpha)[0] == self.value


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
      subject to u_a . nu <= t for every action a, which the set builds from
      its compiled rows (``IdentifiedSet._maxmin_program``). nu* is its
      optimal point and alpha* the negated duals of the action rows;
      ``lp.solve_lp`` has verified both.
    """
    iset = identified_set(problem, structure)
    if iset.kernel.dim <= 1:
        weights, nu, value = _segment_saddle(problem, iset.kernel, problem.pure_payoffs)
        return SaddleCertificate(MixedAction(weights), nu, value)

    out = lp.solve_lp(iset._maxmin_program(problem))
    if out.status is not lp.LpStatus.OPTIMAL:
        raise AssertionError("maxmin program must have an optimum")
    alpha_star = MixedAction(tuple(-w for w in out.certificate.ub[: problem.n_actions]))
    return SaddleCertificate(alpha_star, out.optimal_point[: problem.n_states], out.optimal_value)


def _segment_saddle(
    problem: DecisionProblem, kernel: Subspace, lines: Callable[[Vector], Vector]
) -> tuple[Vector, Vector, Fraction]:
    """Closed-form saddle (weights, minimizer, value) of lines on mu + lam d, lam in [lo, hi].

    d is the kernel's basis vector, zero when k = 0, and line a is
    lines(mu)[a] + lines(d)[a] lam: a payoff row dotted with mu and with d.
    """
    d = kernel.basis[0] if kernel.dim else (F0,) * kernel.ambient_dim
    lo, hi = problem.segment(d)
    means, slopes = lines(problem.mu), lines(d)
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
    if not lam:
        return tuple(weights), problem.mu, value
    # mu_s + lam d_s = (m / dm) + (p / q) (v / dv), one Fraction per nonzero d_s
    p, q = lam.numerator, lam.denominator
    nu = list(problem.mu)
    for s, v in enumerate(d):
        if v:
            m = nu[s]
            dm, dv = m.denominator, v.denominator
            nu[s] = Fraction(m.numerator * q * dv + p * v.numerator * dm, dm * q * dv)
    return tuple(weights), tuple(nu), value


@dataclass(frozen=True)
class SupportingPrior:
    """A prior under which the action is optimal and no better than under mu."""

    nu: Vector
    slack: Fraction  # payoff at mu minus payoff at nu; nonnegative


def supporting_prior_program(problem: DecisionProblem, alpha: MixedAction) -> lp.LinearProgram:
    """The prior set's program plus u_a.nu <= u_alpha.nu for all a and u_alpha.nu <= u_alpha.mu."""
    u_alpha = problem.mixed_utility(alpha)
    gaps = tuple(vec_sub(problem.utility_row(a), u_alpha) for a in range(problem.n_actions))
    return problem.priors.feasibility_program(
        gaps + (u_alpha,), (F0,) * problem.n_actions + (dot(u_alpha, problem.mu),)
    )


def supporting_prior(problem: DecisionProblem, alpha: MixedAction) -> Optional[SupportingPrior]:
    """A witness prior supporting alpha, or None on a refutation; ``lp`` has verified either."""
    out = lp.solve_lp(supporting_prior_program(problem, alpha))
    if out.status is not lp.LpStatus.OPTIMAL:
        return None
    nu = out.optimal_point
    return SupportingPrior(nu, payoff(alpha, problem.mu, problem) - payoff(alpha, nu, problem))


def is_implementable(problem: DecisionProblem, alpha: MixedAction) -> bool:
    """Whether some experiment makes alpha worst-case optimal."""
    return supporting_prior(problem, alpha) is not None
