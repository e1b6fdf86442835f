"""Constructive information design.

Given any zero-sum subspace D there is an experiment whose kernel is exactly
D; this module builds one deterministically, adjusts supporting priors to
the boundary of the prior set, assembles implementing experiments that
conceal at most one dimension through one adjust-construct-certify tail,
picks the researcher's best implementable action, and decides the
informativeness order by kernel inclusion and maximality by kernel
dimension.

The construction is one formula for every kernel dimension k: over the
canonical basis w_1..w_{n-k} of the kernel's orthogonal complement, message i
sends (x_i + w_i) / (1 + sum_j x_j) with x_i = max(0, -min w_i), so n - k
messages, the fewest any experiment with that kernel can have. It reads no
Fraction of the complement: it computes on the integer view of the
complement's basis matrix, which ``nullspace`` hands over with the basis, and
builds its matrix with ``Matrix._over``, one Fraction per distinct entry,
equal to what the rational formula gives. That matrix's view is those
integers, so the structure checks its columns on them. The concealed
direction nu - mu is taken once, as integers on its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import lp
from .errors import (
    AssumptionViolation,
    DimensionMismatch,
    NotImplementableError,
    NotImplementingError,
    ZeroSumViolation,
)
from .model import (
    DecisionProblem,
    InformationStructure,
    MixedAction,
    is_best_response,
    kernel_of,
    payoff,
)
from .numerics import (
    Matrix,
    Subspace,
    Vector,
    _integer_difference,
    orthogonal_complement,
    rank,
    sparse_row,
    vec_sub,
)
from .solver import (
    SaddleCertificate,
    SupportingPrior,
    maxmin,
    supporting_prior_program,
    worst_case,
)

F0 = Fraction(0)


@dataclass(frozen=True)
class KernelSpec:
    """A prescribed experiment kernel: a subspace of zero-sum directions."""

    subspace: Subspace

    def __post_init__(self) -> None:
        # a direction sums to zero iff its integer numerators over the lcm of
        # its denominators do
        for v in self.subspace.basis:
            if sum(sparse_row(v).numerators):
                raise ZeroSumViolation("kernel directions must have zero coordinate sum")


def kernel_to_experiment(spec: KernelSpec) -> InformationStructure:
    """Build a column-stochastic experiment with n - k messages whose kernel is the spec.

    The canonical basis ws of the spec's orthogonal complement spans the
    all-ones vector 1 (the spec is zero-sum), and 1 is 1 at every pivot, so
    the vectors of ws sum to 1. The matrix (I + x 1^T) ws / (1 + 1^T x) thus
    has columns summing to one, entries nonnegative by the choice of x, and
    row space exactly the complement, as I + x 1^T is invertible. The zero
    kernel gives the identity and a fully concealing kernel the all-ones row.

    The construction's row space is the orthogonal complement of the spec by
    design, so the returned structure's kernel cache is filled in directly;
    the round-trip tests recompute it from the matrix with ``nullspace``.
    """
    subspace = spec.subspace
    n = subspace.ambient_dim
    if n < 1:
        raise DimensionMismatch("ambient dimension must be at least one")
    # the complement's basis is w_i = ws[i] / den over integers, so with
    # x_i = x_num[i] / den the entry (x_i + w_ij) / (1 + sum_j x_j) is
    # (x_num[i] + ws[i][j]) / total; an unshifted row is the complement's list itself
    den, ws = orthogonal_complement(subspace).basis_matrix()._integer_entries
    x_num = [max(0, -min(w)) for w in ws]
    total = den + sum(x_num)
    rows = [[x + wj for wj in w] if x else w for x, w in zip(x_num, ws)]

    messages = tuple(f"m{i}" for i in range(len(rows)))
    structure = InformationStructure(messages, Matrix._over(total, rows, n))
    structure.__dict__["kernel"] = subspace
    return structure


def extremal_reach(problem: DecisionProblem, nu: Sequence[Fraction]) -> Fraction:
    """max { lam : mu + lam (nu - mu) stays in the prior set }, exactly.

    The upper end of the solver's segment along nu - mu, which is 0 when that
    direction breaks an equality of the prior set; nu must differ from mu.
    """
    direction = vec_sub(nu, problem.mu)
    if not any(direction):
        raise ValueError("reach undefined for nu equal to mu")
    return problem.segment(direction)[1]


def boundary_adjust(problem: DecisionProblem, nu: Sequence[Fraction]) -> Vector:
    """Replace nu by a payoff-identical prior that cannot be stretched past itself.

    If some state already carries zero prior mass but positive true mass,
    nu itself qualifies. Otherwise mass at a positive-mu state is moved
    entirely onto a payoff-equivalent partner, a state with the same utility
    column, scanning states and partners in index order and accepting the
    first reallocation that stays inside the prior set.

    Either way the result is in the prior set and leaves empty a state s with
    mu_s > 0, so its ``extremal_reach`` is exactly 1: coordinate s of
    mu + lam (result - mu) is mu_s (1 - lam), negative past lam = 1.
    """
    nu = tuple(nu)
    if len(nu) != problem.n_states:
        raise DimensionMismatch("prior length does not match the problem")
    if not problem.priors.contains(nu):
        raise ValueError("boundary adjustment requires a member of the prior set")
    mu = problem.mu

    for s in range(problem.n_states):
        if mu[s] and not nu[s]:  # mu is a distribution, so mu[s] > 0
            return nu

    columns = tuple(zip(*problem.utility.entries))
    for s in range(problem.n_states):
        if mu[s] == 0:
            continue
        for partner, column in enumerate(columns):
            if partner == s or column != columns[s]:
                continue
            moved = list(nu)
            moved[partner] += moved[s]
            moved[s] = F0
            candidate = tuple(moved)
            if problem.priors.contains(candidate):
                return candidate
    raise AssumptionViolation(
        "no payoff-preserving reallocation stays in the prior set; "
        "the prior set lacks the payoff-redundancy the adjustment relies on"
    )


def implement_at_prior(
    problem: DecisionProblem, alpha: MixedAction, nu: Vector
) -> tuple[InformationStructure, SaddleCertificate]:
    """The certified experiment concealing the direction from mu to nu.

    nu is a member of the prior set that supports alpha. nu other than mu is
    moved to the boundary; nu equal to mu gives the zero kernel, full
    information. The saddle certificate is verified before it is returned.
    """
    mu = problem.mu
    if nu != mu:
        nu = boundary_adjust(problem, nu)
    spec = KernelSpec(Subspace.from_vectors(problem.n_states, (_integer_difference(nu, mu),)))
    structure = kernel_to_experiment(spec)
    certificate = SaddleCertificate(alpha, nu, payoff(alpha, nu, problem))
    if not certificate.verify(problem, structure):
        raise AssertionError("constructed structure failed its own saddle check")
    return structure, certificate


def implementing_structure(
    problem: DecisionProblem, alpha: MixedAction
) -> tuple[InformationStructure, SaddleCertificate]:
    """An experiment concealing at most one dimension under which alpha is optimal.

    If the true distribution itself supports alpha the fully informative
    experiment is returned. Otherwise a supporting prior is found by a
    feasibility solve, moved to the boundary, and the experiment concealing
    exactly the mu-to-prior direction is constructed. Raises
    NotImplementableError (with the refuting certificate, which ``lp`` has
    verified against the supporting-prior program) when no supporting prior
    exists, and propagates AssumptionViolation when the prior set cannot
    absorb the boundary move.
    """
    if is_best_response(problem, alpha, problem.mu):
        return implement_at_prior(problem, alpha, problem.mu)
    outcome = lp.solve_lp(supporting_prior_program(problem, alpha))
    if outcome.status is not lp.LpStatus.OPTIMAL:
        raise NotImplementableError(
            "action has no supporting prior", farkas=outcome.certificate
        )
    return implement_at_prior(problem, alpha, outcome.optimal_point)


@dataclass(frozen=True)
class ResearcherOptimum:
    action: int
    supporting: SupportingPrior
    structure: InformationStructure
    certificate: SaddleCertificate


def researcher_optimum(
    problem: DecisionProblem, researcher_values: Sequence[Fraction]
) -> ResearcherOptimum:
    """Best implementable pure action for the researcher, with its experiment.

    Only pure actions are tried, in decreasing researcher value with ties
    toward the earlier action; the first one ``implementing_structure``
    implements wins, so each supporting prior is solved for at most once.
    """
    if len(researcher_values) != problem.n_actions:
        raise DimensionMismatch("researcher values must cover every action")
    for a in sorted(range(problem.n_actions), key=lambda a: (-researcher_values[a], a)):
        alpha = MixedAction.pure(a, problem.n_actions)
        try:
            structure, certificate = implementing_structure(problem, alpha)
        except NotImplementableError:
            continue
        slack = payoff(alpha, problem.mu, problem) - certificate.value
        supporting = SupportingPrior(nu=certificate.nu_star, slack=slack)
        return ResearcherOptimum(a, supporting, structure, certificate)
    raise AssertionError(
        "unreachable: full information implements the pure action mu best-responds "
        "to, and the loop skips an action only on NotImplementableError"
    )


class InformativenessOrder(Enum):
    MORE = "more"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def robustly_more_informative(
    first: InformationStructure, second: InformationStructure
) -> InformativenessOrder:
    """Kernel-inclusion order: the smaller kernel is the more informative side."""
    if first.n_states != second.n_states:
        raise DimensionMismatch("structures live on different state spaces")
    k1 = kernel_of(first)
    k2 = kernel_of(second)
    # one kernel lies in the other exactly when the joined bases have the other's rank
    joined = rank(Matrix(k1.dim + k2.dim, first.n_states, k1.basis + k2.basis))
    first_in_second = joined == k2.dim
    second_in_first = joined == k1.dim
    if first_in_second and second_in_first:
        return InformativenessOrder.EQUAL
    if first_in_second:
        return InformativenessOrder.MORE
    if second_in_first:
        return InformativenessOrder.LESS
    return InformativenessOrder.INCOMPARABLE


def is_maximally_informative(
    problem: DecisionProblem, structure: InformationStructure, alpha: MixedAction
) -> bool:
    """Whether no implementing experiment is strictly more informative.

    Requires that the given structure implements alpha (else
    NotImplementingError). When mu supports alpha only full informativeness
    is maximal; otherwise exactly a one-dimensional kernel is, because a
    saddle prior nu* != mu in the identified set supports alpha: the kernel
    spanned by nu* - mu lies in the given kernel and implements alpha, and
    the fully informative experiment would need mu to support alpha.
    """
    value = worst_case(problem, structure, alpha)[0]
    if maxmin(problem, structure).value != value:
        raise NotImplementingError("structure does not implement the action")
    return kernel_of(structure).dim == (0 if is_best_response(problem, alpha, problem.mu) else 1)
