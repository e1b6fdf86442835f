"""Treatment choice under partial disclosure of an observational study.

States are observed triples (outcome, covariates, received treatment); the
decision maker's utility is the inverse-propensity-weighted outcome, so the
expected utility of choosing treatment a under a prior equals the
counterfactual mean outcome of a under that prior. The prior set consists of
every joint distribution consistent with the known assignment mechanism.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .design import implement_at_prior
from .errors import (
    AssignmentMismatch,
    DimensionMismatch,
    EmptyOrFullVariableSet,
    InteriorSupportViolation,
    NoIrrelevantCovariate,
)
from .model import (
    DecisionProblem,
    InformationStructure,
    Matrix,
    MixedAction,
    PriorPolytope,
    _is_distribution,
    is_best_response,
    kernel_of,
    payoff,
    payoff_equivalence_classes,
)
from .numerics import Vector, dot, vector
from .solver import SaddleCertificate

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class TreatmentModel:
    """Finite outcomes, covariates, treatments, assignment mechanism, and data.

    ``assignment`` has one row per covariate cell (cells ordered
    lexicographically over the covariate domains) and one column per
    treatment; each row is the treatment distribution in that cell. ``mu``
    is the observed joint distribution over states ordered lexicographically
    by (outcome, covariates, treatment). That state layout lives here:
    ``iter_states`` is the one walk over the states, ``state_index`` is for
    random access and ``state_labels`` names them.
    """

    outcomes: Vector
    covariate_domains: tuple[tuple[str, ...], ...]
    treatments: tuple[str, ...]
    assignment: Matrix
    mu: Vector

    def __post_init__(self) -> None:
        if len(self.outcomes) < 2:
            raise DimensionMismatch("need at least two outcome values")
        if any(b <= a for a, b in zip(self.outcomes, self.outcomes[1:])):
            raise ValueError("outcome values must be strictly increasing")
        if len(self.treatments) < 2:
            raise DimensionMismatch("need at least two treatments")
        if not self.covariate_domains:
            raise DimensionMismatch("need at least one covariate")
        for domain in self.covariate_domains:
            if len(domain) < 2:
                raise DimensionMismatch("every covariate needs at least two values")
        if self.assignment.rows != self.n_cells or self.assignment.cols != self.n_treatments:
            raise DimensionMismatch("assignment shape must be cells x treatments")
        for c, row in enumerate(self.assignment.entries):
            if not _is_distribution(row):
                raise ValueError(f"assignment row {c} is not a probability vector")
        if len(self.mu) != self.n_states:
            raise DimensionMismatch("mu length must match the state count")
        if not _is_distribution(self.mu):
            raise ValueError("mu must be a probability vector")

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def n_cells(self) -> int:
        return math.prod(len(domain) for domain in self.covariate_domains)

    @property
    def n_treatments(self) -> int:
        return len(self.treatments)

    @property
    def n_states(self) -> int:
        return self.n_outcomes * self.n_cells * self.n_treatments

    def state_index(self, y: int, cell: int, t: int) -> int:
        return (y * self.n_cells + cell) * self.n_treatments + t

    def iter_states(self):
        """Every state as (y, cell, t), in state-index order."""
        return itertools.product(
            range(self.n_outcomes), range(self.n_cells), range(self.n_treatments)
        )

    def state_labels(self) -> tuple[str, ...]:
        return tuple(
            "(" + ",".join(values) + ")" for values in itertools.product(*_domains(self).values())
        )

    def cell_mass(self, cell: int) -> Fraction:
        return self._cell_masses[cell]

    @cached_property
    def _cell_masses(self) -> Vector:
        """mu's mass in each covariate cell, summed once per model."""
        masses = [F0] * self.n_cells
        for (_, cell, _), mass in zip(self.iter_states(), self.mu):
            masses[cell] += mass
        return tuple(masses)


def _irrelevant_covariates(model: TreatmentModel) -> tuple[int, ...]:
    """Covariates the assignment mechanism provably ignores."""
    # covariate cells as tuples of value indices, in assignment-row order
    cells = tuple(itertools.product(*(range(len(d)) for d in model.covariate_domains)))
    out = []
    for j in range(len(model.covariate_domains)):
        # the first row seen for each value of the other covariates
        groups: dict[tuple, Vector] = {}
        if all(
            groups.setdefault(cell[:j] + cell[j + 1 :], row) == row
            for cell, row in zip(cells, model.assignment.entries)
        ):
            out.append(j)
    return tuple(out)


def _compile_problem(model: TreatmentModel) -> DecisionProblem:
    """Assemble the decision problem without the irrelevant-covariate check.

    Raises AssignmentMismatch, naming the cell, when mu breaks an assignment row.
    """
    n = model.n_states
    utility_rows = [[F0] * n for _ in model.treatments]
    for s, (y, cell, t) in enumerate(model.iter_states()):
        if model.outcomes[y]:
            utility_rows[t][s] = model.outcomes[y] / model.assignment.entries[cell][t]
    utility = Matrix(model.n_treatments, n, tuple(tuple(row) for row in utility_rows))

    eq_rows = []
    for c, shares in enumerate(model.assignment.entries):
        for t, p in enumerate(shares):
            row = [
                (F1 if tau == t else F0) - p if cell == c else F0
                for _, cell, tau in model.iter_states()
            ]
            if dot(row, model.mu):
                raise AssignmentMismatch(
                    f"observed treatment share in cell {c} contradicts the assignment row"
                )
            eq_rows.append(tuple(row))
    priors = PriorPolytope(
        n,
        eq_matrix=tuple(eq_rows),
        eq_rhs=(F0,) * len(eq_rows),
        known_member=model.mu,
    )
    return DecisionProblem(
        states=model.state_labels(),
        actions=model.treatments,
        utility=utility,
        mu=model.mu,
        priors=priors,
    )


def build_treatment_problem(model: TreatmentModel) -> DecisionProblem:
    """Compile a treatment model into a decision problem.

    The utility of choosing treatment a in state (y, x, t) is the
    inverse-propensity-weighted outcome y 1{a=t} / P(t|x). The prior set
    pins the treatment share of every covariate cell to the assignment
    mechanism via homogeneous rows, which leaves the constraint vacuous on
    cells a prior assigns no mass. The checks run in the order
    InteriorSupportViolation, AssignmentMismatch, NoIrrelevantCovariate.
    """
    for c, shares in enumerate(model.assignment.entries):
        for t, p in enumerate(shares):
            if not (F0 < p < F1):
                raise InteriorSupportViolation(
                    f"assignment probability {p} for cell {c}, treatment {t} "
                    "must lie strictly between 0 and 1"
                )
    problem = _compile_problem(model)
    if not _irrelevant_covariates(model):
        raise NoIrrelevantCovariate(
            "assignment depends on every covariate; add an independent signal "
            "covariate (see add_irrelevant_signal) to restore payoff redundancy"
        )
    if not payoff_equivalence_classes(problem).all_nontrivial:
        raise AssertionError("an ignored covariate must make every payoff class nontrivial")
    return problem


def counterfactual_mean(
    problem: DecisionProblem, treatment: Union[int, str], nu: Sequence[Fraction]
) -> Fraction:
    """Expected outcome of a treatment under a prior; an alias for its payoff."""
    index = problem.action_index(treatment)
    return payoff(MixedAction.pure(index, problem.n_actions), nu, problem)


def outcome_marginals_for_targets(
    model: TreatmentModel, targets: Sequence[Fraction]
) -> tuple[Vector, ...]:
    """Per-treatment outcome distributions hitting the target means exactly.

    Each marginal mixes the smallest and largest outcome values; a target
    outside their range is rejected because no outcome distribution can
    reach it.
    """
    if len(targets) != model.n_treatments:
        raise DimensionMismatch("one target mean per treatment required")
    lo = model.outcomes[0]
    hi = model.outcomes[-1]
    out = []
    for target in targets:
        if not (lo <= target <= hi):
            raise ValueError(f"target mean {target} is outside the outcome range")
        weight_hi = (target - lo) / (hi - lo)
        marginal = [F0] * model.n_outcomes
        marginal[0] = F1 - weight_hi
        marginal[-1] += weight_hi
        out.append(tuple(marginal))
    return tuple(out)


@dataclass(frozen=True)
class OutcomeMarginalPrior:
    """A prior assembled from per-treatment outcome marginals.

    The prior factorizes as pi(y|t) P(t|x) mu(x), so it keeps the observed
    covariate distribution and the assignment mechanism while forcing the
    payoff of every treatment a to equal the mean of pi(.|a).
    """

    nu: Vector
    payoffs: Vector


def _factorized(
    model: TreatmentModel,
    marginals: Sequence[Vector],
    cell_masses: Sequence[Fraction],
) -> Vector:
    """The prior pi(y|t) P(t|x) m(x) for outcome marginals pi and cell masses m."""
    shares = model.assignment.entries
    # a list, not a generator: tuple(generator) raised treatment-implement's peak RSS 0.8 MB
    return tuple([
        marginals[t][y] * shares[cell][t] * cell_masses[cell]
        if marginals[t][y] and cell_masses[cell]
        else F0
        for y, cell, t in model.iter_states()
    ])


def prior_from_marginals(
    model: TreatmentModel,
    pi: Sequence[Sequence[Fraction]],
    problem: Optional[DecisionProblem] = None,
) -> OutcomeMarginalPrior:
    if len(pi) != model.n_treatments:
        raise DimensionMismatch("one outcome marginal per treatment required")
    marginals = []
    for t, marginal in enumerate(pi):
        m = vector(marginal)
        if len(m) != model.n_outcomes:
            raise DimensionMismatch(f"marginal for treatment {t} has the wrong length")
        if not _is_distribution(m):
            raise ValueError(f"marginal for treatment {t} is not a probability vector")
        marginals.append(m)

    nu = _factorized(model, marginals, model._cell_masses)
    payoffs = tuple(dot(model.outcomes, m) for m in marginals)

    problem = problem or build_treatment_problem(model)
    if not problem.priors.contains(nu):
        raise AssertionError("factorized prior must satisfy the assignment rows")
    if problem.pure_payoffs(nu) != payoffs:
        raise AssertionError("factorized prior must reproduce the marginal means")
    return OutcomeMarginalPrior(nu=nu, payoffs=payoffs)


def _concentrated_prior(model: TreatmentModel, marginals: Sequence[Vector]) -> Vector:
    """A supporting prior with the marginals' payoffs, parked in one covariate cell.

    Concentrating every prior's covariate mass in a cell that does not carry
    all of mu's mass leaves some positive-mu state with zero prior mass, so
    the boundary-adjustment step accepts the prior as is. Needed because a
    strictly positive factorized prior admits no single-pair reallocation
    that respects the per-cell assignment rows.
    """
    cell = next(c for c, mass in enumerate(model._cell_masses) if mass < 1)
    return _factorized(model, marginals, [F1 if c == cell else F0 for c in range(model.n_cells)])


def implement_treatment(
    model: TreatmentModel,
    alpha: MixedAction,
    problem: Optional[DecisionProblem] = None,
) -> tuple[InformationStructure, SaddleCertificate]:
    """An almost-fully-informative experiment making alpha worst-case optimal.

    Always succeeds: the prior set of a treatment model realizes every
    payoff vector inside the outcome range, so the flattened payoff map
    (worst supported counterfactual mean on the support, bottom outcome off
    it) is induced by some prior that supports alpha.
    """
    problem = problem or build_treatment_problem(model)
    if len(alpha) != model.n_treatments:
        raise DimensionMismatch("mixed action length does not match the treatments")
    mu = problem.mu
    if is_best_response(problem, alpha, mu):
        return implement_at_prior(problem, alpha, mu)

    means = problem.pure_payoffs(mu)
    floor = min(means[t] for t in alpha.support)
    bottom = model.outcomes[0]
    targets = tuple(
        floor if t in alpha.support else bottom for t in range(model.n_treatments)
    )
    pi = outcome_marginals_for_targets(model, targets)
    nu = _factorized(model, pi, model._cell_masses)
    if not any(m and not v for m, v in zip(mu, nu)):
        nu = _concentrated_prior(model, pi)
    return implement_at_prior(problem, alpha, nu)


@dataclass(frozen=True)
class MarginalSpec:
    """A nonempty strict subset of the observable variables Y, X1..Xl, T."""

    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise EmptyOrFullVariableSet("marginal disclosure needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable in marginal disclosure")


def _domains(model: TreatmentModel) -> dict[str, tuple[str, ...]]:
    """The value labels of each observable variable, in the order Y, X1..Xl, T."""
    domains = {"Y": tuple(str(y) for y in model.outcomes)}
    for j, domain in enumerate(model.covariate_domains):
        domains[f"X{j + 1}"] = domain
    domains["T"] = model.treatments
    return domains


def _normalize_spec(model: TreatmentModel, spec) -> MarginalSpec:
    if not isinstance(spec, MarginalSpec):
        spec = MarginalSpec(tuple(spec))
    order = tuple(_domains(model))
    unknown = [v for v in spec.variables if v not in order]
    if unknown:
        raise ValueError(f"unknown variables in marginal disclosure: {unknown}")
    normalized = tuple(v for v in order if v in spec.variables)
    if len(normalized) == len(order):
        raise EmptyOrFullVariableSet("marginal disclosure must omit at least one variable")
    return MarginalSpec(normalized)


def marginal_structure(model: TreatmentModel, spec) -> InformationStructure:
    """Deterministic coarsening disclosing the joint law of the chosen variables."""
    spec = _normalize_spec(model, spec)
    domains = _domains(model)
    chosen = spec.variables
    message_values = tuple(itertools.product(*(range(len(domains[v])) for v in chosen)))
    message_index = {vals: i for i, vals in enumerate(message_values)}
    labels = tuple(
        ",".join(domains[v][val] for v, val in zip(chosen, vals)) for vals in message_values
    )

    # _domains is in state order, so this product enumerates the states by index
    picked = [i for i, v in enumerate(domains) if v in chosen]
    states = itertools.product(*(range(len(d)) for d in domains.values()))
    rows = [[0] * model.n_states for _ in message_values]
    for s, values in enumerate(states):
        rows[message_index[tuple(values[i] for i in picked)]][s] = 1
    return InformationStructure(labels, Matrix._over(1, rows, model.n_states))


@dataclass(frozen=True)
class MarginalReport:
    """Why a marginal disclosure is never a maximal implementing experiment."""

    variables: tuple[str, ...]
    kernel_dim: int
    dimension_bound: Fraction  # best structural lower bound on the kernel dimension
    never_maximal: bool  # kernel dimension exceeds one
    structure: InformationStructure  # the marginal disclosure that was checked


def check_marginal_not_maximal(model: TreatmentModel, spec) -> MarginalReport:
    spec = _normalize_spec(model, spec)
    structure = marginal_structure(model, spec)
    kernel_dim = kernel_of(structure).dim
    bound = max(
        Fraction(len(domain) - 1, len(domain)) * model.n_states
        for v, domain in _domains(model).items()
        if v not in spec.variables
    )
    return MarginalReport(
        variables=spec.variables,
        kernel_dim=kernel_dim,
        dimension_bound=bound,
        never_maximal=kernel_dim > 1,
        structure=structure,
    )


def add_irrelevant_signal(
    model: TreatmentModel, labels: tuple[str, str] = ("s0", "s1")
) -> TreatmentModel:
    """Append an independent uniform binary covariate the assignment ignores.

    The observed distribution is split evenly across the signal values and
    every assignment row is duplicated, so the extended model carries the
    same observable content while guaranteeing an ignorable covariate.
    """
    if len(labels) < 2:
        raise DimensionMismatch("signal covariate needs at least two values")
    share = F1 / len(labels)
    n_treat = model.n_treatments
    mu = tuple(
        model.mu[model.state_index(y, cell, t)] * share
        for y in range(model.n_outcomes)
        for cell in range(model.n_cells)
        for _ in labels
        for t in range(n_treat)
    )
    rows = tuple(row for row in model.assignment.entries for _ in labels)
    return TreatmentModel(
        outcomes=model.outcomes,
        covariate_domains=model.covariate_domains + (tuple(labels),),
        treatments=model.treatments,
        assignment=Matrix(len(rows), n_treat, rows),
        mu=mu,
    )


def _motivating_raw() -> TreatmentModel:
    """Binary-outcome observational study whose partial disclosure flips the policy.

    One covariate drives assignment (treated with chance 1/5 in the x0 group
    and 4/5 in the x1 group); the full data identify the untreated mean 1/4
    and the treated mean 1/8.
    """
    mu = vector(
        ["0.40", "0.10", "0.05", "0.30", "0.00", "0.00", "0.05", "0.10"]
    )  # lexicographic over (y, x, t)
    return TreatmentModel(
        outcomes=vector([0, 1]),
        covariate_domains=(("x0", "x1"),),
        treatments=("t0", "t1"),
        assignment=Matrix.from_rows([["4/5", "1/5"], ["1/5", "4/5"]]),
        mu=mu,
    )


def motivating_example() -> TreatmentModel:
    """The built-in example, extended with an ignorable binary signal covariate.

    The raw example's assignment varies with its only covariate, so the
    irrelevant-signal extension is what makes it a valid treatment model;
    the extension does not change any disclosed quantity or worst case.
    """
    return add_irrelevant_signal(_motivating_raw())


def motivating_worst_case_prior(model: TreatmentModel) -> Vector:
    """The joint distribution attaining both worst cases under (Y, T) disclosure.

    Stated on the extended state space of ``motivating_example`` by an even
    split across the signal covariate. Any model whose outcomes, assignment
    or observed distribution differ from that example's is refused.
    """
    example = motivating_example()
    observed = (model.outcomes, model.assignment, model.mu)
    if observed != (example.outcomes, example.assignment, example.mu):
        raise DimensionMismatch("expected the extended built-in example")
    raw = vector(["0.35", "0.10", "0.10", "0.30", "0.05", "0.00", "0.00", "0.10"])
    return add_irrelevant_signal(replace(_motivating_raw(), mu=raw)).mu
