"""Treatment models: construction, factorized priors, universal implementation."""

import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import infodesign as idg
from infodesign.causal import _concentrated_prior, _irrelevant_covariates

from support import random_treatment_model, raw_motivating_model


def test_build_utility_entries(example_problem):
    p = example_problem
    # choosing t0 in a state that received t0 with outcome 1 in the x1 group
    # pays 1 / P(t0 | x1) = 5
    idx = p.states.index("(1,x1,s0,t0)")
    assert p.utility.entries[0][idx] == 5
    assert p.utility.entries[1][idx] == 0
    idx = p.states.index("(1,x0,s1,t1)")
    assert p.utility.entries[1][idx] == 5  # 1 / P(t1 | x0) = 1 / (1/5)
    idx = p.states.index("(0,x1,s0,t1)")
    assert p.utility.entries[1][idx] == 0  # zero outcome pays nothing


def test_interior_support_violation():
    model = raw_motivating_model()
    bad = idg.TreatmentModel(
        outcomes=model.outcomes,
        covariate_domains=model.covariate_domains,
        treatments=model.treatments,
        assignment=idg.Matrix.from_rows([["1", "0"], ["1/5", "4/5"]]),
        mu=idg.vector(["1/2", "0", "0", "0", "1/2", "0", "0", "0"]),
    )
    with pytest.raises(idg.InteriorSupportViolation):
        idg.build_treatment_problem(bad)


def test_assignment_mismatch():
    model = raw_motivating_model()
    # swap two cells of mu so the observed conditional is wrong
    mu = list(model.mu)
    mu[0], mu[1] = mu[1], mu[0]
    bad = idg.TreatmentModel(
        outcomes=model.outcomes,
        covariate_domains=model.covariate_domains,
        treatments=model.treatments,
        assignment=model.assignment,
        mu=tuple(mu),
    )
    with pytest.raises(idg.AssignmentMismatch):
        idg.build_treatment_problem(bad)


def test_no_irrelevant_covariate_and_extension():
    raw = raw_motivating_model()
    with pytest.raises(idg.NoIrrelevantCovariate):
        idg.build_treatment_problem(raw)
    extended = idg.add_irrelevant_signal(raw)
    assert _irrelevant_covariates(extended) == (1,)
    problem = idg.build_treatment_problem(extended)
    assert idg.payoff_equivalence_classes(problem).all_nontrivial


def test_counterfactual_means(example_problem, example_model):
    p = example_problem
    assert idg.counterfactual_mean(p, "t0", p.mu) == F(1, 4)
    assert idg.counterfactual_mean(p, "t1", p.mu) == F(1, 8)
    worst = idg.motivating_worst_case_prior(example_model)
    assert idg.counterfactual_mean(p, 0, worst) == F(1, 16)
    assert idg.counterfactual_mean(p, 1, worst) == F(1, 8)



def test_motivating_worst_case_prior_entries(example_model):
    # the raw (y, x, t) table split evenly over the signal, states (y, x, s, t)
    expected = [
        "7/40", "1/20", "7/40", "1/20", "1/20", "3/20", "1/20", "3/20",
        "1/40", "0", "1/40", "0", "0", "1/20", "0", "1/20",
    ]
    assert idg.motivating_worst_case_prior(example_model) == idg.vector(expected)


def test_motivating_worst_case_prior_refuses_other_models(example_model):
    # same shape as the built-in example, but a different study: the built-in
    # prior need not lie in this model's prior set
    other = idg.TreatmentModel(
        outcomes=idg.vector([0, 1]),
        covariate_domains=(("x0", "x1"), ("s0", "s1")),
        treatments=("t0", "t1"),
        assignment=idg.Matrix.from_rows([["1/2", "1/2"]] * 4),
        mu=(F(1, 16),) * 16,
    )
    problem = idg.build_treatment_problem(other)
    assert not problem.priors.contains(idg.motivating_worst_case_prior(example_model))
    with pytest.raises(idg.DimensionMismatch):
        idg.motivating_worst_case_prior(other)

@given(
    st.integers(0, 199),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6), min_size=3, max_size=3),
)
def test_concentrated_prior_property(seed, shares):
    model = random_treatment_model(f"concentrated-{seed}")
    problem = idg.build_treatment_problem(model)
    lo, hi = model.outcomes[0], model.outcomes[-1]
    targets = tuple(lo + (hi - lo) * s for s in shares[: model.n_treatments])
    nu = _concentrated_prior(model, idg.outcome_marginals_for_targets(model, targets))
    assert problem.priors.contains(nu)
    assert all(
        idg.counterfactual_mean(problem, a, nu) == target for a, target in enumerate(targets)
    )
    # a positive-mu state without prior mass: boundary adjustment keeps nu as is
    assert any(m > 0 and v == 0 for m, v in zip(problem.mu, nu))

def test_prior_from_zero_marginals(example_model, example_problem):
    pi = ((F(1), F(0)), (F(1), F(0)))  # all mass on the zero outcome
    built = idg.prior_from_marginals(example_model, pi, example_problem)
    assert built.payoffs == (F(0), F(0))
    for a in range(2):
        assert idg.counterfactual_mean(example_problem, a, built.nu) == 0


def test_prior_from_observed_conditionals(example_model, example_problem):
    # outcome law of each treatment arm taken from the data itself
    model = example_model
    p = example_problem
    pi = []
    for t in range(model.n_treatments):
        arm_mass = sum(
            model.mu[model.state_index(y, c, t)]
            for y in range(model.n_outcomes)
            for c in range(model.n_cells)
        )
        law = []
        for y in range(model.n_outcomes):
            mass = sum(model.mu[model.state_index(y, c, t)] for c in range(model.n_cells))
            law.append(mass / arm_mass)
        pi.append(tuple(law))
    built = idg.prior_from_marginals(model, tuple(pi), p)
    # observed conditional outcome means: E[Y | T=t0] = 1/10, E[Y | T=t1] = 1/5
    assert built.payoffs == (F(1, 10), F(1, 5))


def test_prior_from_marginals_random_models():
    rng = random.Random(51)
    for seed in range(6):
        model = random_treatment_model(f"pi-{seed}")
        problem = idg.build_treatment_problem(model)
        for _ in range(4):
            pi = tuple(
                tuple_dist(rng, model.n_outcomes) for _ in range(model.n_treatments)
            )
            built = idg.prior_from_marginals(model, pi, problem)
            assert problem.priors.contains(built.nu)


def tuple_dist(rng, n):
    vals = [F(rng.randint(0, 5)) for _ in range(n)]
    if not sum(vals):
        vals[0] = F(1)
    total = sum(vals)
    return tuple(v / total for v in vals)


def test_outcome_marginals_reject_out_of_range(example_model):
    with pytest.raises(ValueError):
        idg.outcome_marginals_for_targets(example_model, (F(2), F(0)))
    pi = idg.outcome_marginals_for_targets(example_model, (F(1, 3), F(1)))
    assert pi[0] == (F(2, 3), F(1, 3))
    assert pi[1] == (F(0), F(1))


def test_implement_treatment_examples(example_model, example_problem):
    model, p = example_model, example_problem
    structure, cert = idg.implement_treatment(model, idg.MixedAction.pure(1, 2), p)
    assert idg.kernel_of(structure).dim <= 1
    assert cert.value == F(1, 8)
    wc1 = idg.worst_case(p, structure, idg.MixedAction.pure(1, 2))[0]
    wc0 = idg.worst_case(p, structure, idg.MixedAction.pure(0, 2))[0]
    assert wc1 >= wc0
    assert cert.verify(p, structure)

    structure0, cert0 = idg.implement_treatment(model, idg.MixedAction.pure(0, 2), p)
    assert cert0.value == F(1, 4)
    assert cert0.verify(p, structure0)


def test_implement_uniform_action(example_model, example_problem):
    model, p = example_model, example_problem
    uniform = idg.MixedAction(idg.vector(["1/2", "1/2"]))
    # the factorized prior behind the construction makes both arms pay 1/8
    pi = idg.outcome_marginals_for_targets(model, (F(1, 8), F(1, 8)))
    built = idg.prior_from_marginals(model, pi, p)
    assert built.payoffs == (F(1, 8), F(1, 8))
    assert idg.best_responses(p, built.nu) == (0, 1)

    structure, cert = idg.implement_treatment(model, uniform, p)
    assert cert.value == F(1, 8)
    assert cert.verify(p, structure)


def test_marginal_structure_examples(example_model, example_problem):
    yt = idg.marginal_structure(example_model, ["Y", "T"])
    assert len(yt.messages) == 4
    t_only = idg.marginal_structure(example_model, ["T"])
    assert t_only.messages == example_model.treatments
    raw = raw_motivating_model()
    assert idg.kernel_of(idg.marginal_structure(raw, ["Y", "T"])).dim == 4
    assert idg.kernel_of(idg.marginal_structure(raw, ["T"])).dim == 6
    with pytest.raises(idg.EmptyOrFullVariableSet):
        idg.marginal_structure(example_model, [])
    with pytest.raises(idg.EmptyOrFullVariableSet):
        idg.marginal_structure(example_model, ["Y", "X1", "X2", "T"])
    with pytest.raises(ValueError):
        idg.marginal_structure(example_model, ["Z"])


def test_marginal_order_is_canonical(example_model):
    a = idg.marginal_structure(example_model, ["T", "Y"])
    b = idg.marginal_structure(example_model, ["Y", "T"])
    assert a == b


def test_check_marginal_not_maximal(example_model):
    report = idg.check_marginal_not_maximal(example_model, ["Y", "T"])
    assert report.kernel_dim == 12
    assert report.dimension_bound == 8  # half of sixteen states
    assert report.never_maximal
    raw = raw_motivating_model()
    report = idg.check_marginal_not_maximal(raw, ["Y", "T"])
    assert report.kernel_dim == 4
    assert report.dimension_bound == 4
    assert report.never_maximal
    report = idg.check_marginal_not_maximal(raw, ["T"])
    assert report.kernel_dim == 6
    assert report.never_maximal


def test_motivating_example_marginal_matches_raw_table(example_model):
    model = example_model
    # marginal over (y, x, t) must reproduce the observed table cell by cell
    raw = raw_motivating_model()
    for y in range(2):
        for x in range(2):
            for t in range(2):
                total = sum(
                    model.mu[model.state_index(y, x * 2 + s, t)] for s in range(2)
                )
                assert total == raw.mu[raw.state_index(y, x, t)]
    assert raw.mu[raw.state_index(0, 0, 0)] == F(2, 5)


def test_random_models_validate():
    for seed in range(8):
        model = random_treatment_model(f"valid-{seed}")
        problem = idg.build_treatment_problem(model)
        assert idg.payoff_equivalence_classes(problem).all_nontrivial
        assert problem.n_states >= 8


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda m: replace(m, outcomes=(F(0),)), idg.DimensionMismatch,
                     "need at least two outcome values", id="one-outcome"),
        pytest.param(lambda m: replace(m, outcomes=(F(1), F(0))), ValueError,
                     "outcome values must be strictly increasing", id="outcome-order"),
        pytest.param(lambda m: replace(m, treatments=("t0",)), idg.DimensionMismatch,
                     "need at least two treatments", id="one-treatment"),
        pytest.param(lambda m: replace(m, covariate_domains=()), idg.DimensionMismatch,
                     "need at least one covariate", id="no-covariate"),
        pytest.param(lambda m: replace(m, covariate_domains=(("x0",), ("s0", "s1"))),
                     idg.DimensionMismatch, "every covariate needs at least two values",
                     id="one-value"),
        pytest.param(lambda m: replace(m, assignment=idg.Matrix.from_rows([["1/2", "1/2"]])),
                     idg.DimensionMismatch, "assignment shape must be cells x treatments",
                     id="assignment-shape"),
        pytest.param(lambda m: replace(m, assignment=idg.Matrix.from_rows([["1/2", "1/3"]] * 4)),
                     ValueError, "assignment row 0 is not a probability vector",
                     id="assignment-row"),
        pytest.param(lambda m: replace(m, mu=m.mu[1:]), idg.DimensionMismatch,
                     "mu length must match the state count", id="mu-length"),
        pytest.param(lambda m: replace(m, mu=(F(1),) * m.n_states), ValueError,
                     "mu must be a probability vector", id="mu-distribution"),
        pytest.param(lambda m: idg.outcome_marginals_for_targets(m, (F(0),)),
                     idg.DimensionMismatch, "one target mean per treatment required",
                     id="target-count"),
        pytest.param(lambda m: idg.prior_from_marginals(m, [(F(1), F(0))]),
                     idg.DimensionMismatch, "one outcome marginal per treatment required",
                     id="marginal-count"),
        pytest.param(lambda m: idg.prior_from_marginals(m, [(F(1),), (F(1), F(0))]),
                     idg.DimensionMismatch, "marginal for treatment 0 has the wrong length",
                     id="marginal-length"),
        pytest.param(lambda m: idg.prior_from_marginals(m, [(F(1), F(1)), (F(1), F(0))]),
                     ValueError, "marginal for treatment 0 is not a probability vector",
                     id="marginal-distribution"),
        pytest.param(lambda m: idg.implement_treatment(m, idg.MixedAction.pure(0, 3)),
                     idg.DimensionMismatch, "mixed action length does not match the treatments",
                     id="implement-alpha"),
        pytest.param(lambda m: idg.add_irrelevant_signal(m, ("s",)), idg.DimensionMismatch,
                     "signal covariate needs at least two values", id="signal-values"),
    ],
)
def test_treatment_model_refuses_inconsistent_inputs(example_model, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(example_model)
