"""Acceptance criteria for the whole artifact.

Each test checks one criterion at zero tolerance (everything is exact
rational arithmetic) and prints one PASS line; run with ``pytest -v -s
tests/test_acceptance.py`` to see the lines as they complete.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

import infodesign as idg
from infodesign import lp

from support import (
    paired_problem,
    rand_distribution,
    random_member,
    random_mixed,
    random_program,
    random_treatment_model,
    random_zero_sum_subspace,
)


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_full_information_means(example_problem):
    p = example_problem
    assert idg.counterfactual_mean(p, 0, p.mu) == F(1, 4)
    assert idg.counterfactual_mean(p, 1, p.mu) == F(1, 8)
    _ok(1, "full-information counterfactual means are exactly 1/4 and 1/8")


def test_criterion_2_worst_cases_under_marginal(example_problem, example_model, example_marginal_yt):
    p = example_problem
    wc0, _ = idg.worst_case(p, example_marginal_yt, idg.MixedAction.pure(0, 2))
    wc1, _ = idg.worst_case(p, example_marginal_yt, idg.MixedAction.pure(1, 2))
    assert wc0 == F(1, 16)
    assert wc1 == F(1, 8)
    known = idg.motivating_worst_case_prior(example_model)
    assert idg.identified_set(p, example_marginal_yt).contains(known)
    assert idg.counterfactual_mean(p, 0, known) == wc0
    _ok(2, "worst cases under (Y,T) disclosure are 1/16 and 1/8; the known prior attains them")


def test_criterion_3_policy_reversal(example_problem, example_marginal_yt):
    p = example_problem
    partial = idg.maxmin(p, example_marginal_yt)
    full = idg.maxmin(p, idg.InformationStructure.identity(p.n_states))
    assert partial.alpha_star.weights == (F(0), F(1))
    assert full.alpha_star.weights == (F(1), F(0))
    assert partial.verify(p, example_marginal_yt)
    assert full.verify(p, idg.InformationStructure.identity(p.n_states))
    _ok(3, "marginal disclosure selects the treatment, full information rejects it")


def test_criterion_4_implementability_equivalence():
    implementable = 0
    refuted = 0
    for seed in range(200):
        problem, r = paired_problem(f"acc4-{seed}")
        n_actions = problem.n_actions
        if seed % 2 == 0:
            alpha = idg.MixedAction.pure(r.randrange(n_actions), n_actions)
        else:
            alpha = random_mixed(r, n_actions)
        witness = idg.supporting_prior(problem, alpha)
        try:
            structure, cert = idg.implementing_structure(problem, alpha)
            succeeded = True
        except idg.NotImplementableError as exc:
            succeeded = False
            from infodesign.solver import supporting_prior_program

            refutation = lp.LpOutcome(
                status=lp.LpStatus.INFEASIBLE, certificate=exc.farkas
            )
            assert lp.verify_outcome(supporting_prior_program(problem, alpha), refutation)
        assert (witness is not None) == succeeded
        if succeeded:
            implementable += 1
            assert cert.verify(problem, structure)
            assert idg.maxmin(problem, structure).value == idg.worst_case(
                problem, structure, alpha
            )[0]
        else:
            refuted += 1
    assert implementable >= 40 and refuted >= 40
    _ok(4, f"supporting prior exists iff construction succeeds on 200 problems "
           f"({implementable} implementable, {refuted} refuted)")


def test_criterion_5_kernel_round_trip():
    rng = random.Random("acc5")
    checked = 0
    for trial in range(200):
        n = rng.randint(2, 10)
        if trial % 10 == 0:
            k = 0
        elif trial % 10 == 1:
            k = n - 1
        else:
            k = rng.randint(0, n - 1)
        sub = random_zero_sum_subspace(rng, n, k)
        structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
        for j in range(structure.experiment.cols):
            col = structure.experiment.column(j)
            assert all(v >= 0 for v in col) and sum(col) == 1
        assert idg.nullspace(structure.experiment) == sub
        checked += 1
    assert checked == 200
    _ok(5, "200 prescribed kernels reproduced exactly by column-stochastic constructions")


def test_criterion_6_boundary_adjustment_contract():
    rng = random.Random("acc6")
    adjusted_count = 0
    for seed in range(100):
        problem, r = paired_problem(f"acc6-{seed}")
        if seed % 3 == 0:
            nu = problem.mu
        else:
            nu = random_member(problem, r)
        moved = idg.boundary_adjust(problem, nu)
        for a in range(problem.n_actions):
            pure = idg.MixedAction.pure(a, problem.n_actions)
            assert idg.payoff(pure, moved, problem) == idg.payoff(pure, nu, problem)
        assert moved != problem.mu
        reach = idg.extremal_reach(problem, moved)
        assert reach <= 1
        adjusted_count += 1
    assert adjusted_count == 100
    _ok(6, "boundary adjustment preserves every payoff and pins the reach at one on 100 instances")


@pytest.fixture(scope="module")
def acceptance_models():
    models = []
    for seed in range(100):
        model = random_treatment_model(f"acc-model-{seed}")
        models.append((model, idg.build_treatment_problem(model)))
    return models


def test_criterion_7_every_treatment_implementable(acceptance_models):
    total = 0
    for index, (model, problem) in enumerate(acceptance_models):
        r = random.Random(f"acc7-{index}")
        actions = [
            idg.MixedAction.pure(t, model.n_treatments)
            for t in range(model.n_treatments)
        ]
        actions += [random_mixed(r, model.n_treatments) for _ in range(10)]
        for k, alpha in enumerate(actions):
            structure, cert = idg.implement_treatment(model, alpha, problem)
            assert idg.kernel_of(structure).dim <= 1
            assert cert.verify(problem, structure)
            # independent kernel recomputation from the experiment matrix
            assert idg.nullspace(structure.experiment) == idg.kernel_of(structure)
            total += 1
    assert total == sum(m.n_treatments + 10 for m, _ in acceptance_models)
    _ok(7, f"{total} actions implemented across 100 treatment models "
           f"(kernel dimension <= 1, certificates verified, {total} kernels recomputed)")


def test_criterion_8_factorized_priors(acceptance_models):
    checked = 0
    for index, (model, problem) in enumerate(acceptance_models):
        r = random.Random(f"acc8-{index}")
        for _ in range(10):
            pi = tuple(
                rand_distribution(r, model.n_outcomes) for _ in range(model.n_treatments)
            )
            built = idg.prior_from_marginals(model, pi, problem)
            assert problem.priors.contains(built.nu)
            for a in range(model.n_treatments):
                expected = sum(y * w for y, w in zip(model.outcomes, pi[a]))
                assert idg.counterfactual_mean(problem, a, built.nu) == expected
            checked += 1
    assert checked == 1000
    _ok(8, "1000 factorized priors lie in the prior set and hit their payoff maps exactly")


def test_criterion_9_marginals_never_maximal(acceptance_models):
    checked = 0
    for model, _problem in acceptance_models:
        n_vars = 2 + len(model.covariate_domains)
        names = ["Y"] + [f"X{j+1}" for j in range(len(model.covariate_domains))] + ["T"]
        for size in range(1, n_vars):
            for chosen in itertools.combinations(names, size):
                report = idg.check_marginal_not_maximal(model, chosen)
                assert 2 * report.kernel_dim >= model.n_states
                assert report.kernel_dim >= 4
                assert report.never_maximal
                checked += 1
    assert checked >= 600
    _ok(9, f"{checked} marginal disclosures all conceal at least half the state space")


def test_criterion_10_lp_certificates():
    rng = random.Random("acc10")
    counts = {status: 0 for status in lp.LpStatus}
    for trial in range(500):
        program = random_program(rng)
        outcome = lp.solve_lp(program)
        counts[outcome.status] += 1
        assert lp.verify_outcome(program, outcome)
        assert lp.solve_lp(program) == outcome
    assert all(count >= 25 for count in counts.values()), counts
    _ok(10, "500 random programs solved with exact primal, dual, Farkas, and ray certificates "
            f"({counts[lp.LpStatus.OPTIMAL]} optimal, {counts[lp.LpStatus.INFEASIBLE]} infeasible, "
            f"{counts[lp.LpStatus.UNBOUNDED]} unbounded)")


def test_criterion_11_informativeness_monotonicity():
    rng = random.Random("acc11")
    for seed in range(60):
        problem, _ = paired_problem(f"acc11-{seed}")
        n = problem.n_states
        big_dim = rng.randint(1, n - 1)
        big = random_zero_sum_subspace(rng, n, big_dim)
        small_dim = rng.randint(0, big_dim)
        small = idg.Subspace.from_vectors(n, big.basis[:small_dim])
        assert idg.subspace_contains(big, small)
        fine = idg.kernel_to_experiment(idg.KernelSpec(small))
        coarse = idg.kernel_to_experiment(idg.KernelSpec(big))
        assert idg.maxmin(problem, fine).value >= idg.maxmin(problem, coarse).value
    _ok(11, "maxmin value is weakly higher under every nested finer kernel on 60 pairs")
