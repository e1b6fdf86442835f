"""Maxmin solves, saddle certificates, supporting priors, researcher's pick."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import lp

from support import paired_problem, random_mixed, random_zero_sum_subspace


def _pure(problem, i):
    return idg.MixedAction.pure(i, problem.n_actions)


def test_worst_case_examples(example_problem, example_marginal_yt):
    p = example_problem
    value0, nu0 = idg.worst_case(p, example_marginal_yt, _pure(p, 0))
    value1, nu1 = idg.worst_case(p, example_marginal_yt, _pure(p, 1))
    assert value0 == F(1, 16)
    assert value1 == F(1, 8)
    assert idg.payoff(_pure(p, 0), nu0, p) == value0
    assert idg.identified_set(p, example_marginal_yt).contains(nu0)
    identity = idg.InformationStructure.identity(p.n_states)
    for a in range(p.n_actions):
        assert idg.worst_case(p, identity, _pure(p, a))[0] == idg.payoff(_pure(p, a), p.mu, p)


def test_maxmin_reversal(example_problem, example_marginal_yt):
    p = example_problem
    partial = idg.maxmin(p, example_marginal_yt)
    assert partial.alpha_star.weights == (F(0), F(1))
    assert partial.value == F(1, 8)
    assert partial.verify(p, example_marginal_yt)
    full = idg.maxmin(p, idg.InformationStructure.identity(p.n_states))
    assert full.alpha_star.weights == (F(1), F(0))
    assert full.value == F(1, 4)
    assert full.verify(p, idg.InformationStructure.identity(p.n_states))


def test_maxmin_constant_utility():
    n = 4
    utility = idg.Matrix.from_rows([[2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2]])
    problem = idg.DecisionProblem(
        tuple(f"s{i}" for i in range(n)),
        ("a0", "a1", "a2"),
        utility,
        idg.vector(["1/4"] * 4),
        idg.PriorPolytope.simplex(n),
    )
    single = idg.InformationStructure.single_message(n)
    cert = idg.maxmin(problem, single)
    assert cert.value == 2
    assert cert.verify(problem, single)


def test_best_responses(example_problem, example_model, example_marginal_yt):
    p = example_problem
    worst = idg.motivating_worst_case_prior(example_model)
    assert idg.best_responses(p, worst) == (1,)
    assert idg.best_responses(p, p.mu) == (0,)
    flat = idg.Matrix.from_rows([[1, 1], [1, 1]])
    constant = idg.DecisionProblem(
        ("s0", "s1"), ("a0", "a1"), flat, idg.vector(["1/2", "1/2"]), idg.PriorPolytope.simplex(2)
    )
    assert idg.best_responses(constant, constant.mu) == (0, 1)


def test_supporting_prior_examples(example_problem):
    p = example_problem
    treated = idg.supporting_prior(p, _pure(p, 1))
    assert treated is not None
    assert p.priors.contains(treated.nu)
    assert 1 in idg.best_responses(p, treated.nu)
    assert treated.slack >= 0
    assert treated.slack == idg.payoff(_pure(p, 1), p.mu, p) - idg.payoff(_pure(p, 1), treated.nu, p)

    untreated = idg.supporting_prior(p, _pure(p, 0))
    assert untreated is not None  # mu itself qualifies


def test_dominated_action_has_no_supporting_prior():
    utility = idg.Matrix.from_rows([[3, 5], [2, 4]])  # second action always one worse
    problem = idg.DecisionProblem(
        ("s0", "s1"), ("a0", "a1"), utility, idg.vector(["1/2", "1/2"]), idg.PriorPolytope.simplex(2)
    )
    assert idg.supporting_prior(problem, _pure(problem, 1)) is None
    assert not idg.is_implementable(problem, _pure(problem, 1))
    assert idg.is_implementable(problem, _pure(problem, 0))


def test_maxmin_agrees_with_direct_minmax_formulation():
    # independent oracle: minimize over the identified set, written in full
    # state coordinates, the epigraph of the best pure response
    rng = random.Random(31)
    for seed in range(12):
        problem, _ = paired_problem(f"duality-{seed}")
        n = problem.n_states
        sub = idg.Subspace.from_vectors(
            n, [tuple(F(rng.randint(-2, 2)) for _ in range(n))]
        )
        zero_sum = [tuple(v - sum(vec) / n for v in vec) for vec in sub.basis]
        spec_sub = idg.Subspace.from_vectors(n, zero_sum)
        structure = idg.kernel_to_experiment(idg.KernelSpec(spec_sub))
        cert = idg.maxmin(problem, structure)
        assert cert.verify(problem, structure)

        iset = idg.identified_set(problem, structure)
        eq_rows, eq_rhs = iset.equality_rows()
        ub_rows, ub_rhs = iset.inequality_rows()
        n_vars = n + 1  # state weights plus the epigraph variable
        program = lp.LinearProgram(
            objective=tuple([F(0)] * n + [F(1)]),
            sense="min",
            eq_matrix=tuple(row + (F(0),) for row in (((F(1),) * n,) + eq_rows)),
            eq_rhs=(F(1),) + eq_rhs,
            ub_matrix=tuple(row + (F(0),) for row in ub_rows)
            + tuple(
                problem.utility_row(a) + (F(-1),) for a in range(problem.n_actions)
            ),
            ub_rhs=ub_rhs + (F(0),) * problem.n_actions,
            lower_bounds=tuple([F(0)] * n + [None]),
        )
        out = lp.solve_lp(program)
        assert out.status is lp.LpStatus.OPTIMAL
        assert out.optimal_value == cert.value


def test_supporting_prior_recheck_on_random_instances():
    rng = random.Random(32)
    for seed in range(15):
        problem, r = paired_problem(f"recheck-{seed}")
        alpha = random_mixed(r, problem.n_actions)
        found = idg.supporting_prior(problem, alpha)
        if found is None:
            continue
        u_alpha = problem.mixed_utility(alpha)
        from infodesign.numerics import dot

        for a in range(problem.n_actions):
            assert dot(u_alpha, found.nu) >= dot(problem.utility_row(a), found.nu)
        assert dot(u_alpha, found.nu) <= dot(u_alpha, problem.mu)


def test_monotonicity_in_information_smoke():
    problem, _ = paired_problem("monotone")
    n = problem.n_states
    rng = random.Random(33)
    from support import random_zero_sum_subspace

    big = random_zero_sum_subspace(rng, n, min(3, n - 1))
    small = idg.Subspace.from_vectors(n, big.basis[:1])
    e_small = idg.kernel_to_experiment(idg.KernelSpec(small))
    e_big = idg.kernel_to_experiment(idg.KernelSpec(big))
    assert idg.maxmin(problem, e_small).value >= idg.maxmin(problem, e_big).value


@given(st.integers(0, 10**9), st.data())
def test_smaller_kernel_never_lowers_worst_cases(seed, data):
    problem, r = paired_problem(f"monotone-{seed}")
    n = problem.n_states
    big = random_zero_sum_subspace(r, n, data.draw(st.integers(0, n - 1)))
    small = idg.Subspace.from_vectors(n, big.basis[: data.draw(st.integers(0, big.dim))])
    e_small = idg.kernel_to_experiment(idg.KernelSpec(small))
    e_big = idg.kernel_to_experiment(idg.KernelSpec(big))
    for a in range(problem.n_actions):
        alpha = _pure(problem, a)
        assert idg.worst_case(problem, e_small, alpha)[0] >= idg.worst_case(problem, e_big, alpha)[0]
    assert idg.maxmin(problem, e_small).value >= idg.maxmin(problem, e_big).value


@given(st.integers(0, 10**9), st.data())
def test_saddle_certificate_rejects_tampered_witnesses(seed, data):
    problem, r = paired_problem(f"tamper-{seed}")
    n = problem.n_states
    kernel = random_zero_sum_subspace(r, n, data.draw(st.integers(0, n - 1)))
    structure = idg.kernel_to_experiment(idg.KernelSpec(kernel))
    cert = idg.maxmin(problem, structure)
    assert cert.verify(problem, structure)
    assert not replace(cert, value=cert.value + 1).verify(problem, structure)

    def tampered(alpha, nu):
        return idg.SaddleCertificate(alpha, nu, idg.payoff(alpha, nu, problem))

    # nu* moved off the identified set: all of one state's mass moved to
    # another state, along a direction outside the kernel
    for i, j in itertools.permutations(range(n), 2):
        d = tuple(F(int(s == i) - int(s == j)) for s in range(n))
        if cert.nu_star[j] and not kernel.contains_vector(d):
            moved = list(cert.nu_star)
            moved[i], moved[j] = moved[i] + moved[j], F(0)
            assert not tampered(cert.alpha_star, tuple(moved)).verify(problem, structure)
            break
    # alpha* replaced by a pure action that is not a best response to nu*
    best = idg.best_responses(problem, cert.nu_star)
    for a in range(problem.n_actions):
        if a not in best:
            assert not tampered(_pure(problem, a), cert.nu_star).verify(problem, structure)


def test_researcher_optimum(example_problem):
    p = example_problem
    pick = idg.researcher_optimum(p, idg.vector([0, 1]))
    assert pick.action == 1
    assert pick.structure.is_almost_fully_informative
    assert pick.certificate.verify(p, pick.structure)
    assert pick.supporting.slack >= 0

    pick = idg.researcher_optimum(p, idg.vector([1, 0]))
    assert pick.action == 0
    assert pick.structure.is_fully_informative

    # constant preferences: earliest implementable action wins
    pick = idg.researcher_optimum(p, idg.vector([1, 1]))
    assert pick.action == 0


def test_some_pure_action_is_always_implementable():
    # any best response to mu is supported by mu itself, so the researcher's
    # scan over pure actions can never come up empty
    rng = random.Random(34)
    for seed in range(10):
        problem, _ = paired_problem(f"always-{seed}")
        best_at_mu = idg.best_responses(problem, problem.mu)[0]
        assert idg.is_implementable(
            problem, idg.MixedAction.pure(best_at_mu, problem.n_actions)
        )
        pick = idg.researcher_optimum(
            problem, idg.vector([1] * problem.n_actions)
        )
        assert pick.certificate.verify(problem, pick.structure)
