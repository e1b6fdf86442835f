"""Maxmin solves, saddle certificates, supporting priors, researcher's pick."""

import gc
import itertools
import random
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import lp

from support import (
    identified_set_rows,
    paired_problem,
    random_member,
    random_mixed,
    random_treatment_model,
    random_zero_sum_subspace,
    tamper_phase_two,
    tamper_refutations,
)


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


def test_wrong_lengths_raise_dimension_mismatch(example_problem, example_marginal_yt):
    p = example_problem
    short = p.mu[:-1]
    iset = idg.identified_set(p, example_marginal_yt)
    assert iset.kernel.dim >= 2
    with pytest.raises(idg.DimensionMismatch, match="objective length"):
        iset.minimize(p.utility_row(0) + (F(1),))
    with pytest.raises(idg.DimensionMismatch, match="state distribution length"):
        idg.best_responses(p, short)
    with pytest.raises(idg.DimensionMismatch, match="state distribution length"):
        p.pure_payoffs(short)
    with pytest.raises(idg.DimensionMismatch, match="direction length"):
        p.segment(short + (F(0), F(0)))
    with pytest.raises(idg.DimensionMismatch, match="researcher values must cover every action"):
        idg.researcher_optimum(p, idg.vector([1]))


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


def test_dominated_action_has_no_supporting_prior(monkeypatch):
    utility = idg.Matrix.from_rows([[3, 5], [2, 4]])  # second action always one worse
    problem = idg.DecisionProblem(
        ("s0", "s1"), ("a0", "a1"), utility, idg.vector(["1/2", "1/2"]), idg.PriorPolytope.simplex(2)
    )
    assert idg.supporting_prior(problem, _pure(problem, 1)) is None
    assert not idg.is_implementable(problem, _pure(problem, 1))
    assert idg.is_implementable(problem, _pure(problem, 0))
    # a None rests on a verified refutation, as implementing_structure's refusal does
    tamper_refutations(monkeypatch)
    failed = "infeasible outcome failed its own certificate check"
    for refuted in (idg.supporting_prior, idg.is_implementable, idg.implementing_structure):
        with pytest.raises(AssertionError, match=failed):
            refuted(problem, _pure(problem, 1))


def test_a_supporting_prior_that_fails_its_check_is_not_returned(monkeypatch):
    utility = idg.Matrix.from_rows([[3, 5], [2, 4]])
    problem = idg.DecisionProblem(
        ("s0", "s1"), ("a0", "a1"), utility, idg.vector(["1/2", "1/2"]), idg.PriorPolytope.simplex(2)
    )
    assert idg.supporting_prior(problem, _pure(problem, 0)) is not None
    tamper_phase_two(monkeypatch)
    with pytest.raises(AssertionError, match="an optimal outcome failed its own certificate check"):
        idg.supporting_prior(problem, _pure(problem, 0))


def test_a_supporting_prior_builds_one_program(example_problem, monkeypatch):
    built = []
    post_init = lp.LinearProgram.__post_init__

    def counted(program):
        built.append(program)
        post_init(program)

    monkeypatch.setattr(lp.LinearProgram, "__post_init__", counted)
    assert idg.supporting_prior(example_problem, _pure(example_problem, 1)) is not None
    assert len(built) == 1


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

        eq_rows, eq_rhs, ub_rows, ub_rhs = identified_set_rows(problem, structure)
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


def _segment_lambda(problem, structure, nu):
    """The lam with nu = mu + lam d in Fraction arithmetic, d the kernel's direction (k <= 1).

    At k = 0 nu must be mu, and lam is 0. Otherwise lam is read off the
    first nonzero coordinate of d, every coordinate of nu must equal
    mu_s + lam d_s, and lam must lie on the segment.
    """
    kernel = idg.kernel_of(structure)
    if kernel.dim == 0:
        assert nu == problem.mu
        return F(0)
    d = kernel.basis[0]
    s = next(s for s, x in enumerate(d) if x)
    lam = (nu[s] - problem.mu[s]) / d[s]
    assert nu == tuple(m + lam * x for m, x in zip(problem.mu, d))
    lo, hi = problem.segment(d)
    assert lo <= lam <= hi
    return lam


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
    # at k <= 1 each minimizer is mu + lam d on the segment
    for structure in (e_small, e_big):
        if idg.kernel_of(structure).dim <= 1:
            for a in range(problem.n_actions):
                _segment_lambda(problem, structure, idg.worst_case(problem, structure, _pure(problem, a))[1])
            _segment_lambda(problem, structure, idg.maxmin(problem, structure).nu_star)


def test_segment_minimizer_at_lambda_zero_is_mu():
    # the kernel's direction is d = (0, 1, -1): the third coordinate of
    # mu + lam d is -lam, so the segment is [-1/2, 0], and the one action's
    # payoff -lam is least at lam = 0
    problem = idg.DecisionProblem(
        ("s0", "s1", "s2"),
        ("a0",),
        idg.Matrix.from_rows([[0, 0, 1]]),
        idg.vector(["1/2", "1/2", 0]),
        idg.PriorPolytope.simplex(3),
    )
    kernel = idg.Subspace.from_vectors(3, [idg.vector([0, -1, 1])])
    structure = idg.kernel_to_experiment(idg.KernelSpec(kernel))
    assert kernel.basis[0] == (0, 1, -1)
    assert problem.segment(kernel.basis[0]) == (F(-1, 2), F(0))
    value, nu = idg.worst_case(problem, structure, _pure(problem, 0))
    cert = idg.maxmin(problem, structure)
    assert value == cert.value == 0
    for point in (nu, cert.nu_star):
        assert _segment_lambda(problem, structure, point) == 0


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
    # alpha* replaced by a pure action that is not a best response to nu*,
    # or by a mix that is half a best response and half not
    best = idg.best_responses(problem, cert.nu_star)
    for a in range(problem.n_actions):
        if a not in best:
            assert not tampered(_pure(problem, a), cert.nu_star).verify(problem, structure)
            half = idg.MixedAction(
                tuple(F(1, 2) if b in (a, best[0]) else F(0) for b in range(problem.n_actions))
            )
            assert not tampered(half, cert.nu_star).verify(problem, structure)


def test_saddle_certificate_of_the_wrong_shape_reads_false(example_problem, example_marginal_yt):
    """A malformed certificate fails verify, as a malformed outcome fails lp.verify_outcome."""
    problem, structure = example_problem, example_marginal_yt
    cert = idg.maxmin(problem, structure)
    assert cert.verify(problem, structure)
    one_action = replace(cert, alpha_star=idg.MixedAction((F(1),)))
    assert one_action.verify(problem, structure) is False
    short_nu = replace(cert, nu_star=cert.nu_star[:-1])
    assert short_nu.verify(problem, structure) is False
    # an entry that is not exact still raises, whatever the shape
    inexact = replace(cert, nu_star=(0.5,) + cert.nu_star[1:])
    with pytest.raises(TypeError):
        inexact.verify(problem, structure)


def test_saddle_certificate_at_a_member_that_is_not_worst(example_problem, example_model):
    """Under the T marginal alpha* = t0 best-responds to mu, where it earns more than its worst case."""
    problem = example_problem
    structure = idg.marginal_structure(example_model, ["T"])
    cert = idg.maxmin(problem, structure)
    assert cert.verify(problem, structure)
    assert idg.identified_set(problem, structure).contains(problem.mu)
    at_mu = idg.payoff(cert.alpha_star, problem.mu, problem)
    assert at_mu > cert.value
    # each fails one test only: the payoff at nu*, then nu* being worst
    assert not replace(cert, nu_star=problem.mu).verify(problem, structure)
    assert not replace(cert, nu_star=problem.mu, value=at_mu).verify(problem, structure)


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


def test_worst_case_refuses_an_inexact_objective():
    problem = idg.DecisionProblem(
        ("s0", "s1", "s2"),
        ("a0",),
        idg.Matrix(1, 3, ((1.0, F(0), F(0)),)),  # built directly, so unchecked
        (F(1, 3),) * 3,
        idg.PriorPolytope.simplex(3),
    )
    alpha = idg.MixedAction.pure(0, 1)
    # k = 2: phase 2 on the shared phase 1; k = 0: the closed form
    with pytest.raises(TypeError, match="int or Fraction"):
        idg.worst_case(problem, idg.InformationStructure.single_message(3), alpha)
    with pytest.raises(TypeError, match="not an exact number"):
        idg.worst_case(problem, idg.InformationStructure.identity(3), alpha)


def _fresh_worst_case_program(problem, structure, alpha):
    """The worst-case program built from the problem's and structure's fields alone."""
    priors = problem.priors
    return lp.LinearProgram(
        objective=problem.mixed_utility(alpha),
        sense="min",
        eq_matrix=priors.eq_matrix + structure.experiment.entries,
        eq_rhs=priors.eq_rhs + structure.experiment.matvec(problem.mu),
        ub_matrix=priors.ub_matrix,
        ub_rhs=priors.ub_rhs,
    )


@st.composite
def shared_phase_one_cases(draw):
    """Two problems that differ in mu, one structure with k >= 2, and mixed actions.

    The problem is a random treatment model under a marginal disclosure or
    a generic paired problem under a random zero-sum kernel.
    """
    seed = draw(st.integers(0, 10**9))
    rng = random.Random(f"shared-phase-one-{seed}")
    if draw(st.booleans()):
        model = random_treatment_model(seed)
        problem = idg.build_treatment_problem(model)
        names = ["Y"] + [f"X{j + 1}" for j in range(len(model.covariate_domains))] + ["T"]
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names) - 1, unique=True))
        structure = idg.marginal_structure(model, chosen)
    else:
        problem, _ = paired_problem(f"shared-phase-one-{seed}")
        k = draw(st.integers(2, problem.n_states - 1))
        subspace = random_zero_sum_subspace(rng, problem.n_states, k)
        structure = idg.kernel_to_experiment(idg.KernelSpec(subspace))
    other = replace(problem, mu=random_member(problem, rng))
    n = problem.n_actions
    actions = [idg.MixedAction.pure(a, n) for a in range(n)]
    actions += [idg.MixedAction((F(1, n),) * n), random_mixed(rng, n)]
    return problem, other, structure, actions


@given(shared_phase_one_cases())
def test_worst_cases_share_one_phase_one(case):
    """Phase 2 from the identified set's shared phase 1 is the fresh solve, in any order."""
    problem, other, structure, actions = case
    assert idg.kernel_of(structure).dim >= 2
    fresh = {
        (p is problem, alpha): lp.solve_lp(_fresh_worst_case_program(p, structure, alpha))
        for p in (problem, other)
        for alpha in actions
    }
    for order in (actions, actions[::-1]):
        for alpha in order:
            out = fresh[True, alpha]
            start = idg.identified_set(problem, structure)._phase_one
            assert lp._phase_two(start, problem.mixed_utility(alpha), "min") == out
            assert idg.worst_case(problem, structure, alpha) == (out.optimal_value, out.optimal_point)
    assert idg.identified_set(problem, structure) is idg.identified_set(problem, structure)
    # one structure used alternately with two problems: each gets its own set
    for alpha in actions:
        for p in (problem, other, problem):
            out = fresh[p is problem, alpha]
            assert idg.worst_case(p, structure, alpha) == (out.optimal_value, out.optimal_point)
            assert idg.identified_set(p, structure).mu is p.mu


def test_structures_are_freed_by_reference_counting(example_problem, example_model):
    """The identified set a structure caches does not refer back to it: no cycle to collect."""
    gc.disable()
    try:
        structure = idg.marginal_structure(example_model, ["Y", "T"])
        assert idg.kernel_of(structure).dim >= 2
        idg.maxmin(example_problem, structure)
        idg.worst_case(example_problem, structure, _pure(example_problem, 0))
        freed = weakref.ref(structure)
        del structure
        assert freed() is None

        mixed = idg.MixedAction((F(1, 2), F(1, 2)))
        structure, _ = idg.implement_treatment(example_model, mixed, example_problem)
        freed = weakref.ref(structure)
        del structure
        assert freed() is None
    finally:
        gc.enable()
