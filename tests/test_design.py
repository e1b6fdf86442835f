"""Experiment construction, boundary adjustment, implementing structures, order."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import lp
from infodesign.design import InformativenessOrder

from support import (
    display_direction,
    fraction_experiment,
    fraction_rref,
    fraction_spans,
    paired_problem,
    random_member,
    random_zero_sum_subspace,
    raw_motivating_model,
    raw_motivating_problem,
    known_worst_case_raw,
    tamper_refutations,
)


def _assert_single_formula(sub, structure):
    """n - k independent messages, row i = normalizer (x_i + w_i), recomputed over Fractions.

    The complement basis w, the shifts x_i = max(0, -min w_i) and the
    normalizer 1 / (1 + sum x) are recomputed here; the kernel is recomputed
    from the matrix, independent of the construction.
    """
    n, k = sub.ambient_dim, sub.dim
    ws = idg.orthogonal_complement(sub).basis
    xs = tuple(max(F(0), -min(w)) for w in ws)
    normalizer = 1 / (1 + sum(xs))
    assert len(structure.messages) == structure.experiment.rows == n - k
    assert idg.rank(structure.experiment) == n - k
    for x, w, row in zip(xs, ws, structure.experiment.entries, strict=True):
        assert row == tuple(normalizer * (x + wj) for wj in w)
    for j in range(n):
        column = structure.experiment.column(j)
        assert all(v >= 0 for v in column) and sum(column) == 1
    assert idg.nullspace(structure.experiment) == sub == idg.kernel_of(structure)


@st.composite
def zero_sum_subspaces(draw):
    """A zero-sum subspace of every dimension k from 0 to n - 1, n <= 8.

    k drawn rational zero-sum vectors are topped up with unit differences
    e_i - e_{n-1}, which span every zero-sum vector, until they reach rank k.
    """
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n - 1))
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    heads = st.lists(entry, min_size=n - 1, max_size=n - 1)
    vectors = [(*head, -sum(head)) for head in draw(st.lists(heads, min_size=k, max_size=k))]
    for i in range(n - 1):
        if len(fraction_rref(vectors, n)[1]) == k:
            break
        unit = tuple(F(1) if j == i else F(-1) if j == n - 1 else F(0) for j in range(n))
        if len(fraction_rref(vectors + [unit], n)[1]) > len(fraction_rref(vectors, n)[1]):
            vectors.append(unit)
    sub = idg.Subspace.from_vectors(n, vectors)
    assert sub.dim == k
    return sub


@given(zero_sum_subspaces())
def test_construction_matches_the_formula_over_fractions(sub):
    structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
    assert structure.experiment.entries == fraction_experiment(sub.basis, sub.ambient_dim)


def test_zero_kernel_gives_identity():
    sub = idg.Subspace.zero(4)
    structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
    assert structure.experiment == idg.Matrix.identity(4)
    assert idg.nullspace(structure.experiment).dim == 0
    # the identity rows are the complement basis: every shift is 0, the normalizer 1
    assert idg.orthogonal_complement(sub).basis == structure.experiment.entries
    _assert_single_formula(sub, structure)


def test_full_zero_sum_kernel_gives_single_message():
    hyper = idg.nullspace(idg.Matrix.from_rows([[1, 1, 1, 1]]))
    structure = idg.kernel_to_experiment(idg.KernelSpec(hyper))
    assert len(structure.messages) == 1
    assert structure.experiment.entries == ((F(1),) * 4,)
    assert idg.nullspace(structure.experiment) == hyper


def test_display_direction_construction():
    d = display_direction()
    sub = idg.Subspace.from_vectors(8, [d])
    structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
    assert len(structure.messages) == 7
    # some complement vector has a negative entry, so some shift x_i is positive
    assert any(min(w) < 0 for w in idg.orthogonal_complement(sub).basis)
    _assert_single_formula(sub, structure)


def test_zero_sum_violation():
    with pytest.raises(idg.ZeroSumViolation):
        idg.KernelSpec(idg.Subspace.from_vectors(3, [idg.vector([1, 0, 0])]))
    # a sum off zero by 1/10^40 is not zero
    with pytest.raises(idg.ZeroSumViolation):
        idg.KernelSpec(idg.Subspace.from_vectors(3, [(F(1), F(-1) + F(1, 10**40), F(0))]))
    # the Mersenne primes 2^61 - 1 and 2^89 - 1 as coprime denominators
    p, q = 2**61 - 1, 2**89 - 1
    zero_sum = (F(1, p), F(-1, q), F(1, q) - F(1, p))
    spec = idg.KernelSpec(idg.Subspace.from_vectors(3, [zero_sum]))
    assert spec.subspace.dim == 1 and sum(spec.subspace.basis[0]) == 0


def test_kernel_spec_refuses_a_non_canonical_basis():
    # the structure takes the spec's basis as its kernel: a repeated direction
    # gave kernel.dim == 2 against a nullspace of dimension 1, and a scaled one
    # a kernel unequal to the nullspace of its own experiment. A hand-built
    # subspace now holds the canonical basis, so no such basis reaches a spec.
    for basis in (
        ((1, -1, 0), (1, -1, 0)),
        ((2, -2, 0),),
        ((0, 0, 0),),
        ((0, 1, -1), (1, -1, 0)),
        ((1, -1, 0), (0, 1, -1)),
    ):
        by_hand = idg.Subspace(3, tuple(idg.vector(v) for v in basis))
        canonical = idg.Subspace.from_vectors(3, [idg.vector(v) for v in basis])
        assert by_hand == canonical
        structure = idg.kernel_to_experiment(idg.KernelSpec(by_hand))
        assert structure.kernel == idg.nullspace(structure.experiment) == canonical
    repeated = idg.Subspace.from_vectors(3, [idg.vector((1, -1, 0))] * 2)
    assert idg.kernel_to_experiment(idg.KernelSpec(repeated)).is_almost_fully_informative


def test_kernel_round_trip_random():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 10)
        k = rng.randint(0, n - 1)
        sub = random_zero_sum_subspace(rng, n, k)
        structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
        _assert_single_formula(sub, structure)


@st.composite
def zero_sum_subspaces(draw):
    """The span of up to n-1 centred integer vectors, so every k in 0..n-1 occurs."""
    n = draw(st.integers(1, 8))
    raws = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n - 1))
    vectors = [tuple(F(x) - F(sum(raw), n) for x in raw) for raw in raws]
    return idg.Subspace.from_vectors(n, vectors)


@given(zero_sum_subspaces())
def test_kernel_round_trip_property(sub):
    structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
    _assert_single_formula(sub, structure)


def test_boundary_adjust_leaves_boundary_prior_alone():
    found = False
    for seed in range(6):
        problem, _ = paired_problem(f"boundary-zero-{seed}")
        n = problem.n_states
        for target in range(n):
            if problem.mu[target] == 0:
                continue
            # drive the target coordinate to the floor of the prior set
            objective = tuple(F(1) if s == target else F(0) for s in range(n))
            program = lp.LinearProgram(
                objective=objective,
                sense="min",
                eq_matrix=((F(1),) * n,) + problem.priors.eq_matrix,
                eq_rhs=(F(1),) + problem.priors.eq_rhs,
                ub_matrix=problem.priors.ub_matrix,
                ub_rhs=problem.priors.ub_rhs,
            )
            out = lp.solve_lp(program)
            assert out.status is lp.LpStatus.OPTIMAL
            if out.optimal_value == 0:
                nu = out.optimal_point
                assert idg.boundary_adjust(problem, nu) == nu
                found = True
                break
        if found:
            break
    assert found


def test_boundary_adjust_moves_interior_mu():
    # interior mu over paired states; adjustment must move mass to a partner
    utility = idg.Matrix.from_rows([[2, 2, -1, -1], [0, 0, 3, 3]])
    problem = idg.DecisionProblem(
        ("s0", "s1", "s2", "s3"),
        ("a0", "a1"),
        utility,
        idg.vector(["1/4", "1/4", "1/4", "1/4"]),
        idg.PriorPolytope.simplex(4),
    )
    adjusted = idg.boundary_adjust(problem, problem.mu)
    assert adjusted != problem.mu
    # mass of the first state lands on its payoff partner
    assert adjusted == idg.vector(["0", "1/2", "1/4", "1/4"])
    for a in range(problem.n_actions):
        pure = idg.MixedAction.pure(a, problem.n_actions)
        assert idg.payoff(pure, adjusted, problem) == idg.payoff(pure, problem.mu, problem)
    assert idg.extremal_reach(problem, adjusted) == 1


def test_boundary_adjust_extremality_matches_lp_oracle():
    rng = random.Random(42)
    for seed in range(10):
        problem, r = paired_problem(f"extremal-{seed}")
        nu = random_member(problem, r)
        adjusted = idg.boundary_adjust(problem, nu)
        for a in range(problem.n_actions):
            pure = idg.MixedAction.pure(a, problem.n_actions)
            assert idg.payoff(pure, adjusted, problem) == idg.payoff(pure, nu, problem)
        if adjusted == problem.mu:
            continue
        reach = idg.extremal_reach(problem, adjusted)
        assert reach <= 1
        # one-variable program oracle
        n = problem.n_states
        direction = tuple(a - b for a, b in zip(adjusted, problem.mu))
        ub_rows = [(-d,) for d in direction]
        ub_rhs = list(problem.mu)
        for row, b in zip(problem.priors.ub_matrix, problem.priors.ub_rhs):
            coeff = sum(r * d for r, d in zip(row, direction))
            ub_rows.append((coeff,))
            ub_rhs.append(b - sum(r * m for r, m in zip(row, problem.mu)))
        program = lp.LinearProgram(
            objective=(F(1),),
            sense="max",
            ub_matrix=tuple(ub_rows),
            ub_rhs=tuple(ub_rhs),
            lower_bounds=(None,),
        )
        out = lp.solve_lp(program)
        assert out.status is lp.LpStatus.OPTIMAL
        assert out.optimal_value == reach


def test_boundary_adjust_assumption_violation():
    # distinct utility columns leave no payoff partners at all
    utility = idg.Matrix.from_rows([[1, 2, 3], [3, 1, 2]])
    problem = idg.DecisionProblem(
        ("s0", "s1", "s2"),
        ("a0", "a1"),
        utility,
        idg.vector(["1/3", "1/3", "1/3"]),
        idg.PriorPolytope.simplex(3),
    )
    with pytest.raises(idg.AssumptionViolation):
        idg.boundary_adjust(problem, problem.mu)


def test_implementing_structure_for_treated_action(example_problem):
    p = example_problem
    alpha = idg.MixedAction.pure(1, 2)
    structure, cert = idg.implementing_structure(p, alpha)
    assert idg.kernel_of(structure).dim == 1
    assert cert.verify(p, structure)
    mm = idg.maxmin(p, structure)
    assert mm.value == F(1, 8)
    wc1 = idg.worst_case(p, structure, alpha)[0]
    wc0 = idg.worst_case(p, structure, idg.MixedAction.pure(0, 2))[0]
    assert wc1 == F(1, 8)
    assert wc1 >= wc0


def test_implementing_structure_identity_when_mu_supports(example_problem):
    p = example_problem
    structure, cert = idg.implementing_structure(p, idg.MixedAction.pure(0, 2))
    assert structure.is_fully_informative
    assert cert.nu_star == p.mu
    assert cert.verify(p, structure)


def _dominated_problem():
    """Two states where action a1 is strictly dominated by a0."""
    utility = idg.Matrix.from_rows([[3, 5], [2, 4]])
    return idg.DecisionProblem(
        ("s0", "s1"), ("a0", "a1"), utility, idg.vector(["1/2", "1/2"]), idg.PriorPolytope.simplex(2)
    )


def test_implementing_structure_not_implementable():
    with pytest.raises(idg.NotImplementableError) as info:
        idg.implementing_structure(_dominated_problem(), idg.MixedAction.pure(1, 2))
    assert info.value.farkas is not None


def test_tampered_refutation_is_not_reported(monkeypatch):
    # the Farkas certificate is verified before NotImplementableError carries it out
    tamper_refutations(monkeypatch)
    with pytest.raises(AssertionError, match="infeasible outcome failed its own certificate check"):
        idg.implementing_structure(_dominated_problem(), idg.MixedAction.pure(1, 2))


def test_informativeness_order():
    identity = idg.InformationStructure.identity(4)
    single = idg.InformationStructure.single_message(4)
    assert idg.robustly_more_informative(identity, single) is InformativenessOrder.MORE
    assert idg.robustly_more_informative(single, identity) is InformativenessOrder.LESS
    assert idg.robustly_more_informative(identity, identity) is InformativenessOrder.EQUAL
    s1 = idg.Subspace.from_vectors(4, [idg.vector([1, -1, 0, 0])])
    s2 = idg.Subspace.from_vectors(4, [idg.vector([0, 0, 1, -1])])
    e1 = idg.kernel_to_experiment(idg.KernelSpec(s1))
    e2 = idg.kernel_to_experiment(idg.KernelSpec(s2))
    assert idg.robustly_more_informative(e1, e2) is InformativenessOrder.INCOMPARABLE


@st.composite
def zero_sum_kernel_pairs(draw):
    """The ambient dimension and two zero-sum kernels; one may extend the other's vectors.

    An extension spans at least what it extends (equal when the extra
    vectors lie in its span), so every verdict of the order is drawn.
    """
    n = draw(st.integers(2, 6))
    heads = st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)

    def vectors():
        return [(*head, -sum(head)) for head in draw(st.lists(heads, max_size=n - 1))]

    first, second = vectors(), vectors()
    nesting = draw(st.sampled_from(("none", "second extends first", "first extends second")))
    if nesting == "second extends first":
        second = first + second
    elif nesting == "first extends second":
        first = second + first
    return n, idg.Subspace.from_vectors(n, first), idg.Subspace.from_vectors(n, second)


@given(zero_sum_kernel_pairs())
def test_informativeness_order_matches_fraction_spans(case):
    n, k1, k2 = case
    # each structure is rebuilt from its matrix, so the order reads kernels recomputed by nullspace
    built = [idg.kernel_to_experiment(idg.KernelSpec(k)) for k in (k1, k2)]
    first, second = [idg.InformationStructure(s.messages, s.experiment) for s in built]
    first_in_second = fraction_spans(k2.basis, k1.basis, n)
    second_in_first = fraction_spans(k1.basis, k2.basis, n)
    expected = {
        (True, True): InformativenessOrder.EQUAL,
        (True, False): InformativenessOrder.MORE,
        (False, True): InformativenessOrder.LESS,
        (False, False): InformativenessOrder.INCOMPARABLE,
    }[first_in_second, second_in_first]
    assert idg.robustly_more_informative(first, second) is expected


def test_display_structure_more_informative_than_marginal():
    raw = raw_motivating_model()
    marg = idg.marginal_structure(raw, ["Y", "T"])
    sub = idg.Subspace.from_vectors(8, [display_direction()])
    display = idg.kernel_to_experiment(idg.KernelSpec(sub))
    assert idg.robustly_more_informative(display, marg) is InformativenessOrder.MORE
    # and it implements the treated action on the raw eight-state problem
    problem = raw_motivating_problem()
    cert = idg.maxmin(problem, display)
    assert cert.alpha_star.weights == (F(0), F(1))
    assert cert.value == F(1, 8)
    assert idg.worst_case(problem, display, idg.MixedAction.pure(0, 2))[0] == F(1, 16)


def test_known_worst_case_sits_on_display_segment():
    problem = raw_motivating_problem()
    nu = known_worst_case_raw()
    d = display_direction()
    lam = F("-0.05")
    assert nu == tuple(m + lam * v for m, v in zip(problem.mu, d))


def test_maximality_examples(example_problem, example_marginal_yt):
    p = example_problem
    identity = idg.InformationStructure.identity(p.n_states)
    assert idg.is_maximally_informative(p, identity, idg.MixedAction.pure(0, 2))
    assert not idg.is_maximally_informative(p, example_marginal_yt, idg.MixedAction.pure(1, 2))
    structure, _ = idg.implementing_structure(p, idg.MixedAction.pure(1, 2))
    assert idg.is_maximally_informative(p, structure, idg.MixedAction.pure(1, 2))


def test_maximality_requires_implementation(example_problem):
    p = example_problem
    identity = idg.InformationStructure.identity(p.n_states)
    with pytest.raises(idg.NotImplementingError):
        idg.is_maximally_informative(p, identity, idg.MixedAction.pure(1, 2))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda p: idg.kernel_to_experiment(idg.KernelSpec(idg.Subspace.zero(0))),
                     idg.DimensionMismatch, "ambient dimension must be at least one",
                     id="empty-kernel-space"),
        pytest.param(lambda p: idg.extremal_reach(p, p.mu), ValueError,
                     "reach undefined for nu equal to mu", id="reach-at-mu"),
        pytest.param(lambda p: idg.boundary_adjust(p, p.mu[1:]), idg.DimensionMismatch,
                     "prior length does not match the problem", id="adjust-length"),
        pytest.param(lambda p: idg.boundary_adjust(p, (F(1),) + (F(0),) * (p.n_states - 1)),
                     ValueError, "boundary adjustment requires a member of the prior set",
                     id="adjust-outside"),
        pytest.param(lambda p: idg.robustly_more_informative(
                         idg.InformationStructure.identity(2), idg.InformationStructure.identity(3)),
                     idg.DimensionMismatch, "structures live on different state spaces",
                     id="order-states"),
    ],
)
def test_design_refuses_inconsistent_inputs(example_problem, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(example_problem)
