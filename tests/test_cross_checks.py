"""Cross-formulation oracles.

The solver minimizes over an identified set in closed form when the kernel
has dimension at most one and with one state-space program otherwise. The
oracles recompute the same quantities by other formulations: the worst case
from the identified set's H-representation with an explicit simplex row,
and both the worst case and the maxmin value in kernel coordinates
nu = mu + D lambda, where the outer maxmin program dualizes the inner
minimization. Results must agree exactly. The file also checks that
constructed implementing experiments are maximal in the informativeness
order.
"""

import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import lp

from support import (
    paired_problem,
    rand_distribution,
    random_mixed,
    random_treatment_model,
    random_zero_sum_subspace,
)


def _direct_worst_case(problem, structure, alpha):
    """Minimize the action's payoff over the identified set in state space."""
    iset = idg.identified_set(problem, structure)
    eq_rows, eq_rhs = iset.equality_rows()
    ub_rows, ub_rhs = iset.inequality_rows()
    n = problem.n_states
    program = lp.LinearProgram(
        objective=problem.mixed_utility(alpha),
        sense="min",
        eq_matrix=((F(1),) * n,) + eq_rows,
        eq_rhs=(F(1),) + eq_rhs,
        ub_matrix=ub_rows,
        ub_rhs=ub_rhs,
    )
    out = lp.solve_lp(program)
    assert out.status is lp.LpStatus.OPTIMAL
    assert lp.verify_outcome(program, out)
    return out.optimal_value


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def _kernel_region(problem, structure):
    """The lambda region of {mu + D lambda in the prior set} on a kernel basis D.

    Equality rows have zero right-hand side because mu meets the prior
    set's equalities; the <= rows are the polytope's rows followed by the
    state nonnegativity rows.
    """
    basis = idg.kernel_of(structure).basis
    mu = problem.mu
    priors = problem.priors
    eq_rows = tuple(tuple(_dot(row, d) for d in basis) for row in priors.eq_matrix)
    ub_rows = [tuple(_dot(row, d) for d in basis) for row in priors.ub_matrix]
    ub_rhs = [b - _dot(row, mu) for row, b in zip(priors.ub_matrix, priors.ub_rhs)]
    for s in range(problem.n_states):
        ub_rows.append(tuple(-d[s] for d in basis))
        ub_rhs.append(mu[s])
    return basis, eq_rows, tuple(ub_rows), tuple(ub_rhs)


def _kernel_worst_case(problem, structure, alpha):
    """Minimize the action's payoff over the free kernel coordinates lambda."""
    u = problem.mixed_utility(alpha)
    base = _dot(u, problem.mu)
    basis, eq_rows, ub_rows, ub_rhs = _kernel_region(problem, structure)
    if not basis:
        return base
    program = lp.LinearProgram(
        objective=tuple(_dot(u, d) for d in basis),
        sense="min",
        eq_matrix=eq_rows,
        eq_rhs=(F(0),) * len(eq_rows),
        ub_matrix=ub_rows,
        ub_rhs=ub_rhs,
        lower_bounds=(None,) * len(basis),
    )
    out = lp.solve_lp(program)
    assert out.status is lp.LpStatus.OPTIMAL
    assert lp.verify_outcome(program, out)
    return base + out.optimal_value


def _kernel_maxmin_value(problem, structure):
    """The maxmin value from one program over action weights and inner duals.

    The inner minimization over lambda is dualized. With E and U the
    region's equality and <= rows, b the <= right-hand sides, y free and
    v >= 0: maximize sum_a alpha_a (u_a . mu) - v . b subject to
    -sum_a alpha_a (u_a . d_i) + E[:, i] . y - U[:, i] . v = 0 for each
    kernel direction d_i, and sum alpha = 1.
    """
    n_actions = problem.n_actions
    means = [_dot(problem.utility_row(a), problem.mu) for a in range(n_actions)]
    basis, eq_rows, ub_rows, ub_rhs = _kernel_region(problem, structure)
    if not basis:
        return max(means)
    slopes = [[_dot(problem.utility_row(a), d) for d in basis] for a in range(n_actions)]
    n_eq, n_ub = len(eq_rows), len(ub_rows)
    eq_matrix = []
    for i in range(len(basis)):
        row = [-slopes[a][i] for a in range(n_actions)]
        row += [eq_rows[r][i] for r in range(n_eq)]
        row += [-ub_rows[r][i] for r in range(n_ub)]
        eq_matrix.append(tuple(row))
    eq_matrix.append((F(1),) * n_actions + (F(0),) * (n_eq + n_ub))
    program = lp.LinearProgram(
        objective=tuple(means) + (F(0),) * n_eq + tuple(-b for b in ub_rhs),
        sense="max",
        eq_matrix=tuple(eq_matrix),
        eq_rhs=(F(0),) * len(basis) + (F(1),),
        lower_bounds=(F(0),) * n_actions + (None,) * n_eq + (F(0),) * n_ub,
    )
    out = lp.solve_lp(program)
    assert out.status is lp.LpStatus.OPTIMAL
    assert lp.verify_outcome(program, out)
    return out.optimal_value


def _assert_matches_kernel_oracle(problem, structure):
    """maxmin and every pure worst case equal the kernel-coordinate oracle."""
    certificate = idg.maxmin(problem, structure)
    assert certificate.verify(problem, structure)
    assert certificate.value == _kernel_maxmin_value(problem, structure)
    for a in range(problem.n_actions):
        alpha = idg.MixedAction.pure(a, problem.n_actions)
        value, minimizer = idg.worst_case(problem, structure, alpha)
        assert value == _kernel_worst_case(problem, structure, alpha)
        assert idg.identified_set(problem, structure).contains(minimizer)
        assert idg.payoff(alpha, minimizer, problem) == value
        assert value <= certificate.value
    return certificate


def test_worst_case_matches_direct_formulation():
    rng = random.Random(61)
    for seed in range(25):
        problem, r = paired_problem(f"cross-{seed}")
        n = problem.n_states
        k = rng.randint(0, n - 1)
        sub = random_zero_sum_subspace(rng, n, k)
        structure, _ = idg.kernel_to_experiment(idg.KernelSpec(sub))
        alpha = random_mixed(r, problem.n_actions)
        value, minimizer = idg.worst_case(problem, structure, alpha)
        assert idg.identified_set(problem, structure).contains(minimizer)
        assert idg.payoff(alpha, minimizer, problem) == value
        assert value == _direct_worst_case(problem, structure, alpha)


def test_worst_case_matches_direct_formulation_on_marginals():
    for seed in range(6):
        model = random_treatment_model(f"cross-marg-{seed}")
        problem = idg.build_treatment_problem(model)
        structure = idg.marginal_structure(model, ["Y"])
        for a in range(problem.n_actions):
            alpha = idg.MixedAction.pure(a, problem.n_actions)
            value, _ = idg.worst_case(problem, structure, alpha)
            assert value == _direct_worst_case(problem, structure, alpha)


def test_maxmin_matches_kernel_oracle_on_paired_problems():
    dims = set()
    for seed in range(12):
        problem, r = paired_problem(f"oracle-{seed}")
        n = problem.n_states
        for k in range(n):
            sub = random_zero_sum_subspace(r, n, k)
            structure, _ = idg.kernel_to_experiment(idg.KernelSpec(sub))
            _assert_matches_kernel_oracle(problem, structure)
            dims.add(k)
    assert dims == set(range(8))


def test_maxmin_matches_kernel_oracle_on_marginals():
    for seed in range(4):
        model = random_treatment_model(f"oracle-marg-{seed}")
        problem = idg.build_treatment_problem(model)
        for variable in ("Y", "X1", "T"):
            structure = idg.marginal_structure(model, [variable])
            _assert_matches_kernel_oracle(problem, structure)


@st.composite
def segment_games(draw):
    """A decision problem and an experiment whose kernel is one direction d.

    An optional <= row through mu (zero slack puts mu on its boundary) and
    an optional equality row through mu exercise endpoints at zero and
    segments that collapse to mu.
    """
    n = draw(st.integers(2, 6))
    n_actions = draw(st.integers(1, 4))
    small = st.integers(-4, 4)
    utility = idg.Matrix.from_rows(
        [[draw(small) for _ in range(n)] for _ in range(n_actions)]
    )
    r = random.Random(draw(st.integers(0, 2**32)))
    mu = rand_distribution(r, n)
    raw = [F(draw(small)) for _ in range(n)]
    d = tuple(x - sum(raw) / n for x in raw)
    if not any(d):
        d = (F(1), F(-1)) + (F(0),) * (n - 2)
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    if draw(st.booleans()):
        row = tuple(F(draw(small)) for _ in range(n))
        ub_rows.append(row)
        ub_rhs.append(_dot(row, mu) + F(draw(st.integers(0, 2)), 2))
    if draw(st.integers(0, 3)) == 0:
        row = tuple(F(draw(small)) for _ in range(n))
        eq_rows.append(row)
        eq_rhs.append(_dot(row, mu))
    priors = idg.PriorPolytope(
        n,
        eq_matrix=tuple(eq_rows),
        eq_rhs=tuple(eq_rhs),
        ub_matrix=tuple(ub_rows),
        ub_rhs=tuple(ub_rhs),
        known_member=mu,
    )
    problem = idg.DecisionProblem(
        tuple(f"s{i}" for i in range(n)),
        tuple(f"a{i}" for i in range(n_actions)),
        utility,
        mu,
        priors,
    )
    structure, _ = idg.kernel_to_experiment(idg.KernelSpec(idg.Subspace.from_vectors(n, [d])))
    return problem, structure


@given(segment_games())
def test_segment_saddle_matches_kernel_oracle(game):
    problem, structure = game
    assert idg.kernel_of(structure).dim == 1
    certificate = _assert_matches_kernel_oracle(problem, structure)
    weights = certificate.alpha_star.weights
    assert len(weights) == problem.n_actions
    assert all(w >= 0 for w in weights) and sum(weights) == 1


def test_constructed_structures_are_maximally_informative():
    checked = 0
    for seed in range(40):
        problem, r = paired_problem(f"maximal-{seed}")
        alpha = (
            idg.MixedAction.pure(r.randrange(problem.n_actions), problem.n_actions)
            if seed % 2
            else random_mixed(r, problem.n_actions)
        )
        try:
            structure, _cert = idg.implementing_structure(problem, alpha)
        except idg.NotImplementableError:
            continue
        assert idg.is_maximally_informative(problem, structure, alpha)
        checked += 1
    assert checked >= 10


def test_implemented_treatments_are_maximally_informative():
    for seed in range(5):
        model = random_treatment_model(f"maximal-treat-{seed}")
        problem = idg.build_treatment_problem(model)
        r = random.Random(f"maximal-treat-mix-{seed}")
        actions = [idg.MixedAction.pure(0, model.n_treatments), random_mixed(r, model.n_treatments)]
        for alpha in actions:
            structure, _ = idg.implement_treatment(model, alpha, problem)
            assert idg.is_maximally_informative(problem, structure, alpha)
