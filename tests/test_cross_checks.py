"""Cross-formulation oracles.

The solver minimizes over an identified set in closed form when the kernel
has dimension at most one and with one state-space program otherwise. The
oracles recompute the same quantities by other formulations: the worst case
from the identified set's H-representation with an explicit simplex row,
and both the worst case and the maxmin value in kernel coordinates
nu = mu + D lambda, where the outer maxmin program dualizes the inner
minimization. Results must agree exactly. The file also checks that
constructed implementing experiments are maximal in the informativeness
order, and compares the maximality decision with a program over the
kernel coordinate of a one-direction kernel.

``lp.solve_lp`` pivots on a tableau of integer rows, each over one row
denominator. The oracle is the earlier simplex over a tableau of Fractions,
with the same column layout and the same Bland's rule. It builds its own
Fraction standard form and dual mapping from the ``LinearProgram`` fields,
so it shares no code with the integer path: outcomes and certificates must
be ``==``.

``nullspace`` reads its canonical basis off one column-reversed
elimination. Two oracles recompute it: the earlier two-pass routine (kernel
vectors from a forward elimination, then a second elimination into
canonical form) and, where installed, sympy's exact ``nullspace`` and
``rref``, which share no code with infodesign.

The treatment state layout, states ordered by (outcome, covariates,
treatment), lives in ``TreatmentModel`` and its enumeration. The oracles are
the earlier constructions that re-derived it by hand: labels from covariate
cells, utility rows one treatment at a time, an observed-share loop, a
per-state components dict for marginals, index arithmetic for the signal
extension and label splitting for the example's display. Labels, problems,
marginal structures, extensions and errors must be ``==``. The researcher's
pick is compared with the earlier scan that tested every action for a
supporting prior first.

``dot``, the probability-vector check behind every ``InformationStructure``
column and ``kernel_to_experiment`` compute on integers over one common
denominator. Their oracles are the earlier Fraction bodies: a running
Fraction sum, ``all(v >= 0) and sum == 1``, and the construction from the
Fraction shifts x_i and normalizer lam. Values, decisions and whole
structures (messages and matrix) must be ``==``. The paper's two-sided
construction, with 2(n - k) messages x_i + w_i and y_i - w_i, is kept as a
second oracle that must have the same kernel.

``lp.verify_outcome`` tests stationarity on integers, one compiled row at a
time, and computes its other sums of products with ``dot``; and
``Subspace.contains_vector`` and ``subspace_contains`` decide membership by
the pivot count of one integer elimination. Their oracles are the earlier
loops, which share no code with ``lp``: per-column Fraction sums for
stationarity and the bound value, per-row Fraction sums for an optimum's
point and a ray's base point and direction, and subtracting each basis row
at its pivot. Decisions must be ``==``, on untouched and tampered
certificates and rays and on vectors inside and outside a span; a float
anywhere the check reads must raise the same TypeError in both.

A problem's fixed rows are compiled once into sparse integer rows, which
only ``model`` reads: ``PriorPolytope.contains``, ``DecisionProblem.segment``,
``best_responses``, payoffs, ``DecisionProblem.pure_payoffs`` and
``mixed_utility``, and through them the k <= 1 closed form of ``maxmin``
and ``worst_case``. Their oracles are the earlier dense bodies:
``lp._point_feasible`` on the feasibility program, the segment's cuts as
Fractions, ``dot`` over each utility row, weighted Fraction rows, and the
closed form over dense dot products of each row.
Decisions, segments (or the error raised), values and saddle points must be
``==``, on members, near misses and points off the simplex.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import lp, solver
from infodesign.model import _is_distribution
from infodesign.numerics import dot, rref, sparse_dot

from support import (
    identified_set_rows,
    paired_problem,
    rand_distribution,
    random_mixed,
    random_program,
    random_treatment_model,
    random_zero_sum_subspace,
    rational_programs,
    raw_motivating_model,
)


def _direct_worst_case(problem, structure, alpha):
    """Minimize the action's payoff over the identified set in state space."""
    eq_rows, eq_rhs, ub_rows, ub_rhs = identified_set_rows(problem, structure)
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
    """The Fraction dot product: one Fraction addition per nonzero product."""
    total = F(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


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
        structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
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
            structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
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
    structure = idg.kernel_to_experiment(idg.KernelSpec(idg.Subspace.from_vectors(n, [d])))
    return problem, structure


@given(segment_games())
def test_segment_saddle_matches_kernel_oracle(game):
    problem, structure = game
    assert idg.kernel_of(structure).dim == 1
    certificate = _assert_matches_kernel_oracle(problem, structure)
    weights = certificate.alpha_star.weights
    assert len(weights) == problem.n_actions
    assert all(w >= 0 for w in weights) and sum(weights) == 1


def _dense_segment_saddle(problem, kernel, rows):
    """The earlier closed form: each line's mean and slope are dense dot products of its row."""
    d = kernel.basis[0] if kernel.dim else (F(0),) * problem.n_states
    lo, hi = _fraction_segment(problem, d)
    n_actions = len(rows)
    means = [_dot(row, problem.mu) for row in rows]
    slopes = [_dot(row, d) for row in rows]

    def envelope(lam):
        return max(m + c * lam for m, c in zip(means, slopes))

    candidates = {lo, hi}
    for a in range(n_actions):
        for b in range(a):
            if slopes[a] != slopes[b]:
                lam = (means[b] - means[a]) / (slopes[a] - slopes[b])
                if lo < lam < hi:
                    candidates.add(lam)
    value, lam = min((envelope(lam), lam) for lam in candidates)

    def stays_above(slope):
        return (slope >= 0 or lam == hi) and (slope <= 0 or lam == lo)

    active = [a for a in range(n_actions) if means[a] + slopes[a] * lam == value]
    weights = [F(0)] * n_actions
    pick = next((a for a in active if stays_above(slopes[a])), None)
    if pick is not None:
        weights[pick] = F(1)
    else:
        up = max(active, key=lambda a: slopes[a])
        down = min(active, key=lambda a: slopes[a])
        weights[up] = slopes[down] / (slopes[down] - slopes[up])
        weights[down] = 1 - weights[up]
    nu = tuple(m + lam * v if v else m for m, v in zip(problem.mu, d))
    return tuple(weights), nu, value


@given(segment_games(), st.integers(0, 2**32))
def test_segment_saddle_matches_dense_rows(game, seed):
    """maxmin and worst_case at k <= 1, from compiled rows, against the dense closed form."""
    problem, structure = game
    n_actions = problem.n_actions
    rows = [problem.utility_row(a) for a in range(n_actions)]
    r = random.Random(seed)
    alphas = [idg.MixedAction.pure(a, n_actions) for a in range(n_actions)]
    alphas += [idg.MixedAction(rand_distribution(r, n_actions)) for _ in range(2)]
    for s in (structure, idg.InformationStructure.identity(problem.n_states)):
        kernel = idg.kernel_of(s)
        weights, nu, value = _dense_segment_saddle(problem, kernel, rows)
        assert idg.maxmin(problem, s) == solver.SaddleCertificate(idg.MixedAction(weights), nu, value)
        for alpha in alphas:
            mixed_row = _fraction_mixed_utility(problem, alpha)
            _, nu, value = _dense_segment_saddle(problem, kernel, (mixed_row,))
            assert idg.worst_case(problem, s, alpha) == (value, nu)


def _lambda_maximality_oracle(problem, d, alpha):
    """Whether some mu + lam d with lam != 0 supports alpha at no gain over mu.

    One program over lam alone: the prior set's rows along d, alpha a best
    response at mu + lam d, and alpha's payoff there at most its payoff at
    mu. It is solved for max lam and min lam; the structure is maximal when
    the program is feasible and admits more than lam = 0.
    """
    mu = problem.mu
    priors = problem.priors
    u = problem.mixed_utility(alpha)
    cuts = [(_dot(row, d), b - _dot(row, mu)) for row, b in zip(priors.ub_matrix, priors.ub_rhs)]
    cuts += [(-ds, ms) for ds, ms in zip(d, mu)]
    for a in range(problem.n_actions):
        gap = tuple(x - y for x, y in zip(problem.utility_row(a), u))
        cuts.append((_dot(gap, d), -_dot(gap, mu)))
    cuts.append((_dot(u, d), F(0)))
    eq_rows = tuple((_dot(row, d),) for row in priors.eq_matrix)
    ends = []
    for sense in ("max", "min"):
        program = lp.LinearProgram(
            objective=(F(1),),
            sense=sense,
            eq_matrix=eq_rows,
            eq_rhs=(F(0),) * len(eq_rows),
            ub_matrix=tuple((c,) for c, _ in cuts),
            ub_rhs=tuple(b for _, b in cuts),
            lower_bounds=(None,),
        )
        out = lp.solve_lp(program)
        assert lp.verify_outcome(program, out)
        if out.status is lp.LpStatus.INFEASIBLE:
            return False
        assert out.status is lp.LpStatus.OPTIMAL
        ends.append(out.optimal_value)
    return ends != [F(0), F(0)]


@given(segment_games())
def test_maximality_matches_lambda_oracle(game):
    """is_maximally_informative against the lambda program, on every implemented action.

    When mu itself supports alpha the identity implements alpha and is
    strictly more informative than a one-direction kernel, so the expected
    answer is False without the program.
    """
    problem, structure = game
    (d,) = idg.kernel_of(structure).basis
    mu = problem.mu
    certificate = idg.maxmin(problem, structure)
    pures = [idg.MixedAction.pure(a, problem.n_actions) for a in range(problem.n_actions)]
    for alpha in [certificate.alpha_star] + pures:
        if idg.worst_case(problem, structure, alpha)[0] != certificate.value:
            continue
        u = problem.mixed_utility(alpha)
        best_at_mu = max(_dot(problem.utility_row(a), mu) for a in range(problem.n_actions))
        mu_supports = _dot(u, mu) == best_at_mu
        expected = not mu_supports and _lambda_maximality_oracle(problem, d, alpha)
        assert idg.is_maximally_informative(problem, structure, alpha) == expected


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


def _two_pass_nullspace(m):
    """Kernel vectors of a forward elimination, put in canonical form by a second one."""
    rows, pivots = rref(m.entries, m.cols)
    raw = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            if rows[i][f]:
                v[p] = -rows[i][f]
        raw.append(v)
    return idg.Subspace.from_vectors(m.cols, raw)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_nullspace(sympy, m):
    """sympy's kernel basis, stacked as rows and reduced by sympy's rref, as a tuple of rows."""
    cells = [sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row]
    kernel = sympy.Matrix(m.rows, m.cols, cells).nullspace()
    if not kernel:
        return ()
    reduced, _ = sympy.Matrix.hstack(*kernel).T.rref()
    return tuple(
        tuple(F(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(reduced.rows)
    )


@st.composite
def rational_matrices(draw):
    """0-8 rows over 1-10 columns, with zero columns, zero rows and dependent rows."""
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.integers(1, 10))
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5)))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols))
    rows = []
    for i in range(n_rows):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "zero":
            row = [F(0)] * n_cols
        elif kind == "combination" and i >= 1:
            a, b = draw(entry), draw(entry)
            first, second = rows[draw(st.integers(0, i - 1))], rows[draw(st.integers(0, i - 1))]
            row = [a * x + b * y for x, y in zip(first, second)]
        else:
            row = [F(0) if c in zero_cols else draw(entry) for c in range(n_cols)]
        rows.append(tuple(row))
    return idg.Matrix(n_rows, n_cols, tuple(rows))


@given(rational_matrices())
def test_nullspace_matches_two_pass_routine(m):
    kernel = idg.nullspace(m)
    assert kernel == _two_pass_nullspace(m)
    assert idg.rank(m) + kernel.dim == m.cols
    assert all(not any(m.matvec(v)) for v in kernel.basis)


@given(rational_matrices())
def test_nullspace_is_a_fixed_point_of_the_constructor(m):
    # nullspace stores its basis without reducing it again; reducing it changes nothing
    kernel = idg.nullspace(m)
    assert idg.Subspace(m.cols, kernel.basis) == kernel


@given(rational_matrices())
def test_nullspace_matches_sympy(sympy, m):
    assert idg.nullspace(m).basis == _sympy_nullspace(sympy, m)


@given(rational_matrices())
def test_orthogonal_complement_round_trip(m):
    s = idg.Subspace.from_vectors(m.cols, m.entries)
    complement = idg.orthogonal_complement(s)
    assert s.dim + complement.dim == m.cols
    assert all(_dot(w, v) == 0 for w in complement.basis for v in s.basis)
    assert idg.orthogonal_complement(complement) == s


def _fraction_pivot(table, z, basis, r, c):
    prow = table[r]
    head = prow[c]
    if head != 1:
        prow = [x / head if x else x for x in prow]
        table[r] = prow
    for i in range(len(table)):
        if i == r:
            continue
        f = table[i][c]
        if f:
            table[i] = [a - f * b if b else a for a, b in zip(table[i], prow)]
    f = z[c]
    if f:
        z[:] = [a - f * b if b else a for a, b in zip(z, prow)]
    basis[r] = c


def _fraction_run(table, z, basis, n_allowed):
    """Bland's rule: lowest eligible column enters, ratio ties leave by lowest basic index."""
    while True:
        enter = next((j for j in range(n_allowed) if z[j] < 0), None)
        if enter is None:
            return "optimal", None
        leave = None
        best = None
        for i, row in enumerate(table):
            t = row[enter]
            if t > 0:
                ratio = row[-1] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded", enter
        _fraction_pivot(table, z, basis, leave, enter)


class _FractionStandard:
    """The standard form over Fractions, read from the program's fields alone.

    Columns: one per bounded variable (shifted by its lower bound), a +/-
    pair per free variable, then one slack per <= row. Rows: equalities
    first, then <= rows; a row whose shifted rhs is negative is negated.
    """

    def __init__(self, program):
        self.program = program
        n = len(program.objective)
        bounds = self.bounds = program.lower_bounds or (F(0),) * n
        self.var_cols = []
        n_base = 0
        for lb in bounds:
            self.var_cols.append(n_base)
            n_base += 2 if lb is None else 1
        self.n_base = n_base
        self.n_struct = n_base + len(program.ub_matrix)
        objective = program.objective
        if program.sense == "max":
            objective = [-c for c in objective]
        self.cost = self.expand(objective)[0]
        self.rows, self.rhs, self.signs = [], [], []
        n_eq = len(program.eq_matrix)
        for i, (coeffs, b) in enumerate(
            zip(program.eq_matrix + program.ub_matrix, program.eq_rhs + program.ub_rhs)
        ):
            row, shift = self.expand(coeffs)
            if i >= n_eq:
                row[n_base + i - n_eq] = F(1)
            r = b - shift
            sign = -1 if r < 0 else 1
            self.rows.append([sign * x for x in row])
            self.rhs.append(sign * r)
            self.signs.append(sign)

    def expand(self, coeffs):
        """A row over the structural columns, and the shift sum_j a_j lb_j it takes."""
        out = [F(0)] * self.n_struct
        shift = F(0)
        for a, lb, col in zip(coeffs, self.bounds, self.var_cols):
            out[col] = F(a)
            if lb is None:
                out[col + 1] = -F(a)
            else:
                shift += a * lb
        return out, shift

    def point_from(self, by_col, shift=True):
        out = []
        for lb, col in zip(self.bounds, self.var_cols):
            x = by_col.get(col, F(0))
            if lb is None:
                x -= by_col.get(col + 1, F(0))
            elif shift:
                x += lb
            out.append(x)
        return tuple(out)

    def duals(self, y, z):
        """Row duals y and reduced costs z as the program's (eq, ub, lb) multipliers."""
        signed = [v * sign for v, sign in zip(y, self.signs)]
        n_eq = len(self.program.eq_matrix)
        lb = tuple(F(0) if b is None else z[col] for b, col in zip(self.bounds, self.var_cols))
        return tuple(signed[:n_eq]), tuple(signed[n_eq:]), lb


def _fraction_simplex(program):
    """The two-phase simplex over a tableau of Fractions."""
    std = _FractionStandard(program)
    m = len(std.rows)
    n_struct = std.n_struct
    table = []
    for i in range(m):
        row = std.rows[i] + [F(0)] * m + [std.rhs[i]]
        row[n_struct + i] = F(1)
        table.append(row)
    basis = [n_struct + i for i in range(m)]

    z = [F(0)] * n_struct + [F(1)] * m + [F(0)]
    for row in table:
        z = [a - b if b else a for a, b in zip(z, row)]
    status, _ = _fraction_run(table, z, basis, n_struct)
    assert status == "optimal"
    if -z[-1] > 0:
        y = [1 - z[n_struct + i] for i in range(m)]
        return lp.LpOutcome(
            status=lp.LpStatus.INFEASIBLE, certificate=lp.FarkasCertificate(*std.duals(y, z))
        )
    for r in range(m):
        if basis[r] >= n_struct:
            col = next((j for j in range(n_struct) if table[r][j]), None)
            if col is not None:
                _fraction_pivot(table, z, basis, r, col)

    z = std.cost + [F(0)] * (m + 1)
    for i, row in enumerate(table):
        if basis[i] < n_struct:
            cb = std.cost[basis[i]]
            if cb:
                z = [a - cb * b if b else a for a, b in zip(z, row)]
    status, enter = _fraction_run(table, z, basis, n_struct)
    z_by_col = {basis[i]: table[i][-1] for i in range(m)}
    if status == "unbounded":
        d_by_col = {enter: F(1)}
        for i in range(m):
            if table[i][enter]:
                d_by_col[basis[i]] = -table[i][enter]
        ray = lp.ImprovingRay(
            direction=std.point_from(d_by_col, shift=False),
            base_point=std.point_from(z_by_col),
        )
        return lp.LpOutcome(status=lp.LpStatus.UNBOUNDED, certificate=ray)
    point = std.point_from(z_by_col)
    y = [-z[n_struct + i] for i in range(m)]
    duals = std.duals(y, z)
    if program.sense == "max":
        duals = tuple(tuple(-v for v in part) for part in duals)
    return lp.LpOutcome(
        status=lp.LpStatus.OPTIMAL,
        optimal_point=point,
        optimal_value=sum((c * x for c, x in zip(program.objective, point)), F(0)),
        certificate=lp.DualCertificate(*duals),
    )


def test_simplex_matches_fraction_oracle_on_seeded_programs():
    rng = random.Random("fraction-oracle")
    counts = {status: 0 for status in lp.LpStatus}
    for _ in range(3000):
        program = random_program(rng)
        outcome = lp.solve_lp(program)
        assert outcome == _fraction_simplex(program)
        counts[outcome.status] += 1
    assert all(count >= 500 for count in counts.values()), counts


@given(rational_programs())
def test_simplex_matches_fraction_oracle(program):
    assert lp.solve_lp(program) == _fraction_simplex(program)


def _dense_program(rng, n):
    """A dense min program over n variables with rational data, feasible and bounded.

    Every variable is nonnegative or shifted, and the rows hold at a known
    point: equalities exactly, inequalities with slack, and one row caps the
    sum of the variables.
    """

    def entry():
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    point = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
    lower = [rng.choice([F(0), F(0), min(x, F(rng.randint(-2, 0)))]) for x in point]
    eq = [tuple(entry() for _ in range(n)) for _ in range(4)]
    ub = [tuple(entry() for _ in range(n)) for _ in range(7)] + [(F(1),) * n]
    return lp.LinearProgram(
        objective=tuple(entry() for _ in range(n)),
        eq_matrix=tuple(eq),
        eq_rhs=tuple(_dot(row, point) for row in eq),
        ub_matrix=tuple(ub),
        ub_rhs=tuple(_dot(row, point) + F(rng.randint(0, 3), 2) for row in ub),
        lower_bounds=tuple(lower),
    )


def test_simplex_matches_fraction_oracle_on_wide_programs():
    # the supporting-prior programs of treatment models are sparse and 20-40
    # columns wide, the shape of the benchmark's tableaux. Every treatment is
    # implementable, so each pure action's program is also asked for a payoff
    # 1 below mu's, which no prior meets (payoffs lie in [0, 1]). One dense
    # program has 24 variables.
    rng = random.Random("wide-programs")
    programs = []
    for seed in range(30):
        problem = idg.build_treatment_problem(random_treatment_model(seed))
        if 20 <= problem.n_states <= 40:
            actions = [idg.MixedAction.pure(a, problem.n_actions) for a in range(problem.n_actions)]
            for alpha in actions + [random_mixed(rng, problem.n_actions)]:
                programs.append(solver.supporting_prior_program(problem, alpha))
            for program in programs[-len(actions) - 1 : -1]:
                lowered = program.ub_rhs[:-1] + (program.ub_rhs[-1] - 1,)
                programs.append(replace(program, ub_rhs=lowered))
    programs.append(_dense_program(rng, 24))
    statuses = set()
    for program in programs:
        outcome = lp.solve_lp(program)
        assert outcome == _fraction_simplex(program)
        statuses.add(outcome.status)
    assert len(programs) >= 20 and statuses == {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE}
    assert outcome.status is lp.LpStatus.OPTIMAL  # the dense program


def _oracle_labels(model):
    cells = tuple(itertools.product(*model.covariate_domains))
    return tuple(
        "(" + ",".join([str(model.outcomes[y]), *cells[cell], model.treatments[t]]) + ")"
        for y, cell, t in model.iter_states()
    )


def _oracle_ignores(model, j):
    """Whether every two cells that differ in covariate j only have equal assignment rows."""
    cells = list(itertools.product(*(range(len(d)) for d in model.covariate_domains)))
    for a, b in itertools.combinations(range(len(cells)), 2):
        differ = [k for k, (u, v) in enumerate(zip(cells[a], cells[b])) if u != v]
        if differ == [j] and model.assignment.row(a) != model.assignment.row(b):
            return False
    return True


def _oracle_problem(model):
    """Interior support, observed shares, an ignored covariate, then the rows."""
    n = model.n_states
    for c in range(model.n_cells):
        for t in range(model.n_treatments):
            p = model.assignment.entries[c][t]
            if not 0 < p < 1:
                raise idg.InteriorSupportViolation(
                    f"assignment probability {p} for cell {c}, treatment {t} "
                    "must lie strictly between 0 and 1"
                )
    for c in range(model.n_cells):
        mass = model.cell_mass(c)
        for t in range(model.n_treatments):
            observed = sum(model.mu[model.state_index(y, c, t)] for y in range(model.n_outcomes))
            if observed != model.assignment.entries[c][t] * mass:
                raise idg.AssignmentMismatch(
                    f"observed treatment share in cell {c} contradicts the assignment row"
                )
    if not any(_oracle_ignores(model, j) for j in range(len(model.covariate_domains))):
        raise idg.NoIrrelevantCovariate(
            "assignment depends on every covariate; add an independent signal "
            "covariate (see add_irrelevant_signal) to restore payoff redundancy"
        )
    utility = []
    for a in range(model.n_treatments):
        row = [F(0)] * n
        for y, cell, t in model.iter_states():
            if t == a and model.outcomes[y]:
                row[model.state_index(y, cell, t)] = (
                    model.outcomes[y] / model.assignment.entries[cell][t]
                )
        utility.append(tuple(row))
    eq_rows = []
    for c in range(model.n_cells):
        for t in range(model.n_treatments):
            p = model.assignment.entries[c][t]
            row = [F(0)] * n
            for y in range(model.n_outcomes):
                for tau in range(model.n_treatments):
                    row[model.state_index(y, c, tau)] = (1 if tau == t else 0) - p
            eq_rows.append(tuple(row))
    priors = idg.PriorPolytope(
        n, eq_matrix=tuple(eq_rows), eq_rhs=(F(0),) * len(eq_rows), known_member=model.mu
    )
    utility = idg.Matrix(model.n_treatments, n, tuple(utility))
    return idg.DecisionProblem(_oracle_labels(model), model.treatments, utility, model.mu, priors)


def _variables(model):
    """Each observable variable with its value labels, in the order Y, X1..Xl, T."""
    out = {"Y": tuple(str(y) for y in model.outcomes)}
    for j, domain in enumerate(model.covariate_domains):
        out[f"X{j + 1}"] = domain
    out["T"] = model.treatments
    return out


def _oracle_marginal(model, chosen):
    """Message labels and matrix rows of a marginal, read off a components dict per state."""
    domains = _variables(model)
    message_values = tuple(itertools.product(*(range(len(domains[v])) for v in chosen)))
    message_index = {vals: i for i, vals in enumerate(message_values)}
    labels = tuple(
        ",".join(domains[v][val] for v, val in zip(chosen, vals)) for vals in message_values
    )
    cells = tuple(itertools.product(*(range(len(d)) for d in model.covariate_domains)))
    rows = [[F(0)] * model.n_states for _ in message_values]
    for y, cell, t in model.iter_states():
        components = {"Y": y, "T": t}
        for j, val in enumerate(cells[cell]):
            components[f"X{j + 1}"] = val
        key = tuple(components[v] for v in chosen)
        rows[message_index[key]][model.state_index(y, cell, t)] = F(1)
    return labels, idg.Matrix(len(rows), model.n_states, tuple(tuple(r) for r in rows))


def _oracle_extension(model, labels):
    """The signal extension, placing mu by index arithmetic."""
    n_sig = len(labels)
    rows = []
    for c in range(model.n_cells):
        rows += [model.assignment.row(c)] * n_sig
    n_treat = model.n_treatments
    new_cells = model.n_cells * n_sig
    new_mu = [F(0)] * (model.n_states * n_sig)
    for y, cell, t in model.iter_states():
        mass = model.mu[model.state_index(y, cell, t)]
        for s in range(n_sig):
            new_mu[(y * new_cells + cell * n_sig + s) * n_treat + t] = mass / n_sig
    return idg.TreatmentModel(
        outcomes=model.outcomes,
        covariate_domains=model.covariate_domains + (tuple(labels),),
        treatments=model.treatments,
        assignment=idg.Matrix(new_cells, n_treat, tuple(rows)),
        mu=tuple(new_mu),
    )


def _oracle_collapse(states, values):
    """Sum a distribution over the signal covariate by splitting (y,x,s,t) labels."""
    collapsed = {}
    for label, v in zip(states, values):
        y, x, _, t = label.strip("()").split(",")
        key = f"(y={y},x={x},t={t})"
        collapsed[key] = collapsed.get(key, F(0)) + v
    return collapsed


def _outcome(build, model):
    """A compiled problem, or the type and message of the error it raised."""
    try:
        return build(model)
    except idg.InfoDesignError as exc:
        return type(exc), str(exc)


def _with_mu(model, mu):
    return idg.TreatmentModel(
        model.outcomes, model.covariate_domains, model.treatments, model.assignment, tuple(mu)
    )


def _assert_layout_matches_oracles(model, swaps, marginals=True):
    assert model.state_labels() == _oracle_labels(model)
    assert _outcome(idg.build_treatment_problem, model) == _outcome(_oracle_problem, model)
    variables = tuple(_variables(model)) if marginals else ()
    for k in range(1, len(variables)):
        for chosen in itertools.combinations(variables, k):
            structure = idg.marginal_structure(model, chosen[::-1])
            assert (structure.messages, structure.experiment) == _oracle_marginal(model, chosen)
    for a, b in swaps:
        mu = list(model.mu)
        mu[a], mu[b] = mu[b], mu[a]
        bad = _with_mu(model, mu)
        assert _outcome(idg.build_treatment_problem, bad) == _outcome(_oracle_problem, bad)


@given(st.integers(0, 10**9), st.integers(0, 2**32))
def test_treatment_layout_matches_oracles(seed, draw_seed):
    base = random_treatment_model(f"layout-{seed}")
    rng = random.Random(draw_seed)
    models = [base]
    for labels in (("s0", "s1"), ("a", "b", "c")):
        extended = idg.add_irrelevant_signal(base, labels)
        assert extended == _oracle_extension(base, labels)
        models.append(extended)
    for model in models:
        swaps = [rng.sample(range(model.n_states), 2)]
        # the sweep over every marginal is the costly part; the three-valued
        # signal's extension skips it
        _assert_layout_matches_oracles(model, swaps, marginals=model is not models[2])
    # the display collapse of a one-covariate model's signal extension
    if len(base.covariate_domains) == 1:
        extended = models[1]
        yxt = idg.marginal_structure(extended, ["Y", "X1", "T"])
        nu = rand_distribution(rng, extended.n_states)
        displayed = {
            "(y={},x={},t={})".format(*m.split(",")): v
            for m, v in zip(yxt.messages, idg.push_forward(yxt, nu))
        }
        assert displayed == _oracle_collapse(extended.state_labels(), nu)


def test_treatment_layout_matches_oracles_on_fixed_models():
    raw = raw_motivating_model()  # assignment varies with its only covariate
    interior = idg.TreatmentModel(
        raw.outcomes,
        raw.covariate_domains,
        raw.treatments,
        idg.Matrix.from_rows([["1", "0"], ["1/5", "4/5"]]),
        idg.vector(["1/2", "0", "0", "0", "1/2", "0", "0", "0"]),
    )
    example = idg.motivating_example()
    assert example == _oracle_extension(raw, ("s0", "s1"))
    every_pair = list(itertools.combinations(range(raw.n_states), 2))
    for model in (raw, interior, example):
        _assert_layout_matches_oracles(model, every_pair)


def test_ignored_covariate_oracle_on_two_covariates():
    # two binary covariates; cell (x1, x2) has the assignment row rows[x1][x2]
    low, even = idg.vector(["1/4", "3/4"]), idg.vector(["1/2", "1/2"])
    for rows, ignored in [
        (((low, even), (even, low)), ()),  # varies with both: NoIrrelevantCovariate
        (((low, low), (even, even)), (1,)),
        (((low, even), (low, even)), (0,)),
        (((low, low), (low, low)), (0, 1)),
    ]:
        assignment = idg.Matrix(4, 2, tuple(rows[x1][x2] for x1 in range(2) for x2 in range(2)))
        mu = [F(0)] * 16  # every cell 1/4, each outcome 1/2 given the cell and treatment
        for y, cell, t in itertools.product(range(2), range(4), range(2)):
            mu[(y * 4 + cell) * 2 + t] = assignment.entries[cell][t] / 8
        model = idg.TreatmentModel(
            idg.vector([0, 1]), (("a", "b"), ("c", "d")), ("t0", "t1"), assignment, tuple(mu)
        )
        assert tuple(j for j in range(2) if _oracle_ignores(model, j)) == ignored
        _assert_layout_matches_oracles(model, [(0, 1)], marginals=False)


def _oracle_researcher_optimum(problem, values):
    """Test every pure action for a supporting prior, then implement the best."""
    pure = [idg.MixedAction.pure(a, problem.n_actions) for a in range(problem.n_actions)]
    candidates = [a for a in range(problem.n_actions) if idg.is_implementable(problem, pure[a])]
    best = max(candidates, key=lambda a: (values[a], -a))
    structure, certificate = idg.implementing_structure(problem, pure[best])
    slack = dot(problem.mixed_utility(pure[best]), problem.mu) - certificate.value
    return idg.ResearcherOptimum(
        best, idg.SupportingPrior(certificate.nu_star, slack), structure, certificate
    )


def test_researcher_optimum_matches_scan(monkeypatch):
    solves = []
    solve_lp = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda program: solves.append(1) or solve_lp(program))
    for seed in range(40):
        problem, r = paired_problem(f"researcher-{seed}")
        values = idg.vector([r.randint(-2, 2) for _ in range(problem.n_actions)])
        expected = _oracle_researcher_optimum(problem, values)
        solves.clear()
        assert idg.researcher_optimum(problem, values) == expected
        # each supporting prior is solved for at most once
        assert len(solves) <= problem.n_actions


# ---------------------------------------------------------------- integer sums and construction

rationals = st.builds(F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 7, 9, 10, 12)))
sparse_rationals = st.one_of(st.just(F(0)), rationals)


@st.composite
def rational_vector_pairs(draw):
    """Equal-length vectors, empty ones included, with zeros and mismatched denominators."""
    n = draw(st.integers(0, 12))
    u = draw(st.lists(sparse_rationals, min_size=n, max_size=n))
    v = draw(st.lists(sparse_rationals, min_size=n, max_size=n))
    return tuple(u), tuple(v)


@given(rational_vector_pairs())
def test_dot_matches_fraction_oracle(pair):
    u, v = pair
    value = dot(u, v)
    assert type(value) is F
    assert value == _dot(u, v)


def _fraction_is_distribution(values):
    return all(v >= 0 for v in values) and sum(values) == 1


@st.composite
def near_distributions(draw):
    """Probability vectors and near misses: a negative entry, a sum of 1 +- 1/q, ()."""
    n = draw(st.integers(1, 10))
    weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1
    values = [F(w, sum(weights)) for w in weights]
    kind = draw(st.sampled_from(("exact", "negative", "over", "under", "empty")))
    i = draw(st.integers(0, n - 1))
    q = draw(st.integers(1, 50))
    if kind == "negative" and n >= 2:
        j = (i + 1) % n
        shift = values[i] + F(1, q)
        values[i] -= shift
        values[j] += shift
    elif kind == "over":
        values[i] += F(1, q)
    elif kind == "under":
        values[i] -= F(1, q)
    elif kind == "empty":
        values = []
    return tuple(values)


@given(near_distributions())
def test_distribution_check_matches_fraction_oracle(values):
    assert _is_distribution(values) == _fraction_is_distribution(values)


def _fraction_kernel_to_experiment(sub):
    """The construction over Fractions: (messages, matrix rows)."""
    ws = _two_pass_nullspace(sub.basis_matrix()).basis
    xs = tuple(max(F(0), -min(w)) for w in ws)
    lam = F(1) / (1 + sum(xs))
    rows = tuple(tuple(lam * (x + wj) for wj in w) for x, w in zip(xs, ws))
    for column in zip(*rows):
        assert _fraction_is_distribution(column)
    return tuple(f"m{i}" for i in range(len(rows))), rows


def _two_sided_kernel_to_experiment(sub):
    """The paper's construction: rows lam (x_i + w_i) and lam (y_i - w_i) for 0 < k < n - 1."""
    n = sub.ambient_dim
    ws = _two_pass_nullspace(sub.basis_matrix()).basis
    if sub.dim in (0, n - 1):
        return ws
    xs = tuple(F(1) - min(w) for w in ws)
    ys = tuple(F(1) + max(w) for w in ws)
    lam = F(1) / sum(x + y for x, y in zip(xs, ys))
    rows = tuple(tuple(lam * (x + wj) for wj in w) for x, w in zip(xs, ws))
    rows += tuple(tuple(lam * (y - wj) for wj in w) for y, w in zip(ys, ws))
    for column in zip(*rows):
        assert _fraction_is_distribution(column)
    return rows


@st.composite
def rational_zero_sum_subspaces(draw):
    """Spans of up to n-1 centred rational vectors over n <= 12, so every k occurs."""
    n = draw(st.integers(1, 12))
    count = draw(st.integers(0, n - 1))
    vector = st.lists(sparse_rationals, min_size=n, max_size=n)
    raws = draw(st.lists(vector, min_size=count, max_size=count))
    vectors = [tuple(x - sum(raw) / n for x in raw) for raw in raws]
    return idg.Subspace.from_vectors(n, vectors)


@given(rational_zero_sum_subspaces())
def test_kernel_to_experiment_matches_fraction_oracle(sub):
    structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
    messages, rows = _fraction_kernel_to_experiment(sub)
    matrix = idg.Matrix(len(rows), sub.ambient_dim, rows)
    assert structure == idg.InformationStructure(messages, matrix)
    assert len(rows) == idg.rank(structure.experiment) == sub.ambient_dim - sub.dim
    assert idg.nullspace(structure.experiment) == sub == idg.kernel_of(structure)


@given(rational_zero_sum_subspaces())
def test_two_sided_construction_has_the_same_kernel(sub):
    n, k = sub.ambient_dim, sub.dim
    structure = idg.kernel_to_experiment(idg.KernelSpec(sub))
    rows = _two_sided_kernel_to_experiment(sub)
    two_sided = idg.Matrix(len(rows), n, rows)
    assert idg.nullspace(two_sided) == idg.nullspace(structure.experiment) == sub
    if 0 < k < n - 1:
        assert len(rows) == 2 * (n - k)


def test_hand_built_non_stochastic_matrices_are_refused():
    off_columns = [
        ("-1/2", "3/2"),  # a negative entry in a column summing to one
        ("1/2", "1/3"),  # sums to 1 - 1/6
        ("1/2", "2/3"),  # sums to 1 + 1/6
    ]
    for column in off_columns:
        rows = (idg.vector(["1/2", column[0]]), idg.vector(["1/2", column[1]]))
        assert not _fraction_is_distribution(idg.vector(column))
        with pytest.raises(ValueError, match="column 1"):
            idg.InformationStructure(("m0", "m1"), idg.Matrix(2, 2, rows))


def _fraction_stationarity(program, cert, target):
    """A_eq^T y + A_ub^T w + s == target, one running Fraction sum per column."""
    if len(cert.eq) != len(program.eq_matrix) or len(cert.ub) != len(program.ub_matrix):
        return False
    if len(cert.lb) != program.n_vars:
        return False
    for j in range(program.n_vars):
        total = cert.lb[j]
        for row, yv in zip(program.eq_matrix, cert.eq):
            if yv and row[j]:
                total += yv * row[j]
        for row, wv in zip(program.ub_matrix, cert.ub):
            if wv and row[j]:
                total += wv * row[j]
        if total != target[j]:
            return False
    return True


def _fraction_bound_value(program, cert):
    """b_eq.y + b_ub.w + l.s, or None when s is nonzero on a free variable."""
    bounds = program.bounds()
    total = _dot(cert.eq, program.eq_rhs) + _dot(cert.ub, program.ub_rhs)
    for j in range(program.n_vars):
        if bounds[j] is None:
            if cert.lb[j]:
                return None
        elif cert.lb[j]:
            total += cert.lb[j] * bounds[j]
    return total


def _fraction_point_feasible(program, point, homogeneous=False):
    """Every bound and row over running Fraction sums; homogeneous reads each rhs and bound as 0."""
    if len(point) != program.n_vars:
        return False
    for x, lb in zip(point, program.bounds()):
        if lb is not None and x < (0 if homogeneous else lb):
            return False
    for row, b in zip(program.eq_matrix, program.eq_rhs):
        if _dot(row, point) != (0 if homogeneous else b):
            return False
    for row, b in zip(program.ub_matrix, program.ub_rhs):
        if _dot(row, point) > (0 if homogeneous else b):
            return False
    return True


def _fraction_verify_outcome(program, outcome):
    """The ray, dual and Farkas checks over Fraction loops; an inexact entry raises TypeError."""
    cert = outcome.certificate
    if outcome.status is lp.LpStatus.UNBOUNDED:
        read = (*cert.direction, *cert.base_point)
    else:
        read = (*cert.eq, *cert.ub, *cert.lb)
    if outcome.status is lp.LpStatus.OPTIMAL:
        read += (*outcome.optimal_point, outcome.optimal_value)
    for v in read:
        if not isinstance(v, (int, F)):
            raise TypeError(f"not an exact number: {v!r} (int or Fraction required)")
    if outcome.status is lp.LpStatus.UNBOUNDED:
        if not _fraction_point_feasible(program, cert.base_point):
            return False
        if not _fraction_point_feasible(program, cert.direction, homogeneous=True):
            return False
        gain = _dot(program.objective, cert.direction)
        return gain < 0 if program.sense == "min" else gain > 0
    if outcome.status is lp.LpStatus.INFEASIBLE:
        if any(v > 0 for v in cert.ub) or any(v < 0 for v in cert.lb):
            return False
        if not _fraction_stationarity(program, cert, (F(0),) * program.n_vars):
            return False
        value = _fraction_bound_value(program, cert)
        return value is not None and value > 0
    if not _fraction_point_feasible(program, outcome.optimal_point):
        return False
    if _dot(program.objective, outcome.optimal_point) != outcome.optimal_value:
        return False
    sign = 1 if program.sense == "min" else -1
    if any(sign * v > 0 for v in cert.ub) or any(sign * v < 0 for v in cert.lb):
        return False
    if not _fraction_stationarity(program, cert, program.objective):
        return False
    return _fraction_bound_value(program, cert) == outcome.optimal_value


@st.composite
def tampered_outcomes(draw):
    """An LP, its outcome, and a copy whose certificate may be tampered.

    "entry" moves one multiplier; "row" moves the multiplier of row i by d
    and every lower-bound multiplier by -d A[i], which keeps stationarity, so
    the sign and bound-value checks decide (a free variable's multiplier
    turns nonzero); "value" moves the optimal value. A ray's direction is
    negated, or its base point is moved along one coordinate until a nonzero
    row's value is its rhs plus d: off an equality row unless d = 0, off a
    <= row when d > 0, and perhaps off another row or a bound. Or one entry
    that the check reads, zero or not, is made a float.
    """
    program = draw(rational_programs())
    outcome = lp.solve_lp(program)
    cert = outcome.certificate
    if draw(st.integers(0, 4)) == 0:
        parts = dict(vars(cert))
        if outcome.status is lp.LpStatus.OPTIMAL:
            parts.update(optimal_point=outcome.optimal_point, optimal_value=(outcome.optimal_value,))
        part = draw(st.sampled_from([p for p in parts if parts[p]]))
        i = draw(st.integers(0, len(parts[part]) - 1))
        floated = parts[part][:i] + (float(parts[part][i]),) + parts[part][i + 1 :]
        if part == "optimal_value":
            return program, outcome, replace(outcome, optimal_value=floated[0])
        if part == "optimal_point":
            return program, outcome, replace(outcome, optimal_point=floated)
        return program, outcome, replace(outcome, certificate=replace(cert, **{part: floated}))
    delta = draw(st.one_of(st.just(F(0)), rationals))
    if outcome.status is lp.LpStatus.UNBOUNDED:
        lhs = program.eq_matrix + program.ub_matrix
        rows = [(row, b) for row, b in zip(lhs, program.eq_rhs + program.ub_rhs) if any(row)]
        if not rows or draw(st.booleans()):
            negated = replace(cert, direction=tuple(-v for v in cert.direction))
            return program, outcome, replace(outcome, certificate=negated)
        row, b = draw(st.sampled_from(rows))
        j = next(j for j, a in enumerate(row) if a)
        point = list(cert.base_point)
        point[j] += (b + delta - _dot(row, point)) / row[j]
        moved = replace(cert, base_point=tuple(point))
        return program, outcome, replace(outcome, certificate=moved)
    parts = {"eq": list(cert.eq), "ub": list(cert.ub), "lb": list(cert.lb)}
    kind = draw(st.sampled_from(("entry", "row", "value")))
    if kind == "value" and outcome.status is lp.LpStatus.OPTIMAL:
        return program, outcome, replace(outcome, optimal_value=outcome.optimal_value + delta)
    part = draw(st.sampled_from([p for p in ("eq", "ub", "lb") if parts[p]]))
    i = draw(st.integers(0, len(parts[part]) - 1))
    parts[part][i] += delta
    if kind == "row" and part != "lb":
        row = (program.eq_matrix if part == "eq" else program.ub_matrix)[i]
        parts["lb"] = [s - delta * a for s, a in zip(parts["lb"], row)]
    tampered = type(cert)(**{p: tuple(v) for p, v in parts.items()})
    return program, outcome, replace(outcome, certificate=tampered)


@given(tampered_outcomes())
def test_verify_outcome_matches_fraction_oracle(case):
    program, outcome, tampered = case
    assert lp.verify_outcome(program, outcome)
    try:
        expected = _fraction_verify_outcome(program, tampered)
    except TypeError as exc:
        with pytest.raises(TypeError) as info:
            lp.verify_outcome(program, tampered)
        assert str(info.value) == str(exc)
    else:
        assert lp.verify_outcome(program, tampered) == expected


def _verifiers_agree(program, outcome, **changes):
    tampered = replace(outcome, certificate=replace(outcome.certificate, **changes))
    expected = _fraction_verify_outcome(program, tampered)
    assert lp.verify_outcome(program, tampered) == expected
    return expected


def test_verify_outcome_with_every_row_multiplier_zero():
    # the optimum 0 of min x + 2y over x + y <= 5 is certified by the lower-bound
    # multipliers alone, so the stationarity sum over the rows is empty
    program = lp.LinearProgram(objective=(F(1), F(2)), ub_matrix=((F(1), F(1)),), ub_rhs=(F(5),))
    outcome = lp.solve_lp(program)
    assert outcome.certificate == lp.DualCertificate((), (F(0),), (F(1), F(2)))
    assert _verifiers_agree(program, outcome)
    for lb in [(F(1), F(3)), (F(0), F(2)), (F(1), F(2, 3))]:
        assert not _verifiers_agree(program, outcome, lb=lb)


def test_verify_outcome_on_multipliers_coprime_to_their_rows():
    # the rows are over 2 and 4 and the multipliers over 45, so the weighted
    # rows are over 90 and 180 and the stationarity sum is over their lcm 180;
    # moving one multiplier by 1/180 must break it
    program = lp.LinearProgram(
        objective=(F(1, 3), F(1, 5)),
        eq_matrix=((F(1), F(1, 2)), (F(1, 4), F(1, 2))),
        eq_rhs=(F(3, 2), F(3, 4)),
        ub_matrix=((F(1, 2), F(-1, 6)),),
        ub_rhs=(F(7),),
    )
    outcome = lp.solve_lp(program)
    cert = outcome.certificate
    assert cert.eq == (F(14, 45), F(4, 45)) and cert.ub == (F(0),)
    assert _verifiers_agree(program, outcome, eq=cert.eq)
    for i in range(2):
        for delta in (F(1, 180), F(-1, 180)):
            eq = list(cert.eq)
            eq[i] += delta
            assert not _verifiers_agree(program, outcome, eq=tuple(eq))
    assert not _verifiers_agree(program, outcome, ub=(F(-1, 180),))


def _fraction_mixed_utility(problem, alpha):
    """Per-state expected utility as running Fraction sums over the weighted rows."""
    out = [F(0)] * problem.n_states
    for a, w in enumerate(alpha.weights):
        if not w:
            continue
        row = problem.utility.row(a)
        if w == 1:
            return row
        for s in range(problem.n_states):
            if row[s]:
                out[s] += w * row[s]
    return tuple(out)


@given(st.integers(0, 10**6), st.lists(st.integers(0, 9), min_size=4, max_size=4))
def test_mixed_utility_matches_fraction_oracle(seed, raw_weights):
    problem, _ = paired_problem(seed)
    weights = raw_weights[: problem.n_actions]
    if not any(weights):
        weights[seed % len(weights)] = 1
    alpha = idg.MixedAction(tuple(F(w, sum(weights)) for w in weights))
    utility = problem.mixed_utility(alpha)
    assert all(type(u) is F for u in utility)
    assert utility == _fraction_mixed_utility(problem, alpha)


def _fraction_contains_vector(sub, v):
    """Subtract each basis row at its pivot; v is in the span iff nothing is left."""
    residual = list(v)
    for row in sub.basis:
        c = next(j for j, x in enumerate(row) if x)
        f = residual[c]
        if f:
            residual = [a - f * b if b else a for a, b in zip(residual, row)]
    return not any(residual)


@st.composite
def subspace_probes(draw):
    """A canonical subspace and vectors in its span, some nudged off it."""
    m = draw(rational_matrices())
    sub = idg.Subspace.from_vectors(m.cols, m.entries)
    probes = []
    for _ in range(draw(st.integers(0, 4))):
        coefficients = [draw(sparse_rationals) for _ in sub.basis]
        v = [_dot(coefficients, column) for column in zip(*sub.basis)] or [F(0)] * m.cols
        if draw(st.booleans()):
            v[draw(st.integers(0, m.cols - 1))] += draw(rationals)
        probes.append(tuple(v))
    return sub, probes


@given(subspace_probes())
def test_subspace_membership_matches_fraction_oracle(case):
    sub, probes = case
    for v in probes:
        assert sub.contains_vector(v) == _fraction_contains_vector(sub, v)
    n = sub.ambient_dim
    for other in (idg.Subspace.from_vectors(n, probes), idg.Subspace.from_vectors(n, sub.basis + tuple(probes))):
        for a, b in ((sub, other), (other, sub)):
            expected = all(_fraction_contains_vector(a, v) for v in b.basis)
            assert idg.subspace_contains(a, b) == expected


# ---------------------------------------------------------------- compiled problem rows


@st.composite
def prior_sets(draw, min_states=1):
    """A prior set with up to two equality and three <= rows through a member mu."""
    n = draw(st.integers(min_states, 6))
    mu = rand_distribution(random.Random(draw(st.integers(0, 2**32))), n)
    row = st.lists(sparse_rationals, min_size=n, max_size=n).map(tuple)
    eq_rows = draw(st.lists(row, max_size=2))
    ub_rows = draw(st.lists(row, max_size=3))
    slacks = [F(draw(st.integers(0, 2)), draw(st.integers(1, 3))) for _ in ub_rows]
    priors = idg.PriorPolytope(
        n,
        eq_matrix=tuple(eq_rows),
        eq_rhs=tuple(_dot(r, mu) for r in eq_rows),
        ub_matrix=tuple(ub_rows),
        ub_rhs=tuple(_dot(r, mu) + slack for r, slack in zip(ub_rows, slacks)),
        known_member=mu,
    )
    return priors, mu


@st.composite
def prior_probes(draw):
    """A prior set and points: mu, other distributions, +-1/97 nudges, negative entries."""
    priors, mu = draw(prior_sets())
    n = priors.dimension
    r = random.Random(draw(st.integers(0, 2**32)))
    points = [mu]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("distribution", "nudge", "transfer", "negative", "any")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        step = draw(st.sampled_from((F(1, 97), F(-1, 97))))
        point = list(mu)
        if kind == "distribution":
            point = list(rand_distribution(r, n))
        elif kind == "nudge":  # the sum moves off one
            point[i] += step
        elif kind == "transfer":  # the sum stays one; a row or a sign may break
            point[i] += step
            point[j] -= step
        elif kind == "negative":  # a negative entry, the sum kept at one when n > 1
            low = -abs(draw(rationals)) - F(1, 97)
            if i != j:
                point[j] += point[i] - low
            point[i] = low
        else:
            point = draw(st.lists(sparse_rationals, min_size=n, max_size=n))
        points.append(tuple(point))
    return priors, points


@given(prior_probes())
def test_compiled_contains_matches_dense_point_check(case):
    priors, points = case
    program = priors.feasibility_program()
    for point in points:
        assert priors.contains(point) == lp._point_feasible(program, point)


def _fraction_segment(problem, d):
    """The segment's cuts c lam <= b as Fractions, tightened one Fraction division at a time."""
    mu = problem.mu
    priors = problem.priors
    if not any(d) or sum(d) or any(_dot(row, d) for row in priors.eq_matrix):
        return F(0), F(0)
    cuts = [(_dot(row, d), b - _dot(row, mu)) for row, b in zip(priors.ub_matrix, priors.ub_rhs)]
    cuts += [(-ds, ms) for ds, ms in zip(d, mu)]
    lo = hi = None
    for c, b in cuts:
        if c > 0:
            hi = b / c if hi is None else min(hi, b / c)
        elif c < 0:
            lo = b / c if lo is None else max(lo, b / c)
    if lo is None or hi is None or lo > 0 or hi < 0:
        raise AssertionError("kernel segment must be bounded and contain zero")
    return lo, hi


@st.composite
def segment_probes(draw):
    """A problem over a drawn prior set and a direction d.

    d is zero, in the kernel of the equality rows and the all-ones row (a
    nontrivial segment, drawn most often), zero-sum (which almost always
    breaks an equality row, if there is one) or arbitrary (which almost
    always breaks the all-ones row, so the segment is the point mu).
    """
    priors, mu = draw(prior_sets(min_states=2))
    n = priors.dimension
    problem = idg.DecisionProblem(
        tuple(f"s{i}" for i in range(n)), ("a0",), idg.Matrix(1, n, ((F(0),) * n,)), mu, priors
    )
    raw = draw(st.lists(sparse_rationals, min_size=n, max_size=n))
    kind = draw(st.sampled_from(("zero", "kernel", "kernel", "kernel", "zero-sum", "any")))
    if kind == "zero":
        d = (F(0),) * n
    elif kind == "kernel":
        rows = priors.eq_matrix + ((F(1),) * n,)
        basis = idg.nullspace(idg.Matrix(len(rows), n, rows)).basis
        d = tuple(_dot(raw[: len(basis)], column) for column in zip(*basis)) or (F(0),) * n
    elif kind == "zero-sum":
        d = tuple(x - sum(raw) / n for x in raw)
    else:
        d = tuple(raw)
    return problem, d


def _segment_or_error(segment, problem, d):
    try:
        return segment(problem, d)
    except AssertionError as exc:
        return type(exc), str(exc)


@given(segment_probes())
def test_integer_segment_matches_fraction_segment(case):
    problem, d = case
    segment = _segment_or_error(idg.DecisionProblem.segment, problem, d)
    assert segment == _segment_or_error(_fraction_segment, problem, d)
    if sum(d) or any(_dot(row, d) for row in problem.priors.eq_matrix):
        assert segment == (F(0), F(0))


def _fraction_best_responses(problem, nu):
    payoffs = [_dot(problem.utility_row(a), nu) for a in range(problem.n_actions)]
    return tuple(a for a, v in enumerate(payoffs) if v == max(payoffs))


@st.composite
def payoff_probes(draw):
    """A problem with small rational utilities, so that payoffs often tie, and priors."""
    n = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-2, 2).map(F), sparse_rationals)
    rows = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n_actions))
    r = random.Random(draw(st.integers(0, 2**32)))
    mu = rand_distribution(r, n)
    problem = idg.DecisionProblem(
        tuple(f"s{i}" for i in range(n)),
        tuple(f"a{i}" for i in range(n_actions)),
        idg.Matrix(n_actions, n, rows),
        mu,
        idg.PriorPolytope.simplex(n),
    )
    priors = [mu, (F(1, n),) * n] + [rand_distribution(r, n) for _ in range(3)]
    return problem, priors


@given(payoff_probes())
def test_compiled_payoffs_match_dense_rows(case):
    problem, priors = case
    for nu in priors:
        assert idg.best_responses(problem, nu) == _fraction_best_responses(problem, nu)
        for a in range(problem.n_actions):
            expected = _dot(problem.utility_row(a), nu)
            assert F(*sparse_dot(problem._utility_rows[a], nu)) == expected
            value = idg.payoff(idg.MixedAction.pure(a, problem.n_actions), nu, problem)
            assert type(value) is F and value == expected
        if problem.n_actions > 1:
            alpha = idg.MixedAction(rand_distribution(random.Random(str(nu)), problem.n_actions))
            value = idg.payoff(alpha, nu, problem)
            assert type(value) is F and value == _dot(_fraction_mixed_utility(problem, alpha), nu)
