"""Shared fixtures and random generators for the test suite.

Random instances are built from explicit `random.Random` seeds so every run
of the suite exercises the identical cases.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

import infodesign as idg
from infodesign import lp
from infodesign.causal import _compile_problem, _motivating_raw

F0 = Fraction(0)
F1 = Fraction(1)


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_distribution(rng: random.Random, n: int, allow_zero: bool = True) -> tuple:
    while True:
        vals = [Fraction(rng.randint(0 if allow_zero else 1, 6)) for _ in range(n)]
        total = sum(vals)
        if total:
            return tuple(v / total for v in vals)


def random_mixed(rng: random.Random, n_actions: int) -> idg.MixedAction:
    return idg.MixedAction(rand_distribution(rng, n_actions))


def random_program(rng: random.Random) -> lp.LinearProgram:
    """A small LP with integer data, either sense, and free, zero and shifted bounds."""
    n = rng.randint(1, 5)
    n_eq = rng.randint(0, 2)
    n_ub = rng.randint(0, 4)
    return lp.LinearProgram(
        objective=idg.vector([rng.randint(-5, 5) for _ in range(n)]),
        sense=rng.choice(["min", "max"]),
        eq_matrix=tuple(idg.vector([rng.randint(-4, 4) for _ in range(n)]) for _ in range(n_eq)),
        eq_rhs=idg.vector([rng.randint(-4, 4) for _ in range(n_eq)]),
        ub_matrix=tuple(idg.vector([rng.randint(-4, 4) for _ in range(n)]) for _ in range(n_ub)),
        ub_rhs=idg.vector([rng.randint(-4, 4) for _ in range(n_ub)]),
        lower_bounds=tuple(
            rng.choice([F0, F0, None, Fraction(rng.randint(-3, 3))]) for _ in range(n)
        ),
    )


@st.composite
def rational_programs(draw) -> lp.LinearProgram:
    """A small LP with rational data (denominators up to 12), either sense.

    Variables are free, nonnegative or shifted by a rational lower bound.
    Constraint rows may repeat an earlier row with its right-hand side, or
    be all zero, so redundant and contradictory rows both occur.
    """
    n = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))

    def rows(count):
        out = []
        for _ in range(count):
            kind = draw(st.sampled_from(("random", "random", "zero", "duplicate")))
            if kind == "duplicate" and out:
                out.append(out[draw(st.integers(0, len(out) - 1))])
            elif kind == "zero":
                out.append(((F0,) * n, draw(entry)))
            else:
                out.append((tuple(draw(entry) for _ in range(n)), draw(entry)))
        return tuple(row for row, _ in out), tuple(b for _, b in out)

    eq_matrix, eq_rhs = rows(draw(st.integers(0, 3)))
    ub_matrix, ub_rhs = rows(draw(st.integers(0, 4)))
    bound = st.one_of(st.just(F0), st.none(), entry)
    return lp.LinearProgram(
        objective=tuple(draw(entry) for _ in range(n)),
        sense=draw(st.sampled_from(("min", "max"))),
        eq_matrix=eq_matrix,
        eq_rhs=eq_rhs,
        ub_matrix=ub_matrix,
        ub_rhs=ub_rhs,
        lower_bounds=tuple(draw(bound) for _ in range(n)),
    )


def paired_problem(seed) -> tuple[idg.DecisionProblem, random.Random]:
    """A random decision problem whose states come in payoff-identical pairs.

    Prior constraints weigh paired states equally, so moving mass within a
    pair never leaves the prior set: the payoff-redundancy assumption holds
    by construction.
    """
    r = random.Random(f"paired-{seed}")
    n_pairs = r.randint(2, 4)
    n = 2 * n_pairs
    n_actions = r.randint(2, 4)
    cols = []
    for _ in range(n_pairs):
        col = tuple(Fraction(r.randint(-4, 4), r.randint(1, 3)) for _ in range(n_actions))
        cols.append(col)
        cols.append(col)
    utility = idg.Matrix(
        n_actions, n, tuple(tuple(cols[s][a] for s in range(n)) for a in range(n_actions))
    )
    mu = rand_distribution(r, n)
    ub_rows, ub_rhs = [], []
    for _ in range(r.randint(0, 3)):
        row = []
        for _ in range(n_pairs):
            c = Fraction(r.randint(-3, 3))
            row += [c, c]
        row = tuple(row)
        slack = Fraction(r.randint(0, 2), r.randint(1, 2))
        ub_rows.append(row)
        ub_rhs.append(sum(a * b for a, b in zip(row, mu)) + slack)
    priors = idg.PriorPolytope(
        n, ub_matrix=tuple(ub_rows), ub_rhs=tuple(ub_rhs), known_member=mu
    )
    states = tuple(f"s{i}" for i in range(n))
    actions = tuple(f"a{i}" for i in range(n_actions))
    return idg.DecisionProblem(states, actions, utility, mu, priors), r


def random_treatment_model(seed) -> idg.TreatmentModel:
    """A valid random treatment model with component sizes in {2, 3}."""
    r = random.Random(f"treatment-{seed}")
    while True:
        n_out = r.choice([2, 3])
        n_treat = r.choice([2, 3])
        ell = 1 if r.random() < 0.7 else 2
        sizes = [r.choice([2, 3]) for _ in range(ell)]
        n_cells = 1
        for s in sizes:
            n_cells *= s
        if n_out * n_cells * n_treat <= 36:
            break
    domains = tuple(
        tuple(f"x{j}v{v}" for v in range(size)) for j, size in enumerate(sizes)
    )
    outcome_pool = sorted(r.sample(range(-3, 7), n_out))
    outcomes = tuple(Fraction(v, r.choice([1, 2])) for v in outcome_pool)
    outcomes = tuple(sorted(set(outcomes)))
    while len(outcomes) < n_out:
        outcomes = tuple(sorted(set(outcomes) | {outcomes[-1] + 1}))

    # Assignment ignores the last covariate (or every covariate when ell=1),
    # so an ignorable covariate always exists.
    base_cells = list(itertools.product(*(range(s) for s in sizes[:-1]))) or [()]
    base_rows = {
        cell: rand_distribution(r, n_treat, allow_zero=False) for cell in base_cells
    }
    rows = []
    for cell in itertools.product(*(range(s) for s in sizes)):
        rows.append(base_rows[cell[:-1]])
    assignment = idg.Matrix(n_cells, n_treat, tuple(rows))

    cell_mass = rand_distribution(r, n_cells)
    mu = [F0] * (n_out * n_cells * n_treat)
    for c in range(n_cells):
        if not cell_mass[c]:
            continue
        for t in range(n_treat):
            outcome_law = rand_distribution(r, n_out)
            for y in range(n_out):
                mu[(y * n_cells + c) * n_treat + t] = (
                    cell_mass[c] * assignment.entries[c][t] * outcome_law[y]
                )
    return idg.TreatmentModel(
        outcomes=outcomes,
        covariate_domains=domains,
        treatments=tuple(f"t{t}" for t in range(n_treat)),
        assignment=assignment,
        mu=tuple(mu),
    )


def random_zero_sum_subspace(rng: random.Random, n: int, k: int) -> idg.Subspace:
    """A random k-dimensional subspace of zero-sum vectors (k <= n-1)."""
    sub = idg.Subspace.zero(n)
    attempts = 0
    while sub.dim < k:
        attempts += 1
        if attempts > 200:
            raise AssertionError("failed to reach the requested dimension")
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        shift = sum(v) / n
        v = tuple(x - shift for x in v)
        grown = idg.Subspace.from_vectors(n, list(sub.basis) + [v])
        if grown.dim == sub.dim + 1:
            sub = grown
    return sub


def random_member(problem: idg.DecisionProblem, rng: random.Random) -> tuple:
    """An exact random member of the prior set: a vertex blended with mu."""
    n = problem.n_states
    objective = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    program = idg.LinearProgram(
        objective=objective,
        sense="min",
        eq_matrix=((F1,) * n,) + problem.priors.eq_matrix,
        eq_rhs=(F1,) + problem.priors.eq_rhs,
        ub_matrix=problem.priors.ub_matrix,
        ub_rhs=problem.priors.ub_rhs,
    )
    out = idg.solve_lp(program)
    assert out.status is idg.LpStatus.OPTIMAL
    vertex = out.optimal_point
    weight = Fraction(rng.randint(0, 4), 4)
    return tuple(
        weight * v + (1 - weight) * m for v, m in zip(vertex, problem.mu)
    )


def identified_set_rows(problem: idg.DecisionProblem, structure: idg.InformationStructure) -> tuple:
    """(eq_rows, eq_rhs, ub_rows, ub_rhs) of the identified set, built from its parts.

    The prior set's equality rows, then the experiment's rows pinned at the
    message masses of mu (summed here, in Fractions), then the prior set's
    inequality rows. No code of ``IdentifiedSet`` builds them, so an oracle
    solving over these rows checks the set's own program.
    """
    priors = problem.priors
    pinning = tuple(tuple(Fraction(x) for x in row) for row in structure.experiment.entries)
    masses = tuple(sum((x * m for x, m in zip(row, problem.mu)), F0) for row in pinning)
    return (
        priors.eq_matrix + pinning,
        priors.eq_rhs + masses,
        priors.ub_matrix,
        priors.ub_rhs,
    )


def raw_motivating_problem() -> idg.DecisionProblem:
    """The unextended two-covariate-free version of the built-in example.

    Its assignment varies with the only covariate, so it is not a valid
    treatment model; it is still a perfectly good decision problem for
    exercising marginal structures and kernels on eight states.
    """
    return _compile_problem(_motivating_raw())


def raw_motivating_model() -> idg.TreatmentModel:
    return _motivating_raw()


def display_direction() -> tuple:
    """The single concealed direction of the worked one-dimensional example.

    On the eight raw states ordered lexicographically by (y, x, t): +1 at
    (0,x0,t0) and (1,x1,t0), -1 at (0,x1,t0) and (1,x0,t0), zero elsewhere.
    """
    d = [F0] * 8
    d[0] = F1
    d[6] = F1
    d[2] = -F1
    d[4] = -F1
    return tuple(d)


def known_worst_case_raw() -> tuple:
    return idg.vector(["0.35", "0.10", "0.10", "0.30", "0.05", "0.00", "0.00", "0.10"])


def tamper_refutations(monkeypatch) -> None:
    """Negate every Farkas certificate ``lp._phase_one`` returns, before ``solve_lp`` checks it.

    A negated refutation has a negative bound value, so it never verifies.
    """
    phase_one = lp._phase_one

    def tampered(program):
        start = phase_one(program)
        if not isinstance(start, lp.FarkasCertificate):
            return start
        negated = [tuple(-v for v in part) for part in (start.eq, start.ub, start.lb)]
        return lp.FarkasCertificate(*negated)

    monkeypatch.setattr(lp, "_phase_one", tampered)


def nudge_point(outcome: lp.LpOutcome) -> lp.LpOutcome:
    """An optimum whose point moved by one in its first coordinate; other outcomes unchanged."""
    if outcome.status is not lp.LpStatus.OPTIMAL:
        return outcome
    point = outcome.optimal_point
    return replace(outcome, optimal_point=(point[0] + 1, *point[1:]))


def tamper_phase_two(monkeypatch, tamper=nudge_point) -> None:
    """Pass every outcome ``lp._phase_two`` returns through ``tamper``, before ``solve_lp`` checks it.

    With ``nudge_point``, a point on the sum-to-one row (every supporting-prior
    and ``maxmin`` program has one) leaves it, so the optimum never verifies.
    """
    phase_two = lp._phase_two
    monkeypatch.setattr(lp, "_phase_two", lambda *args: tamper(phase_two(*args)))


def fraction_rref(rows, cols):
    """The Fraction Gauss-Jordan elimination, kept as an oracle for ``numerics.rref``.

    It shares no code with ``numerics``: every row is divided by its pivot
    and subtracted from the others in Fraction arithmetic.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        head = work[r][c]
        if head != 1:
            work[r] = [x / head if x else x for x in work[r]]
        base = work[r]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                if f:
                    work[i] = [a - f * b if b else a for a, b in zip(work[i], base)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def fraction_pivot_step(rows, r, c):
    """One Gauss-Jordan step in Fractions: every other row minus (f/h) times row r.

    f is that row's entry in column c and h row r's. It shares no code with
    ``numerics``, and is kept as an oracle for its integer row operation.
    """
    h = Fraction(rows[r][c])
    base = rows[r]
    return [
        row if i == r else [a - (row[c] / h) * b for a, b in zip(row, base)]
        for i, row in enumerate(rows)
    ]


def fraction_nullspace(rows, cols) -> tuple:
    """The canonical kernel basis read off a column-reversed ``fraction_rref``."""
    reduced, pivots = fraction_rref([r[::-1] for r in rows], cols)
    pivot_rows = {cols - 1 - p: row[::-1] for p, row in zip(pivots, reduced)}
    basis = []
    for f in range(cols):
        if f in pivot_rows:
            continue
        v = [F0] * cols
        v[f] = F1
        for p, row in pivot_rows.items():
            if row[f]:
                v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def fraction_experiment(kernel_basis, n) -> tuple:
    """The rows of ``kernel_to_experiment``'s matrix, from its formula in plain Fractions.

    Over the canonical basis w_1..w_{n-k} of the kernel's orthogonal
    complement (``fraction_nullspace`` of the kernel basis), message i sends
    (x_i + w_ij) / (1 + sum_j x_j) in state j, with x_i = max(0, -min w_i).
    It shares no code with ``numerics`` or ``design``.
    """
    ws = fraction_nullspace(kernel_basis, n)
    xs = [max(F0, -min(w)) for w in ws]
    total = 1 + sum(xs)
    return tuple(tuple((x + wj) / total for wj in w) for x, w in zip(xs, ws))


def fraction_spans(basis, vectors, cols) -> bool:
    """Whether adding the vectors to a basis leaves its ``fraction_rref`` rank unchanged."""
    return len(fraction_rref(tuple(basis) + tuple(vectors), cols)[1]) == len(basis)
