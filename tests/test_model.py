"""Primitive objects: payoffs, pushforwards, identified sets, kernels, classes."""

import ast
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import infodesign as idg
from infodesign import documents, lp, solver
from infodesign.model import PayoffPartition
from infodesign.numerics import _integer_difference, sparse_row

from support import (
    fraction_spans,
    paired_problem,
    random_member,
    random_treatment_model,
    raw_motivating_model,
    tamper_refutations,
)


def test_payoff_examples(example_problem):
    p = example_problem
    assert idg.payoff(idg.MixedAction.pure(0, 2), p.mu, p) == F(1, 4)
    assert idg.payoff(idg.MixedAction.pure(1, 2), p.mu, p) == F(1, 8)


def test_payoff_constant_utility():
    n = 3
    utility = idg.Matrix.from_rows([[7, 7, 7], [7, 7, 7]])
    priors = idg.PriorPolytope.simplex(n)
    problem = idg.DecisionProblem(
        ("s0", "s1", "s2"), ("a0", "a1"), utility, idg.vector(["1/3", "1/3", "1/3"]), priors
    )
    rng = random.Random(5)
    for _ in range(5):
        weights = [F(rng.randint(0, 3)) for _ in range(2)]
        if not sum(weights):
            continue
        alpha = idg.MixedAction(tuple(w / sum(weights) for w in weights))
        nu = [F(rng.randint(0, 3)) for _ in range(n)]
        nu = tuple(v / sum(nu) for v in nu) if sum(nu) else (F(1), F(0), F(0))
        assert idg.payoff(alpha, nu, problem) == 7


def test_payoff_is_bilinear():
    problem, r = paired_problem("bilinear")
    nA = problem.n_actions
    rng = random.Random(6)
    for _ in range(10):
        a = idg.MixedAction.pure(rng.randrange(nA), nA)
        b = idg.MixedAction.pure(rng.randrange(nA), nA)
        lam = F(rng.randint(0, 4), 4)
        mixed = idg.MixedAction(
            tuple(lam * x + (1 - lam) * y for x, y in zip(a.weights, b.weights))
        )
        nu = random_member(problem, rng)
        left = idg.payoff(mixed, nu, problem)
        right = lam * idg.payoff(a, nu, problem) + (1 - lam) * idg.payoff(b, nu, problem)
        assert left == right
        # a pure action's utility, returned as its row, is the weighted sum of rows
        for alpha in (a, b, mixed):
            weighted = tuple(
                sum(w * problem.utility.row(i)[s] for i, w in enumerate(alpha.weights))
                for s in range(problem.n_states)
            )
            assert problem.mixed_utility(alpha) == weighted


def test_push_forward_examples(example_problem, example_marginal_yt):
    p = example_problem
    identity = idg.InformationStructure.identity(p.n_states)
    assert idg.push_forward(identity, p.mu) == p.mu
    single = idg.InformationStructure.single_message(p.n_states)
    assert idg.push_forward(single, p.mu) == (F(1),)
    pushed = dict(zip(example_marginal_yt.messages, idg.push_forward(example_marginal_yt, p.mu)))
    assert pushed == {
        "0,t0": F("0.45"),
        "0,t1": F("0.40"),
        "1,t0": F("0.05"),
        "1,t1": F("0.10"),
    }


def test_push_forward_preserves_mass():
    problem, _ = paired_problem("mass")
    rng = random.Random(7)
    for _ in range(5):
        nu = random_member(problem, rng)
        single = idg.InformationStructure.single_message(problem.n_states)
        assert sum(idg.push_forward(single, nu)) == 1
        identity = idg.InformationStructure.identity(problem.n_states)
        assert sum(idg.push_forward(identity, nu)) == 1


def test_identified_set_fully_informative_pins_mu(example_problem):
    problem = example_problem
    identity = idg.InformationStructure.identity(problem.n_states)
    iset = idg.identified_set(problem, identity)
    eq_rows, eq_rhs = iset.equality_rows()
    n = problem.n_states
    for coord in range(n):
        objective = tuple(F(1) if s == coord else F(0) for s in range(n))
        for sense in ("min", "max"):
            program = lp.LinearProgram(
                objective=objective,
                sense=sense,
                eq_matrix=((F(1),) * n,) + eq_rows,
                eq_rhs=(F(1),) + eq_rhs,
                ub_matrix=iset.inequality_rows()[0],
                ub_rhs=iset.inequality_rows()[1],
            )
            out = lp.solve_lp(program)
            assert out.status is lp.LpStatus.OPTIMAL
            assert out.optimal_value == problem.mu[coord]


def test_identified_set_single_message_is_whole_prior_set():
    problem, _ = paired_problem("single")
    single = idg.InformationStructure.single_message(problem.n_states)
    iset = idg.identified_set(problem, single)
    rng = random.Random(8)
    for _ in range(5):
        nu = random_member(problem, rng)
        assert iset.contains(nu) == problem.priors.contains(nu)


def test_identified_set_contains_known_worst_case(example_problem, example_model, example_marginal_yt):
    iset = idg.identified_set(example_problem, example_marginal_yt)
    assert iset.contains(idg.motivating_worst_case_prior(example_model))


def test_membership_matches_kernel_shift(example_problem, example_marginal_yt):
    problem = example_problem
    iset = idg.identified_set(problem, example_marginal_yt)
    kernel = idg.kernel_of(example_marginal_yt)
    rng = random.Random(9)
    for _ in range(10):
        # random shifts along and off the kernel
        shift = [F(0)] * problem.n_states
        for vec in kernel.basis:
            c = F(rng.randint(-1, 1), rng.randint(2, 6))
            if c:
                shift = [s + c * v for s, v in zip(shift, vec)]
        if rng.random() < 0.5 and problem.n_states >= 2:
            shift[0] += F(1, 17)
            shift[1] -= F(1, 17)
        nu = tuple(m + s for m, s in zip(problem.mu, shift))
        in_kernel = kernel.contains_vector(tuple(shift))
        if iset.contains(nu):
            assert in_kernel and problem.priors.contains(nu)
        else:
            assert not in_kernel or not problem.priors.contains(nu)
    assert iset.contains(problem.mu)


def test_kernel_of_examples(example_marginal_yt):
    assert idg.kernel_of(idg.InformationStructure.identity(5)).dim == 0
    single = idg.InformationStructure.single_message(6)
    assert idg.kernel_of(single).dim == 5
    raw_marg = idg.marginal_structure(raw_motivating_model(), ["Y", "T"])
    assert idg.kernel_of(raw_marg).dim == 4
    assert not raw_marg.is_fully_informative
    assert not raw_marg.is_almost_fully_informative
    assert idg.kernel_of(example_marginal_yt).dim == 12


def test_payoff_equivalence_classes():
    priors = idg.PriorPolytope.simplex(3)
    distinct = idg.DecisionProblem(
        ("s0", "s1", "s2"),
        ("a0", "a1"),
        idg.Matrix.from_rows([[1, 2, 3], [0, 1, 0]]),
        idg.vector(["1/3", "1/3", "1/3"]),
        priors,
    )
    partition = idg.payoff_equivalence_classes(distinct)
    assert partition == PayoffPartition(((0,), (1,), (2,)), False)

    duplicated = idg.DecisionProblem(
        ("s0", "s1", "s2", "s3"),
        ("a0", "a1"),
        idg.Matrix.from_rows([[1, 1, 3, 3], [0, 0, 5, 5]]),
        idg.vector(["1/4", "1/4", "1/4", "1/4"]),
        idg.PriorPolytope.simplex(4),
    )
    partition = idg.payoff_equivalence_classes(duplicated)
    assert partition.classes == ((0, 1), (2, 3))
    assert partition.all_nontrivial


def test_example_problem_classes_pair_signal_states(example_problem):
    partition = idg.payoff_equivalence_classes(example_problem)
    assert partition.all_nontrivial
    # flipping the signal covariate never leaves a state's class
    member_class = {}
    for cls in partition.classes:
        assert len(cls) >= 2
        for s in cls:
            member_class[s] = cls
    for s, label in enumerate(example_problem.states):
        y, x, sig, t = label.strip("()").split(",")
        flipped = "s1" if sig == "s0" else "s0"
        partner = example_problem.states.index(f"({y},{x},{flipped},{t})")
        assert partner in member_class[s]


def test_mu_outside_priors_rejected():
    rows = dict(ub_matrix=(idg.vector([1, 0]),), ub_rhs=idg.vector(["1/4"]))
    # with another declared member, and with none (nonempty by a feasibility solve)
    for member in (idg.vector(["1/4", "3/4"]), None):
        priors = idg.PriorPolytope(2, **rows, known_member=member)
        with pytest.raises(ValueError, match="mu lies outside the prior set"):
            idg.DecisionProblem(
                ("s0", "s1"),
                ("a0",),
                idg.Matrix.from_rows([[1, 0]]),
                idg.vector(["1/2", "1/2"]),
                priors,
            )


def test_inexact_entries_are_refused():
    with pytest.raises(TypeError, match="not an exact number"):
        idg.MixedAction((0.5, 0.5))
    with pytest.raises(TypeError, match="not an exact number"):
        idg.InformationStructure(("m0",), idg.Matrix(1, 2, ((1.0, F(1)),)))
    with pytest.raises(TypeError, match="not an exact number"):
        idg.DecisionProblem(
            ("s0", "s1"),
            ("a0",),
            idg.Matrix.from_rows([[1, 0]]),
            (0.5, 0.5),
            idg.PriorPolytope.simplex(2),
        )
    with pytest.raises(TypeError, match="not an exact number"):
        idg.PriorPolytope.simplex(2).contains((0.5, 0.5))
    half = (F(1, 2), F(1, 2))
    for row, rhs in (((1.0, F(0)), F(1)), ((F(1), F(0)), 0.5)):
        with pytest.raises(TypeError, match="not an exact number"):
            idg.PriorPolytope(2, ub_matrix=(row,), ub_rhs=(rhs,), known_member=half)
    # no prior rows: the segment's coordinate cuts are the first to read nu
    problem = idg.DecisionProblem(
        ("s0", "s1"),
        ("a0",),
        idg.Matrix.from_rows([[1, 0]]),
        (F(1, 2), F(1, 2)),
        idg.PriorPolytope.simplex(2),
    )
    with pytest.raises(TypeError, match="not an exact number"):
        idg.extremal_reach(problem, (0.25, 0.75))


def test_segment_is_the_point_mu_off_the_sum_to_one_row():
    problem = idg.DecisionProblem(
        ("s0", "s1"),
        ("a0",),
        idg.Matrix.from_rows([[1, 0]]),
        idg.vector(["1/2", "1/2"]),
        idg.PriorPolytope.simplex(2),
    )
    assert problem.segment(idg.vector(["1", "-1"])) == (F(-1, 2), F(1, 2))
    # mu + d = (3/2, 0) is off the simplex, so only lam = 0 stays in the set
    assert problem.segment(idg.vector(["1", "-1/2"])) == (0, 0)
    assert idg.extremal_reach(problem, idg.vector(["3/4", "1/2"])) == 0


def test_empty_prior_polytope_rejected():
    with pytest.raises(ValueError):
        idg.PriorPolytope(
            2,
            ub_matrix=(idg.vector([1, 1]),),
            ub_rhs=idg.vector(["-1"]),
        )


def test_tampered_emptiness_refutation_is_not_reported(monkeypatch):
    tamper_refutations(monkeypatch)
    with pytest.raises(AssertionError, match="infeasible outcome failed its own certificate check"):
        idg.PriorPolytope(2, ub_matrix=(idg.vector([1, 1]),), ub_rhs=idg.vector(["-1"]))


def test_column_stochastic_validation():
    with pytest.raises(ValueError):
        idg.InformationStructure(("m0",), idg.Matrix.from_rows([["1/2", "1"]]))


def _column_error(matrix):
    with pytest.raises(ValueError) as caught:
        idg.InformationStructure(tuple(f"m{i}" for i in range(matrix.rows)), matrix)
    return str(caught.value)


def test_integer_columns_are_refused_like_fraction_columns():
    # over den = 3: column 1 holds a negative entry, then sums to 4/3
    for rows in ([[1, -1], [2, 4]], [[1, 2], [2, 2]]):
        over = idg.Matrix._over(3, rows, 2)
        plain = idg.Matrix(2, 2, tuple(tuple(F(x, 3) for x in row) for row in rows))
        message = "experiment column 1 is not a probability vector"
        assert _column_error(over) == _column_error(plain) == message
    assert idg.InformationStructure(("m0", "m1"), idg.Matrix._over(3, [[1, 2], [2, 1]], 2)).n_states == 2
    # an inexact entry is refused by the integer view, among ints and among Fractions alike
    for row in ((1, 0.5), (F(1, 2), 0.5)):
        matrix = idg.Matrix(2, 2, (row, (0, F(1, 2))))
        for call in (lambda: idg.InformationStructure(("m0", "m1"), matrix), lambda: idg.nullspace(matrix)):
            with pytest.raises(TypeError, match=r"^not an exact number: 0\.5$"):
                call()


def test_an_empty_simplex_is_refused_before_dividing():
    for n in (0, -1):
        with pytest.raises(idg.DimensionMismatch, match="^prior polytope needs at least one state$"):
            idg.PriorPolytope.simplex(n)


def _moved_one_unit(nu):
    """nu with one unit of its denominator grid moved from each charged state to each other state."""
    unit = F(1, lcm(*[v.denominator for v in nu]))
    for s, mass in enumerate(nu):
        if mass:
            for t in range(len(nu)):
                if t != s:
                    moved = list(nu)
                    moved[s] -= unit
                    moved[t] += unit
                    yield tuple(moved)


def test_identified_set_membership_matches_fraction_spans():
    inside = outside = 0
    for seed in range(6):
        model = random_treatment_model(seed)
        problem = idg.build_treatment_problem(model)
        mu, n = problem.mu, problem.n_states
        for t in range(model.n_treatments):
            alpha = idg.MixedAction.pure(t, model.n_treatments)
            structure, certificate = idg.implement_treatment(model, alpha, problem)
            iset = idg.identified_set(problem, structure)
            nu = certificate.nu_star
            for point in (nu, *_moved_one_unit(nu)):
                shift = tuple(a - b for a, b in zip(point, mu))
                expected = problem.priors.contains(point) and fraction_spans(iset.kernel.basis, (shift,), n)
                assert iset.contains(point) == expected
                inside += expected
                outside += not expected
            assert iset.contains(nu)
    assert inside and outside


def test_the_integer_difference_is_exact_and_refuses_floats(example_problem):
    half = (F(1, 2), F(1, 2))
    assert _integer_difference((F(1, 3), F(2, 3)), half) == (-1, 1)
    for u, v in [((F(1, 2), 0.5), half), (half, (0.5, F(1, 2)))]:
        with pytest.raises(TypeError, match=r"^not an exact number: 0\.5$"):
            _integer_difference(u, v)
    p = example_problem
    iset = idg.identified_set(p, idg.InformationStructure.identity(p.n_states))
    with pytest.raises(TypeError, match=r"^not an exact number: 0\.5$"):
        replace(iset, mu=(0.5,) + p.mu[1:]).contains(p.mu)


# each exact format is read only by the modules that own it
FORMAT_OWNERS = {
    "_rows": ("lp.py", "model.py"),
    "_with_rows": ("lp.py", "model.py"),
    "_sparse_rows": ("model.py",),
    "_utility_rows": ("model.py",),
    "_mu_payoffs": ("model.py",),
    "_payoff_pairs": ("model.py",),
    "_integer_difference": ("numerics.py", "model.py", "design.py"),
    "_integer_entries": ("numerics.py", "model.py", "design.py"),
    "_over": ("numerics.py", "design.py", "causal.py"),
    "_phase_one": ("lp.py", "model.py"),
    "_program": ("model.py",),
    "_phase_two": ("lp.py", "model.py"),
    "_Feasible": ("lp.py",),
    "_Standard": ("lp.py",),
    "verify_outcome": ("lp.py", "__init__.py"),
    "_eliminate": ("numerics.py",),
    "_integer_rows": ("numerics.py",),
    "_pivot_count": ("numerics.py",),
    "_canonical": ("numerics.py",),
    "_combine": ("numerics.py",),
    "_clear_column": ("numerics.py", "lp.py"),
}


def test_compiled_rows_and_phase_one_are_read_only_by_their_owners():
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "infodesign").glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for name, owners in FORMAT_OWNERS.items():
            if path.name not in owners:
                assert not re.search(rf"\b{name}\b", text), f"{path.name} names {name}"


def test_only_sparse_row_builds_a_sparse_row():
    # every compiled row, handed over or not, is sparse_row of a Fraction row
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "infodesign").glob("*.py"))
    builders = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and "SparseRow" in ast.unparse(call.func):
                around = [f for f in functions if f.lineno <= call.lineno <= f.end_lineno]
                innermost = max(around, key=lambda f: f.lineno, default=None)
                builders.append((path.name, getattr(innermost, "name", None)))
    assert builders == [("numerics.py", "sparse_row")]


def test_the_library_imports_only_the_standard_library():
    package = Path(__file__).resolve().parents[1] / "src" / "infodesign"
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            elif isinstance(node, ast.ImportFrom):
                # a relative import names one of the package's own files
                assert node.level == 1, f"{path.name} imports from outside the package"
                names = [node.module] if node.module else [alias.name for alias in node.names]
                assert all((package / f"{name}.py").exists() for name in names), path.name
                continue
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {module}"


def _wide_identified_set(seed: int, treatment: bool):
    """A problem and a structure of kernel dimension >= 2, seeded.

    Either a random treatment model's one-variable marginal (equality prior
    rows only) or a paired generic problem, prior inequalities included, seen
    through a random three-message experiment: the first row's entries are
    halves and the second's thirds, so each row's integer view over the
    matrix's denominator 6 has a common factor with it.
    """
    r = random.Random(f"handover-{seed}")
    if treatment:
        model = random_treatment_model(f"handover-{seed}")
        problem = idg.build_treatment_problem(model)
        structure = idg.marginal_structure(model, [r.choice(["Y", "T"])])
    else:
        problem, _ = paired_problem(f"handover-{seed}")
        halves = [F(r.randint(0, 1), 2) for _ in range(problem.n_states)]
        thirds = [F(r.randint(0, 1), 3) for _ in range(problem.n_states)]
        rest = [1 - a - b for a, b in zip(halves, thirds)]
        matrix = idg.Matrix(3, problem.n_states, (tuple(halves), tuple(thirds), tuple(rest)))
        structure = idg.InformationStructure(("m0", "m1", "m2"), matrix)
    assume(idg.kernel_of(structure).dim >= 2)
    return problem, structure, r


def _built_programs(problem, structure, r) -> list:
    """Every program the set's builders make: maxmin's, the set's phase 1, the prior set's."""
    iset = replace(idg.identified_set(problem, structure))  # nothing cached on it yet
    phase_one = []
    run = lp._phase_one

    def spy(program):
        phase_one.append(program)
        return run(program)

    lp._phase_one = spy
    try:
        iset._phase_one
    finally:
        lp._phase_one = run
    alpha = idg.MixedAction.pure(r.randrange(problem.n_actions), problem.n_actions)
    return [
        iset._maxmin_program(problem),
        *phase_one,
        problem.priors.feasibility_program(),
        solver.supporting_prior_program(problem, alpha),
    ]


def _assert_hands_over_the_rows_sparse_row_compiles(problem, structure, r) -> None:
    programs = _built_programs(problem, structure, r)
    assert len(programs) == 4
    for program in programs:
        assert "_rows" in program.__dict__  # handed over, not computed on a read
        rows = program.eq_matrix + program.ub_matrix
        assert program._rows == tuple(sparse_row(row) for row in rows)
        # replace builds the program again, and its view is computed afresh
        assert lp.solve_lp(replace(program)) == lp.solve_lp(program)


@given(st.integers(0, 2**32), st.booleans())
def test_builders_hand_over_the_rows_sparse_row_compiles(seed, treatment):
    _assert_hands_over_the_rows_sparse_row_compiles(*_wide_identified_set(seed, treatment))


def _generic_ub():
    data = Path(__file__).parent / "data"
    loaded = documents.parse_problem_document(documents.load_json(str(data / "generic-ub.json")))
    structure_doc = documents.load_json(str(data / "generic-ub-structure.json"))
    return loaded.problem, documents.parse_structure_document(structure_doc, loaded)


@pytest.mark.parametrize("case", ["example", "generic-ub"])
def test_the_recorded_sets_hand_over_the_rows_sparse_row_compiles(
    case, example_problem, example_marginal_yt
):
    # the recorded Y,T marginal (equality rows only) and generic-ub (inequality rows too)
    problem, structure = (
        (example_problem, example_marginal_yt) if case == "example" else _generic_ub()
    )
    _assert_hands_over_the_rows_sparse_row_compiles(problem, structure, random.Random(case))


@pytest.mark.parametrize("case", ["example", "generic-ub"])
def test_solving_the_maxmin_program_compiles_none_of_its_rows(
    case, example_problem, example_marginal_yt, monkeypatch
):
    # the set hands its compiled rows over, so neither the standard form nor
    # the checker compiles a row: phase 2 compiles the objective alone, once
    # per solve; a program built afresh also compiles each row once
    problem, structure = (
        (example_problem, example_marginal_yt) if case == "example" else _generic_ub()
    )
    program = idg.identified_set(problem, structure)._maxmin_program(problem)
    assert case == "example" or program.ub_matrix[problem.n_actions:]
    compiled = []
    real = lp.sparse_row

    def counted(row):
        compiled.append(row)
        return real(row)

    monkeypatch.setattr(lp, "sparse_row", counted)
    outcome = lp.solve_lp(program)
    assert len(compiled) == 1 and compiled[0] is program.objective
    compiled.clear()
    fresh = replace(program)
    assert lp.solve_lp(fresh) == outcome
    rows = fresh.eq_matrix + fresh.ub_matrix
    assert sorted(map(id, compiled)) == sorted(map(id, rows + (fresh.objective,)))


# two states, two actions, the whole simplex as the prior set
_SMALL = idg.DecisionProblem(
    states=("s0", "s1"),
    actions=("a0", "a1"),
    utility=idg.Matrix.from_rows([[1, 0], [0, 1]]),
    mu=(F(1, 2), F(1, 2)),
    priors=idg.PriorPolytope.simplex(2),
)
_PURE = idg.MixedAction.pure(0, 2)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: idg.PriorPolytope(1, eq_matrix=((F(1),),)), idg.DimensionMismatch,
                     "constraint matrix and rhs lengths differ", id="rhs-length"),
        pytest.param(lambda: idg.PriorPolytope(2, eq_matrix=((F(1),),), eq_rhs=(F(1),)),
                     idg.DimensionMismatch, "constraint row of length 1 over 2 states",
                     id="row-length"),
        pytest.param(lambda: _SMALL.priors.contains((F(1),)), idg.DimensionMismatch,
                     "point of length 1 in a 2-state prior set", id="contains"),
        pytest.param(lambda: idg.MixedAction(()), idg.DimensionMismatch,
                     "mixed action over zero actions", id="no-actions"),
        pytest.param(lambda: idg.MixedAction.pure(2, 2), IndexError,
                     "pure action index 2 out of range 2", id="pure-index"),
        pytest.param(lambda: idg.InformationStructure(("m0",), idg.Matrix.identity(2)),
                     idg.DimensionMismatch, "1 messages but 2 matrix rows", id="message-count"),
        pytest.param(lambda: idg.InformationStructure((), idg.Matrix(0, 2, ())),
                     idg.DimensionMismatch, "experiment needs at least one message",
                     id="no-messages"),
        pytest.param(lambda: replace(_SMALL, actions=()), idg.DimensionMismatch,
                     "need at least one state and one action", id="no-labels"),
        pytest.param(lambda: replace(_SMALL, states=("s0", "s0")), ValueError,
                     "state labels must be unique", id="state-labels"),
        pytest.param(lambda: replace(_SMALL, actions=("a0", "a0")), ValueError,
                     "action labels must be unique", id="action-labels"),
        pytest.param(lambda: replace(_SMALL, utility=idg.Matrix.identity(3)),
                     idg.DimensionMismatch, "utility matrix shape does not match labels",
                     id="utility-shape"),
        pytest.param(lambda: replace(_SMALL, mu=(F(1),)), idg.DimensionMismatch,
                     "mu length does not match the state count", id="mu-length"),
        pytest.param(lambda: replace(_SMALL, priors=idg.PriorPolytope.simplex(3)),
                     idg.DimensionMismatch, "prior set dimension does not match the state count",
                     id="prior-dimension"),
        pytest.param(lambda: replace(_SMALL, mu=(F(1), F(1))), ValueError,
                     "mu must be a probability vector", id="mu-distribution"),
        pytest.param(lambda: _SMALL.mixed_utility(idg.MixedAction.pure(0, 3)),
                     idg.DimensionMismatch, "mixed action length does not match the action count",
                     id="mixed-utility"),
        pytest.param(lambda: _SMALL.action_index(2), IndexError, "action index 2 out of range",
                     id="action-index"),
        pytest.param(lambda: _SMALL.action_index("a2"), KeyError, "unknown action label 'a2'",
                     id="action-label"),
        pytest.param(lambda: idg.payoff(_PURE, (F(1),), _SMALL), idg.DimensionMismatch,
                     "state distribution length does not match the problem", id="payoff-nu"),
        pytest.param(lambda: idg.payoff(idg.MixedAction.pure(0, 3), _SMALL.mu, _SMALL),
                     idg.DimensionMismatch, "mixed action length does not match the action count",
                     id="payoff-alpha"),
        pytest.param(lambda: idg.identified_set(_SMALL, idg.InformationStructure.identity(3)),
                     idg.DimensionMismatch, "experiment columns do not match the problem's states",
                     id="identified-set"),
    ],
)
def test_model_refuses_inconsistent_inputs(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
