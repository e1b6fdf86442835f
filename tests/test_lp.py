"""The exact simplex: examples, certificates, determinism."""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given

import infodesign as idg
from infodesign import lp

from support import (
    nudge_point,
    random_program,
    rational_programs,
    tamper_phase_two,
    tamper_refutations,
)


def test_bounded_maximum():
    p = lp.LinearProgram(
        objective=idg.vector([1]),
        sense="max",
        ub_matrix=(idg.vector([1]),),
        ub_rhs=idg.vector([1]),
    )
    out = lp.solve_lp(p)
    assert out.status is lp.LpStatus.OPTIMAL
    assert out.optimal_value == 1
    assert lp.verify_outcome(p, out)


def test_infeasible_with_farkas():
    p = lp.LinearProgram(
        objective=idg.vector([0]),
        ub_matrix=(idg.vector([-1]), idg.vector([1])),
        ub_rhs=idg.vector([-1, 0]),
    )
    out = lp.solve_lp(p)
    assert out.status is lp.LpStatus.INFEASIBLE
    assert isinstance(out.certificate, lp.FarkasCertificate)
    assert lp.verify_outcome(p, out)


def test_a_refutation_that_fails_its_check_is_not_returned(monkeypatch):
    # phase 1's certificate is negated before solve_lp sees it
    p = lp.LinearProgram(
        objective=idg.vector([0]),
        ub_matrix=(idg.vector([-1]), idg.vector([1])),
        ub_rhs=idg.vector([-1, 0]),
    )
    tamper_refutations(monkeypatch)
    with pytest.raises(AssertionError, match="infeasible outcome failed its own certificate check"):
        lp.solve_lp(p)


def _negated_dual(outcome):
    cert = outcome.certificate
    return replace(outcome, certificate=replace(cert, ub=(-cert.ub[0], *cert.ub[1:])))


def _reversed_ray(outcome):
    ray = outcome.certificate
    return replace(outcome, certificate=replace(ray, direction=tuple(-v for v in ray.direction)))


BOUNDED_MAX = lp.LinearProgram(
    objective=idg.vector([1]), sense="max", ub_matrix=(idg.vector([1]),), ub_rhs=idg.vector([1])
)
UNBOUNDED_MIN = lp.LinearProgram(objective=idg.vector([-1]))


@pytest.mark.parametrize(
    "program, tamper, status",
    [
        (BOUNDED_MAX, nudge_point, "optimal"),  # max x s.t. x <= 1, at x = 2
        (BOUNDED_MAX, _negated_dual, "optimal"),  # x <= 1's multiplier of the wrong sign
        (UNBOUNDED_MIN, _reversed_ray, "unbounded"),  # min -x along -x
    ],
)
def test_an_outcome_that_fails_its_check_is_not_returned(monkeypatch, program, tamper, status):
    # phase 2's outcome is tampered with before solve_lp sees it
    assert lp.solve_lp(program).status.value == status
    tamper_phase_two(monkeypatch, tamper)
    with pytest.raises(AssertionError, match=f"an {status} outcome failed its own certificate check"):
        lp.solve_lp(program)


def test_unbounded_with_ray():
    p = lp.LinearProgram(objective=idg.vector([1, 0]), sense="max")
    out = lp.solve_lp(p)
    assert out.status is lp.LpStatus.UNBOUNDED
    assert isinstance(out.certificate, lp.ImprovingRay)
    assert lp.verify_outcome(p, out)


def test_worst_case_value_over_identified_set(example_problem, example_marginal_yt):
    # assemble the inner minimization directly from the H-representation,
    # independent of the solver module's kernel reformulation
    problem = example_problem
    iset = idg.identified_set(problem, example_marginal_yt)
    eq_rows, eq_rhs = iset.equality_rows()
    n = problem.n_states
    program = lp.LinearProgram(
        objective=problem.utility_row(0),
        sense="min",
        eq_matrix=((F(1),) * n,) + eq_rows,
        eq_rhs=(F(1),) + eq_rhs,
        ub_matrix=iset.inequality_rows()[0],
        ub_rhs=iset.inequality_rows()[1],
    )
    out = lp.solve_lp(program)
    assert out.status is lp.LpStatus.OPTIMAL
    assert out.optimal_value == F(1, 16)
    assert lp.verify_outcome(program, out)


def test_solve_lp_on_simplex():
    p = lp.LinearProgram(
        objective=idg.vector([0, 0, 0]),
        eq_matrix=(idg.vector([1, 1, 1]),),
        eq_rhs=idg.vector([1]),
    )
    out = lp.solve_lp(p)
    assert out.status is lp.LpStatus.OPTIMAL
    point = out.optimal_point
    assert sum(point) == 1 and all(x >= 0 for x in point)


def test_supporting_system_for_treated_action_is_feasible(example_problem, example_model):
    problem = example_problem
    from infodesign.solver import supporting_prior_program

    program = supporting_prior_program(problem, idg.MixedAction.pure(1, 2))
    out = lp.solve_lp(program)
    assert out.status is lp.LpStatus.OPTIMAL
    # the known worst-case joint satisfies the same system
    lifted = idg.motivating_worst_case_prior(example_model)
    assert lp._point_feasible(program, lifted)


def test_empty_polytope_is_infeasible():
    p = lp.LinearProgram(
        objective=idg.vector([0, 0]),
        eq_matrix=(idg.vector([1, 1]),),
        eq_rhs=idg.vector([-1]),
    )
    out = lp.solve_lp(p)
    assert out.status is lp.LpStatus.INFEASIBLE
    assert lp.verify_outcome(p, out)


def test_determinism_and_duality_on_random_programs():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(1, 4)
        n_eq = rng.randint(0, 2)
        n_ub = rng.randint(0, 3)
        p = lp.LinearProgram(
            objective=idg.vector([rng.randint(-4, 4) for _ in range(n)]),
            sense=rng.choice(["min", "max"]),
            eq_matrix=tuple(
                idg.vector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(n_eq)
            ),
            eq_rhs=idg.vector([rng.randint(-3, 3) for _ in range(n_eq)]),
            ub_matrix=tuple(
                idg.vector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(n_ub)
            ),
            ub_rhs=idg.vector([rng.randint(-3, 3) for _ in range(n_ub)]),
            lower_bounds=tuple(rng.choice([F(0), F(0), None]) for _ in range(n)),
        )
        first = lp.solve_lp(p)
        assert lp.verify_outcome(p, first)
        assert lp.solve_lp(p) == first


def _fraction_priced(cost, rows, basis) -> list:
    """The reduced costs over Fractions: each basic column eliminated in turn, over cost[-2]."""
    values = [F(x) for x in cost]
    for row, c in zip(rows, basis):
        f = values[c] / row[c]
        values = [v - f * x for v, x in zip(values, row)]
    return [v / values[-2] for v in values]


def test_pricing_is_the_primitive_row_of_the_reduced_costs():
    # one integer sum over the lcm of the heads, in phase 1 and in phase 2
    rng = random.Random(34)
    priced = 0
    for _ in range(120):
        p = random_program(rng)
        std = lp._Standard(p)
        m = len(std.rows)
        cases = [
            ([0] * std.n_struct + [1] * m + [1, 0], std.rows, [std.n_struct + i for i in range(m)])
        ]
        start = lp._phase_one(p)
        if isinstance(start, lp._Feasible):
            cases.append((std.cost_row(p.objective, p.sense), start.rows, start.basis))
        for cost, rows, basis in cases:
            row = lp._price(list(cost), rows, basis)
            assert row[-2] > 0 and math.gcd(*row) == 1
            assert [F(x, row[-2]) for x in row] == _fraction_priced(cost, rows, basis)
            assert all(row[c] == 0 for c in basis)
            priced += 1
    assert priced > 150


def test_a_handed_over_view_needs_one_row_per_constraint():
    program = lp.LinearProgram(
        objective=(F(1), F(-1)),
        eq_matrix=((F(1), F(1)),),
        eq_rhs=(F(1),),
        ub_matrix=((F(1, 2), F(0)),),
        ub_rhs=(F(1, 3),),
    )
    rows = replace(program)._rows
    with pytest.raises(idg.DimensionMismatch, match="1 compiled rows handed over for 2"):
        lp._with_rows(replace(program), rows[:1])
    assert lp.solve_lp(lp._with_rows(replace(program), rows)) == lp.solve_lp(program)


def test_malformed_dimensions_rejected():
    with pytest.raises(idg.DimensionMismatch):
        lp.LinearProgram(objective=idg.vector([1, 2]), eq_matrix=(idg.vector([1]),), eq_rhs=idg.vector([0]))
    with pytest.raises(idg.DimensionMismatch):
        lp.LinearProgram(objective=())


def _tampered(outcome: lp.LpOutcome) -> lp.LpOutcome:
    """A copy that must fail verification: the optimal value off by one, or
    the Farkas certificate or the ray direction negated."""
    cert = outcome.certificate
    if outcome.status is lp.LpStatus.OPTIMAL:
        return replace(outcome, optimal_value=outcome.optimal_value + 1)
    if outcome.status is lp.LpStatus.INFEASIBLE:
        negated = (tuple(-v for v in part) for part in (cert.eq, cert.ub, cert.lb))
        return replace(outcome, certificate=type(cert)(*negated))
    return replace(outcome, certificate=replace(cert, direction=tuple(-v for v in cert.direction)))


def test_verify_rejects_tampered_certificates():
    # one tampered copy per outcome of the criterion-10 programs: an optimal
    # value off by one, a negated Farkas certificate, a negated ray
    rng = random.Random("acc10")
    counts = {status: 0 for status in lp.LpStatus}
    for _ in range(500):
        program = random_program(rng)
        outcome = lp.solve_lp(program)
        counts[outcome.status] += 1
        assert lp.verify_outcome(program, outcome)
        assert not lp.verify_outcome(program, _tampered(outcome))
    assert all(count >= 25 for count in counts.values()), counts


@given(rational_programs())
def test_certificates_verify_on_rational_programs(program):
    outcome = lp.solve_lp(program)
    assert lp.verify_outcome(program, outcome)
    assert not lp.verify_outcome(program, _tampered(outcome))


def test_verify_rejects_a_bound_multiplier_on_a_free_variable():
    # min 0 s.t. x = 0 with x free: y = -1, s = 1 meets stationarity and the
    # value, but a free variable has no bound for s to price
    program = lp.LinearProgram(
        objective=(F(0),), eq_matrix=((F(1),),), eq_rhs=(F(0),), lower_bounds=(None,)
    )
    outcome = lp.solve_lp(program)
    forged = lp.DualCertificate(eq=(F(-1),), ub=(), lb=(F(1),))
    assert lp.verify_outcome(program, outcome)
    assert not lp.verify_outcome(program, replace(outcome, certificate=forged))


def test_verify_rejects_float_certificate_entries():
    # max x s.t. x <= 0: the row's right-hand side is zero, so the float
    # multiplier reaches a nonzero product only in the stationarity check
    program = lp.LinearProgram(
        objective=(F(1),), sense="max", ub_matrix=((F(1),),), ub_rhs=(F(0),)
    )
    outcome = lp.solve_lp(program)
    assert outcome.certificate == lp.DualCertificate(eq=(), ub=(F(1),), lb=(F(0),))
    floated = replace(outcome.certificate, ub=(1.0,))
    with pytest.raises(TypeError, match="not an exact number"):
        lp.verify_outcome(program, replace(outcome, certificate=floated))


def test_verify_rejects_float_refutation_and_ray_entries():
    # x <= -1 with x >= 0 is refuted by w = -1, s = 1; min -x s.t. x - y <= 0
    # is unbounded along (1, 1). Each float meets a nonzero row entry.
    empty = lp.LinearProgram(objective=(F(0),), ub_matrix=((F(1),),), ub_rhs=(F(-1),))
    refuted = lp.solve_lp(empty)
    assert refuted.certificate == lp.FarkasCertificate(eq=(), ub=(F(-1),), lb=(F(1),))
    floated = replace(refuted.certificate, ub=(-1.0,))
    with pytest.raises(TypeError, match="not an exact number"):
        lp.verify_outcome(empty, replace(refuted, certificate=floated))

    open_cone = lp.LinearProgram(
        objective=(F(-1), F(0)), ub_matrix=((F(1), F(-1)),), ub_rhs=(F(0),)
    )
    ray = lp.solve_lp(open_cone)
    assert ray.certificate == lp.ImprovingRay(direction=(F(1), F(1)), base_point=(F(0), F(0)))
    floated = replace(ray.certificate, direction=(1.0, F(1)))
    with pytest.raises(TypeError, match="not an exact number"):
        lp.verify_outcome(open_cone, replace(ray, certificate=floated))


def test_verify_rejects_float_entries_that_meet_only_zeros():
    # min x s.t. x <= 5: the float lower-bound multiplier meets a zero bound
    program = lp.LinearProgram(objective=(F(1),), ub_matrix=((F(1),),), ub_rhs=(F(5),))
    outcome = lp.solve_lp(program)
    floated = lp.DualCertificate(eq=(), ub=(0,), lb=(1.0,))
    with pytest.raises(TypeError, match="not an exact number: 1.0"):
        lp.verify_outcome(program, replace(outcome, certificate=floated))
    # min y s.t. 0x + 0y <= 0, y <= 1: the float multiplier sits on an all-zero row
    program = lp.LinearProgram(
        objective=(F(0), F(1)),
        ub_matrix=((F(0), F(0)), (F(0), F(1))),
        ub_rhs=(F(0), F(1)),
    )
    outcome = lp.solve_lp(program)
    floated = replace(outcome.certificate, ub=(-0.5, F(0)))
    with pytest.raises(TypeError, match="not an exact number: -0.5"):
        lp.verify_outcome(program, replace(outcome, certificate=floated))


def test_verifying_a_ray_builds_no_program(monkeypatch):
    # the direction is tested against zero right-hand sides and bounds in place
    program = lp.LinearProgram(objective=(F(-1), F(0)), ub_matrix=((F(1), F(-1)),), ub_rhs=(F(0),))
    outcome = lp.solve_lp(program)
    assert outcome.status is lp.LpStatus.UNBOUNDED
    built = []
    post_init = lp.LinearProgram.__post_init__

    def counted(program):
        built.append(program)
        post_init(program)

    monkeypatch.setattr(lp.LinearProgram, "__post_init__", counted)
    assert lp.verify_outcome(program, outcome)
    assert built == []


@pytest.mark.parametrize(
    "fields",
    [
        dict(objective=(0.1, F(1)), eq_matrix=((F(1), 0.3),), eq_rhs=(F(1),)),
        dict(objective=(F(1), F(1)), ub_matrix=((F(1), F(1)),), ub_rhs=(0.5,)),
        dict(objective=(F(1), F(1)), eq_matrix=((F(1), 1.0),), eq_rhs=(F(1),)),
        dict(objective=(F(1), F(1)), lower_bounds=(None, 0.5)),
    ],
)
def test_float_data_rejected(fields):
    # a float would make the exact outcome and its verification inexact
    with pytest.raises(TypeError, match="int or Fraction"):
        lp.LinearProgram(**fields)


def _wide_program(n: int = 30) -> dict:
    """The fields of a 30-variable program with 12 rows, every entry a Fraction."""
    r = random.Random("wide")

    def entries(count):
        return tuple(F(r.randint(-4, 4), r.randint(1, 6)) for _ in range(count))

    return dict(
        objective=entries(n),
        eq_matrix=tuple(entries(n) for _ in range(6)),
        eq_rhs=entries(6),
        ub_matrix=tuple(entries(n) for _ in range(6)),
        ub_rhs=entries(6),
        lower_bounds=(F(0),) * (n - 1) + (F(-1, 2),),
    )


def _last_set(values: tuple, bad) -> tuple:
    return values[:-1] + (bad,)


@pytest.mark.parametrize(
    "field", ["objective", "eq_matrix", "eq_rhs", "ub_matrix", "ub_rhs", "lower_bounds"]
)
def test_a_float_after_many_fractions_is_named(field):
    # the one-pass type test must not hide which entry is bad
    fields = _wide_program()
    if field.endswith("matrix"):
        fields[field] = _last_set(fields[field], _last_set(fields[field][-1], 0.5))
    else:
        fields[field] = _last_set(fields[field], 0.5)
    with pytest.raises(TypeError, match=r"^not an exact number: 0\.5 \(int or Fraction required\)$"):
        lp.LinearProgram(**fields)


@pytest.mark.parametrize("part", ["eq", "ub", "lb"])
def test_a_float_after_many_fractions_in_a_certificate_is_named(part):
    n = 30
    program = lp.LinearProgram(
        objective=tuple(F(j + 1, 3) for j in range(n)),
        eq_matrix=((F(1),) * n,),
        eq_rhs=(F(1),),
        ub_matrix=tuple(tuple(F(i == j, 2) for j in range(n)) for i in range(n)),
        ub_rhs=(F(1),) * n,
    )
    outcome = lp.solve_lp(program)
    assert outcome.status is lp.LpStatus.OPTIMAL
    cert = outcome.certificate
    bad = replace(cert, **{part: _last_set(getattr(cert, part), 0.5)})
    with pytest.raises(TypeError, match=r"^not an exact number: 0\.5 \(int or Fraction required\)$"):
        lp.verify_outcome(program, replace(outcome, certificate=bad))


class _Int(int):
    pass


class _Fraction(F):
    pass


def test_bools_and_subclasses_of_int_and_fraction_are_exact():
    plain = lp.LinearProgram(
        objective=(F(1), F(2), F(1, 2)),
        eq_matrix=((F(1), F(1), F(1)),),
        eq_rhs=(F(1),),
        ub_matrix=((F(1), F(0), F(-1, 3)),),
        ub_rhs=(F(1, 2),),
    )
    odd = lp.LinearProgram(
        objective=(True, _Int(2), _Fraction(1, 2)),
        eq_matrix=((True, _Int(1), _Fraction(1)),),
        eq_rhs=(_Int(1),),
        ub_matrix=((_Fraction(1), False, _Fraction(-1, 3)),),
        ub_rhs=(_Fraction(1, 2),),
        lower_bounds=(False, _Int(0), _Fraction(0)),
    )
    assert lp.solve_lp(odd) == lp.solve_lp(plain)
