"""Command-line interface: reports, documents, exit codes, round-trips."""

import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import cli, documents, lp, model, numerics
from infodesign.cli import main

from support import paired_problem, tamper_phase_two, tamper_refutations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(capsys, *argv):
    code, out, err = run(capsys, "--format", "machine", *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


@pytest.fixture()
def example_files(tmp_path, capsys):
    prob = tmp_path / "problem.json"
    marg = tmp_path / "marginal.json"
    code, _, _ = machine(
        capsys, "example", "--write-problem", str(prob), "--write-structure", str(marg)
    )
    assert code == 0
    return prob, marg


def test_example_report(capsys):
    code, payload, _ = machine(capsys, "example")
    assert code == 0
    assert payload["full_information_means"] == {"t0": "1/4", "t1": "1/8"}
    assert payload["worst_case_payoffs"] == {"t0": "1/16", "t1": "1/8"}
    assert payload["policy_reversal"] is True
    assert payload["maxmin_marginal_disclosure"]["alpha_star"] == {"t0": "0", "t1": "1"}
    assert payload["maxmin_full_information"]["alpha_star"] == {"t0": "1", "t1": "0"}


# The whole `infodesign example` report. The display cells (y, x, t) sum the
# extended example's distributions over its signal covariate.
EXAMPLE_REPORT = {
    "command": "example",
    "observed_distribution": {
        "(y=0,x=x0,t=t0)": "2/5",
        "(y=0,x=x0,t=t1)": "1/10",
        "(y=0,x=x1,t=t0)": "1/20",
        "(y=0,x=x1,t=t1)": "3/10",
        "(y=1,x=x0,t=t0)": "0",
        "(y=1,x=x0,t=t1)": "0",
        "(y=1,x=x1,t=t0)": "1/20",
        "(y=1,x=x1,t=t1)": "1/10",
    },
    "disclosed_marginal": {
        "0,t0": "9/20",
        "0,t1": "2/5",
        "1,t0": "1/20",
        "1,t1": "1/10",
    },
    "worst_case_joint": {
        "(y=0,x=x0,t=t0)": "7/20",
        "(y=0,x=x0,t=t1)": "1/10",
        "(y=0,x=x1,t=t0)": "1/10",
        "(y=0,x=x1,t=t1)": "3/10",
        "(y=1,x=x0,t=t0)": "1/20",
        "(y=1,x=x0,t=t1)": "0",
        "(y=1,x=x1,t=t0)": "0",
        "(y=1,x=x1,t=t1)": "1/10",
    },
    "full_information_means": {
        "t0": "1/4",
        "t1": "1/8",
    },
    "worst_case_payoffs": {
        "t0": "1/16",
        "t1": "1/8",
    },
    "maxmin_full_information": {
        "alpha_star": {
            "t0": "1",
            "t1": "0",
        },
        "value": "1/4",
    },
    "maxmin_marginal_disclosure": {
        "alpha_star": {
            "t0": "0",
            "t1": "1",
        },
        "value": "1/8",
    },
    "policy_reversal": True,
}

EXAMPLE_TABLE = """\
command: example
observed_distribution:
  (y=0,x=x0,t=t0): 2/5
  (y=0,x=x0,t=t1): 1/10
  (y=0,x=x1,t=t0): 1/20
  (y=0,x=x1,t=t1): 3/10
  (y=1,x=x0,t=t0): 0
  (y=1,x=x0,t=t1): 0
  (y=1,x=x1,t=t0): 1/20
  (y=1,x=x1,t=t1): 1/10
disclosed_marginal:
  0,t0: 9/20
  0,t1: 2/5
  1,t0: 1/20
  1,t1: 1/10
worst_case_joint:
  (y=0,x=x0,t=t0): 7/20
  (y=0,x=x0,t=t1): 1/10
  (y=0,x=x1,t=t0): 1/10
  (y=0,x=x1,t=t1): 3/10
  (y=1,x=x0,t=t0): 1/20
  (y=1,x=x0,t=t1): 0
  (y=1,x=x1,t=t0): 0
  (y=1,x=x1,t=t1): 1/10
full_information_means:
  t0: 1/4
  t1: 1/8
worst_case_payoffs:
  t0: 1/16
  t1: 1/8
maxmin_full_information:
  alpha_star:
    t0: 1
    t1: 0
  value: 1/4
maxmin_marginal_disclosure:
  alpha_star:
    t0: 0
    t1: 1
  value: 1/8
policy_reversal: True
"""


def test_example_output_is_pinned(capsys):
    code, out, _ = run(capsys, "--format", "machine", "example")
    assert code == 0
    assert out == json.dumps(EXAMPLE_REPORT, indent=2) + "\n"
    code, out, _ = run(capsys, "example")
    assert code == 0
    assert out == EXAMPLE_TABLE


def test_solve_marginal(example_files, capsys):
    prob, marg = example_files
    code, payload, _ = machine(capsys, "solve", str(prob), str(marg))
    assert code == 0
    states = [f"({y},x{x},s{s},t{t})" for y in (0, 1) for x in (0, 1) for s in (0, 1) for t in (0, 1)]
    assert payload == {
        "command": "solve",
        "states": states,
        "actions": ["t0", "t1"],
        "value": "1/8",
        "alpha_star": {"t0": "0", "t1": "1"},
        # the LP's optimal vertex, which Bland's rule fixes
        "nu_star": {
            "(0,x0,s0,t0)": "11/30",
            "(0,x0,s0,t1)": "1/10",
            "(0,x0,s1,t0)": "0",
            "(0,x0,s1,t1)": "0",
            "(0,x1,s0,t0)": "1/12",
            "(0,x1,s0,t1)": "3/10",
            "(0,x1,s1,t0)": "0",
            "(0,x1,s1,t1)": "0",
            "(1,x0,s0,t0)": "1/30",
            "(1,x0,s0,t1)": "0",
            "(1,x0,s1,t0)": "0",
            "(1,x0,s1,t1)": "0",
            "(1,x1,s0,t0)": "1/60",
            "(1,x1,s0,t1)": "1/10",
            "(1,x1,s1,t0)": "0",
            "(1,x1,s1,t1)": "0",
        },
        "worst_cases": {"t0": "1/16", "t1": "1/8"},
        "structure": {
            "messages": ["0,t0", "0,t1", "1,t0", "1,t1"],
            "kernel_dim": 12,
            "fully_informative": False,
            "almost_fully_informative": False,
        },
    }


def test_solve_identity(example_files, tmp_path, capsys):
    prob, _ = example_files
    identity = idg.InformationStructure.identity(16)
    doc = documents.serialize_structure_matrix(identity)
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(doc))
    code, payload, _ = machine(capsys, "solve", str(prob), str(path))
    assert code == 0
    assert payload["value"] == "1/4"
    assert payload["alpha_star"] == {"t0": "1", "t1": "0"}


def test_implement_roundtrip(example_files, tmp_path, capsys):
    prob, _ = example_files
    out_path = tmp_path / "constructed.json"
    code, payload, _ = machine(capsys, "implement", str(prob), "t1", "--out", str(out_path))
    assert code == 0
    assert payload["implementable"] is True
    assert payload["value"] == "1/8"
    assert payload["structure"]["kernel_dim"] == 1

    # the emitted kernel block re-parses to a structure with that kernel
    emitted = json.loads(out_path.read_text())
    basis = emitted["kernel"]["basis"]
    code, solved, _ = machine(capsys, "solve", str(prob), str(out_path))
    assert code == 0
    assert solved["value"] == "1/8"
    loaded = documents.parse_problem_document(json.loads(prob.read_text()), "problem")
    structure = documents.parse_structure_document(emitted, loaded, "structure")
    kernel = idg.kernel_of(structure)
    assert [[idg.format_scalar(v) for v in row] for row in kernel.basis] == basis


def test_a_scaled_kernel_basis_reads_as_the_same_kernel(example_files, tmp_path, capsys):
    # each basis row doubled, plus one row repeated: the same span, so the same structure
    prob, _ = example_files
    k = tmp_path / "k.json"
    code, _, _ = machine(capsys, "implement", str(prob), "t1", "--out", str(k))
    assert code == 0
    doc = json.loads(k.read_text())
    doubled = [[str(2 * Fraction(x)) for x in row] for row in doc["kernel"]["basis"]]
    assert doubled and doubled != doc["kernel"]["basis"]
    doc["kernel"]["basis"] = doubled + doubled[:1]
    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps(doc))
    code, payload, _ = machine(capsys, "check", str(prob), str(k), str(k2))
    assert code == 0
    assert payload["ordering"] == "equal"
    code, first, _ = run(capsys, "--format", "machine", "solve", str(prob), str(k))
    assert code == 0
    code, second, _ = run(capsys, "--format", "machine", "solve", str(prob), str(k2))
    assert code == 0
    assert second == first


def test_implement_untreated_action_is_fully_informative(example_files, tmp_path, capsys):
    prob, _ = example_files
    out_path = tmp_path / "full.json"
    code, payload, _ = machine(capsys, "implement", str(prob), "t0", "--out", str(out_path))
    assert code == 0
    assert payload["structure"]["fully_informative"] is True
    assert payload["value"] == "1/4"
    # an empty kernel block round-trips to the identity experiment
    emitted = json.loads(out_path.read_text())
    assert emitted["kernel"]["basis"] == []
    code, solved, _ = machine(capsys, "solve", str(prob), str(out_path))
    assert code == 0
    assert solved["value"] == "1/4"
    assert solved["alpha_star"] == {"t0": "1", "t1": "0"}


def test_document_exclusivity_validation(example_files, tmp_path, capsys):
    prob, marg = example_files
    # a problem document with both representations is rejected
    doc = json.loads(prob.read_text())
    doc["states"] = ["s0"]
    both = tmp_path / "both.json"
    both.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(both), str(marg))
    assert code == 2 and "either" in err
    # a structure document with two representations is rejected
    sdoc = {"schema_version": "1", "marginal": {"variables": ["Y"]}, "kernel": {"basis": []}}
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(sdoc))
    code, _, err = run(capsys, "solve", str(prob), str(twice))
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize(
    "problem_kind, document, message",
    [
        ("generic", {"schema_version": "2", "kernel": {"basis": []}},
         ": unsupported schema_version '2'"),
        ("generic", {"messages": ["m0"], "matrix": [["1", "1"], ["0", "0"]]},
         ".matrix: expected one row per message"),
        ("generic", {"messages": ["m0", "m1"], "matrix": [["1", "1"], ["1", "0"]]},
         ": experiment column 0 is not a probability vector"),
        ("generic", {"kernel": {"basis": [["1", "1"]]}},
         ": kernel directions must have zero coordinate sum"),
        ("generic", {"kernel": [["1", "-1"]]}, ".kernel: expected an object"),
        ("generic", {"marginal": {"variables": ["Y"]}}, ".marginal: requires a treatment problem"),
        ("treatment", {"marginal": ["Y"]}, ".marginal: expected an object"),
    ],
    ids=["schema", "rows", "column", "kernel-sum", "kernel-list", "marginal-generic", "marginal-list"],
)
def test_structure_document_errors_exit_two(
    example_files, tmp_path, capsys, problem_kind, document, message
):
    if problem_kind == "treatment":
        problem = example_files[0]
    else:
        problem, _ = _number_documents(tmp_path, '"1"')
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "solve", str(problem), str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}{message}\n"


DOMINATED = {
    "schema_version": "1",
    "states": ["s0", "s1"],
    "actions": ["good", "bad"],
    "utility": [["1", "2"], ["0", "1"]],
    "mu": ["1/2", "1/2"],
    "prior_constraints": {},
}


def test_implement_rejects_dominated(tmp_path, capsys):
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps(DOMINATED))
    code, payload, _ = machine(capsys, "implement", str(path), "bad")
    assert code == 3
    assert payload["implementable"] is False
    assert "farkas" in payload


def test_tampered_refutation_exits_seven(tmp_path, capsys, monkeypatch):
    # implement checks its Farkas certificate before it reports exit 3
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps(DOMINATED))
    tamper_refutations(monkeypatch)
    code, out, err = run(capsys, "implement", str(path), "bad")
    assert (code, out) == (7, "")
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: internal error: an infeasible outcome failed its own certificate check"
    ]


def test_tampered_optimum_exits_seven(example_files, capsys, monkeypatch):
    # solve on the Y,T marginal (k = 12) runs maxmin's program, whose optimum lp checks
    prob, marg = example_files
    tamper_phase_two(monkeypatch)
    code, out, err = run(capsys, "solve", str(prob), str(marg))
    assert (code, out) == (7, "")
    assert err.splitlines() == [
        "error: internal error: an optimal outcome failed its own certificate check"
    ]


DATA = Path(__file__).parent / "data"


def test_certificates_match_the_recorded_outputs(example_files, capsys):
    # solve on the Y,T marginal (k >= 2: the maxmin program and the worst cases),
    # solve on a generic problem with prior inequalities, and the refutation of a dominated action, byte for byte as recorded under
    # tests/data; CI compares the installed console script with the same files
    prob, marg = example_files
    code, out, _ = run(capsys, "--format", "machine", "solve", str(prob), str(marg))
    assert code == 0 and out.encode() == (DATA / "solve-yt.json").read_bytes()
    # a generic k >= 2 solve over a prior set with inequality rows, so the
    # maxmin program carries slack columns and a nonzero inequality dual
    generic = [str(DATA / name) for name in ("generic-ub.json", "generic-ub-structure.json")]
    code, out, _ = run(capsys, "--format", "machine", "solve", *generic)
    assert code == 0 and out.encode() == (DATA / "solve-generic-ub.json").read_bytes()
    dominated = str(DATA / "dominated.json")
    code, out, _ = run(capsys, "--format", "machine", "implement", dominated, "a1")
    assert code == 3 and out.encode() == (DATA / "implement-dominated.json").read_bytes()


def test_farkas_report_checks_against_the_documented_rows(tmp_path, capsys):
    # the README's row order and signs alone, in Fractions, without verify_outcome
    doc = {
        "states": ["s0", "s1", "s2"],
        "actions": ["a0", "a1", "a2"],
        "utility": [["3", "5", "1"], ["2", "4", "0"], ["1", "1/2", "2"]],
        "mu": ["1/3", "1/3", "1/3"],
        "prior_constraints": {
            "equalities": {"matrix": [["1", "-1", "0"]], "rhs": ["0"]},
            "inequalities": {"matrix": [["0", "0", "1"], ["-1", "0", "0"]], "rhs": ["1/2", "-1/10"]},
        },
    }
    path = tmp_path / "refuted.json"
    path.write_text(json.dumps(doc))
    code, payload, _ = machine(capsys, "implement", str(path), "a1:1/2,a2:1/2")
    assert code == 3 and payload["implementable"] is False
    y, w, s = (
        [Fraction(v) for v in payload["farkas"][key]]
        for key in ("equalities", "inequalities", "lower_bounds")
    )

    def numbers(rows):
        return [[Fraction(v) for v in row] for row in rows]

    n = len(doc["states"])
    utility = numbers(doc["utility"])
    mu = [Fraction(v) for v in doc["mu"]]
    u_alpha = [(utility[1][j] + utility[2][j]) / 2 for j in range(n)]
    constraints = doc["prior_constraints"]
    eq_rows = [[Fraction(1)] * n] + numbers(constraints["equalities"]["matrix"])
    eq_rhs = [Fraction(1)] + [Fraction(v) for v in constraints["equalities"]["rhs"]]
    ub_rows = (
        numbers(constraints["inequalities"]["matrix"])
        + [[u[j] - u_alpha[j] for j in range(n)] for u in utility]
        + [u_alpha]
    )
    ub_rhs = (
        [Fraction(v) for v in constraints["inequalities"]["rhs"]]
        + [Fraction(0)] * len(utility)
        + [sum(a * m for a, m in zip(u_alpha, mu))]
    )
    assert (len(y), len(w), len(s)) == (len(eq_rows), len(ub_rows), n)
    assert all(v <= 0 for v in w) and all(v >= 0 for v in s)
    for j in range(n):
        column = sum(yi * row[j] for yi, row in zip(y, eq_rows))
        column += sum(wi * row[j] for wi, row in zip(w, ub_rows))
        assert column + s[j] == 0
    assert sum(a * b for a, b in zip(y + w, eq_rhs + ub_rhs)) > 0


@pytest.mark.parametrize("constraints", [[], None, "", 0, False])
def test_prior_constraints_must_be_an_object(tmp_path, capsys, constraints):
    doc = {
        "schema_version": "1",
        "states": ["s0", "s1"],
        "actions": ["a0", "a1"],
        "utility": [["1", "0"], ["0", "1"]],
        "mu": ["1/2", "1/2"],
        "prior_constraints": constraints,
    }
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "implement", str(path), "a0")
    assert code == 2
    assert f"{path}.prior_constraints: expected an object" in err
    del doc["prior_constraints"]
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "implement", str(path), "a0")
    assert code == 0


def _number_documents(tmp_path, entry):
    """A two-state problem whose first utility entry is raw JSON text, and a k = 1 kernel."""
    problem = tmp_path / "numbers.json"
    problem.write_text(
        '{"states": ["s0", "s1"], "actions": ["a0", "a1"], '
        f'"utility": [[{entry}, "0"], ["0", "1"]], "mu": ["1/2", "1/2"]}}'
    )
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"kernel": {"basis": [["1", "-1"]]}}))
    return problem, kernel


@pytest.mark.parametrize(
    "entry, accepted",
    [
        ('"1e4299"', True),
        ('"1e-4299"', True),
        ('"1e4300"', False),
        ('"1e-4300"', False),
        ('"1e1000000"', False),
        ('"1' + "0" * 4300 + '"', False),
        ('"10e4299"', False),  # the exponent passes, the value has 4301 digits
        ("1" + "0" * 4299, True),
        ("1" + "0" * 4300, False),
    ],
    ids=[
        "1e4299", "1e-4299", "1e4300", "1e-4300", "1e1000000", "str-4301", "10e4299", "int-4300",
        "int-4301",
    ],
)
def test_numbers_beyond_the_digit_limit_exit_two(tmp_path, capsys, entry, accepted):
    problem, kernel = _number_documents(tmp_path, entry)
    code, out, err = run(capsys, "solve", str(problem), str(kernel))
    assert "Traceback" not in out + err
    if accepted:
        assert code == 0
    else:
        assert code == 2
        located = f"{problem}.utility[0][0]: " if entry.startswith('"') else f"{problem}: "
        assert located in err



# string forms of numbers, some equal in value; a document draws its numbers
# from here with repeats, so most strings recur within it
NUMBER_FORMS = ["3", "-2/4", "0.05", "1e1", " 1/2 ", "-1/2", "10"]


@given(st.data())
def test_repeated_number_strings_parse_as_each_alone(data):
    n = data.draw(st.integers(2, 4))
    n_actions = data.draw(st.integers(1, 3))
    forms = st.sampled_from(NUMBER_FORMS)
    utility = [[data.draw(forms) for _ in range(n)] for _ in range(n_actions)]
    eq = [[data.draw(forms) for _ in range(n)] for _ in range(data.draw(st.integers(0, 2)))]
    ub = [[data.draw(forms) for _ in range(n)] for _ in range(data.draw(st.integers(0, 2)))]
    slacks = [data.draw(forms) for _ in ub]

    def exact(rows):
        return tuple(tuple(Fraction(v.strip()) for v in row) for row in rows)

    mu = (Fraction(1, n),) * n
    eq_rhs = tuple(sum(row) / n for row in exact(eq))
    ub_rhs = tuple(sum(row) / n + abs(Fraction(v.strip())) for row, v in zip(exact(ub), slacks))
    doc = {
        "states": [f"s{j}" for j in range(n)],
        "actions": [f"a{a}" for a in range(n_actions)],
        "utility": utility,
        "mu": [f"1/{n}"] * n,
        "prior_constraints": {
            "equalities": {"matrix": eq, "rhs": [str(b) for b in eq_rhs]},
            "inequalities": {"matrix": ub, "rhs": [str(b) for b in ub_rhs]},
        },
    }
    expected = idg.DecisionProblem(
        tuple(doc["states"]),
        tuple(doc["actions"]),
        idg.Matrix(n_actions, n, exact(utility)),
        mu,
        idg.PriorPolytope(n, exact(eq), eq_rhs, exact(ub), ub_rhs, known_member=mu),
    )
    assert documents.parse_problem_document(doc).problem == expected


@pytest.mark.parametrize(
    "first, second, place, message",
    [
        ('"x"', '"x"', "[0][0]", "not an exact number: 'x'"),
        ('"1e4300"', '"1e4300"', "[0][0]", "exponent must be less than 4300 in magnitude"),
        ("1", "true", "[1][1]", "not an exact number: True"),
        ("1", "1.0", "[1][1]", "floats are not exact, write the number as a string"),
        ('"1"', "true", "[1][1]", "not an exact number: True"),
        ('"1"', "1.0", "[1][1]", "floats are not exact, write the number as a string"),
    ],
    ids=["bad-twice", "1e4300-twice", "int-then-true", "int-then-float", "str-then-true",
         "str-then-float"],
)
def test_repeated_numbers_fail_at_their_first_bad_place(tmp_path, capsys, first, second, place, message):
    problem = tmp_path / "repeated.json"
    problem.write_text(
        '{"states": ["s0", "s1"], "actions": ["a0", "a1"], '
        f'"utility": [[{first}, "0"], ["0", {second}]], "mu": ["1/2", "1/2"]}}'
    )
    code, out, err = run(capsys, "implement", str(problem), "a0")
    assert (code, out) == (2, "")
    assert err == f"error: {problem}.utility{place}: {message}\n"


def test_oversized_treatment_block_exits_two(tmp_path, capsys):
    # 2 outcomes x 2**10 covariate cells x 2 treatments = 4096 states; the cap
    # is checked before the (absent) assignment and mu are read
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"treatment": {
        "outcomes": ["0", "1"],
        "covariates": [["a", "b"]] * 10,
        "treatments": ["t0", "t1"],
    }}))
    assert len(path.read_bytes()) < 300
    code, out, err = run(capsys, "implement", str(path), "t0")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}.treatment: more than {documents.MAX_STATES} states"
        " (outcomes x covariate cells x treatments)\n"
    )


@pytest.mark.parametrize(
    "action, outcome",
    [
        ("a0:1,a1:0e4299", "accepted"),
        ("a0:1,a1:0e-4299", "accepted"),
        ("a0:1e4299,a1:0", "bad mixed action"),
        ("a0:1,a1:0e4300", "exponent must be less than 4300"),
        ("a0:1e4300,a1:0", "exponent must be less than 4300"),
        ("a0:1e-4300,a1:1", "exponent must be less than 4300"),
        ("a0:1e10000000,a1:0", "exponent must be less than 4300"),
        ("a0:1,b0:0", "unknown action 'b0' in mixed weights"),
        ("a0:0,a0:1,a1:0", "action 'a0' repeated in mixed weights"),
        ("a0:1/2,a0:1/2", "action 'a0' repeated in mixed weights"),
        ("a1:1, a1 :0", "action 'a1' repeated in mixed weights"),
    ],
)
def test_action_weights_share_the_document_bound(tmp_path, capsys, action, outcome):
    problem, _ = _number_documents(tmp_path, '"1"')
    code, out, err = run(capsys, "implement", str(problem), action)
    assert "Traceback" not in out + err
    if outcome == "accepted":
        assert code == 0
    else:
        assert code == 2
        assert outcome in err and err.count("\n") == 1
        if outcome.startswith("exponent"):
            assert "weight for action 'a" in err


def test_an_action_label_may_hold_a_colon(tmp_path, capsys):
    # an exact label wins over mixed weights, and a weight follows its label's last ":"
    problem = tmp_path / "colon.json"
    problem.write_text(json.dumps({
        "states": ["s0", "s1"], "actions": ["go:now", "wait", "a", "a:1"],
        "utility": [["1", "0"], ["0", "1"], ["1", "0"], ["0", "1"]], "mu": ["1/2", "1/2"],
    }))
    alpha_star = {}
    for action in ("go:now", "go:now:1", "a:1", "a:1:1", "a:1/2,a:1:1/2"):
        code, payload, err = machine(capsys, "implement", str(problem), action)
        assert (code, err) == (0, ""), action
        alpha_star[action] = payload["certificate"]["alpha_star"]
    assert alpha_star["go:now"] == alpha_star["go:now:1"]
    assert alpha_star["go:now"]["go:now"] == "1"
    assert alpha_star["a:1"] == alpha_star["a:1:1"]
    assert alpha_star["a:1"]["a:1"] == "1"
    assert alpha_star["a:1/2,a:1:1/2"]["a"] == "1/2"


def _oversized_documents(tmp_path):
    """Two states, one action, and numbers of about 2200 digits: valid input whose
    exact value has a numerator of about 4400 digits."""
    r = random.Random("oversized")
    den = r.randrange(10**2199, 10**2200)
    num = r.randrange(10**2198, den)
    doc = {
        "states": ["s0", "s1"],
        "actions": ["a0"],
        "utility": [[str(r.randrange(10**2199, 10**2200)) for _ in range(2)]],
        "mu": [f"{num}/{den}", f"{den - num}/{den}"],
    }
    problem = tmp_path / "oversized.json"
    problem.write_text(json.dumps(doc))
    identity = tmp_path / "identity.json"
    identity.write_text(
        json.dumps(documents.serialize_structure_matrix(idg.InformationStructure.identity(2)))
    )
    return problem, identity


def test_results_beyond_the_digit_limit_exit_five(tmp_path, capsys):
    problem, identity = _oversized_documents(tmp_path)
    for argv in (["solve", str(problem), str(identity)], ["implement", str(problem), "a0"]):
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert "Traceback" not in out + err
        assert "more than 4300 digits" in err
        assert len(err.splitlines()) == 1

def test_assumption_violation_exits_six(tmp_path, capsys):
    # a1 is implementable, but every state has its own payoff column and a
    # floor of 1/20, so no payoff-preserving reallocation stays in the set
    doc = {
        "schema_version": "1",
        "states": ["s0", "s1", "s2"],
        "actions": ["a0", "a1"],
        "utility": [["2", "3", "-2"], ["1", "-3", "-1"]],
        "mu": ["1/3", "1/3", "1/3"],
        "prior_constraints": {
            "inequalities": {
                "matrix": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
                "rhs": ["-1/20", "-1/20", "-1/20"],
            }
        },
    }
    path = tmp_path / "no_redundancy.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "implement", str(path), "a1")
    assert code == 6
    assert "Traceback" not in out + err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_internal_assertion_exits_seven(example_files, capsys, monkeypatch):
    # a failed check inside the library is reported, not dumped as a traceback
    def broken(problem, structure):
        raise AssertionError("saddle certificate\nfailed to verify")

    monkeypatch.setattr("infodesign.cli.maxmin", broken)
    prob, marg = example_files
    code, out, err = run(capsys, "solve", str(prob), str(marg))
    assert code == 7
    assert "Traceback" not in out + err
    assert err.splitlines() == ["error: internal error: saddle certificate failed to verify"]


def test_check_orders_and_maximality(example_files, tmp_path, capsys):
    prob, marg = example_files
    out_path = tmp_path / "constructed.json"
    machine(capsys, "implement", str(prob), "t1", "--out", str(out_path))

    code, payload, _ = machine(capsys, "check", str(prob), str(marg), "--action", "t1")
    assert code == 0
    assert payload["implements"] is True
    assert payload["maximally_informative"] is False

    code, payload, _ = machine(capsys, "check", str(prob), str(out_path), "--action", "t1")
    assert code == 0
    assert payload["maximally_informative"] is True

    identity_doc = documents.serialize_structure_matrix(idg.InformationStructure.identity(16))
    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps(identity_doc))
    single_doc = documents.serialize_structure_matrix(
        idg.InformationStructure.single_message(16)
    )
    single = tmp_path / "single.json"
    single.write_text(json.dumps(single_doc))
    code, payload, _ = machine(capsys, "check", str(prob), str(ident), str(single))
    assert code == 0
    assert payload["ordering"] == "more"

    # a structure that does not implement the action exits 4
    code, payload, _ = machine(capsys, "check", str(prob), str(ident), "--action", "t1")
    assert code == 4
    assert payload["implements"] is False


def test_parse_errors_exit_two(example_files, tmp_path, capsys):
    prob, marg = example_files
    broken = json.loads(prob.read_text())
    broken["treatment"]["mu"] = broken["treatment"]["mu"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken))
    code, _, err = run(capsys, "solve", str(bad), str(marg))
    assert code == 2
    assert "mu" in err

    syntax = tmp_path / "syntax.json"
    syntax.write_text('{"states": [')
    code, _, err = run(capsys, "solve", str(syntax), str(marg))
    assert code == 2
    assert ":" in err  # line-anchored location

    floats = tmp_path / "floats.json"
    doc = json.loads(prob.read_text())
    doc["treatment"]["mu"] = [0.2] + doc["treatment"]["mu"][1:]
    floats.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(floats), str(marg))
    assert code == 2
    assert "float" in err

    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "solve", str(undecodable), str(marg))
    assert code == 2
    assert f"{undecodable}: " in err


def _nested_document(tmp_path):
    """Lists nested deeper than any interpreter's recursion limit."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


@pytest.mark.parametrize(
    "argv, place",
    [
        (["treatment", "marginal", "{prob}", "--variables", "Z"], "--variables"),
        (["treatment", "marginal", "{prob}", "--variables", "Y,Y"], "--variables"),
        (["treatment", "marginal", "{prob}", "--variables", "Y,T", "--out", "{missing}"], "{missing}"),
        (["treatment", "build", "{prob}", "--out", "{tmp}"], "{tmp}"),
        (["treatment", "implement", "{prob}", "t1", "--out", "{missing}"], "{missing}"),
        (["implement", "{prob}", "t1", "--out", "{tmp}"], "{tmp}"),
        (["example", "--write-problem", "{missing}"], "{missing}"),
        (["example", "--write-structure", "{tmp}"], "{tmp}"),
        (["solve", "{nested}", "{marg}"], "{nested}"),
        (["check", "{prob}", "{marg}", "{marg}", "--action", "t1"], "--action"),
        # an empty path is refused before any input is read
        (["implement", "{missing}", "t1", "--out", ""], "--out"),
        (["treatment", "implement", "{prob}", "t1", "--out", ""], "--out"),
        (["treatment", "build", "{missing}", "--out", ""], "--out"),
        (["treatment", "marginal", "{prob}", "--variables", "Y", "--out", ""], "--out"),
        (["example", "--write-problem", ""], "--write-problem"),
        (["example", "--write-problem", "{tmp}/p", "--write-structure", ""], "--write-structure"),
        # usage errors, as argparse words them, in the same one line
        (["implement", "{prob}"], "the following arguments are required"),
        (["--format", "json", "example"], "argument --format"),
        (["frobnicate"], "argument command"),
        (["example", "--bogus"], "unrecognized arguments"),
    ],
    ids=["unknown-variable", "duplicate-variable", "marginal-out", "build-out", "treatment-out",
         "implement-out", "write-problem", "write-structure", "nested", "check-two-structures",
         "implement-empty", "treatment-empty", "build-empty", "marginal-empty",
         "write-problem-empty", "write-structure-empty", "missing-argument", "bad-choice",
         "unknown-command", "unknown-option"],
)
def test_input_faults_exit_two_in_one_line(example_files, tmp_path, capsys, argv, place):
    # a failed write prints no report: every file is written before stdout
    prob, marg = example_files
    names = {
        "prob": prob, "marg": marg, "tmp": tmp_path, "missing": tmp_path / "no" / "such.json",
        "nested": _nested_document(tmp_path),
    }
    code, out, err = run(capsys, *[arg.format(**names) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {place.format(**names)}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_treatment_subcommands(example_files, tmp_path, capsys):
    prob, marg = example_files
    generic = tmp_path / "generic.json"
    code, payload, _ = machine(capsys, "treatment", "build", str(prob), "--out", str(generic))
    assert code == 0
    assert payload["n_states"] == 16

    code, payload, _ = machine(capsys, "treatment", "implement", str(prob), "t0:1/2,t1:1/2")
    assert code == 0
    assert payload["value"] == "1/8"

    code, payload, _ = machine(
        capsys, "treatment", "marginal", str(prob), "--variables", "Y,T"
    )
    assert code == 0
    assert payload["kernel_dim"] == 12
    assert payload["never_maximal"] is True
    assert payload["pushforward"]["0,t0"] == "9/20"

    # a treatment subcommand refuses the compiled generic document
    code, out, err = run(capsys, "treatment", "marginal", str(generic), "--variables", "Y,T")
    assert code == 2 and out == ""
    assert err == f"error: {generic}: this command needs a treatment-block problem document\n"

    # the written matrix document solves exactly as the marginal block does
    written = tmp_path / "written.json"
    code, _, _ = machine(
        capsys, "treatment", "marginal", str(prob), "--variables", "Y,T", "--out", str(written)
    )
    assert code == 0
    assert "matrix" in json.loads(written.read_text())
    assert machine(capsys, "solve", str(prob), str(written)) == machine(
        capsys, "solve", str(prob), str(marg)
    )

    # compiled generic document solves identically under an explicit matrix
    yt_doc = documents.serialize_structure_matrix(
        idg.marginal_structure(idg.motivating_example(), ["Y", "T"])
    )
    yt = tmp_path / "yt.json"
    yt.write_text(json.dumps(yt_doc))
    code, payload, _ = machine(capsys, "solve", str(generic), str(yt))
    assert code == 0
    assert payload["value"] == "1/8"


def test_documents_are_built_only_for_given_options(example_files, capsys, monkeypatch):
    # serializing can fail (exit 5) and costs time, so an option left out builds nothing
    prob, _ = example_files
    commands = [
        ["example"],
        ["implement", str(prob), "t1"],
        ["treatment", "build", str(prob)],
        ["treatment", "implement", str(prob), "t0:1/2,t1:1/2"],
        ["treatment", "marginal", str(prob), "--variables", "Y,T"],
    ]
    calls = [[*fmt, *argv] for fmt in ([], ["--format", "machine"]) for argv in commands]
    expected = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 and err == "" for code, _, err in expected)

    def refuse(*args):
        raise AssertionError("a document was built for an option not given")

    for name in dir(documents):
        if name.startswith("serialize_"):
            monkeypatch.setattr(documents, name, refuse)
    monkeypatch.setattr(documents, "write_json", refuse)
    assert [run(capsys, *argv) for argv in calls] == expected


def test_machine_output_is_idempotent(example_files, capsys):
    prob, marg = example_files
    _, first, _ = run(capsys, "--format", "machine", "solve", str(prob), str(marg))
    _, second, _ = run(capsys, "--format", "machine", "solve", str(prob), str(marg))
    assert first == second


def test_repeated_calls_in_one_process_match_the_first(example_files, capsys):
    # the parser is built once per process; reusing it must not change any call
    prob, marg = example_files
    calls = [
        ["--format", "machine", "solve", str(prob), str(marg)],
        ["solve", str(prob), str(marg)],
        ["--format", "machine", "treatment", "implement", str(prob), "t1"],
        ["treatment", "marginal", str(prob), "--variables", "Y,T"],
        ["implement", str(prob), "no-such-action"],  # exit 2 from the library
        ["solve", str(prob)],  # exit 2 from argparse: a missing argument
        ["--format", "xml", "example"],  # exit 2 from argparse: a bad choice
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 2, 2]
    missing, bad_choice = (err for _, _, err in first[-2:])
    assert missing == "error: the following arguments are required: structure\n"
    assert bad_choice.startswith("error: argument --format: invalid choice: ")
    assert bad_choice.count("\n") == 1
    for _ in range(2):
        assert [outcome(argv) for argv in calls] == first
    assert cli.build_parser() is cli.build_parser()


def test_table_format_prints_lines(example_files, capsys):
    prob, marg = example_files
    code, out, _ = run(capsys, "solve", str(prob), str(marg))
    assert code == 0
    assert "value: 1/8" in out


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_parsing_a_problem_solves_no_program(example_files, tmp_path, capsys, monkeypatch):
    # mu is a declared member of the prior set, so checking it replaces a feasibility solve
    prob, _ = example_files
    generic = tmp_path / "generic.json"
    assert main(["treatment", "build", str(prob), "--out", str(generic)]) == 0
    capsys.readouterr()
    docs = [documents.load_json(str(prob)), documents.load_json(str(generic))]
    docs += [documents.serialize_problem(paired_problem(f"parse-{i}")[0]) for i in range(6)]
    solves = _counting(monkeypatch, lp, "solve_lp")
    for doc in docs:
        documents.parse_problem_document(doc)
    assert solves == []


def test_treatment_marginal_computes_one_kernel(example_files, capsys, monkeypatch):
    prob, _ = example_files
    # structures take their kernel from model.nullspace; numerics counts any other caller
    kernels = _counting(monkeypatch, model, "nullspace")
    others = _counting(monkeypatch, numerics, "nullspace")
    code, payload, _ = machine(capsys, "treatment", "marginal", str(prob), "--variables", "Y,T")
    assert code == 0
    assert payload["kernel_dim"] == payload["structure"]["kernel_dim"] == 12
    assert len(kernels) + len(others) == 1


def test_solve_runs_phase_one_twice(example_files, capsys, monkeypatch):
    prob, marg = example_files
    # maxmin solves its own program; both worst cases share the identified set's phase 1
    phase_ones = _counting(monkeypatch, lp, "_phase_one")
    code, payload, _ = machine(capsys, "solve", str(prob), str(marg))
    assert code == 0
    assert payload["structure"]["kernel_dim"] == 12
    assert len(phase_ones) == 2


@pytest.mark.parametrize(
    "mu, inequalities",
    [
        (["1/2", "1/2"], {"matrix": [["1", "0"]], "rhs": ["1/4"]}),  # breaks a row
        (["1/2", "1/2"], {"matrix": [["1", "1"]], "rhs": ["1/2"]}),  # empty prior set
        (["3/4", "3/4"], {"matrix": [], "rhs": []}),  # not a distribution
    ],
)
def test_mu_outside_the_prior_set_exits_two(tmp_path, capsys, mu, inequalities):
    path = tmp_path / "outside.json"
    path.write_text(json.dumps({
        "states": ["s0", "s1"],
        "actions": ["a0", "a1"],
        "utility": [["1", "0"], ["0", "1"]],
        "mu": mu,
        "prior_constraints": {"inequalities": inequalities},
    }))
    code, out, err = run(capsys, "implement", str(path), "a0")
    assert code == 2
    assert out == ""
    assert err == f"error: {path}.mu: mu lies outside the prior set\n"


# Every change to the exported names or the exit codes shows up here.
PUBLIC_NAMES = [
    "AssignmentMismatch", "AssumptionViolation", "DecisionProblem", "DigitLimitExceeded",
    "DimensionMismatch", "DocumentError", "DualCertificate", "EmptyOrFullVariableSet",
    "FarkasCertificate", "IdentifiedSet", "ImprovingRay", "InfoDesignError",
    "InformationStructure", "InformativenessOrder", "InteriorSupportViolation", "KernelSpec",
    "LinearProgram", "LpOutcome", "LpStatus", "MarginalReport", "MarginalSpec", "Matrix",
    "MixedAction", "NoImplementableActionError", "NoIrrelevantCovariate",
    "NotImplementableError", "NotImplementingError", "OutcomeMarginalPrior",
    "PayoffPartition", "PriorPolytope", "ResearcherOptimum", "SaddleCertificate", "Subspace",
    "SupportingPrior", "TreatmentModel", "Vector", "ZeroSumViolation",
    "add_irrelevant_signal", "best_responses", "boundary_adjust", "build_treatment_problem",
    "check_marginal_not_maximal", "counterfactual_mean", "extremal_reach", "format_scalar",
    "identified_set", "implement_treatment", "implementing_structure",
    "is_implementable", "is_maximally_informative", "kernel_of", "kernel_to_experiment",
    "marginal_structure", "maxmin", "motivating_example", "motivating_worst_case_prior",
    "nullspace", "orthogonal_complement", "outcome_marginals_for_targets", "payoff",
    "payoff_equivalence_classes", "prior_from_marginals", "push_forward", "rank",
    "researcher_optimum", "robustly_more_informative", "scalar", "solve_lp",
    "subspace_contains", "supporting_prior", "vector", "verify_outcome", "worst_case",
]


def test_public_surface_is_pinned():
    # submodules are attributes of the package once imported, so they are left out
    names = sorted(
        name for name, value in vars(idg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == {
        "EXIT_OK": 0, "EXIT_PARSE": 2, "EXIT_NOT_IMPLEMENTABLE": 3, "EXIT_NOT_IMPLEMENTING": 4,
        "EXIT_DIGIT_LIMIT": 5, "EXIT_ASSUMPTION": 6, "EXIT_INTERNAL": 7,
    }


def _cli_process(*argv, stdout=subprocess.PIPE):
    """Run ``python -m infodesign.cli`` in a fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "infodesign.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_closed_stdout_exits_two_in_one_line(example_files, fmt):
    prob, _ = example_files
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes its report
    try:
        done = _cli_process("--format", fmt, "implement", str(prob), "t1", stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.startswith("error: standard output: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_cli_process_runs_end_to_end(tmp_path, capsys):
    done = _cli_process("--format", "machine", "example")
    assert done.returncode == 0, done.stderr
    assert done.stdout == run(capsys, "--format", "machine", "example")[1]
    missing = tmp_path / "missing.json"
    done = _cli_process("implement", str(missing), "t0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {missing}: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    nested = _nested_document(tmp_path)
    done = _cli_process("solve", str(nested), str(nested))
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {nested}: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
