"""Command-line interface: reports, documents, exit codes, round-trips."""

import json

import pytest

import infodesign as idg
from infodesign import documents
from infodesign.cli import main


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


def test_solve_marginal(example_files, capsys):
    prob, marg = example_files
    code, payload, _ = machine(capsys, "solve", str(prob), str(marg))
    assert code == 0
    assert payload["value"] == "1/8"
    assert payload["alpha_star"] == {"t0": "0", "t1": "1"}
    assert payload["worst_cases"] == {"t0": "1/16", "t1": "1/8"}


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


def test_implement_rejects_dominated(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "states": ["s0", "s1"],
        "actions": ["good", "bad"],
        "utility": [["1", "2"], ["0", "1"]],
        "mu": ["1/2", "1/2"],
        "prior_constraints": {},
    }
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps(doc))
    code, payload, _ = machine(capsys, "implement", str(path), "bad")
    assert code == 3
    assert payload["implementable"] is False
    assert "farkas" in payload


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

    # compiled generic document solves identically under an explicit matrix
    yt_doc = documents.serialize_structure_matrix(
        idg.marginal_structure(idg.motivating_example(), ["Y", "T"])
    )
    yt = tmp_path / "yt.json"
    yt.write_text(json.dumps(yt_doc))
    code, payload, _ = machine(capsys, "solve", str(generic), str(yt))
    assert code == 0
    assert payload["value"] == "1/8"


def test_machine_output_is_idempotent(example_files, capsys):
    prob, marg = example_files
    _, first, _ = run(capsys, "--format", "machine", "solve", str(prob), str(marg))
    _, second, _ = run(capsys, "--format", "machine", "solve", str(prob), str(marg))
    assert first == second


def test_table_format_prints_lines(example_files, capsys):
    prob, marg = example_files
    code, out, _ = run(capsys, "solve", str(prob), str(marg))
    assert code == 0
    assert "value: 1/8" in out
