"""JSON document schemas for problems and structures.

Every numeric field is an exact-number string ("3", "2/5", "0.05"); plain
JSON integers are also accepted, JSON floats never are. A problem document
carries either the generic fields (states, actions, utility, mu,
prior_constraints) or a treatment block; a structure document carries
exactly one of an explicit matrix, a kernel block to be compiled, or a
marginal block naming disclosed variables.

Each distinct number string is parsed once per document: each parse call
keeps its own map from string to Fraction, dropped when the call returns,
and a bad number still fails at its first place with the same message.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .causal import TreatmentModel, build_treatment_problem, marginal_structure
from .design import KernelSpec, kernel_to_experiment
from .errors import DimensionMismatch, DocumentError, InfoDesignError
from .model import DecisionProblem, InformationStructure, PriorPolytope
from .numerics import Matrix, Subspace, Vector, format_scalar, scalar

SCHEMA_VERSION = "1"


# Numbers are capped at CPython's default int-to-text digit limit, so every
# accepted number prints back; exponents are checked before parsing, since
# "1e1000000" alone would build a megabit integer, and so is every run of
# digits, which CPython's int parser would refuse with a message of its own.
MAX_DIGITS = 4300
_DIGIT_LIMIT = 10**MAX_DIGITS
_TOO_MANY_DIGITS = f"numerator or denominator has more than {MAX_DIGITS} digits"
_DIGIT_RUN = re.compile(r"\d[\d_]*")  # digits and the underscores Fraction allows between them
# a value that does not parse is named by at most this many characters of its repr
_EXCERPT = 40
# A treatment prior's equality block is dense, one row per (covariate cell,
# treatment) over every state, so its size grows with the square of the state
# count; a block with more states is refused before its numbers are parsed.
MAX_STATES = 2048
_EXPONENT = re.compile(r"[eE][+-]?(\d[\d_]*)\s*\Z")


def _exact(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise DocumentError(f"{where}: floats are not exact, write the number as a string")
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or "0") >= MAX_DIGITS:
            raise DocumentError(f"{where}: exponent must be less than {MAX_DIGITS} in magnitude")
    if isinstance(value, str) and len(value) > MAX_DIGITS:
        for run in _DIGIT_RUN.findall(value):
            if len(run) - run.count("_") > MAX_DIGITS:
                raise DocumentError(f"{where}: {_TOO_MANY_DIGITS}")
    try:
        number = scalar(value)
    except (TypeError, ValueError) as exc:
        text = repr(value)
        if len(text) > _EXCERPT:
            text = f"{text[:_EXCERPT]}... ({len(text)} characters)"
        raise DocumentError(f"{where}: not an exact number: {text}") from exc
    if max(abs(number.numerator), number.denominator) >= _DIGIT_LIMIT:
        raise DocumentError(f"{where}: {_TOO_MANY_DIGITS}")
    return number


def _exact_vector(values, where: str, memo: dict[str, Fraction]) -> Vector:
    """The list's numbers, each string looked up in the document's memo first.

    Only strings are looked up and stored: JSON 1, 1.0 and true hash equal, so
    every other value runs ``_exact``. Only numbers that parse are stored, so
    a bad number fails at its first place.
    """
    if not isinstance(values, list):
        raise DocumentError(f"{where}: expected a list of exact numbers")
    out = []
    for i, v in enumerate(values):
        number = memo.get(v) if type(v) is str else None
        if number is None:
            number = _exact(v, f"{where}[{i}]")
            if type(v) is str:
                memo[v] = number
        out.append(number)
    return tuple(out)


def _exact_matrix(rows, where: str, memo: dict[str, Fraction], cols: int) -> tuple[Vector, ...]:
    if not isinstance(rows, list):
        raise DocumentError(f"{where}: expected a list of rows")
    out = []
    for i, row in enumerate(rows):
        vec = _exact_vector(row, f"{where}[{i}]", memo)
        if len(vec) != cols:
            raise DocumentError(f"{where}[{i}]: row has {len(vec)} entries, expected {cols}")
        out.append(vec)
    return tuple(out)


def _labels(values, where: str) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DocumentError(f"{where}: expected a list of string labels")
    return tuple(values)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, too deep
        raise DocumentError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return data


@dataclass
class LoadedProblem:
    problem: DecisionProblem
    treatment: Optional[TreatmentModel]


def parse_problem_document(data: dict, where: str = "problem") -> LoadedProblem:
    if data.get("schema_version") not in (None, SCHEMA_VERSION):
        raise DocumentError(f"{where}: unsupported schema_version {data.get('schema_version')!r}")
    has_generic = "states" in data
    has_treatment = "treatment" in data
    if has_generic == has_treatment:
        raise DocumentError(
            f"{where}: provide either the generic fields or a treatment block, not both"
        )
    memo: dict[str, Fraction] = {}
    try:
        if has_treatment:
            model = _parse_treatment_block(data["treatment"], f"{where}.treatment", memo)
            return LoadedProblem(problem=build_treatment_problem(model), treatment=model)
        return LoadedProblem(problem=_parse_generic_problem(data, where, memo), treatment=None)
    except DocumentError:
        raise
    except (InfoDesignError, ValueError, IndexError, KeyError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _parse_generic_problem(data: dict, where: str, memo: dict[str, Fraction]) -> DecisionProblem:
    states = _labels(data.get("states"), f"{where}.states")
    actions = _labels(data.get("actions"), f"{where}.actions")
    n = len(states)
    utility_rows = _exact_matrix(data.get("utility"), f"{where}.utility", memo, cols=n)
    if len(utility_rows) != len(actions):
        raise DocumentError(f"{where}.utility: expected one row per action")
    mu = _exact_vector(data.get("mu"), f"{where}.mu", memo)
    if len(mu) != n:
        raise DocumentError(f"{where}.mu: expected {n} entries")
    constraints = data.get("prior_constraints", {})
    if not isinstance(constraints, dict):
        raise DocumentError(f"{where}.prior_constraints: expected an object")

    def block(name: str) -> tuple[tuple[Vector, ...], Vector]:
        raw = constraints.get(name)
        if raw is None:
            return (), ()
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}.prior_constraints.{name}: expected an object")
        rows = _exact_matrix(raw.get("matrix", []), f"{where}.prior_constraints.{name}.matrix", memo, cols=n)
        rhs = _exact_vector(raw.get("rhs", []), f"{where}.prior_constraints.{name}.rhs", memo)
        if len(rows) != len(rhs):
            raise DocumentError(f"{where}.prior_constraints.{name}: matrix and rhs lengths differ")
        return rows, rhs

    eq_rows, eq_rhs = block("equalities")
    ub_rows, ub_rhs = block("inequalities")
    try:
        priors = PriorPolytope(n, eq_rows, eq_rhs, ub_rows, ub_rhs, known_member=mu)
    except DimensionMismatch:
        raise
    except ValueError:
        raise DocumentError(f"{where}.mu: mu lies outside the prior set") from None
    return DecisionProblem(
        states=states,
        actions=actions,
        utility=Matrix(len(actions), n, utility_rows),
        mu=mu,
        priors=priors,
    )


def _parse_treatment_block(data, where: str, memo: dict[str, Fraction]) -> TreatmentModel:
    if not isinstance(data, dict):
        raise DocumentError(f"{where}: expected an object")
    outcomes = _exact_vector(data.get("outcomes"), f"{where}.outcomes", memo)
    raw_domains = data.get("covariates")
    if not isinstance(raw_domains, list) or not raw_domains:
        raise DocumentError(f"{where}.covariates: expected a nonempty list of label lists")
    domains = tuple(_labels(d, f"{where}.covariates[{j}]") for j, d in enumerate(raw_domains))
    treatments = _labels(data.get("treatments"), f"{where}.treatments")
    n_cells = math.prod(len(d) for d in domains)
    if len(outcomes) * n_cells * len(treatments) > MAX_STATES:
        raise DocumentError(
            f"{where}: more than {MAX_STATES} states (outcomes x covariate cells x treatments)"
        )
    assignment = _exact_matrix(data.get("assignment"), f"{where}.assignment", memo, cols=len(treatments))
    if len(assignment) != n_cells:
        raise DocumentError(
            f"{where}.assignment: expected one row per covariate cell ({n_cells})"
        )
    mu = _exact_vector(data.get("mu"), f"{where}.mu", memo)
    return TreatmentModel(
        outcomes=outcomes,
        covariate_domains=domains,
        treatments=treatments,
        assignment=Matrix(n_cells, len(treatments), assignment),
        mu=mu,
    )


def parse_structure_document(
    data: dict, loaded: LoadedProblem, where: str = "structure"
) -> InformationStructure:
    if data.get("schema_version") not in (None, SCHEMA_VERSION):
        raise DocumentError(f"{where}: unsupported schema_version {data.get('schema_version')!r}")
    kinds = [k for k in ("matrix", "kernel", "marginal") if k in data]
    if len(kinds) != 1:
        raise DocumentError(
            f"{where}: provide exactly one of matrix, kernel, or marginal, got {kinds or 'none'}"
        )
    n = loaded.problem.n_states
    memo: dict[str, Fraction] = {}
    try:
        if kinds[0] == "matrix":
            messages = _labels(data.get("messages"), f"{where}.messages")
            rows = _exact_matrix(data["matrix"], f"{where}.matrix", memo, cols=n)
            if len(rows) != len(messages):
                raise DocumentError(f"{where}.matrix: expected one row per message")
            return InformationStructure(messages, Matrix(len(messages), n, rows))
        if kinds[0] == "kernel":
            block = data["kernel"]
            if not isinstance(block, dict):
                raise DocumentError(f"{where}.kernel: expected an object")
            basis = _exact_matrix(block.get("basis", []), f"{where}.kernel.basis", memo, cols=n)
            spec = KernelSpec(Subspace.from_vectors(n, basis))
            return kernel_to_experiment(spec)
        if loaded.treatment is None:
            raise DocumentError(f"{where}.marginal: requires a treatment problem")
        block = data["marginal"]
        if not isinstance(block, dict):
            raise DocumentError(f"{where}.marginal: expected an object")
        return marginal_structure(loaded.treatment, _labels(block.get("variables"), f"{where}.marginal.variables"))
    except DocumentError:
        raise
    except (InfoDesignError, ValueError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def serialize_problem(problem: DecisionProblem) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "states": list(problem.states),
        "actions": list(problem.actions),
        "utility": [[format_scalar(v) for v in row] for row in problem.utility.entries],
        "mu": [format_scalar(v) for v in problem.mu],
        "prior_constraints": {
            "equalities": {
                "matrix": [[format_scalar(v) for v in row] for row in problem.priors.eq_matrix],
                "rhs": [format_scalar(v) for v in problem.priors.eq_rhs],
            },
            "inequalities": {
                "matrix": [[format_scalar(v) for v in row] for row in problem.priors.ub_matrix],
                "rhs": [format_scalar(v) for v in problem.priors.ub_rhs],
            },
        },
    }


def serialize_treatment(model: TreatmentModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "treatment": {
            "outcomes": [format_scalar(v) for v in model.outcomes],
            "covariates": [list(d) for d in model.covariate_domains],
            "treatments": list(model.treatments),
            "assignment": [[format_scalar(v) for v in row] for row in model.assignment.entries],
            "mu": [format_scalar(v) for v in model.mu],
        },
    }


def serialize_structure_matrix(structure: InformationStructure) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "messages": list(structure.messages),
        "matrix": [[format_scalar(v) for v in row] for row in structure.experiment.entries],
    }


def serialize_structure_kernel(subspace: Subspace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kernel": {"basis": [[format_scalar(v) for v in row] for row in subspace.basis]},
    }


def write_json(path: str, data: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc
