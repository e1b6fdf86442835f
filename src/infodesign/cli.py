"""Command-line front end.

Subcommands: solve, implement, check, example, and treatment build /
implement / marginal. Exit codes are part of the interface: 0 success, 2 a
usage, parse or validation failure, 3 action not implementable, 4 structure
does not implement the action, 5 a result has a numerator or denominator too
long to print (more than 4300 digits, CPython's default int-to-text limit),
6 the action has a supporting prior but no payoff-preserving reallocation
keeps it inside the prior set, 7 an internal error (a failed assertion
inside the library, reported in one line without a traceback).
``--format machine`` prints one JSON document with every number as an
exact string; ``table`` prints the same content for humans. A command
returns its exit code, its report and one ``(path, document)`` pair per
``--out``/``--write-*`` option given; ``main`` writes every file, then prints
the report, so a write that fails prints only its one error line.

The argument parser is built once per process and reused by every ``main``
call (parsing leaves it unchanged). That saves time only for callers that run
``main`` several times in one process; a command-line run builds it once
either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import documents
from .causal import (
    build_treatment_problem,
    check_marginal_not_maximal,
    implement_treatment,
    marginal_structure,
    motivating_example,
    motivating_worst_case_prior,
)
from .design import (
    implementing_structure,
    is_maximally_informative,
    robustly_more_informative,
)
from .errors import (
    AssumptionViolation,
    DigitLimitExceeded,
    DocumentError,
    InfoDesignError,
    NotImplementableError,
    NotImplementingError,
)
from .model import (
    DecisionProblem,
    InformationStructure,
    MixedAction,
    kernel_of,
    payoff,
    push_forward,
)
from .numerics import format_scalar
from .solver import maxmin, worst_case

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_IMPLEMENTABLE = 3
EXIT_NOT_IMPLEMENTING = 4
EXIT_DIGIT_LIMIT = 5
EXIT_ASSUMPTION = 6

# the first entry the error is an instance of gives the exit code
_EXIT_CODES = (
    (NotImplementableError, EXIT_NOT_IMPLEMENTABLE),
    (NotImplementingError, EXIT_NOT_IMPLEMENTING),
    (DigitLimitExceeded, EXIT_DIGIT_LIMIT),
    (AssumptionViolation, EXIT_ASSUMPTION),
    (InfoDesignError, EXIT_PARSE),
)
# a failed internal assertion: a fault of the program, not of its input
EXIT_INTERNAL = 7


def _parse_action(problem: DecisionProblem, text: str) -> MixedAction:
    """An action label, else mixed weights like "t0:1/2,t1:1/2", each after its label's last ":"."""
    if text in problem.actions:
        return MixedAction.pure(problem.actions.index(text), problem.n_actions)
    if ":" not in text:
        raise DocumentError(f"unknown action {text!r}; choose from {list(problem.actions)}")
    weights: dict[int, Fraction] = {}
    for part in text.split(","):
        label, colon, weight = part.rpartition(":")
        if not colon:  # no weight: the whole part is the label
            label, weight = weight, ""
        label = label.strip()
        try:
            index = problem.actions.index(label)
        except ValueError:
            raise DocumentError(f"unknown action {label!r} in mixed weights")
        if index in weights:
            raise DocumentError(f"action {label!r} repeated in mixed weights")
        weights[index] = documents._exact(weight.strip(), f"weight for action {label!r}")
    try:
        return MixedAction(tuple(weights.get(a, Fraction(0)) for a in range(problem.n_actions)))
    except ValueError as exc:
        raise DocumentError(f"bad mixed action: {exc}")


def _fmt_map(labels: Sequence[str], values) -> dict:
    return {label: format_scalar(v) for label, v in zip(labels, values)}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "machine":
        print(json.dumps(report, indent=2))
    else:
        _print_table(report)


def _print_table(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_table(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{pad}{key}:")
            for row in value:
                print(f"{pad}  [" + ", ".join(str(x) for x in row) + "]")
        elif isinstance(value, list):
            print(f"{pad}{key}: [" + ", ".join(str(x) for x in value) + "]")
        else:
            print(f"{pad}{key}: {value}")


def _structure_summary(structure: InformationStructure) -> dict:
    kernel = kernel_of(structure)
    return {
        "messages": list(structure.messages),
        "kernel_dim": kernel.dim,
        "fully_informative": structure.is_fully_informative,
        "almost_fully_informative": structure.is_almost_fully_informative,
    }


def _load_problem(path: str) -> documents.LoadedProblem:
    return documents.parse_problem_document(documents.load_json(path), where=path)


def _load_structure(path: str, loaded: documents.LoadedProblem) -> InformationStructure:
    return documents.parse_structure_document(documents.load_json(path), loaded, where=path)


def _cmd_solve(args) -> tuple[int, dict, list]:
    loaded = _load_problem(args.problem)
    problem = loaded.problem
    structure = _load_structure(args.structure, loaded)
    cert = maxmin(problem, structure)
    report = {
        "command": "solve",
        "states": list(problem.states),
        "actions": list(problem.actions),
        "value": format_scalar(cert.value),
        "alpha_star": _fmt_map(problem.actions, cert.alpha_star.weights),
        "nu_star": _fmt_map(problem.states, cert.nu_star),
        "worst_cases": {
            label: format_scalar(
                worst_case(problem, structure, MixedAction.pure(a, problem.n_actions))[0]
            )
            for a, label in enumerate(problem.actions)
        },
        "structure": _structure_summary(structure),
    }
    return EXIT_OK, report, []


def _implemented(
    args, command: str, problem: DecisionProblem, structure: InformationStructure,
    certificate, **extra,
) -> tuple[int, dict, list]:
    """The report of an implementing structure, and its kernel document for --out."""
    kernel = kernel_of(structure)
    slack = payoff(certificate.alpha_star, problem.mu, problem) - certificate.value
    report = {
        "command": command,
        "action": args.action,
        "value": format_scalar(certificate.value),
        "supporting_prior": {
            "nu": _fmt_map(problem.states, certificate.nu_star),
            "slack": format_scalar(slack),
        },
        "certificate": {
            "alpha_star": _fmt_map(problem.actions, certificate.alpha_star.weights),
            "nu_star": _fmt_map(problem.states, certificate.nu_star),
            "value": format_scalar(certificate.value),
        },
        "structure": _structure_summary(structure),
        "kernel_basis": [[format_scalar(v) for v in row] for row in kernel.basis],
        **extra,
    }
    files = [] if args.out is None else [(args.out, documents.serialize_structure_kernel(kernel))]
    return EXIT_OK, report, files


def _cmd_implement(args) -> tuple[int, dict, list]:
    problem = _load_problem(args.problem).problem
    alpha = _parse_action(problem, args.action)
    try:
        structure, certificate = implementing_structure(problem, alpha)
    except NotImplementableError as exc:
        report = {
            "command": "implement",
            "action": args.action,
            "implementable": False,
            "farkas": {
                "equalities": [format_scalar(v) for v in exc.farkas.eq],
                "inequalities": [format_scalar(v) for v in exc.farkas.ub],
                "lower_bounds": [format_scalar(v) for v in exc.farkas.lb],
            },
        }
        return EXIT_NOT_IMPLEMENTABLE, report, []
    return _implemented(args, "implement", problem, structure, certificate, implementable=True)


def _cmd_check(args) -> tuple[int, dict, list]:
    if args.structure2 is not None and args.action is not None:
        raise DocumentError("--action: maximality is decided for one structure, not two")
    loaded = _load_problem(args.problem)
    problem = loaded.problem
    structure = _load_structure(args.structure, loaded)
    report = {"command": "check", "structure": _structure_summary(structure)}
    code = EXIT_OK
    if args.structure2 is not None:
        other = _load_structure(args.structure2, loaded)
        report["other"] = _structure_summary(other)
        report["ordering"] = robustly_more_informative(structure, other).value
    elif args.action is not None:
        alpha = _parse_action(problem, args.action)
        report["action"] = args.action
        report["implements"] = True
        try:
            report["maximally_informative"] = is_maximally_informative(problem, structure, alpha)
        except NotImplementingError:
            report["implements"] = False
            code = EXIT_NOT_IMPLEMENTING
    return code, report, []


def _cmd_example(args) -> tuple[int, dict, list]:
    model = motivating_example()
    problem = build_treatment_problem(model)
    yt = marginal_structure(model, ["Y", "T"])
    yxt = marginal_structure(model, ["Y", "X1", "T"])
    nu_star = motivating_worst_case_prior(model)

    def cells_by_xt(values) -> dict:
        # collapse the signal covariate for display on (y, x, t) cells
        cells = zip(yxt.messages, push_forward(yxt, values))
        return {"(y={},x={},t={})".format(*m.split(",")): format_scalar(v) for m, v in cells}

    full = InformationStructure.identity(problem.n_states)
    cert_full = maxmin(problem, full)
    cert_partial = maxmin(problem, yt)
    wc0 = worst_case(problem, yt, MixedAction.pure(0, 2))[0]
    wc1 = worst_case(problem, yt, MixedAction.pure(1, 2))[0]
    reversal = (
        cert_full.alpha_star.weights != cert_partial.alpha_star.weights
    )
    report = {
        "command": "example",
        "observed_distribution": cells_by_xt(problem.mu),
        "disclosed_marginal": _fmt_map(yt.messages, push_forward(yt, problem.mu)),
        "worst_case_joint": cells_by_xt(nu_star),
        "full_information_means": _fmt_map(problem.actions, problem.pure_payoffs(problem.mu)),
        "worst_case_payoffs": {"t0": format_scalar(wc0), "t1": format_scalar(wc1)},
        "maxmin_full_information": {
            "alpha_star": _fmt_map(problem.actions, cert_full.alpha_star.weights),
            "value": format_scalar(cert_full.value),
        },
        "maxmin_marginal_disclosure": {
            "alpha_star": _fmt_map(problem.actions, cert_partial.alpha_star.weights),
            "value": format_scalar(cert_partial.value),
        },
        "policy_reversal": reversal,
    }
    files = []
    if args.write_problem:
        files.append((args.write_problem, documents.serialize_treatment(model)))
    if args.write_structure:
        marginal = {"variables": ["Y", "T"]}
        document = {"schema_version": documents.SCHEMA_VERSION, "marginal": marginal}
        files.append((args.write_structure, document))
    return EXIT_OK, report, files


def _require_treatment(loaded: documents.LoadedProblem, path: str):
    if loaded.treatment is None:
        raise DocumentError(f"{path}: this command needs a treatment-block problem document")
    return loaded.treatment


def _cmd_treatment_build(args) -> tuple[int, dict, list]:
    loaded = _load_problem(args.problem)
    _require_treatment(loaded, args.problem)
    report = {
        "command": "treatment build",
        "states": list(loaded.problem.states),
        "actions": list(loaded.problem.actions),
        "n_states": loaded.problem.n_states,
        "prior_equalities": len(loaded.problem.priors.eq_matrix),
    }
    files = [(args.out, documents.serialize_problem(loaded.problem))] if args.out else []
    return EXIT_OK, report, files


def _cmd_treatment_implement(args) -> tuple[int, dict, list]:
    loaded = _load_problem(args.problem)
    model = _require_treatment(loaded, args.problem)
    problem = loaded.problem
    alpha = _parse_action(problem, args.action)
    structure, certificate = implement_treatment(model, alpha, problem)
    return _implemented(args, "treatment implement", problem, structure, certificate)


def _cmd_treatment_marginal(args) -> tuple[int, dict, list]:
    loaded = _load_problem(args.problem)
    model = _require_treatment(loaded, args.problem)
    variables = [v.strip() for v in args.variables.split(",") if v.strip()]
    try:
        check = check_marginal_not_maximal(model, variables)
    except ValueError as exc:  # an unknown, duplicate, missing or full variable list
        raise DocumentError(f"--variables: {exc}") from exc
    structure = check.structure
    report = {
        "command": "treatment marginal",
        "variables": list(check.variables),
        "structure": _structure_summary(structure),
        "kernel_dim": check.kernel_dim,
        "kernel_dim_lower_bound": format_scalar(check.dimension_bound),
        "never_maximal": check.never_maximal,
        "pushforward": _fmt_map(structure.messages, push_forward(structure, loaded.problem.mu)),
    }
    files = [(args.out, documents.serialize_structure_matrix(structure))] if args.out else []
    return EXIT_OK, report, files


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one "error:" line and exit 2, as for bad input
        raise InfoDesignError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infodesign",
        description="Worst-case-optimal decisions over partially identified priors.",
    )
    parser.add_argument(
        "--format", choices=("table", "machine"), default="table",
        help="report style; machine prints one JSON document with exact numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the maxmin problem for a problem and structure")
    p.add_argument("problem")
    p.add_argument("structure")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("implement", help="construct an implementing structure for an action")
    p.add_argument("problem")
    p.add_argument("action", help="action label or mixed weights like t0:1/2,t1:1/2")
    p.add_argument("--out", help="write the constructed structure document here")
    p.set_defaults(func=_cmd_implement)

    p = sub.add_parser("check", help="inspect informativeness of one or two structures")
    p.add_argument("problem")
    p.add_argument("structure")
    p.add_argument("structure2", nargs="?", default=None)
    p.add_argument("--action", help="also decide maximal informativeness for this action")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("example", help="print the built-in policy-reversal example")
    p.add_argument("--write-problem", help="also write the example problem document")
    p.add_argument("--write-structure", help="also write the marginal structure document")
    p.set_defaults(func=_cmd_example)

    t = sub.add_parser("treatment", help="treatment-model commands")
    tsub = t.add_subparsers(dest="treatment_command", required=True)

    p = tsub.add_parser("build", help="compile a treatment block into a generic problem")
    p.add_argument("problem")
    p.add_argument("--out", help="write the compiled generic problem document here")
    p.set_defaults(func=_cmd_treatment_build)

    p = tsub.add_parser("implement", help="implement a treatment via the universal construction")
    p.add_argument("problem")
    p.add_argument("action")
    p.add_argument("--out", help="write the constructed structure document here")
    p.set_defaults(func=_cmd_treatment_implement)

    p = tsub.add_parser("marginal", help="build a marginal disclosure structure")
    p.add_argument("problem")
    p.add_argument("--variables", required=True, help="comma-separated, e.g. Y,T")
    p.add_argument("--out", help="write the structure document here")
    p.set_defaults(func=_cmd_treatment_marginal)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for option in ("out", "write_problem", "write_structure"):
            if getattr(args, option, None) == "":
                raise DocumentError(f"--{option.replace('_', '-')}: empty path")
        code, report, files = args.func(args)
        for path, document in files:
            documents.write_json(path, document)
        _emit(report, args.format)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # flushed again at exit
        print(f"error: standard output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfoDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "assertion failed"
        print(f"error: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
