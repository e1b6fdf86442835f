"""Command-line front end.

Subcommands: solve, implement, check, example, and treatment build /
implement / marginal. Exit codes are part of the interface: 0 success,
2 parse or validation failure, 3 action not implementable, 4 structure does
not implement the action, 5 a result has a numerator or denominator too
long to print (more than 4300 digits, CPython's default int-to-text
limit), 6 the action has a supporting prior but no payoff-preserving
reallocation keeps it inside the prior set, 7 an internal error (a failed
assertion inside the library, reported in one line without a traceback).
``--format machine`` prints one JSON document with every number as an
exact string; ``table`` prints the same content for humans. A command
writes its ``--out`` and ``--write-*`` files before it prints its report, so
a write that fails prints only its one error line.

The argument parser is built once per process and reused by every ``main``
call (parsing leaves it unchanged). That saves time only for callers that run
``main`` several times in one process; a command-line run builds it once
either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import documents
from .causal import (
    build_treatment_problem,
    check_marginal_not_maximal,
    counterfactual_mean,
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
    """A pure action label, or inline mixed weights like "t0:1/2,t1:1/2"."""
    if ":" not in text:
        try:
            index = problem.actions.index(text)
        except ValueError:
            raise DocumentError(f"unknown action {text!r}; choose from {list(problem.actions)}")
        return MixedAction.pure(index, problem.n_actions)
    weights = [Fraction(0)] * problem.n_actions
    for part in text.split(","):
        label, _, weight = part.partition(":")
        label = label.strip()
        try:
            index = problem.actions.index(label)
        except ValueError:
            raise DocumentError(f"unknown action {label!r} in mixed weights")
        weights[index] = documents._exact(weight.strip(), f"weight for action {label!r}")
    try:
        return MixedAction(tuple(weights))
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


def _cmd_solve(args) -> int:
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
    _emit(report, args.format)
    return EXIT_OK


def _implement_report(
    problem: DecisionProblem,
    structure: InformationStructure,
    certificate,
    action_text: str,
) -> dict:
    kernel = kernel_of(structure)
    slack = payoff(certificate.alpha_star, problem.mu, problem) - certificate.value
    return {
        "command": "implement",
        "action": action_text,
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
    }


def _write_structure_from_kernel(path: Optional[str], structure: InformationStructure) -> None:
    if path is None:
        return
    documents.write_json(path, documents.serialize_structure_kernel(kernel_of(structure)))


def _cmd_implement(args) -> int:
    loaded = _load_problem(args.problem)
    problem = loaded.problem
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
        _emit(report, args.format)
        return EXIT_NOT_IMPLEMENTABLE
    report = _implement_report(problem, structure, certificate, args.action)
    report["implementable"] = True
    _write_structure_from_kernel(args.out, structure)
    _emit(report, args.format)
    return EXIT_OK


def _cmd_check(args) -> int:
    loaded = _load_problem(args.problem)
    problem = loaded.problem
    structure = _load_structure(args.structure, loaded)
    report = {"command": "check", "structure": _structure_summary(structure)}
    if args.structure2 is not None:
        other = _load_structure(args.structure2, loaded)
        order = robustly_more_informative(structure, other)
        report["other"] = _structure_summary(other)
        report["ordering"] = order.value
        _emit(report, args.format)
        return EXIT_OK
    if args.action is not None:
        alpha = _parse_action(problem, args.action)
        try:
            maximal = is_maximally_informative(problem, structure, alpha)
        except NotImplementingError:
            report["action"] = args.action
            report["implements"] = False
            _emit(report, args.format)
            return EXIT_NOT_IMPLEMENTING
        report["action"] = args.action
        report["implements"] = True
        report["maximally_informative"] = maximal
    _emit(report, args.format)
    return EXIT_OK


def _cmd_example(args) -> int:
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
    mean0 = counterfactual_mean(problem, 0, problem.mu)
    mean1 = counterfactual_mean(problem, 1, problem.mu)
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
        "full_information_means": {"t0": format_scalar(mean0), "t1": format_scalar(mean1)},
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
    if args.write_problem:
        documents.write_json(args.write_problem, documents.serialize_treatment(model))
    if args.write_structure:
        documents.write_json(
            args.write_structure,
            {"schema_version": documents.SCHEMA_VERSION, "marginal": {"variables": ["Y", "T"]}},
        )
    _emit(report, args.format)
    return EXIT_OK


def _require_treatment(loaded: documents.LoadedProblem, path: str):
    if loaded.treatment is None:
        raise DocumentError(f"{path}: this command needs a treatment-block problem document")
    return loaded.treatment


def _cmd_treatment_build(args) -> int:
    loaded = _load_problem(args.problem)
    _require_treatment(loaded, args.problem)
    report = {
        "command": "treatment build",
        "states": list(loaded.problem.states),
        "actions": list(loaded.problem.actions),
        "n_states": loaded.problem.n_states,
        "prior_equalities": len(loaded.problem.priors.eq_matrix),
    }
    if args.out:
        documents.write_json(args.out, documents.serialize_problem(loaded.problem))
    _emit(report, args.format)
    return EXIT_OK


def _cmd_treatment_implement(args) -> int:
    loaded = _load_problem(args.problem)
    model = _require_treatment(loaded, args.problem)
    problem = loaded.problem
    alpha = _parse_action(problem, args.action)
    structure, certificate = implement_treatment(model, alpha, problem)
    report = _implement_report(problem, structure, certificate, args.action)
    report["command"] = "treatment implement"
    _write_structure_from_kernel(args.out, structure)
    _emit(report, args.format)
    return EXIT_OK


def _cmd_treatment_marginal(args) -> int:
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
    if args.out:
        documents.write_json(args.out, documents.serialize_structure_matrix(structure))
    _emit(report, args.format)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfoDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "assertion failed"
        print(f"error: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
