"""Fail when a fixed mutant of the library's checkers survives the tests.

    python3 tests/mutants.py [name ...]

Each mutant below replaces one exact piece of text in one file of
``src/infodesign`` with a broken version, and names the test files that must
then fail. For each mutant, in turn, the script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, applies the mutant there, and
runs ``pytest -x -q`` on the named files with the copy's ``src`` first on
``PYTHONPATH``. A mutant is killed when that run fails. First, the union of
the named files runs once on the unmutated copy, which must pass.

It exits 1 if a mutant survives, or if its old text is not found exactly once
in its file, so a refactor of a checked line must update this list. Names on
the command line run only those mutants.

Standard library only. Like ``tests/raise_coverage.py``, it is not a test
module, so the test run does not collect it; it runs one mutant after another,
most in a few seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/infodesign
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]  # relative to tests


MUTANTS = (
    # lp.verify_outcome
    Mutant(
        "verify-optimum-value", "lp.py",
        "if not _point_feasible(program, point) or dot(program.objective, point) != value:",
        "if not _point_feasible(program, point):",
        "an optimum whose value is not the objective at its point must read False",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-inequality-signs", "lp.py",
        "if any(bad_w(v, 0) for v in cert.ub) or any(bad_s(v, 0) for v in cert.lb):",
        "if any(bad_s(v, 0) for v in cert.lb):",
        "a multiplier of the wrong sign on an inequality row must read False",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-bound-signs", "lp.py",
        "if any(bad_w(v, 0) for v in cert.ub) or any(bad_s(v, 0) for v in cert.lb):",
        "if any(bad_w(v, 0) for v in cert.ub):",
        "a multiplier of the wrong sign on a lower bound must read False",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-lb-length", "lp.py",
        "    if len(cert.lb) != n:\n        return False\n",
        "",
        "a certificate with a short lb must read False, not raise",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-row-lengths", "lp.py",
        "if len(cert.eq) != len(program.eq_matrix) or len(cert.ub) != len(program.ub_matrix):",
        "if len(cert.eq) != len(program.eq_matrix):",
        "a certificate with an extra row multiplier must read False, not raise",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-free-variables", "lp.py",
        "if any(s for s, lb in zip(cert.lb, bounds) if lb is None):",
        "if False:",
        "a nonzero multiplier on a free variable's absent bound must read False",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-farkas-bound", "lp.py",
        "return bound > 0 if value is None else bound == value",
        "return bound >= 0 if value is None else bound == value",
        "a refutation must bound the rows strictly away from zero; the zero certificate refutes nothing",
        ("test_lp.py",),
    ),
    Mutant(
        "verify-ray-gain", "lp.py",
        "return gain < 0 if program.sense == \"min\" else gain > 0",
        "return gain <= 0 if program.sense == \"min\" else gain >= 0",
        "a ray must improve the objective strictly; the zero direction improves nothing",
        ("test_lp.py",),
    ),
    # lp._point_feasible
    Mutant(
        "point-ray-bounds", "lp.py",
        "bounds = [None if lb is None else F0 for lb in bounds]",
        "bounds = [None for lb in bounds]",
        "a ray direction must stay nonnegative on every bounded variable",
        ("test_lp.py",),
    ),
    Mutant(
        "point-lower-bounds", "lp.py",
        "if any(lb is not None and x < lb for lb, x in zip(bounds, point)):",
        "if any(lb is not None and x < lb - 1 for lb, x in zip(bounds, point)):",
        "a point below a lower bound must be infeasible",
        ("test_lp.py",),
    ),
    Mutant(
        "point-equalities", "lp.py",
        "if (lhs != rhs) if i < n_eq else (lhs > rhs):",
        "if lhs > rhs:",
        "an equality row must hold with equality, not as an upper bound",
        ("test_lp.py",),
    ),
    Mutant(
        "point-inequalities", "lp.py",
        "if (lhs != rhs) if i < n_eq else (lhs > rhs):",
        "if (lhs != rhs) if i < n_eq else (lhs > rhs + 1):",
        "an inequality row must hold exactly, with no slack of one unit",
        ("test_lp.py",),
    ),
    Mutant(
        "point-homogeneous-rhs", "lp.py",
        "            lhs, rhs = num, 0\n",
        "            lhs, rhs = num * b.denominator, b.numerator * den\n",
        "a ray direction must meet the homogeneous rows, not the program's right-hand sides",
        ("test_lp.py",),
    ),
    # lp._stationary
    Mutant(
        "stationary-slack-sign", "lp.py",
        "if total * td * sd != (t.numerator * sd - sj.numerator * td) * den:",
        "if total * td * sd != (t.numerator * sd + sj.numerator * td) * den:",
        "stationarity subtracts the bound multipliers from the target",
        ("test_lp.py",),
    ),
    Mutant(
        "stationary-common-denominator", "lp.py",
        "        k = num * (den // d)\n",
        "        k = num\n",
        "each weighted row must be brought over the common denominator",
        ("test_lp.py",),
    ),
    # lp._price
    Mutant(
        "price-scale", "lp.py",
        "        k = -f * (den // h)\n",
        "        k = -f\n",
        "each basic row must be scaled to the lcm before it is subtracted from the cost row",
        ("test_lp.py",),
    ),
    Mutant(
        "price-sign", "lp.py",
        "                priced[j] += k * x\n",
        "                priced[j] -= k * x\n",
        "pricing must eliminate the basic columns from the cost row, not double them",
        ("test_lp.py",),
    ),
    # numerics._combine
    Mutant(
        "combine-sign", "numerics.py",
        "        out[j] -= f * b\n",
        "        out[j] += f * b\n",
        "a row operation must clear the pivot column",
        ("test_numerics.py",),
    ),
    Mutant(
        "combine-common-factor", "numerics.py",
        "        h //= g\n        f //= g\n",
        "        h //= g\n",
        "h and f must be divided by the same gcd, or the row changes direction",
        ("test_numerics.py",),
    ),
    Mutant(
        "combine-shared-row", "numerics.py",
        "out = row.copy() if h == 1 else [a * h for a in row]",
        "out = row if h == 1 else [a * h for a in row]",
        "a row operation must never write into its input row, which another tableau may share",
        ("test_numerics.py",),
    ),
    # solver.SaddleCertificate.verify
    Mutant(
        "saddle-shape", "solver.py",
        "        if len(alpha) != problem.n_actions or len(nu) != problem.n_states:\n"
        "            return False\n",
        "",
        "a certificate of the wrong shape must read False, not raise",
        ("test_solver.py",),
    ),
    Mutant(
        "saddle-value", "solver.py",
        "if payoff(alpha, nu, problem) != self.value or not is_best_response(problem, alpha, nu):",
        "if not is_best_response(problem, alpha, nu):",
        "alpha* must attain the certified value at nu*",
        ("test_solver.py",),
    ),
    Mutant(
        "saddle-best-response", "solver.py",
        "if payoff(alpha, nu, problem) != self.value or not is_best_response(problem, alpha, nu):",
        "if payoff(alpha, nu, problem) != self.value:",
        "alpha* must best-respond to nu*",
        ("test_solver.py",),
    ),
    Mutant(
        "saddle-membership", "solver.py",
        "        if not identified_set(problem, structure).contains(nu):\n"
        "            return False\n",
        "",
        "nu* must lie in the identified set",
        ("test_solver.py",),
    ),
    Mutant(
        "saddle-worst-case", "solver.py",
        "return worst_case(problem, structure, alpha)[0] == self.value",
        "return True",
        "nu* must be worst for alpha* over the identified set",
        ("test_solver.py",),
    ),
    # solver._segment_saddle's guard, reached through a mixture that is not flat
    Mutant(
        "segment-saddle-guard", "solver.py",
        "weights[up] = slopes[down] / (slopes[down] - slopes[up])",
        "weights[up] = slopes[up] / (slopes[up] - slopes[down])",
        "the saddle guard must refuse a kink mixture whose line is not flat",
        ("test_solver.py",),
    ),
    # model.InformationStructure's experiment column check
    Mutant(
        "column-negative-entry", "model.py",
        "if min(col) < 0 or sum(col) != den:",
        "if sum(col) != den:",
        "an experiment column with a negative entry is not a probability vector",
        ("test_model.py",),
    ),
    Mutant(
        "column-sum", "model.py",
        "if min(col) < 0 or sum(col) != den:",
        "if min(col) < 0:",
        "an experiment column that does not sum to one is not a probability vector",
        ("test_model.py",),
    ),
    # design.KernelSpec
    Mutant(
        "kernel-spec-sign", "design.py",
        "if sum(sparse_row(v).numerators):",
        "if sum(sparse_row(v).numerators) > 0:",
        "a kernel direction with a negative coordinate sum is not zero-sum",
        ("test_design.py",),
    ),
    Mutant(
        "kernel-spec-check", "design.py",
        "if sum(sparse_row(v).numerators):",
        "if False:",
        "a kernel direction off zero sum must be refused",
        ("test_design.py",),
    ),
    # documents' number bound
    Mutant(
        "document-digit-limit", "documents.py",
        "if max(abs(number.numerator), number.denominator) >= _DIGIT_LIMIT:",
        "if max(abs(number.numerator), number.denominator) > _DIGIT_LIMIT:",
        "10**4300 has 4301 digits and must be refused",
        ("test_cli.py",),
    ),
    Mutant(
        "document-negative-numerator", "documents.py",
        "if max(abs(number.numerator), number.denominator) >= _DIGIT_LIMIT:",
        "if max(number.numerator, number.denominator) >= _DIGIT_LIMIT:",
        "a negative numerator of 4301 digits must be refused",
        ("test_cli.py",),
    ),
    Mutant(
        "document-exponent-limit", "documents.py",
        "int(digits or \"0\") >= MAX_DIGITS",
        "int(digits or \"0\") > MAX_DIGITS",
        "an exponent of 4300 must be refused before Fraction parses it",
        ("test_cli.py",),
    ),
    Mutant(
        "document-digit-run", "documents.py",
        "if len(run) - run.count(\"_\") > MAX_DIGITS:",
        "if len(run) - run.count(\"_\") >= MAX_DIGITS:",
        "a string of 4300 digits is within the limit and must be accepted",
        ("test_cli.py",),
    ),
    # model.IdentifiedSet's two hand-overs
    Mutant(
        "maxmin-handover-order", "model.py",
        "eq_rows + self._pinning + compiled + ub_rows",
        "eq_rows + self._pinning + ub_rows + compiled",
        "the action rows come before the set's inequality rows, as in the program",
        ("test_model.py",),
    ),
    Mutant(
        "program-handover-pinning", "model.py",
        "eq_rows + self._pinning + ub_rows",
        "eq_rows + ub_rows",
        "the set's program must hand over its pinning rows",
        ("test_model.py",),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    """pytest -x -q on the tree's test files, with the tree's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += [f"tests/{name}" for name in tests]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def _apply(tree: Path, mutant: Mutant) -> bool:
    """Write the mutant into the tree's file; False if its old text is not there exactly once."""
    target = tree / "src" / "infodesign" / mutant.file
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"mutants: unknown mutant {', '.join(unknown)}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({name for m in chosen for name in m.tests})
    failed = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        _copy_tree(clean)
        if _pytest(clean, tests):
            print(f"mutants: the unmutated tests fail: {' '.join(tests)}")
            return 1
        for i, mutant in enumerate(chosen):
            tree = Path(tmp, f"m{i}")
            _copy_tree(tree)
            if not _apply(tree, mutant):
                failed.append(mutant.name)
                print(f"MISSING   {mutant.name}: old text not found once in src/infodesign/{mutant.file}")
                continue
            start = time.perf_counter()
            code = _pytest(tree, mutant.tests)
            seconds = time.perf_counter() - start
            shutil.rmtree(tree)
            if code:
                print(f"killed    {mutant.name} ({seconds:.1f} s)")
            else:
                failed.append(mutant.name)
                print(f"SURVIVED  {mutant.name} ({seconds:.1f} s): {mutant.reason}")
    print(f"mutants: {len(chosen) - len(failed)} of {len(chosen)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
