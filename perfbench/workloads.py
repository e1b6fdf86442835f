"""Seeded inputs, operations and output checks of the benchmark's workloads.

Every workload runs a fixed population of instances. Instance ``i`` is
generated from ``random.Random(f"perfbench-<workload>-<i>")`` alone, so the
unique answers of every instance are stored once in ``reference.json`` (see
``record.py``) and checked whatever seed a run gets. The seed sets the order
of the operations. It does not pick a subset: a run measures whole passes
over the population, so every run measures the same mix of inputs. Seeded
subsets were tried first; on marginal-solve, where one input shape costs up
to 80 times another, their mix alone moved the median latency of a run by
10-14% from seed to seed (simulated from measured per-instance latencies),
about the size of the regressions the bounds must catch.

The generators copy the logic of the test suite's ``support.py`` instead of
importing it, so that editing a test cannot change a workload.

One operation is one library or CLI call. ``Op.call`` is timed; ``Op.check``
runs after it, outside the timed region, and returns a list of problems.
No library object made by one operation is passed to another.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from spans import max_bits

F0 = Fraction(0)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Every treatment-model shape (outcomes, treatments, covariate sizes) with at
# most 36 states: 8 to 36 states, 2 or 3 treatments, one or two covariates.
TREATMENT_SHAPES = tuple(
    (n_out, n_treat, sizes)
    for ell in (1, 2)
    for sizes in itertools.product((2, 3), repeat=ell)
    for n_out in (2, 3)
    for n_treat in (2, 3)
    if n_out * n_treat * math.prod(sizes) <= 36
)

# One-covariate shapes three times, two-covariate shapes once, so that most
# models are small, as most of the test suite's random treatment models are.
TREATMENT_SLOTS = tuple(
    shape for shape in TREATMENT_SHAPES for _ in range(3 if len(shape[2]) == 1 else 1)
)


def treatment_shape(i: int):
    return TREATMENT_SLOTS[i % len(TREATMENT_SLOTS)]


# Paired-payoff problem shapes: (state pairs, actions), 6-16 states.
PAIRED_SHAPES = tuple(itertools.product(range(3, 9), range(2, 6)))


def rand_distribution(rng: random.Random, n: int, allow_zero: bool = True) -> tuple:
    while True:
        vals = [Fraction(rng.randint(0 if allow_zero else 1, 6)) for _ in range(n)]
        total = sum(vals)
        if total:
            return tuple(v / total for v in vals)


def treatment_model(idg, rng: random.Random, shape):
    """A valid random treatment model of the given shape.

    Assignment ignores the last covariate, so an ignorable covariate exists.
    """
    n_out, n_treat, sizes = shape
    n_cells = math.prod(sizes)
    domains = tuple(tuple(f"x{j}v{v}" for v in range(size)) for j, size in enumerate(sizes))
    outcome_pool = sorted(rng.sample(range(-3, 7), n_out))
    outcomes = tuple(sorted({Fraction(v, rng.choice([1, 2])) for v in outcome_pool}))
    while len(outcomes) < n_out:
        outcomes = tuple(sorted(set(outcomes) | {outcomes[-1] + 1}))
    base_cells = list(itertools.product(*(range(s) for s in sizes[:-1]))) or [()]
    base_rows = {cell: rand_distribution(rng, n_treat, allow_zero=False) for cell in base_cells}
    rows = tuple(base_rows[cell[:-1]] for cell in itertools.product(*(range(s) for s in sizes)))
    assignment = idg.Matrix(n_cells, n_treat, rows)
    cell_mass = rand_distribution(rng, n_cells)
    mu = [F0] * (n_out * n_cells * n_treat)
    for c in range(n_cells):
        if not cell_mass[c]:
            continue
        for t in range(n_treat):
            outcome_law = rand_distribution(rng, n_out)
            for y in range(n_out):
                mu[(y * n_cells + c) * n_treat + t] = cell_mass[c] * rows[c][t] * outcome_law[y]
    return idg.TreatmentModel(
        outcomes=outcomes,
        covariate_domains=domains,
        treatments=tuple(f"t{t}" for t in range(n_treat)),
        assignment=assignment,
        mu=tuple(mu),
    )


def paired_problem_document(rng: random.Random, shape) -> dict:
    """A generic problem whose states come in payoff-identical pairs.

    Prior constraints weigh paired states equally, so the payoff-redundancy
    assumption of the implement path holds by construction.
    """
    n_pairs, n_actions = shape
    n = 2 * n_pairs
    cols = []
    for _ in range(n_pairs):
        col = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_actions))
        cols += [col, col]
    mu = rand_distribution(rng, n)
    ub_rows, ub_rhs = [], []
    for _ in range(rng.randint(0, 3)):
        row = []
        for _ in range(n_pairs):
            c = Fraction(rng.randint(-3, 3))
            row += [c, c]
        slack = Fraction(rng.randint(0, 2), rng.randint(1, 2))
        ub_rows.append(row)
        ub_rhs.append(sum(a * b for a, b in zip(row, mu)) + slack)
    doc = {
        "schema_version": "1",
        "states": [f"s{i}" for i in range(n)],
        "actions": [f"a{a}" for a in range(n_actions)],
        "utility": [[str(cols[s][a]) for s in range(n)] for a in range(n_actions)],
        "mu": [str(v) for v in mu],
    }
    if ub_rows:
        doc["prior_constraints"] = {
            "inequalities": {
                "matrix": [[str(v) for v in row] for row in ub_rows],
                "rhs": [str(v) for v in ub_rhs],
            }
        }
    return doc


def shuffled(population, seed: int) -> list:
    """The population in the seed's order."""
    out = list(population)
    random.Random(f"perfbench-order-{seed}").shuffle(out)
    return out


@dataclass
class Op:
    """One timed call and the untimed check of its result."""

    call: Callable
    check: Callable  # result -> list of problem strings
    bits: Callable  # result -> largest numerator/denominator bit length
    ready: Callable = lambda: True
    output_bytes: Callable = lambda result: 0


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _kernel_dim(idg, structure) -> int:
    return idg.kernel_of(structure).dim


# ---------------------------------------------------------------- treatment-implement


class TreatmentImplement:
    """causal.implement_treatment on pure and random mixed actions."""

    name = "treatment-implement"
    population_size = 3 * len(TREATMENT_SLOTS)
    mixed_per_model = 10
    recompute_every = 32
    predicted_calls = (
        "numerics.rref",
        "numerics.nullspace",
        "solver.verify",
        "solver.worst_case",
        "model.structure_init",
        "design.kernel_to_experiment",
        "causal.implement_treatment",
    )

    def model(self, idg, i: int):
        rng = random.Random(f"perfbench-{self.name}-{i}")
        model = treatment_model(idg, rng, treatment_shape(i))
        actions = [idg.MixedAction.pure(t, model.n_treatments) for t in range(model.n_treatments)]
        actions += [
            idg.MixedAction(rand_distribution(rng, model.n_treatments))
            for _ in range(self.mixed_per_model)
        ]
        return model, actions

    def population(self):
        return range(self.population_size)

    def record(self, idg, i: int) -> list:
        model, actions = self.model(idg, i)
        problem = idg.build_treatment_problem(model)
        return [_kernel_dim(idg, idg.implement_treatment(model, a, problem)[0]) for a in actions]

    def build(self, idg, seed: int, reference: dict, workdir: str) -> list:
        expected = reference[self.name]
        chosen = shuffled(self.population(), seed)
        ops = []
        for i in chosen:
            model, actions = self.model(idg, i)
            problem = idg.build_treatment_problem(model)
            for j, alpha in enumerate(actions):
                recompute = (i + j) % self.recompute_every == 0

                def call(model=model, alpha=alpha, problem=problem):
                    return idg.causal.implement_treatment(model, alpha, problem)

                def check(result, problem=problem, want=expected[str(i)][j], recompute=recompute):
                    structure, certificate = result
                    problems = []
                    if not certificate.verify(problem, structure):
                        problems.append("saddle certificate fails verify")
                    dim = _kernel_dim(idg, structure)
                    if dim != want:
                        problems.append(f"kernel dimension {dim}, expected {want}")
                    if recompute and idg.nullspace(structure.experiment) != idg.kernel_of(structure):
                        problems.append("recomputed nullspace differs from the structure's kernel")
                    return problems

                def bits(result):
                    structure, certificate = result
                    return max_bits((structure.experiment.entries, certificate.nu_star, certificate.value))

                ops.append(Op(call, check, bits))
        return ops


# ---------------------------------------------------------------- marginal-solve


class MarginalSolve:
    """What `infodesign solve` does for a one-variable marginal disclosure."""

    name = "marginal-solve"
    population_size = len(TREATMENT_SLOTS)
    predicted_calls = (
        "numerics.rref",
        "numerics.nullspace",
        "lp.solve",
        "solver.maxmin",
        "solver.worst_case",
        "model.structure_init",
        "causal.marginal_structure",
    )

    @staticmethod
    def variables(shape) -> tuple:
        return ("Y",) + tuple(f"X{j + 1}" for j in range(len(shape[2]))) + ("T",)

    def model(self, idg, i: int):
        rng = random.Random(f"perfbench-{self.name}-{i}")
        return treatment_model(idg, rng, treatment_shape(i))

    def population(self):
        return [
            (i, v)
            for i in range(self.population_size)
            for v in self.variables(treatment_shape(i))
        ]

    @staticmethod
    def solve(idg, model, problem, variable):
        structure = idg.causal.marginal_structure(model, (variable,))
        certificate = idg.solver.maxmin(problem, structure)
        worst = [
            idg.solver.worst_case(problem, structure, idg.MixedAction.pure(a, problem.n_actions))[0]
            for a in range(problem.n_actions)
        ]
        return structure, certificate, worst

    def record(self, idg, key) -> dict:
        i, variable = key
        model = self.model(idg, i)
        structure, certificate, worst = self.solve(idg, model, idg.build_treatment_problem(model), variable)
        return {
            "value": str(certificate.value),
            "worst_cases": [str(v) for v in worst],
            "kernel_dim": _kernel_dim(idg, structure),
        }

    def build(self, idg, seed: int, reference: dict, workdir: str) -> list:
        expected = reference[self.name]
        chosen = shuffled(self.population(), seed)
        inputs = {}
        ops = []
        for i, variable in chosen:
            if i not in inputs:
                model = self.model(idg, i)
                inputs[i] = (model, idg.build_treatment_problem(model))
            model, problem = inputs[i]
            want = expected[f"{i}/{variable}"]

            def call(model=model, problem=problem, variable=variable):
                return self.solve(idg, model, problem, variable)

            def check(result, problem=problem, want=want):
                structure, certificate, worst = result
                problems = []
                if not certificate.verify(problem, structure):
                    problems.append("saddle certificate fails verify")
                if str(certificate.value) != want["value"]:
                    problems.append(f"maxmin value {certificate.value}, expected {want['value']}")
                if [str(v) for v in worst] != want["worst_cases"]:
                    problems.append("worst-case values differ from the reference")
                if _kernel_dim(idg, structure) != want["kernel_dim"]:
                    problems.append("kernel dimension differs from the reference")
                return problems

            def bits(result):
                _, certificate, worst = result
                return max_bits((certificate.value, certificate.nu_star, certificate.alpha_star.weights, worst))

            ops.append(Op(call, check, bits))
        return ops


# ---------------------------------------------------------------- cli-session


def _parse_action(problem, text: str):
    """The MixedAction an action argument names: a label or "a0:w0,a1:w1"."""
    from infodesign import MixedAction

    if ":" not in text:
        return MixedAction.pure(problem.actions.index(text), problem.n_actions)
    weights = dict(part.split(":") for part in text.split(","))
    return MixedAction(tuple(Fraction(weights.get(label, "0")) for label in problem.actions))


@dataclass
class _Session:
    """Files and state shared by the CLI calls on one problem.

    The parsed problem is cached for the output checks only; the timed CLI
    calls always parse the files again.
    """

    problem_path: str
    kernel_path: str
    action: str
    want: dict
    implemented: bool = False
    loaded: Optional[object] = None

    def problem(self):
        from infodesign import documents

        if self.loaded is None:
            self.loaded = documents.parse_problem_document(documents.load_json(self.problem_path))
        return self.loaded.problem

    def structure(self):
        from infodesign import documents

        self.problem()
        return documents.parse_structure_document(documents.load_json(self.kernel_path), self.loaded)

    def saddle_problems(self, idg, report: dict, where: str) -> list:
        problem = self.problem()
        alpha = idg.MixedAction(tuple(Fraction(report["alpha_star"][a]) for a in problem.actions))
        nu = tuple(Fraction(report["nu_star"][s]) for s in problem.states)
        certificate = idg.SaddleCertificate(alpha, nu, Fraction(report["value"]))
        if not certificate.verify(problem, self.structure()):
            return [f"{where}: saddle certificate fails verify"]
        return []

    def same_kernel(self) -> bool:
        """Whether implement wrote the kernel the reference answers belong to."""
        with open(self.kernel_path, "r", encoding="utf-8") as handle:
            return json.load(handle)["kernel"]["basis"] == self.want.get("kernel")


class CliSession:
    """In-process `infodesign --format machine` calls: implement, check, solve."""

    name = "cli-session"
    population_size = 8 * len(PAIRED_SHAPES)
    predicted_calls = (
        "numerics.rref",
        "numerics.nullspace",
        "lp.solve",
        "solver.maxmin",
        "solver.worst_case",
        "solver.verify",
        "model.structure_init",
        "model.prior_init",
        "design.kernel_to_experiment",
        "design.implementing_structure",
        "design.is_maximally_informative",
        "documents.load",
        "documents.parse_problem",
        "documents.parse_structure",
        "documents.write",
        "cli.main",
    )

    def document(self, p: int):
        rng = random.Random(f"perfbench-{self.name}-{p}")
        doc = paired_problem_document(rng, PAIRED_SHAPES[p % len(PAIRED_SHAPES)])
        n_actions = len(doc["actions"])
        if p % 2 == 0:
            action = f"a{rng.randrange(n_actions)}"
        else:
            weights = rand_distribution(rng, n_actions)
            action = ",".join(f"a{a}:{w}" for a, w in enumerate(weights))
        return doc, action

    def population(self):
        return range(self.population_size)

    @staticmethod
    def cli(idg, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = idg.cli.main(["--format", "machine"] + argv)
        return code, out.getvalue(), err.getvalue()

    def _session(self, p: int, workdir: str, want: dict) -> _Session:
        doc, action = self.document(p)
        session = _Session(
            problem_path=os.path.join(workdir, f"p{p}.json"),
            kernel_path=os.path.join(workdir, f"p{p}-kernel.json"),
            action=action,
            want=want,
        )
        with open(session.problem_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return session

    def record(self, idg, p: int, workdir: str) -> dict:
        import infodesign.cli  # noqa: F401  (the package does not import its CLI)

        s = self._session(p, workdir, {})
        code, out, _ = self.cli(idg, ["implement", s.problem_path, s.action, "--out", s.kernel_path])
        entry = {"implement_exit": code}
        if code != 0:
            return entry
        report = json.loads(out)
        entry["kernel_dim"] = report["structure"]["kernel_dim"]
        entry["kernel"] = report["kernel_basis"]
        code, out, _ = self.cli(idg, ["check", s.problem_path, s.kernel_path, "--action", s.action])
        entry["check_exit"] = code
        entry["maximal"] = json.loads(out).get("maximally_informative")
        code, out, _ = self.cli(idg, ["solve", s.problem_path, s.kernel_path])
        report = json.loads(out)
        entry["solve_exit"] = code
        entry["value"] = report["value"]
        entry["worst_cases"] = report["worst_cases"]
        return entry

    def build(self, idg, seed: int, reference: dict, workdir: str) -> list:
        import infodesign.cli  # noqa: F401  (the package does not import its CLI)

        expected = reference[self.name]
        ops = []
        for p in shuffled(self.population(), seed):
            ops += self._session_ops(idg, self._session(p, workdir, expected[str(p)]))
        return ops

    def _session_ops(self, idg, session: _Session) -> list:
        from infodesign import lp
        from infodesign.solver import supporting_prior_program

        want = session.want

        def implement():
            return self.cli(idg, ["implement", session.problem_path, session.action, "--out", session.kernel_path])

        def check_implement(result):
            code, out, _ = result
            session.implemented = code == 0
            if code != want["implement_exit"]:
                return [f"implement exit {code}, expected {want['implement_exit']}"]
            report = json.loads(out)
            if code == 3:
                problem = session.problem()
                alpha = _parse_action(problem, session.action)
                farkas = idg.FarkasCertificate(
                    eq=tuple(Fraction(v) for v in report["farkas"]["equalities"]),
                    ub=tuple(Fraction(v) for v in report["farkas"]["inequalities"]),
                    lb=tuple(Fraction(v) for v in report["farkas"]["lower_bounds"]),
                )
                outcome = lp.LpOutcome(status=lp.LpStatus.INFEASIBLE, certificate=farkas)
                if not lp.verify_outcome(supporting_prior_program(problem, alpha), outcome):
                    return ["implement: Farkas certificate fails verify"]
                return []
            problems = session.saddle_problems(idg, report["certificate"], "implement")
            if report["structure"]["kernel_dim"] != want["kernel_dim"]:
                problems.append("implement: kernel dimension differs from the reference")
            return problems

        def check_call():
            return self.cli(idg, ["check", session.problem_path, session.kernel_path, "--action", session.action])

        def check_check(result):
            code, out, _ = result
            if code != want["check_exit"]:
                return [f"check exit {code}, expected {want['check_exit']}"]
            report = json.loads(out)
            if not report.get("implements"):
                return ["check: structure written by implement does not implement the action"]
            if session.same_kernel() and report.get("maximally_informative") != want["maximal"]:
                return ["check: maximality differs from the reference"]
            return []

        def solve():
            return self.cli(idg, ["solve", session.problem_path, session.kernel_path])

        def check_solve(result):
            code, out, _ = result
            if code != want["solve_exit"]:
                return [f"solve exit {code}, expected {want['solve_exit']}"]
            report = json.loads(out)
            problems = session.saddle_problems(idg, report, "solve")
            if session.same_kernel():
                if report["value"] != want["value"]:
                    problems.append(f"solve value {report['value']}, expected {want['value']}")
                if report["worst_cases"] != want["worst_cases"]:
                    problems.append("solve worst cases differ from the reference")
                if report["structure"]["kernel_dim"] != want["kernel_dim"]:
                    problems.append("solve: kernel dimension differs from the reference")
            return problems

        def bits(result):
            numbers = []
            stack = [json.loads(result[1])]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, list):
                    stack.extend(item)
                elif isinstance(item, str):
                    try:
                        numbers.append(Fraction(item))
                    except ValueError:  # a label, not a number
                        pass
            return max_bits(numbers)

        def output_bytes(result):
            return len(result[1].encode())

        ready = lambda: session.implemented
        return [
            Op(implement, check_implement, bits, output_bytes=output_bytes),
            Op(check_call, check_check, bits, ready, output_bytes),
            Op(solve, check_solve, bits, ready, output_bytes),
        ]


WORKLOADS = {w.name: w for w in (TreatmentImplement(), MarginalSolve(), CliSession())}
