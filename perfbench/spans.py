"""Per-layer spans, recorded from outside the library.

The tracer wraps the public functions of each layer at every module
attribute that holds them. Callers look a function up either through the
defining module (``lp.solve_lp``) or through an alias made by
``from .numerics import nullspace``; both kinds of site are found by object
identity over the loaded ``infodesign`` modules, so a new alias added by a
refactor is wrapped as well. Methods are wrapped on their class.

Spans nest on a stack. A span's self time is its duration minus the
durations of the spans it directly encloses. Recording happens only while
``active`` is set, so output checks that reuse the library outside the
timed region leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

# span name -> (defining module, attribute path). A dotted attribute path
# names a method on a class.
SPANS = {
    "numerics.rref": ("infodesign.numerics", "rref"),
    "numerics.nullspace": ("infodesign.numerics", "nullspace"),
    "lp.solve": ("infodesign.lp", "solve_lp"),
    "solver.maxmin": ("infodesign.solver", "maxmin"),
    "solver.worst_case": ("infodesign.solver", "worst_case"),
    "solver.verify": ("infodesign.solver", "SaddleCertificate.verify"),
    "model.structure_init": ("infodesign.model", "InformationStructure.__post_init__"),
    "model.prior_init": ("infodesign.model", "PriorPolytope.__post_init__"),
    "design.kernel_to_experiment": ("infodesign.design", "kernel_to_experiment"),
    "design.implementing_structure": ("infodesign.design", "implementing_structure"),
    "design.is_maximally_informative": ("infodesign.design", "is_maximally_informative"),
    "causal.implement_treatment": ("infodesign.causal", "implement_treatment"),
    "causal.marginal_structure": ("infodesign.causal", "marginal_structure"),
    "documents.load": ("infodesign.documents", "load_json"),
    "documents.parse_problem": ("infodesign.documents", "parse_problem_document"),
    "documents.parse_structure": ("infodesign.documents", "parse_structure_document"),
    "documents.write": ("infodesign.documents", "write_json"),
    "cli.main": ("infodesign.cli", "main"),
}

# Reported layer spans that sum several wrapped functions.
GROUPS = {
    "documents.parse": ("documents.load", "documents.parse_problem", "documents.parse_structure"),
}


def max_bits(values) -> int:
    """Largest numerator or denominator bit length in nested tuples and lists of Fractions."""
    best = 0
    stack = [values]
    while stack:
        item = stack.pop()
        if isinstance(item, Fraction):
            best = max(best, abs(item.numerator).bit_length(), item.denominator.bit_length())
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return best


def _certificate_bits(certificate) -> int:
    parts = [getattr(certificate, name, ()) for name in ("eq", "ub", "lb", "direction", "base_point")]
    return max_bits(parts)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans and counters of the operations run while active."""

    active: bool = False
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def top(self, name: str, amount) -> None:
        self.counters[name] = max(self.counters.get(name, 0), amount)

    def _observe(self, name: str, args, result) -> None:
        if name == "numerics.rref":
            rows, cols = args[0], (args[1] if len(args) > 1 else None)
            if cols is None:
                cols = len(rows[0]) if rows else 0
            self.count("numerics.rref.cells", len(rows) * cols)
        elif name == "lp.solve":
            program = args[0]
            self.count("lp.rows", len(program.eq_matrix) + len(program.ub_matrix))
            self.count("lp.cols", program.n_vars)
            if result.status.name == "INFEASIBLE":
                self.count("lp.infeasible", 1)
            self.top("lp.cert_bits_max", _certificate_bits(result.certificate))
        elif name == "documents.load":
            self.count("documents.bytes_in", os.path.getsize(args[0]))

    def span(self, name: str, fn):
        """Run fn() inside a span of this name, whether or not it is wrapped."""
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn()
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats()
            stats.calls += 1
            stats.self_s += duration - children
            if self._stack:
                self._stack[-1] += duration

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            result = tracer.span(name, lambda: original(*args, **kwargs))
            tracer._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every span's function at every site that holds it."""
        for module_name, _ in SPANS.values():
            importlib.import_module(module_name)
        for name, (module_name, path) in SPANS.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for site in [owner] if outer else aliases(module_name, attr):
                self._undo.append((site, attr, original))
                setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)

    def stats(self, name: str) -> SpanStats:
        members = GROUPS.get(name, (name,))
        out = SpanStats()
        for member in members:
            s = self.spans.get(member)
            if s is not None:
                out.calls += s.calls
                out.self_s += s.self_s
        return out


def aliases(module_name: str, attr: str) -> list:
    """Every loaded infodesign module whose attribute is the same object."""
    original = getattr(sys.modules[module_name], attr)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "infodesign" or name.startswith("infodesign."))
        and getattr(module, attr, None) is original
    ]
