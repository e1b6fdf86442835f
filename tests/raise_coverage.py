"""Fail when a raise statement of the library never runs under the tests.

    python3 tests/raise_coverage.py [extra pytest arguments]

Runs the repository's test suite (``pytest`` on ``tests/``) under a
``sys.settrace`` line tracer limited to ``src/infodesign``. A generated
``sitecustomize.py``, first on ``PYTHONPATH``, starts the tracer in every
interpreter, so the command-line processes the tests start are traced too.
Then it lists, with ``ast``, every ``raise`` statement of the package whose
exception is not ``AssertionError``, prints each one whose lines never ran,
and exits 1 if there is any. ``raise AssertionError`` marks an internal
invariant that correct code never breaks, so those are left out. It exits 1
as well when the test run itself fails.

Standard library only. The file name keeps it out of the test run: traced,
the suite takes about four times as long.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "infodesign"

# Started by every interpreter whose PYTHONPATH leads with its directory. It
# records (file, line) for each line run in the package and writes them, one
# JSON file per process, when the interpreter exits.
HOOK = '''
import atexit, json, os, sys, tempfile, threading

_PACKAGE = os.environ["RAISE_COVERAGE_PACKAGE"]
_OUT = os.environ["RAISE_COVERAGE_OUT"]
_wanted = {}
_lines = {}


def _local(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    wanted = _wanted.get(name)
    if wanted is None:
        wanted = _wanted[name] = os.path.abspath(name).startswith(_PACKAGE)
        if wanted:
            _lines.setdefault(name, set())
    return _local if wanted else None


def _write():
    sys.settrace(None)
    ran = {}
    for name, lines in _lines.items():
        ran.setdefault(os.path.abspath(name), []).extend(lines)
    handle, path = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(handle, "w") as out:
        json.dump(ran, out)


atexit.register(_write)
threading.settrace(_global)
sys.settrace(_global)
'''


def raises(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each raise in a file, AssertionError left out."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
            spans.append((node.lineno, node.end_lineno))
    return sorted(spans)


def run_traced(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """The tests' return code, and the lines run per package file."""
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "lines")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        path = [str(hook), str(SRC), os.environ.get("PYTHONPATH")]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, path)),
            RAISE_COVERAGE_PACKAGE=str(PACKAGE) + os.sep,
            RAISE_COVERAGE_OUT=str(out),
        )
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        code = subprocess.run(command + list(pytest_args), cwd=ROOT, env=env).returncode
        ran: dict[str, set[int]] = {}
        for record in out.iterdir():
            for name, lines in json.loads(record.read_text(encoding="utf-8")).items():
                ran.setdefault(name, set()).update(lines)
    return code, ran


def main(argv=None) -> int:
    code, ran = run_traced(sys.argv[1:] if argv is None else argv)
    if code:
        print(f"raise_coverage: the test run failed (exit {code})")
        return 1
    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for first, last in raises(path):
            total += 1
            if lines.isdisjoint(range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}")
    for where in missed:
        print(f"raise never run: {where}")
    print(f"raise_coverage: {total - len(missed)} of {total} raise statements ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
