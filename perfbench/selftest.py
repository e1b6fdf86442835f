"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

The file name keeps them out of the repository's test run, because they run
parts of the benchmark and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

idg = run.import_library()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def small_ops(name: str, count: int, workdir, reference=None):
    workload = workloads.WORKLOADS[name]
    ops = workload.build(idg, 0, reference or workloads.load_reference(), str(workdir))
    return workload, ops[:count]


def traced(ops):
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.measure_traced(ops, 0, tracer)
    finally:
        tracer.uninstall()
    return tracer


# CLI operations come in (implement, check, solve) triples.
@pytest.mark.parametrize(
    "name,count", [("treatment-implement", 40), ("marginal-solve", 4), ("cli-session", 30)]
)
def test_tiny_run_has_no_failures(name, count, tmp_path):
    _, ops = small_ops(name, count, tmp_path)
    walls, scaled, tally = run.measure(ops, 0, min_ops=1)
    assert tally.attempted >= count // 3
    assert tally.failed == 0, tally.notes
    metrics, _ = run.end_to_end(walls, scaled, tally, [(0.2, 0.1, 0.1)] * 3)
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_wrong_answers_count_as_failures(tmp_path):
    reference = workloads.load_reference()
    for dims in reference["treatment-implement"].values():
        dims[:] = [1 - d for d in dims]
    for entry in reference["cli-session"].values():
        entry["implement_exit"] = 4
    _, ops = small_ops("treatment-implement", 10, tmp_path, reference)
    tally = run.measure(ops, 0, min_ops=1)[2]
    assert tally.failed == tally.attempted == 10
    _, ops = small_ops("cli-session", 9, tmp_path, reference)
    tally = run.measure(ops, 0, min_ops=1)[2]
    assert tally.failed == 3  # every implement call; check and solve follow only a success


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_those_of_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli-session",
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared


def test_injected_delay_lands_in_its_own_layer(tmp_path, monkeypatch):
    workload, ops = small_ops("treatment-implement", 40, tmp_path)
    base = traced(ops)
    assert run.silent_spans(base, workload) == []

    original = idg.numerics.nullspace
    delay = 0.02

    def slow_nullspace(matrix):
        time.sleep(delay)
        return original(matrix)

    for site in spans.aliases("infodesign.numerics", "nullspace"):
        monkeypatch.setattr(site, "nullspace", slow_nullspace)
    slowed = traced(ops)

    calls = slowed.stats("numerics.nullspace").calls
    assert calls == base.stats("numerics.nullspace").calls > 0
    added = calls * delay
    gain = slowed.stats("numerics.nullspace").self_s - base.stats("numerics.nullspace").self_s
    assert 0.9 * added <= gain <= 1.5 * added
    for name in list(spans.SPANS) + ["op"]:
        if name != "numerics.nullspace":
            change = slowed.stats(name).self_s - base.stats(name).self_s
            assert abs(change) < 0.25 * added, name


def test_rerouted_call_is_reported(tmp_path, monkeypatch):
    workload, ops = small_ops("marginal-solve", 2, tmp_path)
    original = idg.model.nullspace
    monkeypatch.setattr(idg.model, "nullspace", lambda matrix: original(matrix))
    assert "numerics.nullspace" in run.silent_spans(traced(ops), workload)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
