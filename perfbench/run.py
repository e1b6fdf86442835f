"""The infodesign benchmark: closed-loop workloads, end to end and per layer.

One run measures one workload in this fresh process, with one client and no
threads: the next operation starts when the previous one returns. Timing
covers the call only; each output is checked after its call, outside the
timed region. A run makes whole passes over the workload's population of
inputs, in the seed's order, until the timed calls add up to ``--seconds``
and number at least 200.

    python3 perfbench/run.py --workload marginal-solve --seed 3 --seconds 16 --trace 0
    python3 perfbench/run.py --seconds 16     # every workload, untraced and traced

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
operation twice, once untraced and once with the layer spans of
``spans.py`` recording (the order alternates), and reports the per-layer
metrics, ``trace.overhead`` among them. Per-layer times are wall-clock
seconds summed over the traced calls; ``trace.op_s`` is their total. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The error rate (failed over
attempted) is printed with the metrics but is not one of them, because it
is 0 when the program is right.

Times are given at the reference speed. On a shared machine the speed of a
core changes by up to a factor of two within seconds, for identical work
and for CPU time as much as wall time. So the run times a fixed piece of
integer arithmetic (``reference_work``, which does not touch infodesign)
before the next operation whenever ``CALIBRATE_EVERY_S`` of calls have
passed since the last timing, and scales each wall time by ``REFERENCE_S``
over the running median of the timings around it. A time at the reference
speed is the wall time on a core that runs ``reference_work`` in
``REFERENCE_S``. In ten runs of each workload on a 2-core shared container,
the quartile spread of the wall-clock figures was 15-24% of their median,
and that of the figures at the reference speed 2-7%. The wall-clock
figures are printed beside them.

Run it from the root of a source checkout; it imports ``infodesign`` from
``src/`` and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5
MIN_OPS = 200
REFERENCE_S = 0.6e-3
CALIBRATE_EVERY_S = 0.005
CALIBRATION_WINDOW = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class LayoutError(Exception):
    """The directory the benchmark runs in holds no infodesign sources."""


def import_library():
    init = os.path.join(SRC, "infodesign", "__init__.py")
    if not os.path.isfile(init):
        raise LayoutError(f"no infodesign sources at {os.path.relpath(init, os.getcwd())}")
    sys.path.insert(0, SRC)
    import infodesign

    if os.path.abspath(infodesign.__file__) != init:
        raise LayoutError(f"infodesign imported from {infodesign.__file__}, not from src/")
    return infodesign


def reference_work() -> int:
    """Fixed exact arithmetic on small integer fractions, about 0.6 ms."""
    num, den = 0, 1
    for i in range(1, 2000):
        p, q = (i * 7919) % 97 - 48, i % 13 + 1
        num, den = num * q + p * den, den * q
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return num


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def running_median(values: list, window: int = CALIBRATION_WINDOW) -> list:
    half = window // 2
    return [statistics.median(values[max(0, i - half): i + half + 1]) for i in range(len(values))]


def set_up(workload_name: str, seed: int, workdir: str):
    """Import the library and build the workload's inputs, timing both."""
    start = time.perf_counter()
    idg = import_library()
    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    os.makedirs(workdir, exist_ok=True)
    ops = workload.build(idg, seed, workloads.load_reference(), workdir)
    built = time.perf_counter()
    return workload, ops, imported - start, built - imported


def remove_workdir(workdir: str) -> None:
    """Delete a run's scratch files, and their parent once no run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:  # another run still has files there
        pass


def probe_setup(workload_name: str, seed: int) -> list:
    """Set-up times of fresh processes at the reference speed.

    Each entry is (process start to ready, import, inputs), scaled by the
    median of three reference timings taken just before the process starts.
    """
    out = []
    for _ in range(SETUP_PROBES):
        scale = REFERENCE_S / statistics.median(time_reference() for _ in range(3))
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(tuple(scale * t for t in (probe["ready"] - spawned, probe["import_s"], probe["inputs_s"])))
    return out


def _call(op):
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        result = exc
    return result, time.perf_counter() - start


def _check(op, result) -> list:
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    try:
        return op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        return [f"output check raised {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"op {self.attempted}: " + "; ".join(problems))


def measure(ops, seconds: float, min_ops: int = MIN_OPS):
    """Untraced closed loop.

    Returns the wall latencies, the same latencies at the reference speed,
    and the check tally.
    """
    tally = Tally()
    walls: list = []
    marks: list = []
    calibrations: list = []
    since = CALIBRATE_EVERY_S
    while sum(walls) < seconds or len(walls) < min_ops:
        for op in ops:
            if not op.ready():
                continue
            if since >= CALIBRATE_EVERY_S:
                calibrations.append(time_reference())
                since = 0.0
            result, elapsed = _call(op)
            since += elapsed
            walls.append(elapsed)
            marks.append(len(calibrations) - 1)
            tally.record(_check(op, result))
    speed = running_median(calibrations)
    scaled = [w * REFERENCE_S / speed[m] for w, m in zip(walls, marks)]
    return walls, scaled, tally


def measure_traced(ops, seconds: float, tracer):
    """Each operation untraced and traced, alternating which goes first."""
    tally = Tally()
    plain = traced = 0.0
    bits = 0
    while not tally.attempted or plain + traced < seconds:
        for op in ops:
            if not op.ready():
                continue
            for with_trace in (False, True) if tally.attempted % 2 else (True, False):
                if not with_trace:
                    plain += _call(op)[1]
                    continue
                tracer.active = True
                start = time.perf_counter()
                try:
                    result = tracer.span("op", op.call)
                except Exception as exc:  # counted as failed below
                    result = exc
                traced += time.perf_counter() - start
                tracer.active = False
            problems = _check(op, result)
            if not problems:
                bits = max(bits, op.bits(result))
                tracer.count("cli.bytes_out", op.output_bytes(result))
            tally.record(problems)
    return tally, plain, traced, bits


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(walls, scaled, tally, setups) -> tuple[dict, list]:
    completed = tally.attempted - tally.failed
    n = len(scaled)
    p95 = percentile(scaled, 95)
    metrics = {
        "ops_per_s": completed / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "setup_s": statistics.median(s[0] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "ops_per_s": f"{completed / sum(walls):.4f}",
        "latency_p50_ms": f"{statistics.median(walls) * 1e3:.4f}",
        "latency_p95_ms": f"{percentile(walls, 95) * 1e3:.4f}",
    }
    samples = {
        "ops_per_s": f"n={n} ops, {sum(walls):.2f} s of calls",
        "latency_p50_ms": f"n={n} ops",
        "latency_p95_ms": f"n={n} ops, {sum(1 for v in scaled if v > p95)} beyond",
        "setup_s": f"median of n={len(setups)} fresh processes",
        "peak_rss_mb": "n=1 process",
    }
    lines = []
    for name, value in metrics.items():
        note = samples[name] + (f"; wall clock {wall[name]}" if name in wall else "")
        lines.append(f"{name:<16} {value:>12.4f} {END_TO_END_UNITS[name]:<6} ({note})")
    lines.insert(3, f"{'error_rate':<16} {tally.failed / tally.attempted:>12.4f} {'ratio':<6} "
                    f"({tally.failed} failed of n={tally.attempted} ops)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def per_layer(tracer, tally, plain, traced, bits, setups) -> dict:
    ops = tally.attempted
    s = tracer.stats
    lp_calls = s("lp.solve").calls
    c = tracer.counters
    metrics = {
        "numerics.rref.calls": (s("numerics.rref").calls, "count"),
        "numerics.rref.cells": (c.get("numerics.rref.cells", 0), "count"),
        "numerics.rref.self_s": (s("numerics.rref").self_s, "s"),
        "numerics.nullspace.calls": (s("numerics.nullspace").calls, "count"),
        "numerics.nullspace.self_s": (s("numerics.nullspace").self_s, "s"),
        "lp.solve.calls": (lp_calls, "count"),
        "lp.calls_per_op": (lp_calls / ops, "ratio"),
        "lp.solve.self_s": (s("lp.solve").self_s, "s"),
        "lp.rows_mean": (c.get("lp.rows", 0) / lp_calls if lp_calls else 0.0, "count"),
        "lp.cols_mean": (c.get("lp.cols", 0) / lp_calls if lp_calls else 0.0, "count"),
        "lp.infeasible": (c.get("lp.infeasible", 0), "count"),
        "lp.cert_bits_max": (c.get("lp.cert_bits_max", 0), "bits"),
        "solver.maxmin.self_s": (s("solver.maxmin").self_s, "s"),
        "solver.worst_case.self_s": (s("solver.worst_case").self_s, "s"),
        "solver.verify.self_s": (s("solver.verify").self_s, "s"),
        "model.structure_init.calls": (s("model.structure_init").calls, "count"),
        "model.structure_init.self_s": (s("model.structure_init").self_s, "s"),
        "model.prior_init.self_s": (s("model.prior_init").self_s, "s"),
        "design.kernel_to_experiment.self_s": (s("design.kernel_to_experiment").self_s, "s"),
        "design.implementing_structure.self_s": (s("design.implementing_structure").self_s, "s"),
        "design.is_maximally_informative.self_s": (s("design.is_maximally_informative").self_s, "s"),
        "causal.implement_treatment.self_s": (s("causal.implement_treatment").self_s, "s"),
        "causal.marginal_structure.self_s": (s("causal.marginal_structure").self_s, "s"),
        "documents.parse.self_s": (s("documents.parse").self_s, "s"),
        "documents.bytes_in": (c.get("documents.bytes_in", 0), "bytes"),
        "documents.write.self_s": (s("documents.write").self_s, "s"),
        "cli.main.self_s": (s("cli.main").self_s, "s"),
        "cli.bytes_out": (c.get("cli.bytes_out", 0), "bytes"),
        "setup.import_s": (statistics.median(p[1] for p in setups), "s"),
        "setup.inputs_s": (statistics.median(p[2] for p in setups), "s"),
        "out.bits_max": (bits, "bits"),
        "trace.overhead": (plain / traced, "ratio"),
        "trace.ops": (ops, "count"),
        "trace.op_s": (traced, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def silent_spans(tracer, workload) -> list:
    """Spans the workload should reach that recorded no call."""
    return [name for name in workload.predicted_calls if tracer.stats(name).calls == 0]


def run_workload(args) -> int:
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        workload, ops, import_s, inputs_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"import_s": import_s, "inputs_s": inputs_s, "ready": time.time()}))
            return 0
        print(f"workload {args.workload}, seed {args.seed}, {len(ops)} distinct operations, "
              f"trace {args.trace}", flush=True)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                tally, plain, traced, bits = measure_traced(ops, args.seconds, tracer)
            finally:
                tracer.uninstall()
            silent = silent_spans(tracer, workload)
            if silent:
                print(f"perfbench: no calls recorded through {', '.join(silent)} on {args.workload}; "
                      "a call was re-routed past the wrapped sites", file=sys.stderr)
                return 3
            metrics = per_layer(tracer, tally, plain, traced, bits, probe_setup(args.workload, args.seed))
            for name, entry in metrics.items():
                print(f"{name:<40} {entry['value']:>14.6g} {entry['unit']}")
        else:
            walls, scaled, tally = measure(ops, args.seconds)
            metrics, lines = end_to_end(walls, scaled, tally, probe_setup(args.workload, args.seed))
            print("\n".join(lines))
        for note in tally.notes:
            print(f"FAILED {note}", file=sys.stderr)
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        remove_workdir(workdir)


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except LayoutError as exc:
        print(f"perfbench: {exc}; run from the root of an infodesign source checkout", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
