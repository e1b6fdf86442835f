"""Regenerate reference.json: the unique answers of every population instance.

    python3 perfbench/record.py

The stored answers are the maxmin values, the per-action worst-case values,
the kernel dimensions and the CLI exit codes (plus, for cli-session, the
kernel each implement call wrote, which keys its solve and check answers).
Record them only at a commit whose answers are trusted. A change that claims
a speed-up must reproduce them, not re-record them.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def main() -> int:
    idg = run.import_library()
    reference = {}
    ti = workloads.WORKLOADS["treatment-implement"]
    start = time.perf_counter()
    reference[ti.name] = {str(i): ti.record(idg, i) for i in ti.population()}
    print(f"{ti.name}: {time.perf_counter() - start:.1f} s", flush=True)

    ms = workloads.WORKLOADS["marginal-solve"]
    start = time.perf_counter()
    reference[ms.name] = {f"{i}/{v}": ms.record(idg, (i, v)) for i, v in ms.population()}
    print(f"{ms.name}: {time.perf_counter() - start:.1f} s", flush=True)

    cli = workloads.WORKLOADS["cli-session"]
    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    try:
        reference[cli.name] = {str(p): cli.record(idg, p, workdir) for p in cli.population()}
    finally:
        run.remove_workdir(workdir)
    print(f"{cli.name}: {time.perf_counter() - start:.1f} s", flush=True)

    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
