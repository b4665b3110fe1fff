#!/usr/bin/env python3
"""Record the correctness gate's reference values for every input case.

    python3 perfbench/record_references.py [--workload NAME ...]

Calls the program once per workload and input case (untraced, with the
benchmark's environment) and stores the report scalars the gate compares in
perfbench/references.json, replacing the entries of the workloads named.
Record only from a commit whose outputs are trusted: every call must exit 0
with every check line [PASS].
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

import gate
import run


def record(workload: str, case: int) -> dict:
    _, argv = run.workload_case(workload, case)
    outdir = tempfile.mkdtemp(dir=run.RUNS_DIR)
    try:
        result, stdout = run.run_child(argv + ["--out", outdir], time.monotonic() + 600.0)
        checks = gate.verdict(result["returncode"], stdout, None, {})
        if not all(ok for _, ok in checks):
            raise SystemExit(f"{workload} case {case} failed its checks: {checks}")
        return gate.report_scalars(gate.read_report(stdout))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    run.RUNS_DIR.mkdir(exist_ok=True)
    try:
        with open(run.REFERENCES, encoding="ascii") as handle:
            references = json.load(handle)
    except FileNotFoundError:
        references = {}
    for workload in args.workload or sorted(run.WORKLOADS):
        references[workload] = {str(case): record(workload, case) for case in range(run.CASES)}
        print(f"{workload}: {run.CASES} cases recorded", flush=True)
    with open(run.REFERENCES, "w", encoding="ascii") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
