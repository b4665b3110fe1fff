#!/usr/bin/env python3
"""breatherlab benchmark: time CLI workloads end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.  Every
program call runs in a fresh process (perfbench/child.py) as one
``breatherlab.cli.main(argv)`` call, one after another (a closed loop with
one client).  With --trace 0 the run first starts the program SETUP_PROBES
times without calling it (set-up time), then calls it until S seconds have
passed, at least MIN_CALLS times, and reports the medians of the end-to-end
metrics.  With --trace 1 it makes one call under the layer tracer
(perfbench/layers.py), then untraced calls as above, and reports the
per-layer metrics.  Every call goes through the correctness gate
(perfbench/gate.py).  The last stdout line is one JSON object: correct, attempted, failed (gate checks) and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS_DIR = ROOT / ".perfbench_runs"
REFERENCES = BENCH / "references.json"
SPEC = ROOT / "BENCHMARK.json"

# Every call runs with one BLAS thread: on a 2-core machine the spectrum
# workload is faster that way (6.3 s against 8.7 s with two threads), its
# timings are steadier, and the spectrum eigenvalues do not depend on it.
BLAS_THREADS = "1"
SETUP_PROBES = 5
# every median has at least two samples, even when one call outlasts --seconds
MIN_CALLS = 2
# A run stops starting program calls once this much time has passed, so it
# ends well inside its 180 s allowance.
RUN_LIMIT_S = 150.0
# The seed selects one of CASES input cases; references.json holds the
# gate's reference values for each.  Case c runs with the program's default
# config seed plus c.
CASES = 8
DEFAULT_CONFIG_SEED = 20406
# the program's default alpha; the spectrum base shift is drawn from
# [0, pi/(8 alpha)), one sweep step of the 8-sample half-period phase sweep
ALPHA = 1.5

WORKLOADS = {
    # full-length stability run: about 3/4 of its time is ETDRK4 stepping
    "stability_t5": ("stability", ["integrator.t_end=5.0"]),
    # 2 runs x (4000 steps + 501 checkpoints): mostly modulation and audit
    "modulation_dense": ("stability", [
        "integrator.monitor_stride=8",
        "stability.perturbation=random_band",
        "stability.eta_sweep=[0.01,0.001]",
    ]),
    # 9 dense spectra plus the Wronskian: assembly, eigh and mu0 bisection
    "spectrum_sweep": ("spectrum", ["spectrum.phase_sweep=true"]),
}

class HarnessError(RuntimeError):
    """The benchmark could not measure the program at all."""


def workload_case(workload: str, seed: int) -> tuple[int, list[str]]:
    """(input case, program argv without --out) for a workload and seed."""
    command, sets = WORKLOADS[workload]
    case = seed % CASES
    config_seed = DEFAULT_CONFIG_SEED + case
    sets = [f"seed={config_seed}", *sets]
    if command == "spectrum":
        x1 = random.Random(config_seed).random() * math.pi / (8.0 * ALPHA)
        sets.append(f"x1={x1!r}")
    argv = [command]
    for item in sets:
        argv += ["--set", item]
    return case, argv


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BREATHERLAB_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or "unknown",
            "blas_threads": int(BLAS_THREADS)}


def run_child(argv: list[str], deadline: float, *options: str) -> tuple[dict, str]:
    """Start child.py; return its measurement line and its whole stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run time limit reached")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(start), json.dumps(argv), *options],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"program call exceeded the run time limit: {argv}") from exc
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-4000:])
        raise HarnessError(f"benchmark process failed with exit code {proc.returncode}")
    if result.get("returncode", 0) != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return result, proc.stdout


def program_call(workload: str, seed: int, deadline: float, references: dict,
                 trace_out: Path | None = None) -> tuple[dict, list[tuple[str, bool]]]:
    """One gated program call: (measurements, gate checks)."""
    case, argv = workload_case(workload, seed)
    outdir = tempfile.mkdtemp(dir=RUNS_DIR)
    try:
        options = ["--trace-out", str(trace_out)] if trace_out else []
        result, stdout = run_child(argv + ["--out", outdir], deadline, *options)
        report = gate.read_report(stdout)
        reference = references.get(workload, {}).get(str(case))
        checks = gate.verdict(result["returncode"], stdout, report, reference)
        result["bytes_written"] = sum(
            f.stat().st_size for f in Path(outdir).rglob("*") if f.is_file())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for name, ok in checks:
        if not ok:
            print(f"  gate FAIL {workload} case {case}: {name}")
    return result, checks


def calls_for(seconds: float, workload: str, seed: int, deadline: float, references: dict):
    """Untraced program calls until `seconds` have passed (at least MIN_CALLS)."""
    calls, checks = [], []
    stop = time.monotonic() + seconds
    while len(calls) < MIN_CALLS or (time.monotonic() < stop and time.monotonic() < deadline):
        result, call_checks = program_call(workload, seed, deadline, references)
        calls.append(result)
        checks += call_checks
        print(f"  call {len(calls)}: wall {result['wall_s']:.3f} s, "
              f"{sum(ok for _, ok in call_checks)}/{len(call_checks)} checks pass")
    return calls, checks


def end_to_end(args, deadline: float, references: dict):
    workload, seed = args.workload, args.seed
    _, argv = workload_case(workload, seed)
    setups = [run_child(argv, deadline, "--setup-only")[0]["setup_s"] for _ in range(SETUP_PROBES)]
    calls, checks = calls_for(args.seconds, workload, seed, deadline, references)
    metrics = {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
    }
    print(f"  {len(calls)} calls, {len(setups)} set-up probes; medians reported")
    return metrics, checks, calls[0]["env"]


def per_layer(args, deadline: float, references: dict):
    workload, seed = args.workload, args.seed
    trace_out = RUNS_DIR / f"trace_{workload}_seed{seed}.json"
    traced, checks = program_call(workload, seed, deadline, references, trace_out)
    calls, more = calls_for(args.seconds, workload, seed, deadline, references)
    wall = statistics.median(c["wall_s"] for c in calls)
    cpu = statistics.median(c["cpu_s"] for c in calls)
    metrics = dict(traced["layers"])
    metrics.update({
        "cli.bytes_written": traced["bytes_written"],
        "process.cpu_s": cpu,
        "process.cpu_util": cpu / wall,
        "trace.overhead_s": traced["wall_s"] - wall,
    })
    print(f"  spans written to {trace_out.relative_to(ROOT)}; "
          f"traced wall {traced['wall_s']:.3f} s against untraced median {wall:.3f} s "
          f"over {len(calls)} calls")
    return metrics, checks + more, traced["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "breatherlab" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'breatherlab'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S
    RUNS_DIR.mkdir(exist_ok=True)
    with open(REFERENCES, encoding="ascii") as handle:
        references = json.load(handle)
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in spec}
    case, program_argv = workload_case(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed} (case {case}): "
          f"breatherlab {' '.join(program_argv)}")
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, checks, env = measure(args, deadline, references)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(not ok for _, ok in checks)
    print("environment: " + json.dumps({**machine(), **env}))
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    print(f"gate: {'PASS' if not failed else 'FAIL'}, failed_share {failed}/{len(checks)}"
          f" = {failed / len(checks):.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
