"""Correctness gate for one benchmarked program call.

A call passes when its exit code is 0, it printed at least one check line
and every check line reads ``[PASS]``, and its key report scalars match the
reference values recorded for its input case.  Each of these is one check;
a call whose exit code is not 0 fails all of its checks.
"""

from __future__ import annotations

import json
import math
import re

# Relative tolerances.  Stability scalars and eigenvalues are compared
# loosely enough to survive reordered floating-point sums (and, for the
# spectrum, the BLAS-thread dependence of eigh), tightly enough to catch a
# changed trajectory or operator.  mu0 comes from a bisection that brackets
# it to 1%, so an exact solver may move it by up to that much.
REL_TOL = {
    "sup_z_h2": 1e-6,
    "a0_observed": 1e-6,
    "shift_rate_sup": 1e-6,
    "lambda0_sq": 1e-6,
    "mu0_estimate": 2e-2,
    "negative_counts": 0.0,
}

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)$")


def report_scalars(report: dict) -> dict:
    """The scalars the gate compares, keyed by their dotted report path."""
    if "runs" in report:
        out = {}
        for i, run in enumerate(report["runs"]):
            for key in ("sup_z_h2", "a0_observed", "shift_rate_sup"):
                out[f"runs.{i}.{key}"] = run[key]
        return out
    return {
        "spectrum.lambda0_sq": report["spectrum"]["lambda0_sq"],
        "spectrum.mu0_estimate": report["spectrum"]["mu0_estimate"],
        "sweep.lambda0_sq": report["sweep"]["lambda0_sq"],
        "sweep.negative_counts": report["sweep"]["negative_counts"],
    }


def _close(value, expected, rel: float) -> bool:
    if isinstance(expected, list):
        return (isinstance(value, list) and len(value) == len(expected)
                and all(_close(v, e, rel) for v, e in zip(value, expected)))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


def read_report(stdout: str) -> dict | None:
    """The report JSON named on the program's ``report:`` line, if any."""
    for line in stdout.splitlines():
        if line.startswith("report: "):
            try:
                with open(line[len("report: "):], encoding="ascii") as handle:
                    return json.load(handle)
            except (OSError, ValueError):
                return None
    return None


def verdict(returncode: int | None, stdout: str, report: dict | None,
            reference: dict | None) -> list[tuple[str, bool]]:
    """(check name, passed) for every check made on one call."""
    checks = [("exit_code", returncode == 0)]
    lines = [m.groups() for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]
    checks.append(("check_lines_present", bool(lines)))
    checks += [(f"line.{name}", status == "PASS") for status, name in lines]
    if reference is None:
        checks.append(("reference_present", False))
    else:
        try:
            found = report_scalars(report) if report is not None else {}
        except (KeyError, TypeError):
            found = {}
        for key, expected in sorted(reference.items()):
            ok = key in found and _close(found[key], expected, REL_TOL[key.rpartition(".")[2]])
            checks.append((f"reference.{key}", ok))
    if returncode != 0:
        checks = [(name, False) for name, _ in checks]
    return checks
