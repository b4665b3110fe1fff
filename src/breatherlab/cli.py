"""Command-line entry point: verify, spectrum, evolve, stability.

Every command reads one JSON config (all fields defaulted), applies --set
overrides, writes a JSON report plus a run manifest named by the config
hash, and returns 0 on success, 1 on configuration errors, 2 when a
scientific check fails.  Re-running a manifest reproduces the outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import closed_forms as cf
from . import config as cfgmod
from . import evolution as ev
from . import functionals as fn
from . import grid as gr
from . import spectral as sp
from . import stability as st

# Pass/fail tolerances. evolve: the relative drift of mass, energy and f, and
# the soliton's sup-norm deviation from its initial profile. stability: the
# largest a0 a stable run may observe, and the audit's relative closure
# residual and relative drift of H.
DRIFT_TOL = 1e-8
STEADY_TOL = 1e-6
A0_THRESHOLD = 100.0
CLOSURE_TOL = 1e-8
H_DRIFT_TOL = 1e-8
# spectrum.phase_sweep samples x1 at this many equal steps over a half period
PHASE_SAMPLES = 8


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which this tool reserves for
    # scientific failures; remap to the config-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="breatherlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    helps = {
        "verify": "closed-form identity suite",
        "spectrum": "linearized-operator spectrum and Wronskian analysis",
        "evolve": "time evolution with conservation monitoring",
        "stability": "perturbed-breather modulation experiment",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="FILE", help="JSON config or manifest")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE", help="dotted config override")
        p.add_argument("--out", default=".", metavar="DIR", help="output directory")
    return parser


def _cmd_verify(config: dict, plan: tuple, outdir: str, prefix: str):
    p = cfgmod.breather_params(config)
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    (quad_grid, res_grid, soliton_grid), _ = plan

    # one jet on the quadrature grid feeds the functionals and the expansion
    jet = cf.breather_jet(p, 0.0, quad_grid.nodes)
    b = gr.GridField(quad_grid, jet.b)
    mass, energy, f = fn.invariants(b)
    h_b = fn.h_from_parts(p, mass, energy, f)
    checks: dict[str, dict] = {}

    def add(name: str, residual: float, bound: float) -> None:
        checks[name] = {"residual": residual, "bound": bound, "pass": bool(residual < bound)}

    add("mass_closed_form", abs(mass - 4.0 * beta) / (4.0 * beta), 1e-10)
    energy_exact = (4.0 / 3.0) * beta * gamma
    add("energy_closed_form", abs(energy - energy_exact) / max(abs(energy_exact), 1e-12), 1e-8)

    wein = fn.weinstein_derivatives(b, p)
    wein_dev = max(
        abs(wein["dmass_dalpha"]),
        abs(wein["dmass_dbeta"] - 4.0),
        abs(wein["denergy_dalpha"] - 8.0 * alpha * beta),
        abs(wein["denergy_dbeta"] - 4.0 * (alpha**2 - beta**2)),
    )
    add("weinstein_conditions", wein_dev, 1e-6)

    residuals = fn.identity_residuals(p, res_grid, 0.0)
    res, scale = residuals.pop("stationary")
    add("stationary", res, 1e-6 * scale)
    bounds = {"second_order": 1e-6, "first_order": 1e-6, "mixed": 1e-6,
              "mass_profile": 1e-8, "wronskian": 1e-8}
    for name, (res, scale) in residuals.items():
        add(name, res / scale, bounds[name])
    soliton = cf.SolitonParams(c=config["evolve"]["soliton_c"])
    soliton_res = fn.soliton_ode_residual(soliton, soliton_grid).values
    add("soliton_ode", float(np.max(np.abs(soliton_res))), 1e-8)

    # energy-functional expansion at a seeded H^2-norm-0.1 perturbation
    z = gr.GridField(quad_grid, st.band_limited_values(quad_grid, config["seed"]))
    z = z.with_values(0.1 * z.values / gr.h2_norm(z))
    u = b.with_values(b.values + z.values)
    h_u = fn.h_value(u, p)
    zx, zxx = gr.spectral_derivatives(z.values, quad_grid, (1, 2))
    q_z, n_z = fn.expansion_terms(z, zx, zxx, jet, p)
    add("lyapunov_expansion", abs(h_u - h_b - 0.5 * q_z - n_z) / max(abs(h_u), 1e-30), 1e-9)

    pass_fail = {name: entry["pass"] for name, entry in checks.items()}
    report_doc = {
        "functionals": {"mass": mass, "energy": energy, "f": f, "h": h_b},
        "checks": checks,
    }
    return report_doc, pass_fail, []


def _cmd_spectrum(config: dict, plan: tuple, outdir: str, prefix: str):
    p = cfgmod.breather_params(config)
    (eig_grid, _), _ = plan  # the other is the Wronskian check's residual grid
    shifts = []
    if config["spectrum"]["phase_sweep"]:
        half_period = np.pi / p.alpha
        shifts = [p.x1 + j * half_period / PHASE_SAMPLES for j in range(PHASE_SAMPLES)]
    srep, lam = sp.spectrum(p, eig_grid, 0.0, shifts)
    wrep = sp.wronskian_analysis(p, 0.0)

    pass_fail = {
        "negative_count_is_one": srep.negative_count == 1,
        "root_count_matches_negative_count": wrep.root_count == srep.negative_count,
        "lambda0_sq_positive": srep.lambda0_sq > 0.0,
        "wronskian_closed_form": wrep.closed_form_max_err < 1e-8,
    }
    report_doc = {"spectrum": asdict(srep), "wronskian": asdict(wrep), "sweep": None}

    if lam:
        pass_fail["sweep_lambda0_sq_positive"] = bool(all(v > 0.0 for v in lam))
        report_doc["sweep"] = {
            "phase_samples": len(lam),
            "lambda0_sq": lam,
            "lambda0_sq_min": min(lam),
            # every sample classified, so each has one negative eigenvalue
            "negative_counts": [srep.negative_count] * len(lam),
        }
    return report_doc, pass_fail, []


def _cmd_evolve(config: dict, plan: tuple, outdir: str, prefix: str):
    (grid,), cfg = plan
    if config["evolve"]["initial"] == "breather":
        p = cfgmod.breather_params(config)
        u0 = gr.sample(lambda tt, xx: cf.breather(p, tt, xx), grid)
    else:
        soliton = cf.SolitonParams(c=config["evolve"]["soliton_c"])
        u0 = gr.sample(lambda tt, xx: cf.soliton(soliton, tt, xx), grid)
    # each checkpoint is written as evolve reaches it, into a staging
    # directory that becomes <prefix>_checkpoints only once the run is done
    ckpt_dir = f"{prefix}_checkpoints"
    staging = os.path.join(outdir, f"{ckpt_dir}.partial")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    written: list[str] = []
    try:
        trace = ev.evolve(u0, cfg, ev.checkpoint_writer(staging, written, cfg))
    except BaseException:
        shutil.rmtree(staging)
        raise

    names = ("mass", "energy", "f")
    pass_fail = {
        f"{name}_drift": drift < DRIFT_TOL for name, drift in zip(names, trace.max_drift)
    }
    report_doc = {
        "frame_speed": cfg.frame_speed,
        "max_drift": dict(zip(names, trace.max_drift)),
        "drift_tol": DRIFT_TOL,
        "monitored_times": [float(trace.times[0]), float(trace.times[-1])],
        "n_checkpoints": int(trace.times.shape[0]),
        "final_sup": float(trace.sup_series[-1]),
    }
    if config["evolve"]["initial"] == "soliton":
        deviation = float(np.max(np.abs(trace.final.values - u0.values)))
        pass_fail["steady"] = deviation < STEADY_TOL
        report_doc["steady_deviation"] = deviation

    trace_name = f"{prefix}_trace.csv"
    ev.write_trace_csv(trace, os.path.join(outdir, trace_name))
    shutil.rmtree(os.path.join(outdir, ckpt_dir), ignore_errors=True)
    os.rename(staging, os.path.join(outdir, ckpt_dir))
    outputs = [trace_name] + [os.path.join(ckpt_dir, name) for name in written]
    return report_doc, pass_fail, outputs


def _cmd_stability(config: dict, plan: tuple, outdir: str, prefix: str):
    p = cfgmod.breather_params(config)
    stab = config["stability"]
    (grid,), cfg = plan
    perturbation = st.perturbation(grid, stab["perturbation"], config["seed"])
    etas = stab["eta_sweep"]
    runs = st.stability_sweep(p, perturbation, etas, cfg)

    pass_fail: dict[str, bool] = {}
    outputs: list[str] = []
    summaries = []
    config_hash = cfgmod.config_hash(config)
    for i, run in enumerate(runs):
        audit = run.audit
        h_drift = ev.relative_drift(audit.h_u)
        stable = run.failure_time is None and run.a0_observed < A0_THRESHOLD
        flagged = audit.closure_rel > CLOSURE_TOL
        audit_ok = not bool(flagged.any()) and h_drift < H_DRIFT_TOL
        pass_fail[f"run{i}_stable"] = stable
        pass_fail[f"run{i}_audit"] = audit_ok
        csv_name = f"{prefix}_run{i}.csv"
        st.write_stability_csv(run, os.path.join(outdir, csv_name))
        outputs.append(csv_name)
        summaries.append({
            "eta": run.eta,
            "a0_observed": run.a0_observed if run.eta > 0.0 else None,
            "stable_flag": stable,
            "config_hash": config_hash,
            "sup_z_h2": run.sup_z_h2,
            "shift_rate_sup": run.shift_rate_sup,
            "h_drift": h_drift,
            "q_growth_constant": audit.q_growth_constant,
            "pairing_constant": audit.pairing_constant,
            "failure_time": run.failure_time,
            "csv": csv_name,
        })

    report_doc = {"runs": summaries, "sweep": None}
    if len(runs) > 1:
        sups = [run.sup_z_h2 for run in runs]
        # sup should shrink with eta up to slack, whatever order etas are listed in
        by_eta = [run.sup_z_h2 for run in sorted(runs, key=lambda run: run.eta, reverse=True)]
        monotone = all(by_eta[i + 1] <= 1.1 * by_eta[i] for i in range(len(by_eta) - 1))
        pass_fail["sweep_monotone"] = monotone
        report_doc["sweep"] = {
            "etas": etas,
            "sup_z_h2": sups,
            "linearity_ratios": [summary["a0_observed"] for summary in summaries],
        }
    return report_doc, pass_fail, outputs


def _finish(command: str, config: dict, outdir: str, prefix: str,
            report_doc: dict, pass_fail: dict, outputs: list[str]) -> int:
    report_name = f"{prefix}.report.json"
    manifest = {
        "command": command,
        "config": config,
        "seed": config["seed"],
        "artifact_version": __version__,
        "outputs": outputs + [report_name],
        "pass_fail": pass_fail,
    }
    manifest_name = f"{prefix}.manifest.json"
    # rendered before either file is opened: a non-finite value writes neither
    try:
        texts = {report_name: cfgmod.canonical_json(report_doc),
                 manifest_name: cfgmod.canonical_json(manifest)}
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    for name, text in texts.items():
        with open(os.path.join(outdir, name), "w", encoding="ascii") as handle:
            handle.write(text)
    for name in sorted(pass_fail):
        print(f"[{'PASS' if pass_fail[name] else 'FAIL'}] {name}")
    print(f"report: {os.path.join(outdir, report_name)}")
    print(f"manifest: {os.path.join(outdir, manifest_name)}")
    return 0 if all(pass_fail.values()) else 2


_RUNNERS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "stability": _cmd_stability,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = cfgmod.load_config(args.config)
        cfgmod.apply_overrides(config, args.overrides)
        cfgmod.validate_config(config)
        plan = cfgmod.plan(args.command, config)
        os.makedirs(args.out, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    prefix = f"{args.command}_{cfgmod.config_hash(config)}"
    try:
        report_doc, pass_fail, outputs = _RUNNERS[args.command](config, plan, args.out, prefix)
    except gr.ScientificError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return _finish(args.command, config, args.out, prefix, report_doc, pass_fail, outputs)


if __name__ == "__main__":
    sys.exit(main())
