"""End-to-end acceptance checks, one per advertised guarantee of the package.

Each test computes its verdict, prints exactly one [cNN name] PASS/FAIL line
with the measured numbers, and then asserts.  Tolerances are the published
ones; timed checks assert their wall-clock budget too.
"""

import json
import time

import numpy as np
import pytest

from breatherlab import closed_forms as cf
from breatherlab import evolution as ev
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp
from breatherlab.cli import main


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def _breather_field(p, grid, t=0.0):
    return gr.sample(lambda tt, x: cf.breather(p, tt, x), grid, t)


def _quadrature_grid(beta, n):
    return gr.PeriodicGrid(gr.quadrature_half_length(beta), n)


def _expansion(z, p, t):
    # (Q[z], N[z]) along the program's own path, as the stability audit takes them
    zx, zxx = gr.spectral_derivatives(z.values, z.grid, (1, 2))
    return fn.expansion_terms(z, zx, zxx, cf.breather_jet(p, t, z.grid.nodes), p)


def test_c01_mass_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 0.7, 1.0, 1.3, 2.0):
        p = cf.BreatherParams(rng.uniform(0.6, 2.0), beta,
                              rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = _breather_field(p, _quadrature_grid(beta, 1024), t=rng.uniform(-0.5, 0.5))
        worst = max(worst, abs(fn.mass(f) - 4.0 * beta) / (4.0 * beta))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report("c01 mass_closed_form", ok, f"max rel err {worst:.3e}, {elapsed:.2f}s")


def test_c02_energy_closed_form():
    rng = np.random.default_rng(102)
    pairs = [(1.1, 0.5), (0.9, 0.7), (1.4, 1.0), (0.6, 1.3), (2.0, 2.0)]
    worst = 0.0
    saw_negative = False
    for alpha, beta in pairs:
        p = cf.BreatherParams(alpha, beta, rng.uniform(-1, 1), rng.uniform(-1, 1))
        saw_negative = saw_negative or p.gamma < 0.0
        f = _breather_field(p, _quadrature_grid(beta, 1024), t=rng.uniform(-0.5, 0.5))
        exact = 4.0 / 3.0 * beta * p.gamma
        worst = max(worst, abs(fn.invariants(f)[1] - exact) / abs(exact))
    ok = worst < 1e-8 and saw_negative
    _report("c02 energy_closed_form", ok,
            f"max rel err {worst:.3e}, negative-energy case covered: {saw_negative}")


def test_c03_stationary_equation():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        p = cf.BreatherParams(rng.uniform(0.7, 2.0), rng.uniform(0.5, 1.5),
                              rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = rng.uniform(-0.5, 0.5)
        grid = gr.residual_grid(p.beta)
        res = fn.stationary_residual(p, grid, t)
        scale = max(1.0, float(np.max(np.abs(cf.breather(p, t, grid.nodes)))) ** 5)
        worst = max(worst, float(np.max(np.abs(res.values))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 2.0
    _report("c03 stationary_equation", ok, f"max scaled residual {worst:.3e}, {elapsed:.2f}s")


def test_c04_kernel_directions():
    p = cf.BreatherParams(1.5, 1.0)
    grid = gr.residual_grid(1.0)
    worst = 0.0
    for name in ("dx1", "dx2"):
        def direction(q, t, x):
            return getattr(cf.breather_jet(q, t, x), name)

        res = fn.apply_operator_direction(direction, p, grid, t=0.0)
        scale = max(1.0, float(np.max(np.abs(direction(p, 0.0, grid.nodes)))))
        worst = max(worst, float(np.max(np.abs(res.values))) / scale)
    rep = sp.spectrum(p, _quadrature_grid(1.0, 512))[0]
    ok = (worst < 1e-6 and len(rep.kernel_defect) == 2 and rep.kernel_angle < 1e-3)
    _report("c04 kernel_directions", ok,
            f"max residual {worst:.3e}, kernel angle {rep.kernel_angle:.3e} rad")


def test_c05_scaling_direction_forms():
    worst = 0.0
    for alpha, beta in ((1.0, 1.0), (1.5, 1.0), (2.0, 0.5)):
        p = cf.BreatherParams(alpha, beta)
        grid = gr.residual_grid(beta)
        expected = 32.0 * alpha**2 * beta
        za = gr.sample(lambda t, x: cf.scaling_derivative(p, t, x, "alpha"), grid, 0.0)
        zb = gr.sample(lambda t, x: cf.scaling_derivative(p, t, x, "beta"), grid, 0.0)
        worst = max(worst,
                    abs(_expansion(za, p, 0.0)[0] - expected) / expected,
                    abs(_expansion(zb, p, 0.0)[0] + expected) / expected)
    ok = worst < 1e-5
    _report("c05 scaling_direction_forms", ok, f"max rel err {worst:.3e}")


def test_c06_inverse_direction():
    worst_res, worst_rel = 0.0, 0.0
    for alpha, beta in ((1.5, 1.0), (2.0, 0.5)):
        p = cf.BreatherParams(alpha, beta)
        grid = gr.residual_grid(beta)
        res = fn.apply_operator_direction(cf.b0_direction, p, grid, t=0.0)
        target = -cf.breather(p, 0.0, grid.nodes)
        worst_res = max(worst_res, float(np.max(np.abs(res.values - target))))
        pairing = 1.0 / (2.0 * beta * (alpha**2 + beta**2))
        b0 = gr.sample(lambda t, x: cf.b0_direction(p, t, x), grid, 0.0)
        b = _breather_field(p, grid)
        worst_rel = max(
            worst_rel,
            abs(gr.inner_product(b0, b) - pairing) / pairing,
            abs(0.5 * _expansion(b0, p, 0.0)[0] + 0.5 * pairing) / (0.5 * pairing))
    ok = worst_res < 1e-6 and worst_rel < 1e-5
    _report("c06 inverse_direction", ok,
            f"max operator residual {worst_res:.3e}, max pairing rel err {worst_rel:.3e}")


def test_c07_spectrum_sweep():
    t0 = time.perf_counter()
    failures = []
    lambda_min = np.inf
    for alpha in (0.8, 1.2, 1.6):
        for beta in (0.7, 1.0, 1.4):
            # tail-matched box: e^(-26) boundary keeps N=512 sharp for the
            # steepest (alpha, beta) corner of the sweep
            grid = gr.PeriodicGrid(26.0 / beta, 512)
            for phase in (0.0, 0.6, 1.2, 1.9):
                p = cf.BreatherParams(alpha, beta, phase, 0.0)
                rep = sp.spectrum(p, grid)[0]
                wrep = sp.wronskian_analysis(p, t=0.0)
                lambda_min = min(lambda_min, rep.lambda0_sq)
                if rep.negative_count != 1 or wrep.root_count != rep.negative_count:
                    failures.append((alpha, beta, phase))
    elapsed = time.perf_counter() - t0
    ok = not failures and lambda_min > 0.0 and elapsed < 60.0
    _report("c07 spectrum_sweep", ok,
            f"36 cases, min lambda0^2 {lambda_min:.3f}, failures {failures}, {elapsed:.1f}s")


def test_c08_wronskian_closed_form():
    rng = np.random.default_rng(108)
    worst_direct, worst_reported = 0.0, 0.0
    for _ in range(5):
        p = cf.BreatherParams(rng.uniform(0.7, 1.8), rng.uniform(0.5, 1.4),
                              rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = rng.uniform(-0.4, 0.4)
        grid = gr.residual_grid(p.beta)
        x = grid.nodes
        jet = cf.breather_jet(p, t, x)
        (d1b1,) = gr.spectral_derivatives(jet.dx1, grid, (1,))
        (d1b2,) = gr.spectral_derivatives(jet.dx2, grid, (1,))
        det_numeric = d1b1 * jet.dx2 - d1b2 * jet.dx1
        det_closed = cf.wronskian_det(p, t, x)
        mask = np.abs(x) <= 10.0
        rel = (np.max(np.abs(det_numeric[mask] - det_closed[mask]))
               / np.max(np.abs(det_closed[mask])))
        worst_direct = max(worst_direct, float(rel))
        worst_reported = max(worst_reported,
                             sp.wronskian_analysis(p, t).closed_form_max_err)
    ok = worst_direct < 1e-8 and worst_reported < 1e-8
    _report("c08 wronskian_closed_form", ok,
            f"max rel err on |x|<=10: {worst_direct:.3e}, reported {worst_reported:.3e}")


def test_c09_coercivity_constants():
    p = cf.BreatherParams(1.5, 1.0)
    grid = _quadrature_grid(1.0, 512)
    op = sp.assemble(p, grid)
    rep = sp.spectrum(p, grid)[0]
    nu0, mu0 = rep.nu0_estimate, rep.mu0_estimate
    x = grid.nodes
    b = cf.breather(p, 0.0, x)
    jet = cf.breather_jet(p, 0.0, x)
    b1, b2 = jet.dx1, jet.dx2
    vneg = sp.eigensystem(op)[1][:, 0]
    h = grid.spacing
    rng = np.random.default_rng(109)
    worst = np.inf
    for _ in range(1000):
        z = rng.standard_normal(grid.n_points)
        for w in (b1, b2, vneg):
            z = z - (z @ w) / (w @ w) * w
        f = gr.GridField(grid, z)
        f = f.with_values(f.values / gr.h2_norm(f))
        q = gr.inner_product(f, gr.GridField(grid, op.matrix @ f.values))
        worst = min(worst, q - nu0)

        z2 = rng.standard_normal(grid.n_points)
        for w in (b1, b2):
            z2 = z2 - (z2 @ w) / (w @ w) * w
        f2 = gr.GridField(grid, z2)
        f2 = f2.with_values(f2.values / gr.h2_norm(f2))
        q2 = gr.inner_product(f2, gr.GridField(grid, op.matrix @ f2.values))
        worst = min(worst, q2 - mu0 + (h * (f2.values @ b)) ** 2 / mu0)
    ok = nu0 > 0.0 and mu0 > 0.0 and worst >= -1e-8
    _report("c09 coercivity_constants", ok,
            f"nu0 {nu0:.4f}, mu0 {mu0:.4f}, min slack over 1000 samples {worst:.3e}")


def test_c10_breather_evolution():
    p = cf.BreatherParams(1.5, 1.0)
    grid = gr.PeriodicGrid(30.0, 1024)
    t0 = time.perf_counter()
    trace = ev.evolve(_breather_field(p, grid),
                      ev.IntegratorConfig(dt=1e-4, t_end=0.2, monitor_stride=200))
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(trace.final.values - cf.breather(p, 0.2, grid.nodes))))
    drift = max(trace.max_drift)
    ok = err < 1e-6 and drift < 1e-8 and elapsed < 30.0
    _report("c10 breather_evolution", ok,
            f"L-inf error {err:.3e}, max invariant drift {drift:.3e}, {elapsed:.1f}s")


def test_c11_expansion_closure():
    p = cf.BreatherParams(1.5, 1.0)
    grid = _quadrature_grid(1.0, 2048)
    b = _breather_field(p, grid)
    w = gr.GridField(grid, 1.0 / np.cosh(grid.nodes))
    w = w.with_values(w.values / gr.h2_norm(w))
    worst_closure = 0.0
    cubic = []
    for s in (0.2, 0.1, 0.05):
        z = w.with_values(s * w.values)
        lhs = fn.h_value(b.with_values(b.values + z.values), p) - fn.h_value(b, p)
        q_z, n_z = _expansion(z, p, 0.0)
        rhs = 0.5 * q_z + n_z
        worst_closure = max(worst_closure, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        cubic.append(n_z / s**3)
    cubic = np.asarray(cubic)
    spread = float(np.max(np.abs(cubic / np.mean(cubic) - 1.0)))
    ok = worst_closure < 1e-9 and spread < 0.05
    _report("c11 expansion_closure", ok,
            f"max closure rel {worst_closure:.3e}, cubic-coefficient spread {spread:.3%}")


PERTURBATIONS = ("sech", "sech_cos", "random_band")


@pytest.fixture(scope="module")
def stability_runs(tmp_path_factory):
    results = {}
    for name in PERTURBATIONS:
        out = tmp_path_factory.mktemp(f"stab_{name}")
        t0 = time.perf_counter()
        code = main(["stability",
                     "--set", f"stability.perturbation={name}",
                     "--set", "stability.eta_sweep=[0.01, 0.001]",
                     "--set", "integrator.t_end=5.0",
                     "--out", str(out)])
        elapsed = time.perf_counter() - t0
        report = json.loads(next(out.glob("*.report.json")).read_text())
        results[name] = (code, out, report, elapsed)
    return results


def test_c12_modulation_stability(stability_runs):
    problems = []
    a0_max = 0.0
    k_max = 0.0
    ratios = {}
    for name, (code, _, report, elapsed) in stability_runs.items():
        if code != 0:
            problems.append(f"{name}: exit {code}")
            continue
        if elapsed >= 1200.0:
            problems.append(f"{name}: {elapsed:.0f}s over budget")
        sups = {}
        for run in report["runs"]:
            eta = run["eta"]
            sups[eta] = run["sup_z_h2"]
            a0_max = max(a0_max, run["a0_observed"])
            k_max = max(k_max, run["shift_rate_sup"] / (run["a0_observed"] * eta))
            if run["failure_time"] is not None:
                problems.append(f"{name} eta={eta}: modulation failed")
            if not run["a0_observed"] < 100.0:
                problems.append(f"{name} eta={eta}: a0 {run['a0_observed']:.1f}")
        ratios[name] = sups[0.01] / sups[0.001]
        if not 5.0 <= ratios[name] <= 20.0:
            problems.append(f"{name}: eta-scaling ratio {ratios[name]:.2f}")
    ok = not problems and k_max < 100.0
    ratio_text = ", ".join(f"{n}={r:.1f}" for n, r in ratios.items())
    _report("c12 modulation_stability", ok,
            f"a0 max {a0_max:.2f}, shift-rate constant max {k_max:.2f}, "
            f"eta ratios {ratio_text}, problems {problems}")


def test_c13_manifest_replay_determinism(stability_runs, tmp_path):
    _, first, _, _ = stability_runs["sech"]
    manifest = next(first.glob("*.manifest.json"))
    code = main(["stability", "--config", str(manifest), "--out", str(tmp_path)])
    first_names = sorted(p.name for p in first.iterdir())
    replay_names = sorted(p.name for p in tmp_path.iterdir())
    same_sets = first_names == replay_names
    differing = []
    if same_sets:
        differing = [n for n in first_names
                     if (first / n).read_bytes() != (tmp_path / n).read_bytes()]
    ok = code == 0 and same_sets and not differing
    _report("c13 manifest_replay_determinism", ok,
            f"exit {code}, artifacts {len(first_names)}, byte-different {differing}")
