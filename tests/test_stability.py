"""Modulation fitting and perturbed-evolution stability experiments."""

from dataclasses import replace

import numpy as np
import pytest

from breatherlab import closed_forms as cf
from breatherlab import evolution as ev
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import stability as st

P = cf.BreatherParams(1.5, 1.0)
GRID = gr.default_grid(1.0, 2048)
FIT_GRID = gr.default_grid(1.0, 1024)


def _breather_field(p, grid, t=0.0):
    return gr.sample(lambda tt, x: cf.breather(p, tt, x), grid, t)


def _assert_jet_at_fit(state, t):
    # the carried jet and z derivatives are those of the fitted shifts
    jet = cf.breather_jet(replace(P, x1=state.x1, x2=state.x2), t, FIT_GRID.nodes)
    for got, want in zip(state.jet, jet):
        np.testing.assert_array_equal(got, want)
    zx, zxx = gr.spectral_derivatives(state.z.values, FIT_GRID, (1, 2))
    np.testing.assert_array_equal(state.z_x, zx)
    np.testing.assert_array_equal(state.z_xx, zxx)
    assert state.z_h2 == gr.sobolev_norm(state.z, 2)


def test_modulate_recovers_shifts():
    true = cf.BreatherParams(1.5, 1.0, 0.37, -0.21)
    state = st.modulate(_breather_field(true, FIT_GRID, t=0.25), P, t=0.25)
    assert state.x1 == pytest.approx(0.37, abs=1e-11)
    assert state.x2 == pytest.approx(-0.21, abs=1e-11)
    assert state.sign_branch == 0
    assert state.z_h2 <= 1e-9
    fitted = cf.breather(replace(P, x1=state.x1, x2=state.x2), 0.25, FIT_GRID.nodes)
    np.testing.assert_array_equal(state.b.values, fitted)
    _assert_jet_at_fit(state, 0.25)
    assert max(abs(r) for r in state.ortho_residuals) <= 1e-10


def test_modulate_resolves_half_period_branch():
    # B with x1 advanced by a half period equals -B; the fit must land on
    # the representative with the smaller remainder and report the flip
    half = np.pi / P.alpha
    state = st.modulate(_breather_field(replace(P, x1=half, x2=0.0), FIT_GRID), P, t=0.0)
    assert state.x1 == pytest.approx(half, abs=1e-12)
    assert state.sign_branch == 1
    assert state.z_h2 <= 1e-12
    fitted = cf.breather(replace(P, x1=state.x1, x2=state.x2), 0.0, FIT_GRID.nodes)
    np.testing.assert_array_equal(state.b.values, fitted)
    _assert_jet_at_fit(state, 0.0)


def test_modulate_leaves_orthogonal_remainder_alone():
    x = FIT_GRID.nodes
    w = np.cos(0.7 * x) / np.cosh(0.5 * x)
    for direction in (cf.breather_dx1(P, 0.0, x), cf.breather_dx2(P, 0.0, x)):
        w = w - (w @ direction) / (direction @ direction) * direction
    b = _breather_field(P, FIT_GRID)
    u = b.with_values(b.values + 1e-3 * w)
    state = st.modulate(u, P, t=0.0)
    assert abs(state.x1) <= 1e-12
    assert abs(state.x2) <= 1e-12
    np.testing.assert_allclose(state.z.values, 1e-3 * w, rtol=0, atol=1e-15)


def test_modulate_refuses_field_far_from_the_manifold():
    # u = 0 satisfies both orthogonality conditions at any shift, but z = -B
    # is as large as the breather itself
    zero = gr.GridField(FIT_GRID, np.zeros(FIT_GRID.n_points))
    with pytest.raises(st.ModulationError, match="modulation regime") as err:
        st.modulate(zero, P, t=0.0)
    assert max(abs(r) for r in err.value.residuals) <= 1e-10


def test_modulate_refuses_stalled_fit_with_large_residual(monkeypatch):
    # with every step counted as a stall, the second Newton evaluation stops
    # the fit while the residuals are still far from zero
    monkeypatch.setattr(st, "_STALL_STEP", np.inf)
    u = _breather_field(cf.BreatherParams(1.5, 1.0, 0.3, -0.2), FIT_GRID)
    with pytest.raises(st.ModulationError, match="stalled") as err:
        st.modulate(u, P, t=0.0)
    assert max(abs(r) for r in err.value.residuals) > 1e-8


def test_default_perturbations_are_unit_h2():
    perts = st.default_perturbations(GRID)
    assert set(perts) == {"sech", "sech_cos", "random_band"}
    for field in perts.values():
        assert gr.sobolev_norm(field, 2) == pytest.approx(1.0, abs=1e-12)


def test_default_perturbations_seeding():
    a = st.default_perturbations(GRID, seed=1)
    b = st.default_perturbations(GRID, seed=1)
    c = st.default_perturbations(GRID, seed=2)
    np.testing.assert_array_equal(a["random_band"].values, b["random_band"].values)
    assert np.max(np.abs(a["random_band"].values - c["random_band"].values)) > 1e-3
    np.testing.assert_array_equal(a["sech"].values, c["sech"].values)


def test_default_stability_config():
    cfg = st.default_stability_config(P, t_end=0.5, dt=1.25e-4)
    assert cfg.frame_speed == pytest.approx(-P.gamma)
    assert cfg.monitor_stride * cfg.dt == pytest.approx(0.01)
    assert cfg.boundary_margin == pytest.approx(5.0 / P.beta)
    assert cfg.t_end == 0.5


def test_experiment_validates_inputs():
    pert = st.default_perturbations(GRID)["sech"]
    cfg = st.default_stability_config(P, t_end=0.02)
    with pytest.raises(ValueError, match="unit H"):
        st.stability_experiment(P, pert.with_values(2.0 * pert.values), 1e-3, cfg)
    with pytest.raises(ValueError, match="eta"):
        st.stability_experiment(P, pert, 0.06, cfg)


def test_unperturbed_run_sits_on_the_manifold():
    pert = st.default_perturbations(GRID)["sech"]
    run = st.stability_experiment(P, pert, 0.0, st.default_stability_config(P, t_end=0.03))
    assert run.failure_time is None
    assert run.times.shape[0] == 4
    assert run.sup_z_h2 <= 1e-7
    assert run.a0_observed == 0.0
    assert np.max(np.abs(run.x1_series)) <= 1e-6
    assert np.max(np.abs(run.x2_series)) <= 1e-6


@pytest.fixture(scope="module")
def short_run():
    pert = st.default_perturbations(GRID)["sech"]
    cfg = st.default_stability_config(P, t_end=0.05)
    return st.stability_experiment(P, pert, 1e-2, cfg)


def test_short_experiment_report(short_run):
    run = short_run
    assert run.failure_time is None
    assert run.eta == 1e-2
    assert set(np.unique(run.sign_branches)) == {0}
    assert run.ortho_max <= 1e-9
    assert 1.0 < run.a0_observed < 100.0
    assert run.sup_z_h2 > 0.0
    assert run.times.shape[0] == run.audit.h_u.shape[0] == 6
    assert run.frame_speed == pytest.approx(-P.gamma)


def test_short_experiment_audit(short_run):
    run = short_run
    audit = run.audit
    for column in (audit.h_u, audit.h_b, audit.q_z, audit.n_z, audit.mass_pairing):
        assert column.shape == run.times.shape
    assert not np.any(audit.closure_rel > 1e-8)
    assert np.max(audit.closure_rel) <= 1e-10
    h0 = audit.h_u[0]
    assert np.max(np.abs(audit.h_u - h0)) <= 1e-9 * abs(h0)
    assert np.isfinite(audit.q_growth_constant)
    assert np.isfinite(audit.pairing_constant)
    # the quadratic term dominates the remainder at this amplitude
    assert np.max(np.abs(audit.n_z[1:])) < np.max(np.abs(audit.q_z[1:]))


def test_audit_matches_independent_recomputation(short_run):
    # re-evolve, rebuild B at the lab shifts advected back to the frame, and
    # recompute every audit term from the fields
    run = short_run
    pert = st.default_perturbations(GRID)["sech"]
    b0 = _breather_field(P, GRID)
    cfg = st.default_stability_config(P, t_end=0.05)
    fields = []
    trace = ev.evolve(b0.with_values(b0.values + 1e-2 * pert.values), cfg, fields.append)
    np.testing.assert_array_equal(trace.times, run.times)
    c = run.frame_speed
    for i, (t, field) in enumerate(zip(trace.times, fields)):
        t = float(t)
        p_fit = replace(P, x1=run.x1_series[i] + c * t, x2=run.x2_series[i] + c * t)
        b = _breather_field(p_fit, GRID, t)
        z = field.with_values(field.values - b.values)
        assert fn.h_value(field, P) == run.audit.h_u[i]
        assert fn.h_value(b, P) == run.audit.h_b[i]
        assert fn.quadratic_form(z, p_fit, t) == run.audit.q_z[i]
        assert fn.remainder(z, p_fit, t) == run.audit.n_z[i]
        assert abs(gr.inner_product(z, b)) == run.audit.mass_pairing[i]


def test_remainder_scales_linearly_with_eta():
    pert = st.default_perturbations(GRID)["sech"]
    cfg = st.default_stability_config(P, t_end=0.02)
    big = st.stability_experiment(P, pert, 1e-2, cfg)
    small = st.stability_experiment(P, pert, 5e-3, cfg)
    assert 1.5 <= big.sup_z_h2 / small.sup_z_h2 <= 2.7


def test_stability_csv_deterministic(tmp_path, short_run):
    run = short_run
    pert = st.default_perturbations(GRID)["sech"]
    cfg = st.default_stability_config(P, t_end=0.05)
    rerun = st.stability_experiment(P, pert, 1e-2, cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    st.write_stability_csv(run, a)
    st.write_stability_csv(rerun, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "t,z_h2,x1,x2,H_u,Q_z,N_z"


def test_modulation_failure_truncates_every_series(monkeypatch):
    traces = []
    real_evolve = ev.evolve

    def recording_evolve(*args, **kwargs):
        traces.append(real_evolve(*args, **kwargs))
        return traces[-1]

    real_modulate = st.modulate
    calls = []

    def flaky_modulate(*args, **kwargs):
        calls.append(args[2])
        if len(calls) == 3:
            raise st.ModulationError("injected stall", (1.0, 1.0))
        return real_modulate(*args, **kwargs)

    monkeypatch.setattr(ev, "evolve", recording_evolve)
    monkeypatch.setattr(st, "modulate", flaky_modulate)
    pert = st.default_perturbations(GRID)["sech"]
    run = st.stability_experiment(P, pert, 1e-2, st.default_stability_config(P, t_end=0.03))
    (trace,) = traces
    assert len(calls) == 3
    assert run.failure_time == trace.times[2]
    assert run.shift_rate_sup is None
    np.testing.assert_array_equal(run.times, trace.times[:2])
    audit = run.audit
    for series in (run.times, run.z_h2_series, run.x1_series, run.x2_series,
                   run.sign_branches, audit.h_u, audit.h_b, audit.q_z, audit.n_z,
                   audit.closure_rel, audit.mass_pairing):
        assert series.shape == (2,)
