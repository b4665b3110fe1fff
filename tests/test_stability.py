"""Modulation fitting and perturbed-evolution stability experiments."""

import multiprocessing
import os
import pickle
import signal
import time
from concurrent import futures
from dataclasses import fields, replace

import numpy as np
import pytest

from breatherlab import closed_forms as cf
from breatherlab import config
from breatherlab import evolution as ev
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp
from breatherlab import stability as st

P = cf.BreatherParams(1.5, 1.0)
GRID = gr.PeriodicGrid(gr.quadrature_half_length(P.beta), 2048)
FIT_GRID = gr.PeriodicGrid(gr.quadrature_half_length(P.beta), 1024)
# the default config seed, which draws the random_band perturbation
SEED = 20406


def _breather_field(p, grid, t=0.0):
    return gr.sample(lambda tt, x: cf.breather(p, tt, x), grid, t)


def _stability_cfg(t_end):
    # the stability command's integrator at the config's default dt and stride
    integ = config.DEFAULTS["integrator"]
    return st.default_stability_config(P, integ["dt"], t_end, integ["monitor_stride"])


def _assert_jet_at_fit(state, t):
    # the carried jet and z derivatives are those of the fitted shifts
    jet = cf.breather_jet(replace(P, x1=state.x1, x2=state.x2), t, FIT_GRID.nodes)
    for got, want in zip(state.jet, jet):
        np.testing.assert_array_equal(got, want)
    zx, zxx = gr.spectral_derivatives(state.z.values, FIT_GRID, (1, 2))
    np.testing.assert_array_equal(state.z_x, zx)
    np.testing.assert_array_equal(state.z_xx, zxx)
    assert state.z_h2 == gr.h2_norm(state.z)


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
    jet = cf.breather_jet(P, 0.0, x)
    for direction in (jet.dx1, jet.dx2):
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
    for name in ("sech", "sech_cos", "random_band"):
        assert gr.h2_norm(st.perturbation(GRID, name, SEED)) == pytest.approx(1.0, abs=1e-12)


def test_default_perturbations_seeding():
    a = st.perturbation(GRID, "random_band", 1)
    b = st.perturbation(GRID, "random_band", 1)
    c = st.perturbation(GRID, "random_band", 2)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.max(np.abs(a.values - c.values)) > 1e-3
    np.testing.assert_array_equal(st.perturbation(GRID, "sech", 1).values,
                                  st.perturbation(GRID, "sech", 2).values)


def test_default_stability_config():
    cfg = st.default_stability_config(P, 2.5e-4, 0.5, 40)
    assert cfg.frame_speed == -P.gamma
    assert cfg.boundary_margin == 5.0 / P.beta
    assert (cfg.dt, cfg.t_end, cfg.monitor_stride) == (2.5e-4, 0.5, 40)
    # the config's defaults keep the 0.01 monitor interval
    integ = config.DEFAULTS["integrator"]
    assert integ["monitor_stride"] * integ["dt"] == pytest.approx(0.01)


def test_experiment_validates_inputs():
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.02)
    with pytest.raises(ValueError, match="unit H"):
        st.stability_experiment(P, pert.with_values(2.0 * pert.values), 1e-3, cfg)
    with pytest.raises(ValueError, match="eta"):
        st.stability_experiment(P, pert, 0.06, cfg)


def test_unperturbed_run_sits_on_the_manifold():
    pert = st.perturbation(GRID, "sech", SEED)
    run = st.stability_experiment(P, pert, 0.0, _stability_cfg(0.03))
    assert run.failure_time is None
    assert run.times.shape[0] == 4
    assert run.sup_z_h2 <= 1e-7
    assert run.a0_observed == 0.0
    assert np.max(np.abs(run.x1_series)) <= 1e-6
    assert np.max(np.abs(run.x2_series)) <= 1e-6


@pytest.fixture(scope="module")
def short_run():
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.05)
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
    pert = st.perturbation(GRID, "sech", SEED)
    b0 = _breather_field(P, GRID)
    cfg = _stability_cfg(0.05)
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
        zx, zxx = gr.spectral_derivatives(z.values, GRID, (1, 2))
        jet = cf.breather_jet(p_fit, t, GRID.nodes)
        assert fn.expansion_terms(z, zx, zxx, jet, p_fit) == (run.audit.q_z[i], run.audit.n_z[i])
        assert abs(gr.inner_product(z, b)) == run.audit.mass_pairing[i]


def test_remainder_scales_linearly_with_eta():
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.02)
    big = st.stability_experiment(P, pert, 1e-2, cfg)
    small = st.stability_experiment(P, pert, 5e-3, cfg)
    assert 1.5 <= big.sup_z_h2 / small.sup_z_h2 <= 2.7


def test_stability_csv_deterministic(tmp_path, short_run):
    run = short_run
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.05)
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
    pert = st.perturbation(GRID, "sech", SEED)
    run = st.stability_experiment(P, pert, 1e-2, _stability_cfg(0.03))
    (trace,) = traces
    assert len(calls) == 3
    # the evolution stops at the failing checkpoint
    assert trace.times.shape == (3,)
    assert run.failure_time == trace.times[2]
    assert run.shift_rate_sup is None
    np.testing.assert_array_equal(run.times, trace.times[:2])
    audit = run.audit
    for series in (run.times, run.z_h2_series, run.x1_series, run.x2_series,
                   run.sign_branches, audit.h_u, audit.h_b, audit.q_z, audit.n_z,
                   audit.closure_rel, audit.mass_pairing):
        assert series.shape == (2,)


def _assert_bitwise_equal(a, b):
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, st.LyapunovAudit):
            _assert_bitwise_equal(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
        else:
            assert repr(x) == repr(y), field.name


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_sweep_pool_matches_in_process_runs(monkeypatch):
    pert = st.perturbation(GRID, "random_band", SEED)
    cfg = _stability_cfg(0.03)
    etas = [1e-2, 1e-3]
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    _cores(monkeypatch, 2)
    swept = st.stability_sweep(P, pert, etas, cfg)
    assert [(p["max_workers"], p["mp_context"].get_start_method()) for p in pools] == [(2, "fork")]
    assert [run.eta for run in swept] == etas
    for run, eta in zip(swept, etas):
        _assert_bitwise_equal(run, st.stability_experiment(P, pert, eta, cfg))


def test_sweep_raises_the_first_listed_failure(monkeypatch):
    def failing(p, perturbation, eta, cfg):
        if eta == 0.01:
            time.sleep(0.2)  # the second listed eta fails first
        raise st.ModulationError(f"failed at eta {eta}", residuals=(eta, 2.0 * eta))

    monkeypatch.setattr(st, "stability_experiment", failing)
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.01)
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        with pytest.raises(st.ModulationError, match="failed at eta 0.01$") as info:
            st.stability_sweep(P, pert, [0.01, 0.001], cfg)
        assert info.value.residuals == (0.01, 0.02)



def test_sweep_raises_when_a_worker_is_killed(monkeypatch):
    parent = os.getpid()

    def killed(p, perturbation, eta, cfg):
        if os.getpid() == parent:
            raise AssertionError("the run was not sent to a worker")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(st, "stability_experiment", killed)
    _cores(monkeypatch, 2)
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.01)
    with pytest.raises(gr.ScientificError, match="^a worker process was lost: ") as info:
        st.stability_sweep(P, pert, [0.01, 0.001], cfg)
    assert type(info.value) is gr.ScientificError
    assert isinstance(info.value.__cause__, futures.process.BrokenProcessPool)
    assert multiprocessing.active_children() == []

def test_sweep_starts_no_worker_for_one_eta_or_one_core(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was started")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(st, "stability_experiment", lambda p, perturbation, eta, cfg: eta)
    pert = st.perturbation(GRID, "sech", SEED)
    cfg = _stability_cfg(0.01)
    _cores(monkeypatch, 2)
    assert st.stability_sweep(P, pert, [0.01], cfg) == [0.01]
    _cores(monkeypatch, 1)
    assert st.stability_sweep(P, pert, [0.01, 0.001], cfg) == [0.01, 0.001]


_ERROR_SAMPLES = {type(exc): exc for exc in [
    gr.ScientificError("a worker process was lost: pool broken"),
    st.ModulationError("no fit", residuals=(1e-3, -2e-3)),
    ev.BlowUpError("blow-up detected at t = 0.5", time=0.5),
    ev.DomainExitError("centroid 25.0 near the boundary", time=0.25, centroid=25.0),
    sp.AssemblyError("assembled matrix disagrees"),
    sp.ClassificationError("expected one negative eigenvalue", np.array([-1.5, -0.25])),
]}


def _scientific_error_types():
    found, todo = [], [gr.ScientificError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


@pytest.mark.parametrize("cls", _scientific_error_types(), ids=lambda cls: cls.__name__)
def test_scientific_errors_survive_pickling(cls):
    # a worker's error reaches the parent pickled; the CLI prints str(exc).
    # Every subclass is listed, so a new one without a sample fails here.
    assert cls in _ERROR_SAMPLES, f"no pickling sample for {cls.__name__}"
    exc = _ERROR_SAMPLES[cls]
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert back.__dict__.keys() == exc.__dict__.keys()
    for name, value in exc.__dict__.items():
        np.testing.assert_array_equal(getattr(back, name), value)
