"""Exponential time-differencing integrator: accuracy, invariants, failure modes."""

import tracemalloc

import numpy as np
import pytest

from breatherlab import closed_forms as cf
from breatherlab import config
from breatherlab import evolution as ev
from breatherlab import grid as gr
from breatherlab import stability as st

P = cf.BreatherParams(1.5, 1.0)


def _breather_field(p, grid, t=0.0):
    return gr.sample(lambda tt, x: cf.breather(p, tt, x), grid, t)


def _soliton_field(s, grid, t=0.0):
    return gr.sample(lambda tt, x: cf.soliton(s, tt, x), grid, t)


def _reflect(values):
    # x -> -x on the periodic grid: node j goes to node -j mod N
    return np.roll(values[::-1], 1)


@pytest.mark.parametrize("kwargs", [
    {"dt": 0.0, "t_end": 1.0},
    {"dt": -1e-3, "t_end": 1.0},
    {"dt": float("nan"), "t_end": 1.0},
    {"dt": 1e-3, "t_end": 0.0},
    {"dt": 1e-3, "t_end": -2.0},
    {"dt": 1e-3, "t_end": 1.0, "frame_speed": float("inf")},
    {"dt": 1e-3, "t_end": 1.0, "monitor_stride": 0},
    {"dt": 1e-3, "t_end": 1.0, "monitor_stride": 1.5},
    {"dt": 1e-3, "t_end": 1.0, "boundary_margin": -1.0},
    {"dt": 1e-3, "t_end": 1.0, "boundary_margin": 0.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ev.IntegratorConfig(**kwargs)


def test_stability_budget_rejects_coarse_dt():
    u = _breather_field(P, gr.PeriodicGrid(30.0, 1024))
    with pytest.raises(ValueError, match="stability budget"):
        ev.evolve(u, ev.IntegratorConfig(dt=5e-3, t_end=1.0))


def test_zero_field_is_exact_fixed_point():
    g = gr.PeriodicGrid(30.0, 64)
    u = gr.GridField(g, np.zeros(64))
    out = ev.evolve(u, ev.IntegratorConfig(dt=1e-3, t_end=1e-3)).final
    np.testing.assert_array_equal(out.values, np.zeros(64))


@pytest.mark.parametrize("frame_speed", [0.0, -2.5])
def test_small_amplitude_mode_matches_linear_dispersion(frame_speed):
    # at amplitude 1e-8 the cubic term is below roundoff, so the single
    # Fourier mode must rotate at exactly the linear phase speed
    g = gr.PeriodicGrid(30.0, 256)
    k = 5 * np.pi / 30.0
    a = 1e-8
    u0 = gr.GridField(g, a * np.sin(k * g.nodes))
    t_end = 0.5
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=t_end, frame_speed=frame_speed,
                              monitor_stride=100)
    trace = ev.evolve(u0, cfg)
    exact = a * np.sin(k * g.nodes + (k**3 + frame_speed * k) * t_end)
    assert np.max(np.abs(trace.final.values - exact)) <= 1e-11 * a


def test_breather_evolution_lab_frame():
    g = gr.PeriodicGrid(30.0, 1024)
    u0 = _breather_field(P, g)
    trace = ev.evolve(u0, ev.IntegratorConfig(dt=1e-4, t_end=0.05, monitor_stride=100))
    exact = cf.breather(P, 0.05, g.nodes)
    assert np.max(np.abs(trace.final.values - exact)) <= 1e-7
    assert max(trace.max_drift) <= 1e-9


def test_breather_evolution_comoving_frame():
    g = gr.PeriodicGrid(30.0, 2048)
    u0 = _breather_field(P, g)
    c = -P.gamma
    cfg = ev.IntegratorConfig(dt=1.25e-4, t_end=0.1, frame_speed=c, monitor_stride=160)
    trace = ev.evolve(u0, cfg)
    exact = cf.breather(P, 0.1, g.nodes + c * 0.1)
    assert np.max(np.abs(trace.final.values - exact)) <= 1e-7


def test_soliton_steady_in_its_frame():
    g = gr.PeriodicGrid(30.0, 1024)
    s = cf.SolitonParams(1.0)
    u0 = _soliton_field(s, g)
    cfg = ev.IntegratorConfig(dt=2e-4, t_end=0.5, frame_speed=s.c, monitor_stride=250)
    trace = ev.evolve(u0, cfg)
    assert np.max(np.abs(trace.final.values - u0.values)) <= 1e-9


def test_time_reversal_closure():
    # evolve, reflect, evolve, reflect returns the initial state: the flow
    # commutes with x -> -x, t -> -t
    g = gr.PeriodicGrid(30.0, 512)
    u0 = _soliton_field(cf.SolitonParams(1.0), g)
    cfg = ev.IntegratorConfig(dt=2e-4, t_end=0.2, monitor_stride=1000)
    forward = ev.evolve(u0, cfg).final
    back = ev.evolve(forward.with_values(_reflect(forward.values)), cfg).final
    assert np.max(np.abs(_reflect(back.values) - u0.values)) <= 1e-9


def test_fourth_order_self_convergence():
    g = gr.PeriodicGrid(30.0, 1024)
    u0 = _breather_field(P, g)
    dt0, t_end = 1e-3, 0.2

    def final(dt):
        cfg = ev.IntegratorConfig(dt=dt, t_end=t_end, monitor_stride=10**9)
        return ev.evolve(u0, cfg).final.values

    ref = final(dt0 / 128)
    e4 = np.max(np.abs(final(dt0 / 4) - ref))
    e8 = np.max(np.abs(final(dt0 / 8) - ref))
    assert e4 <= 1e-7
    assert 12.0 <= e4 / e8 <= 20.0


def test_monitor_stride_times():
    g = gr.PeriodicGrid(30.0, 256)
    u0 = _breather_field(P, g)
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=0.01, monitor_stride=3)
    fields = []
    trace = ev.evolve(u0, cfg, fields.append)
    np.testing.assert_allclose(trace.times, [0.0, 0.003, 0.006, 0.009, 0.01],
                               rtol=0, atol=1e-15)
    assert len(fields) == 5


def test_t_end_must_be_multiple_of_dt():
    u0 = _breather_field(P, gr.PeriodicGrid(30.0, 256))
    with pytest.raises(ValueError, match="integer multiple"):
        ev.evolve(u0, ev.IntegratorConfig(dt=1e-3, t_end=0.0015))


def test_blowup_rejected_at_start():
    g = gr.PeriodicGrid(30.0, 256)
    u0 = gr.GridField(g, 2e6 / np.cosh(g.nodes))
    cfg = ev.IntegratorConfig(dt=1e-4, t_end=0.01)
    with pytest.raises(ev.BlowUpError) as exc:
        ev.evolve(u0, cfg)
    assert exc.value.time == 0.0


def test_blowup_detected_mid_run():
    g = gr.PeriodicGrid(30.0, 256)
    u0 = gr.GridField(g, 1e4 / np.cosh(g.nodes))
    cfg = ev.IntegratorConfig(dt=1e-4, t_end=0.01, monitor_stride=1)
    with pytest.raises(ev.BlowUpError) as exc:
        ev.evolve(u0, cfg)
    assert exc.value.time > 0.0


def test_domain_exit_reports_time_and_centroid():
    g = gr.PeriodicGrid(30.0, 512)
    u0 = _soliton_field(cf.SolitonParams(2.5), g)
    cfg = ev.IntegratorConfig(dt=2e-4, t_end=2.0, monitor_stride=50,
                              boundary_margin=28.0)
    with pytest.raises(ev.DomainExitError) as exc:
        ev.evolve(u0, cfg)
    assert exc.value.time == pytest.approx(0.81, abs=0.02)
    assert exc.value.centroid == pytest.approx(2.5 * exc.value.time, rel=0.05)


def test_energy_centroid():
    g = gr.PeriodicGrid(30.0, 512)
    u = gr.GridField(g, 1.0 / np.cosh(g.nodes - 3.7))
    assert ev.energy_centroid(u) == pytest.approx(3.7, abs=1e-6)
    assert ev.energy_centroid(gr.GridField(g, np.zeros(512))) == 0.0


def test_reflect_flips_breather_shifts():
    g = gr.PeriodicGrid(30.0, 512)
    p = cf.BreatherParams(1.5, 1.0, 0.4, -0.7)
    q = cf.BreatherParams(1.5, 1.0, -0.4, 0.7)
    got = _reflect(_breather_field(p, g).values)
    np.testing.assert_allclose(got, _breather_field(q, g).values, rtol=0, atol=1e-12)


def test_trace_csv_roundtrip(tmp_path):
    g = gr.PeriodicGrid(30.0, 256)
    trace = ev.evolve(_breather_field(P, g),
                      ev.IntegratorConfig(dt=1e-3, t_end=0.01, monitor_stride=5))
    path = tmp_path / "trace.csv"
    ev.write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass,energy,f,sup_abs_u"
    assert len(lines) == trace.times.shape[0] + 1
    row = [float(v) for v in lines[-1].split(",")]
    assert row[0] == trace.times[-1]
    assert row[1] == trace.mass_series[-1]


def test_checkpoints_roundtrip(tmp_path):
    g = gr.PeriodicGrid(30.0, 256)
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=0.005, monitor_stride=2)
    for t0 in (0.0, 0.25):
        directory = tmp_path / f"t0_{t0}"
        directory.mkdir()
        names = []
        trace = ev.evolve(_breather_field(P, g, t0), cfg, ev.checkpoint_writer(directory, names, cfg))
        assert names == [
            "checkpoint_00000.field", "checkpoint_00001.field", "checkpoint_00002.field",
            "checkpoint_00003.field"]
        assert sorted(p.name for p in directory.iterdir()) == names
        paths = [directory / name for name in names]
        back = gr.read_binary(paths[-1])
        np.testing.assert_array_equal(back.values, trace.final.values)
        # trace times are elapsed; each checkpoint carries its absolute time
        np.testing.assert_array_equal(trace.times, [0.0, 0.002, 0.004, 0.005])
        tags = [gr.read_binary(path).time_tag for path in paths]
        assert tags == [t0 + t for t in trace.times]
        assert tags[0] == t0


def test_checkpoint_names_sort_in_time_order_past_99999(tmp_path):
    # the writer starts at index 99 999 instead of writing the files before it
    field = _breather_field(P, gr.PeriodicGrid(30.0, 16))
    for t_end, start, expected in [
            (99.999, 99_998, ["checkpoint_99998.field", "checkpoint_99999.field"]),
            (100.0, 99_999, ["checkpoint_099999.field", "checkpoint_100000.field"])]:
        directory = tmp_path / str(t_end)
        directory.mkdir()
        names = [""] * start
        write = ev.checkpoint_writer(directory, names, ev.IntegratorConfig(dt=1e-3, t_end=t_end))
        write(field)
        write(field)
        assert names[-2:] == expected
        assert sorted(p.name for p in directory.iterdir()) == expected


def test_observer_sees_each_checkpoint_under_callers_error_state():
    g = gr.PeriodicGrid(30.0, 256)
    u0 = _breather_field(P, g, 0.25)
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=0.01, monitor_stride=3)
    seen = []

    def observe(field):
        seen.append((field, np.geterr()))

    # the stepping ignores overflow and invalid values; the observer must not
    with np.errstate(all="warn"):
        caller = np.geterr()
        trace = ev.evolve(u0, cfg, observe)
    assert len(seen) == len(trace.times)
    assert [field.time_tag for field, _ in seen] == [u0.time_tag + t for t in trace.times]
    assert all(state == caller for _, state in seen)
    assert seen[-1][0].time_tag == trace.final.time_tag
    np.testing.assert_array_equal(seen[-1][0].values, trace.final.values)


def test_observer_exception_ends_the_run():
    g = gr.PeriodicGrid(30.0, 256)
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=0.01, monitor_stride=3)
    calls = []

    class Stop(Exception):
        pass

    def observe(field):
        calls.append(field.time_tag)
        if len(calls) == 2:
            raise Stop

    with pytest.raises(Stop):
        ev.evolve(_breather_field(P, g), cfg, observe)
    assert calls == [0.0, 0.003]


def test_observer_true_return_stops_the_run(monkeypatch):
    g = gr.PeriodicGrid(30.0, 256)
    cfg = ev.IntegratorConfig(dt=1e-3, t_end=0.01, monitor_stride=3)
    u0 = _breather_field(P, g)
    full = ev.evolve(u0, cfg)
    steps = []
    advance = ev._Stepper.advance

    def counting_advance(self, vhat):
        steps.append(1)
        return advance(self, vhat)

    monkeypatch.setattr(ev._Stepper, "advance", counting_advance)
    seen = []

    def observe(field):
        seen.append(field)
        return len(seen) == 2

    trace = ev.evolve(u0, cfg, observe)
    # no step past the stopping checkpoint, and the trace ends there
    assert len(seen) == 2 and len(steps) == 3
    np.testing.assert_array_equal(trace.times, full.times[:2])
    for name in ("mass_series", "energy_series", "f_series", "sup_series"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(full, name)[:2])
    assert trace.final is seen[-1]


def test_flux_matches_explicit_mask():
    # the 2/3 rule as a mask on both sides of the cubing, written out
    g = gr.PeriodicGrid(30.0, 256)
    stepper = ev._Stepper(g, ev.IntegratorConfig(dt=1e-3, t_end=1.0))
    rng = np.random.default_rng(5)
    vhat = np.fft.rfft(_breather_field(P, g).values + 0.1 * rng.standard_normal(g.n_points))
    modes = np.arange(vhat.shape[0])
    mask = modes <= g.n_points // 3
    keep = int(np.sum(mask))
    mask = mask.astype(float)
    u = np.fft.irfft(mask * vhat, n=g.n_points)
    expected = -g.multiplier(1) * (mask * np.fft.rfft(u * u * u))
    flux = stepper.flux(vhat[:stepper.keep], np.empty(stepper.keep, dtype=complex))
    # the flux is the kept band alone, and the masked formula has nothing above it
    assert stepper.keep == keep and flux.shape == (keep,)
    np.testing.assert_array_equal(flux, expected[:keep])
    assert not np.any(expected[keep:])


@pytest.mark.parametrize("kind", ["sech", "random_band"])
def test_cubic_dealiasing_band_leaves_stability_results(monkeypatch, kind):
    # the n//4 band removes the cubic product's aliasing as well; at N=2048
    # the 2/3 rule's results match it far below any check's tolerance
    grid = gr.PeriodicGrid(gr.quadrature_half_length(P.beta), 2048)
    pert = st.perturbation(grid, kind, 20406)
    cfg = config.plan("stability", config.apply_overrides(config.default_config(),
                                                          ["integrator.t_end=0.25"]))[1]
    third = st.stability_experiment(P, pert, 1e-2, cfg)
    built, bands = ev._Stepper, []

    def quarter_band(grid, cfg):
        stepper = built(grid, cfg)
        keep = stepper.keep = stepper.n // 4 + 1
        for name in ("e_half", "q", "w1", "w2x2", "w3", "flux_factor"):
            setattr(stepper, name, getattr(stepper, name)[:keep])
        stepper._band = tuple(w[:keep] for w in stepper._band)
        bands.append(keep)
        return stepper

    monkeypatch.setattr(ev, "_Stepper", quarter_band)
    quarter = st.stability_experiment(P, pert, 1e-2, cfg)
    assert bands == [513]
    assert quarter.audit.q_z.tobytes() != third.audit.q_z.tobytes()
    np.testing.assert_allclose(quarter.sup_z_h2, third.sup_z_h2, rtol=1e-11, atol=0)
    np.testing.assert_allclose(quarter.shift_rate_sup, third.shift_rate_sup, rtol=1e-11, atol=0)
    np.testing.assert_allclose(quarter.audit.q_z, third.audit.q_z, rtol=1e-11, atol=0)


def _reference_step(grid, cfg):
    """One ETDRK4 step over full-length tables and stages, each circle mean
    taken over the whole (modes x 32) table, with advance's operand order."""
    dt = cfg.dt
    k = grid.wavenumbers
    z = 1j * dt * (k**3 + cfg.frame_speed * k)
    lr = z[:, None] + np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)[None, :]
    elr = np.exp(lr)
    e_full, e_half = np.exp(z), np.exp(z / 2.0)
    e_full[-1] = e_half[-1] = 0.0
    q = dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
    w1 = dt * np.mean((-4.0 - lr + (4.0 - 3.0 * lr + lr**2) * elr) / lr**3, axis=1)
    w2 = dt * np.mean((2.0 + lr + (lr - 2.0) * elr) / lr**3, axis=1)
    w3 = dt * np.mean((-4.0 - 3.0 * lr - lr**2 + (4.0 - lr) * elr) / lr**3, axis=1)
    keep = grid.n_points // 3 + 1
    minus_ik = -grid.multiplier(1)
    minus_ik[keep:] = 0.0

    def flux(v):
        u = np.fft.irfft(v[:keep], n=grid.n_points)
        return minus_ik * np.fft.rfft(u * u * u)

    def step(vhat):
        nv = flux(vhat)
        a = e_half * vhat + q * nv
        na = flux(a)
        b = e_half * vhat + q * na
        nb = flux(b)
        c = e_half * a + q * (2.0 * nb - nv)
        nc = flux(c)
        return e_full * vhat + w1 * nv + 2.0 * w2 * (na + nb) + w3 * nc

    return step


@pytest.mark.parametrize("n_points", [256, 2048])
def test_banded_step_is_the_full_length_step(n_points):
    g = gr.PeriodicGrid(30.0, n_points)
    cfg = ev.IntegratorConfig(dt=1e-4, t_end=1.0, frame_speed=-P.gamma)
    stepper, reference = ev._Stepper(g, cfg), _reference_step(g, cfg)
    rng = np.random.default_rng(11)
    v = w = np.fft.rfft(_breather_field(P, g).values + 1e-3 * rng.standard_normal(n_points))
    for _ in range(50):
        v, w = stepper.advance(v), reference(w)
    np.testing.assert_array_equal(v, w)


def test_stepper_build_holds_no_whole_circle_table():
    # one whole (1025 x 32) complex table is 512.5 KiB at N = 2048
    g = gr.PeriodicGrid(30.0, 2048)
    g.multiplier(1)
    tracemalloc.start()
    try:
        ev._Stepper(g, ev.IntegratorConfig(dt=1e-4, t_end=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_step_allocates_only_the_spectrum_it_returns():
    # after a warm-up step, a step's traced peak is the returned
    # (n//2+1)-mode spectrum, below two such arrays, and the argument it was
    # given is unchanged
    g = gr.PeriodicGrid(30.0, 2048)
    stepper = ev._Stepper(g, ev.IntegratorConfig(dt=1e-4, t_end=1.0, frame_speed=-P.gamma))
    vhat = stepper.advance(np.fft.rfft(_breather_field(P, g).values))
    before = vhat.tobytes()
    tracemalloc.start()
    try:
        stepper.advance(vhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vhat.tobytes() == before
    assert peak < 2 * vhat.nbytes
