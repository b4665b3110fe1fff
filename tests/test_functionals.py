"""Conserved functionals, the linearized operator, and the identity suite.

Closed-form reference values for mass, energy, and the higher functionals
were computed independently with mpmath quadrature at 30+ digits and, where
a parameter-family pattern emerged, fit to exact rationals before being
frozen here.
"""

import numpy as np
import pytest

from breatherlab import closed_forms as cf
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp
from breatherlab import stability as st

PARAM_SETS = [
    cf.BreatherParams(1.0, 1.0),
    cf.BreatherParams(1.5, 1.0, 0.4, -0.7),
    cf.BreatherParams(2.0, 0.5, -0.3, 0.2),
    cf.BreatherParams(0.7, 1.3, 0.1, 0.5),
    cf.BreatherParams(1.2, 2.0),
]


def _grid_for(p, n_points=1024):
    return gr.default_grid(p.beta, n_points)


def _breather_field(p, grid, t=0.0):
    return gr.sample(lambda tt, x: cf.breather(p, tt, x), grid, t)


# mass 2 beta, energy (2/3) beta gamma per unit of the half amplitude
# normalization; with this package's convention M = 4 beta, E = (4/3) beta gamma.
@pytest.mark.parametrize("p", PARAM_SETS)
def test_mass_energy_closed_forms(p):
    f = _breather_field(p, _grid_for(p), t=0.2)
    assert fn.mass(f) == pytest.approx(4.0 * p.beta, rel=1e-12)
    assert fn.energy(f) == pytest.approx(4.0 / 3.0 * p.beta * p.gamma, rel=1e-12)


def test_energy_sign_follows_gamma():
    p = cf.BreatherParams(0.7, 1.3, 0.1, 0.5)
    assert p.gamma < 0.0
    f = _breather_field(p, _grid_for(p))
    assert fn.energy(f) < 0.0


@pytest.mark.parametrize("p", PARAM_SETS)
def test_f_closed_form(p):
    a, b = p.alpha, p.beta
    expected = 0.8 * b * (5 * a**4 - 10 * a**2 * b**2 + b**4)
    f = _breather_field(p, _grid_for(p, 2048), t=0.1)
    assert fn.f_value(f) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", PARAM_SETS)
def test_h_closed_form(p):
    expected = 32.0 / 15.0 * p.beta**3 * (5 * p.alpha**2 + p.beta**2)
    f = _breather_field(p, _grid_for(p, 2048), t=0.1)
    assert fn.h_value(f, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("c", [1.0, 2.25])
def test_soliton_functionals(c):
    g = gr.PeriodicGrid(30.0, 1024)
    f = gr.sample(lambda t, x: cf.soliton(cf.SolitonParams(c), t, x), g, 0.0)
    assert fn.mass(f) == pytest.approx(2.0 * np.sqrt(c), rel=1e-12)
    assert fn.energy(f) == pytest.approx(-2.0 / 3.0 * c**1.5, rel=1e-12)
    assert fn.f_value(f) == pytest.approx(0.4 * c**2.5, rel=1e-12)


def test_functional_report_h_is_exact_combination():
    p = PARAM_SETS[1]
    u = _breather_field(p, _grid_for(p), t=0.3)
    m, e, f = fn.invariants(u)
    combo = f + 2.0 * (p.beta**2 - p.alpha**2) * e + (p.alpha**2 + p.beta**2) ** 2 * m
    assert fn.h_from_parts(p, m, e, f) == combo
    assert fn.h_value(u, p) == combo


def _band_field(grid, seed, kmax=2.5):
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.wavenumbers.shape[0], dtype=complex)
    band = (grid.wavenumbers > 0.0) & (grid.wavenumbers <= kmax)
    coeff[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    vals = np.fft.irfft(coeff, n=grid.n_points)
    return gr.GridField(grid, vals / np.max(np.abs(vals)))


@pytest.mark.parametrize("seed", range(10))
def test_operator_self_adjoint(seed):
    p = cf.BreatherParams(1.5, 1.0)
    g = _grid_for(p)
    z, w = _band_field(g, seed), _band_field(g, seed + 100)
    lhs = gr.inner_product(fn.apply_operator(z, p, t=0.2), w)
    rhs = gr.inner_product(z, fn.apply_operator(w, p, t=0.2))
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_form_matches_pairing(seed):
    p = cf.BreatherParams(1.5, 1.0)
    g = _grid_for(p)
    z = _band_field(g, seed)
    direct = gr.inner_product(z, fn.apply_operator(z, p, t=0.0))
    assert fn.quadratic_form(z, p, t=0.0) == pytest.approx(direct, rel=1e-11)


KERNEL_GRID = gr.PeriodicGrid(44.0, 2048)


@pytest.mark.parametrize("direction", [cf.breather_dx1, cf.breather_dx2],
                         ids=["Direction.DX1", "Direction.DX2"])
def test_kernel_directions_annihilated(direction):
    p = cf.BreatherParams(1.5, 1.0, 0.2, -0.1)
    res = fn.apply_operator_direction(direction, p, KERNEL_GRID, t=0.15)
    scale = np.max(np.abs(direction(p, 0.15, KERNEL_GRID.nodes)))
    assert np.max(np.abs(res.values)) <= 1e-7 * max(1.0, scale)


def test_inverse_direction_maps_to_minus_breather():
    p = cf.BreatherParams(1.5, 1.0)
    res = fn.apply_operator_direction(cf.b0_direction, p, KERNEL_GRID, t=0.0)
    target = -cf.breather(p, 0.0, KERNEL_GRID.nodes)
    assert np.max(np.abs(res.values - target)) <= 1e-7


def test_inverse_direction_pairings():
    p = cf.BreatherParams(1.5, 1.0)
    expected = 1.0 / (2.0 * p.beta * (p.alpha**2 + p.beta**2))
    b = _breather_field(p, KERNEL_GRID)
    b0 = gr.sample(lambda t, x: cf.b0_direction(p, t, x), KERNEL_GRID, 0.0)
    assert gr.inner_product(b0, b) == pytest.approx(expected, rel=1e-10)
    assert fn.quadratic_form(b0, p, t=0.0) == pytest.approx(-expected, rel=1e-10)


@pytest.mark.parametrize("p", [cf.BreatherParams(1.0, 1.0),
                               cf.BreatherParams(1.5, 1.0),
                               cf.BreatherParams(2.0, 0.5)])
def test_scaling_direction_quadratic_forms(p):
    expected = 32.0 * p.alpha**2 * p.beta
    za = gr.sample(lambda t, x: cf.scaling_derivative(p, t, x, "alpha"), KERNEL_GRID, 0.0)
    zb = gr.sample(lambda t, x: cf.scaling_derivative(p, t, x, "beta"), KERNEL_GRID, 0.0)
    assert fn.quadratic_form(za, p, t=0.0) == pytest.approx(expected, rel=1e-10)
    assert fn.quadratic_form(zb, p, t=0.0) == pytest.approx(-expected, rel=1e-10)


def test_kernel_directions_have_null_quadratic_form():
    p = cf.BreatherParams(1.5, 1.0)
    for direction in (cf.breather_dx1, cf.breather_dx2):
        z = gr.sample(lambda t, x: direction(p, t, x), KERNEL_GRID, 0.0)
        assert abs(fn.quadratic_form(z, p, t=0.0)) <= 1e-8


# The expressions below are the generic-power forms the functionals were
# first written with; the package writes powers above 2 as products of
# shared squares, which may differ in the last bits but in nothing else.
def _reference_invariants(u):
    ux = gr.derivative(u, 1).values
    uxx = gr.derivative(u, 2).values
    m = 0.5 * gr.quadrature(u.with_values(u.values**2))
    e = gr.quadrature(u.with_values(0.5 * ux**2 - 0.25 * u.values**4))
    f = gr.quadrature(u.with_values(0.5 * uxx**2 - 2.5 * u.values**2 * ux**2 + 0.25 * u.values**6))
    return m, e, f


def _reference_expansion(z, p, t):
    a2, b2 = p.alpha**2, p.beta**2
    jet = cf.breather_jet(p, t, z.grid.nodes)
    b, bx, bxx = jet.b, jet.dx1 + jet.dx2, -(jet.primitive_t + jet.b**3)
    zx = gr.derivative(z, 1).values
    zxx = gr.derivative(z, 2).values
    zz = z.values
    q = (
        zxx**2
        + 2.0 * (b2 - a2) * zx**2
        + (a2 + b2) ** 2 * zz**2
        - 5.0 * b**2 * zx**2
        + (5.0 * bx**2 + 10.0 * b * bxx + 7.5 * b**4 - 6.0 * (b2 - a2) * b**2) * zz**2
    )
    n = (
        5.0 * b**3 * zz**3
        - 2.0 * (b2 - a2) * b * zz**3
        + (5.0 / 3.0) * bxx * zz**3
        - 5.0 * b * zx**2 * zz
        + 3.75 * b**2 * zz**4
        - 0.5 * (b2 - a2) * zz**4
        - 2.5 * zz**2 * zx**2
        + 1.5 * b * zz**5
        + 0.25 * zz**6
    )
    return gr.quadrature(z.with_values(q)), gr.quadrature(z.with_values(n))


def test_invariants_equal_the_single_functionals():
    p = PARAM_SETS[1]
    u = _breather_field(p, _grid_for(p), t=0.3)
    u = u.with_values(u.values + 0.01 * _band_field(u.grid, 3).values)
    assert fn.invariants(u) == (fn.mass(u), fn.energy(u), fn.f_value(u))


@pytest.mark.parametrize("eta", [1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("seed", range(3))
def test_product_forms_match_power_forms(eta, seed):
    p = cf.BreatherParams(1.5, 1.0, 0.3, -0.2)
    g = _grid_for(p, 2048)
    t = 0.07 * (seed + 1)
    w = gr.GridField(g, st.band_limited_values(g, seed))
    z = w.with_values(eta * w.values / gr.sobolev_norm(w, 2))
    b = _breather_field(p, g, t)
    u = b.with_values(b.values + z.values)
    zx, zxx = gr.spectral_derivatives(z.values, g, (1, 2))
    got = fn.expansion_terms(z, zx, zxx, cf.breather_jet(p, t, g.nodes), p)
    want = _reference_expansion(z, p, t)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert (fn.quadratic_form(z, p, t), fn.remainder(z, p, t)) == got
    np.testing.assert_allclose(fn.invariants(u), _reference_invariants(u), rtol=1e-13, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_expansion_closure(seed):
    # H[B + z] - H[B] = (1/2) Q[z] + N[z] must close to roundoff
    p = cf.BreatherParams(1.5, 1.0)
    g = _grid_for(p, 2048)
    b = _breather_field(p, g)
    z = _band_field(g, seed)
    z = z.with_values(0.1 * z.values)
    pert = b.with_values(b.values + z.values)
    lhs = fn.h_value(pert, p) - fn.h_value(b, p)
    rhs = 0.5 * fn.quadratic_form(z, p, t=0.0) + fn.remainder(z, p, t=0.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_remainder_leading_order_is_cubic():
    p = cf.BreatherParams(1.5, 1.0)
    g = _grid_for(p)
    z = _band_field(g, 42)
    z = z.with_values(0.05 * z.values)
    half = z.with_values(0.5 * z.values)
    ratio = 8.0 * fn.remainder(half, p, t=0.0) / fn.remainder(z, p, t=0.0)
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_weinstein_derivatives():
    p = cf.BreatherParams(1.5, 1.0, 0.2, 0.1)
    got = fn.weinstein_derivatives(p, _grid_for(p, 2048), t=0.1)
    assert got["dmass_dalpha"] == pytest.approx(0.0, abs=1e-6)
    assert got["dmass_dbeta"] == pytest.approx(4.0, rel=1e-6)
    assert got["denergy_dalpha"] == pytest.approx(8.0 * p.alpha * p.beta, rel=1e-6)
    assert got["denergy_dbeta"] == pytest.approx(
        4.0 * (p.alpha**2 - p.beta**2), rel=1e-6)


IDENTITY_CASES = [
    (cf.BreatherParams(1.5, 1.0, 0.4, -0.7), 0.4),
    (cf.BreatherParams(2.0, 0.5, -0.3, 0.2), 0.0),
]
IDENTITY_BOUNDS = {
    "stationary": 1e-6,
    "second_order": 1e-6,
    "first_order": 1e-6,
    "mixed": 1e-6,
    "mass_profile": 1e-8,
    "wronskian": 1e-8,
}


def _residual_grid(p):
    return gr.PeriodicGrid(gr.residual_half_length(p.beta), 2048)


# the ids are the ones these cases had under the former IdentityKind enum
@pytest.mark.parametrize("p,t", IDENTITY_CASES)
@pytest.mark.parametrize("name,bound",
                         [(n, b) for n, b in IDENTITY_BOUNDS.items() if n != "stationary"],
                         ids=lambda v: f"IdentityKind.{v.upper()}" if isinstance(v, str) else None)
def test_breather_identities(p, t, name, bound):
    res, scale = fn.identity_residuals(p, _residual_grid(p), t)[name]
    assert res <= bound * scale


@pytest.mark.parametrize("p,t", IDENTITY_CASES)
def test_stationary_identity(p, t):
    grid = _residual_grid(p)
    res, scale = fn.identity_residuals(p, grid, t)["stationary"]
    sup_b = np.max(np.abs(cf.breather(p, t, grid.nodes)))
    assert scale == pytest.approx(max(1.0, sup_b**5))
    assert res <= 1e-6 * scale


# Each identity reads its closed forms from one shared pass; corrupting one
# closed form must break exactly the identities that read it, so sharing the
# samples left no check comparing a quantity with itself.
@pytest.mark.parametrize("p,t", IDENTITY_CASES)
@pytest.mark.parametrize("closed_form,broken", [
    ("mass_profile_t", {"first_order", "mixed"}),
    ("mass_profile", {"mass_profile"}),
    ("wronskian_det", {"wronskian"}),
], ids=["mass_profile_t", "mass_profile", "wronskian_det"])
def test_identity_suite_negative_controls(p, t, closed_form, broken, monkeypatch):
    exact = getattr(cf, closed_form)
    monkeypatch.setattr(cf, closed_form, lambda q, tt, x: (1.0 + 1e-3) * exact(q, tt, x))
    got = fn.identity_residuals(p, _residual_grid(p), t)
    assert set(got) == set(IDENTITY_BOUNDS)
    for name, (res, scale) in got.items():
        assert (res > IDENTITY_BOUNDS[name] * scale) == (name in broken), name


@pytest.mark.parametrize("p,t", IDENTITY_CASES)
def test_wronskian_analysis_reports_the_suite_residual(p, t):
    res, scale = fn.identity_residuals(p, _residual_grid(p), t)["wronskian"]
    assert sp.wronskian_analysis(p, t).closed_form_max_err == res / scale


def test_stationary_identity_shift_invariant():
    p = cf.BreatherParams(1.5, 1.0)
    q = cf.BreatherParams(1.5, 1.0, 0.37, -0.83)
    grid = gr.PeriodicGrid(44.0, 2048)
    r_p = fn.stationary_residual(p, grid, t=0.6)
    r_q = fn.stationary_residual(q, grid, t=0.6)
    assert np.max(np.abs(r_p.values)) == pytest.approx(
        np.max(np.abs(r_q.values)), rel=0.5)


def test_stationary_identity_detects_wrong_velocity():
    p = cf.BreatherParams(1.5, 1.0)
    grid = gr.PeriodicGrid(44.0, 2048)
    res = fn.stationary_residual(p, grid, t=0.0, gamma_scale=1.01)
    assert np.max(np.abs(res.values)) > 1e-3


def test_soliton_ode_identity():
    grid = gr.PeriodicGrid(30.0, 1024)
    res = fn.soliton_ode_residual(cf.SolitonParams(1.5, 0.2), grid, t=0.1)
    assert np.max(np.abs(res.values)) <= 1e-8
