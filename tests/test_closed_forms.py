"""Closed-form evaluators against independently computed references.

The reference points below were produced with mpmath at 30+ digits from the
arctan primitive alone, every derivative taken numerically from that single
expression.  They share no algebra with the staged-quotient implementation
under test, so agreement pins both the formulas and their float64
conditioning.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from breatherlab import closed_forms as cf

# evaluation point: alpha=2, beta=0.5, x1=0.4, x2=-0.7, t=0.3, x=1.2
ORACLE_PARAMS = cf.BreatherParams(alpha=2.0, beta=0.5, x1=0.4, x2=-0.7)
ORACLE_T = 0.3
ORACLE_X = 1.2
ORACLE_VALUES = {
    "breather": 0.23769641719086080502,
    "primitive": -0.16800144080650128232,
    "primitive_t": 1.4598386925847310950,
    "dx1": 0.59632899875934348996,
    "dx2": -0.11097857413118846335,
    "dalpha": 1.0442522369704140881,
    "dbeta": -0.76301409173370062140,
    "mass_profile": 1.9549050627738780857,
    "mass_profile_t": 0.46557899507291774400,
    "wronskian": 0.28276091727112493063,
}
_EVALUATORS = {
    "breather": cf.breather,
    "primitive": cf.breather_primitive,
    "primitive_t": cf.breather_primitive_t,
    "dx1": cf.breather_dx1,
    "dx2": cf.breather_dx2,
    "mass_profile": cf.mass_profile,
    "mass_profile_t": cf.mass_profile_t,
    "wronskian": cf.wronskian_det,
}

DOUBLE_POLE_PARAMS = cf.BreatherParams(alpha=1.0, beta=0.8, x1=0.3, x2=-0.2)
DOUBLE_POLE_VALUE = 2.2269999935708915457  # at t=0.5, x=0.7


@pytest.mark.parametrize("name", sorted(ORACLE_VALUES))
def test_point_oracles(name):
    if name in ("dalpha", "dbeta"):
        got = cf.scaling_derivative(ORACLE_PARAMS, ORACLE_T, ORACLE_X, name[1:])
    else:
        got = _EVALUATORS[name](ORACLE_PARAMS, ORACLE_T, ORACLE_X)
    expected = ORACLE_VALUES[name]
    assert abs(float(got) - expected) < 1e-13 * abs(expected)


def test_peak_value_at_symmetric_point():
    # with zero shifts at t=0, x=0 the quotient reduces to 2*sqrt(2)*beta
    assert float(cf.breather(cf.BreatherParams(1.0, 1.0), 0.0, 0.0)) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-15
    )


def test_even_at_zero_shifts():
    p = cf.BreatherParams(1.3, 0.9)
    x = np.linspace(0.1, 8.0, 40)
    np.testing.assert_allclose(cf.breather(p, 0.0, -x), cf.breather(p, 0.0, x), rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_period_shift_flips_sign(k):
    p = cf.BreatherParams(1.5, 1.0, x1=0.2, x2=-0.4)
    shifted = replace(p, x1=p.x1 + k * math.pi / p.alpha, x2=p.x2)
    x = np.linspace(-6.0, 6.0, 101)
    base = cf.breather(p, 0.7, x)
    np.testing.assert_allclose(cf.breather(shifted, 0.7, x), (-1.0) ** k * base,
                               rtol=0, atol=1e-13)


def test_half_period_shift_flips_sign_on_random_parameters():
    # the identity modulate's sign test relies on instead of a second
    # breather evaluation
    rng = np.random.default_rng(11)
    x = np.linspace(-30.0, 30.0, 1024, endpoint=False)
    worst = 0.0
    for _ in range(50):
        alpha, beta = rng.uniform(0.5, 2.0, size=2)
        x1, x2 = rng.uniform(-1.0, 1.0, size=2)
        t = rng.uniform(0.0, 1.0)
        p = cf.BreatherParams(alpha, beta, x1, x2)
        base = cf.breather(p, t, x)
        flipped = cf.breather(replace(p, x1=x1 + math.pi / alpha, x2=x2), t, x)
        worst = max(worst, np.max(np.abs(flipped + base)) / np.max(np.abs(base)))
    assert worst <= 1e-14


def test_full_period_shift_is_identity():
    p = cf.BreatherParams(0.8, 1.2, x1=0.5, x2=0.1)
    shifted = replace(p, x1=p.x1 + 2.0 * math.pi / p.alpha, x2=p.x2)
    x = np.linspace(-5.0, 5.0, 77)
    np.testing.assert_allclose(cf.breather(shifted, 0.2, x), cf.breather(p, 0.2, x),
                               rtol=0, atol=1e-13)


def _richardson(fn, h):
    d1 = (fn(h) - fn(-h)) / (2.0 * h)
    d2 = (fn(0.5 * h) - fn(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_scaling_derivative_matches_finite_difference(which):
    p = cf.BreatherParams(1.4, 0.9, x1=0.3, x2=-0.5)
    x = np.array([-2.0, -0.3, 0.0, 1.1, 3.7])

    def at(eps):
        if which == "alpha":
            q = cf.BreatherParams(p.alpha + eps, p.beta, p.x1, p.x2)
        else:
            q = cf.BreatherParams(p.alpha, p.beta + eps, p.x1, p.x2)
        return cf.breather(q, 0.6, x)

    fd = _richardson(at, 1e-3)
    np.testing.assert_allclose(cf.scaling_derivative(p, 0.6, x, which), fd, rtol=0, atol=1e-9)


def test_shift_derivatives_match_finite_difference():
    p = cf.BreatherParams(1.1, 1.3, x1=-0.2, x2=0.4)
    x = np.array([-1.5, 0.2, 0.9, 2.4])
    fd1 = _richardson(lambda e: cf.breather(replace(p, x1=p.x1 + e, x2=p.x2), 0.25, x), 1e-3)
    fd2 = _richardson(lambda e: cf.breather(replace(p, x1=p.x1, x2=p.x2 + e), 0.25, x), 1e-3)
    np.testing.assert_allclose(cf.breather_dx1(p, 0.25, x), fd1, rtol=0, atol=1e-9)
    np.testing.assert_allclose(cf.breather_dx2(p, 0.25, x), fd2, rtol=0, atol=1e-9)


def test_space_and_time_derivatives_match_finite_difference():
    p = cf.BreatherParams(1.5, 1.0, x1=0.1, x2=0.6)
    x = np.array([-3.0, -0.8, 0.4, 1.9])
    fdx = _richardson(lambda e: cf.breather(p, 0.4, x + e), 1e-3)
    fdt = _richardson(lambda e: cf.breather(p, 0.4 + e, x), 1e-3)
    jet = cf.breather_jet(p, 0.4, x)
    np.testing.assert_allclose(jet.b_x, fdx, rtol=0, atol=1e-9)
    np.testing.assert_allclose(p.delta * jet.dx1 + p.gamma * jet.dx2, fdt, rtol=0, atol=1e-9)


def test_second_derivative_matches_stencil():
    p = cf.BreatherParams(1.2, 0.7, x1=-0.4, x2=0.2)
    x = np.array([-2.2, 0.0, 0.5, 1.6])
    h = 1e-2
    # fourth-order five-point stencil
    stencil = (
        -cf.breather(p, 0.1, x + 2 * h) + 16 * cf.breather(p, 0.1, x + h)
        - 30 * cf.breather(p, 0.1, x) + 16 * cf.breather(p, 0.1, x - h)
        - cf.breather(p, 0.1, x - 2 * h)
    ) / (12 * h * h)
    np.testing.assert_allclose(cf.breather_jet(p, 0.1, x).b_xx, stencil, rtol=0, atol=1e-6)


def test_mass_profile_limits_and_monotonicity():
    p = cf.BreatherParams(1.5, 1.0, x1=0.3, x2=-0.1)
    x = np.linspace(-40.0, 40.0, 801)
    prof = cf.mass_profile(p, 0.2, x)
    assert abs(prof[0]) < 1e-30
    assert abs(prof[-1] - 4.0 * p.beta) < 1e-12
    assert np.all(np.diff(prof) > -1e-14)


def test_clip_guard_returns_exact_far_field():
    p = cf.BreatherParams(2.0, 0.5, x1=0.4, x2=-0.7)
    far = np.array([-1000.0, 1000.0])
    with np.errstate(over="raise", invalid="raise"):  # guard must prevent overflow
        assert np.all(cf.breather(p, 0.3, far) == 0.0)
        assert np.all(cf.breather_dx1(p, 0.3, far) == 0.0)
        assert np.all(cf.breather_dx2(p, 0.3, far) == 0.0)
        assert np.all(cf.breather_primitive_t(p, 0.3, far) == 0.0)
        assert np.all(cf.wronskian_det(p, 0.3, far) == 0.0)
        assert np.all(cf.mass_profile_t(p, 0.3, far) == 0.0)
        prof = cf.mass_profile(p, 0.3, far)
        assert prof[0] == 0.0 and prof[1] == 4.0 * p.beta
        assert np.all(cf.double_pole(p, 0.3, far) == 0.0)
        assert np.all(cf.soliton(cf.SolitonParams(1.0), 0.0, far) == 0.0)


def test_shift_equals_spacetime_translation():
    p = cf.BreatherParams(1.3, 1.1, x1=0.6, x2=-0.2)
    t0, x0 = cf.shift_to_spacetime(p)
    base = cf.BreatherParams(p.alpha, p.beta)
    x = np.linspace(-4.0, 4.0, 61)
    t = 0.35
    np.testing.assert_allclose(
        cf.breather(p, t, x), cf.breather(base, t - t0, x - x0), rtol=0, atol=1e-12
    )


def test_double_pole_oracle_and_limit():
    got = float(cf.double_pole(DOUBLE_POLE_PARAMS, 0.5, 0.7))
    assert abs(got - DOUBLE_POLE_VALUE) < 1e-12 * DOUBLE_POLE_VALUE
    # alpha -> 0 limit of the two-parameter family at fixed beta
    x = np.linspace(-3.0, 3.0, 41)
    small = cf.breather_values(1e-4, 0.8, 0.3, -0.2, 0.5, x)
    np.testing.assert_allclose(small, cf.double_pole(DOUBLE_POLE_PARAMS, 0.5, x),
                               rtol=0, atol=1e-6)


def test_soliton_values():
    assert float(cf.soliton(cf.SolitonParams(1.0), 0.0, 2.0)) == pytest.approx(
        0.37590111692615244392, rel=1e-14
    )
    got = float(cf.soliton(cf.SolitonParams(2.5, x0=0.3), 0.4, 1.7))
    assert got == pytest.approx(1.8529575318546697496, rel=1e-14)


def test_soliton_travels_at_speed_c():
    s = cf.SolitonParams(1.8, x0=-0.5)
    x = np.linspace(-5.0, 5.0, 41)
    np.testing.assert_allclose(cf.soliton(s, 1.2, x + 1.8 * 1.2), cf.soliton(s, 0.0, x),
                               rtol=0, atol=1e-14)


def test_scaling_derivative_rejects_unknown_direction():
    with pytest.raises(ValueError, match="alpha"):
        cf.scaling_derivative(cf.BreatherParams(1.0, 1.0), 0.0, 0.0, "gamma")


def test_vectorization_shapes():
    p = cf.BreatherParams(1.5, 1.0)
    scalar = cf.breather(p, 0.0, 0.7)
    assert np.ndim(scalar) == 0
    arr = cf.breather(p, 0.0, np.linspace(-1, 1, 7))
    assert arr.shape == (7,)


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                        (1.0, -0.5), (float("nan"), 1.0),
                                        (1.0, float("inf"))])
def test_breather_params_validation(alpha, beta):
    with pytest.raises(ValueError):
        cf.BreatherParams(alpha, beta)


@pytest.mark.parametrize("c", [0.0, -2.0, float("nan")])
def test_soliton_params_validation(c):
    with pytest.raises(ValueError):
        cf.SolitonParams(c)


def test_velocity_properties():
    p = cf.BreatherParams(1.5, 1.0)
    assert p.delta == pytest.approx(1.5**2 - 3.0)
    assert p.gamma == pytest.approx(3.0 * 1.5**2 - 1.0)
