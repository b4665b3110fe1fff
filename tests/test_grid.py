"""Spectral grid calculus and field serialization."""

import math
import struct

import numpy as np
import pytest

from breatherlab import grid as gr


def _band_field(grid, seed, kmax=3.0):
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.wavenumbers.shape[0], dtype=complex)
    band = (grid.wavenumbers > 0.0) & (grid.wavenumbers <= kmax)
    coeff[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    return gr.GridField(grid, np.fft.irfft(coeff, n=grid.n_points))


@pytest.mark.parametrize("half_length,n", [(10.0, 15), (10.0, 17), (10.0, 100),
                                           (0.0, 64), (-3.0, 64)])
def test_grid_validation(half_length, n):
    with pytest.raises(ValueError):
        gr.PeriodicGrid(half_length, n)


def test_nodes_spacing_wavenumbers():
    g = gr.PeriodicGrid(10.0, 64)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.nodes[0] == -10.0
    assert g.nodes[-1] == pytest.approx(10.0 - g.spacing)
    # rfft layout: k_j = j*pi/L up to the Nyquist bin
    np.testing.assert_allclose(g.wavenumbers, np.arange(33) * math.pi / 10.0, rtol=1e-15)
    assert g.multiplier(1)[-1] == 0.0


def test_grid_tables_built_once_and_read_only():
    g = gr.PeriodicGrid(10.0, 64)
    multipliers = [g.multiplier(order) for order in range(5)]
    assert g.nodes is g.nodes
    assert g.wavenumbers is g.wavenumbers
    assert all(g.multiplier(order) is m for order, m in enumerate(multipliers))
    for table in (g.nodes, g.wavenumbers, *multipliers):
        with pytest.raises(ValueError):
            table[0] = 1.0
    fresh = gr.PeriodicGrid(10.0, 64)
    assert g == fresh and hash(g) == hash(fresh)
    assert g != gr.PeriodicGrid(10.0, 128)


def _explicit_multiplier(grid, order):
    m = (1j * grid.wavenumbers) ** order
    m[-1] = 0.0
    return m


@pytest.mark.parametrize("order", range(5))
def test_multiplier_is_nyquist_zeroed_power(order):
    g = gr.PeriodicGrid(12.0, 128)
    assert g.multiplier(order).tobytes() == _explicit_multiplier(g, order).tobytes()


def test_spectral_derivatives_apply_the_grid_multipliers():
    g = gr.PeriodicGrid(12.0, 128)
    rows = np.stack([_band_field(g, seed).values for seed in (1, 2, 3)])
    orders = (0, 1, 2, 4)
    fh = np.fft.rfft(rows)
    for order, d in zip(orders, gr.spectral_derivatives(rows, g, orders)):
        m = _explicit_multiplier(g, order)
        assert d.tobytes() == np.fft.irfft(fh * m[None, :], n=g.n_points).tobytes()


def test_derivative_exact_for_trig():
    g = gr.PeriodicGrid(15.0, 128)
    k1, k2 = 3 * math.pi / 15.0, 7 * math.pi / 15.0
    f = gr.GridField(g, np.sin(k1 * g.nodes) + 0.5 * np.cos(k2 * g.nodes))
    d1, d2 = gr.spectral_derivatives(f.values, g, (1, 2))
    exact = k1 * np.cos(k1 * g.nodes) - 0.5 * k2 * np.sin(k2 * g.nodes)
    np.testing.assert_allclose(d1, exact, rtol=0, atol=1e-12)
    exact2 = -k1**2 * np.sin(k1 * g.nodes) - 0.5 * k2**2 * np.cos(k2 * g.nodes)
    np.testing.assert_allclose(d2, exact2, rtol=0, atol=1e-11)


def test_derivative_composition_closed():
    g = gr.PeriodicGrid(12.0, 256)
    f = _band_field(g, 7)
    once, second = gr.spectral_derivatives(f.values, g, (1, 2))
    (twice,) = gr.spectral_derivatives(once, g, (1,))
    np.testing.assert_allclose(twice, second, rtol=0, atol=1e-12)


def test_spectral_derivatives_one_call_matches_separate_derivatives():
    g = gr.PeriodicGrid(12.0, 128)
    f = _band_field(g, 11, kmax=4.0)
    d1, d2, d4 = gr.spectral_derivatives(f.values, g, (1, 2, 4))
    for order, got in ((1, d1), (2, d2), (4, d4)):
        assert got.tobytes() == gr.spectral_derivatives(f.values, g, (order,))[0].tobytes()


def test_spectral_derivatives_keep_longdouble():
    g = gr.PeriodicGrid(12.0, 64)
    vals = _band_field(g, 12).values.astype(np.longdouble)
    for out in gr.spectral_derivatives(vals, g, (1, 2, 4)):
        assert out.dtype == np.longdouble
    # a float64 derivative would miss by about 1e-15 here
    k = 5 * np.arccos(np.longdouble(-1.0)) / np.longdouble(12.0)
    x = g.nodes.astype(np.longdouble)
    (d1,) = gr.spectral_derivatives(np.sin(k * x), g, (1,))
    assert np.max(np.abs(d1 - k * np.cos(k * x))) < 1e-16


def test_spectral_derivatives_matrix_along_axis_zero():
    # the dense D^order, built by transforming the identity's columns, agrees
    # with the matrix-free derivative
    g = gr.PeriodicGrid(12.0, 64)
    fh = np.fft.rfft(np.eye(g.n_points), axis=0)
    f = _band_field(g, 13, kmax=4.0).values
    for order, direct in zip((1, 2, 4), gr.spectral_derivatives(f, g, (1, 2, 4))):
        mat = np.fft.irfft(fh * g.multiplier(order)[:, None], n=g.n_points, axis=0)
        assert np.linalg.norm(mat @ f - direct) <= 1e-12 * np.linalg.norm(direct)


def test_nyquist_mode_annihilated():
    g = gr.PeriodicGrid(8.0, 32)
    (d1,) = gr.spectral_derivatives((-1.0) ** np.arange(32) * 1.0, g, (1,))
    assert np.max(np.abs(d1)) < 1e-14


def test_summation_by_parts_exact():
    g = gr.PeriodicGrid(20.0, 256)
    f, h = _band_field(g, 1), _band_field(g, 2)
    (fx,) = gr.spectral_derivatives(f.values, g, (1,))
    (hx,) = gr.spectral_derivatives(h.values, g, (1,))
    lhs = gr.inner_product(f.with_values(fx), h)
    rhs = -gr.inner_product(f, h.with_values(hx))
    assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, abs(lhs)))


def test_quadrature_localized_integrand():
    g = gr.PeriodicGrid(30.0, 512)
    assert gr.integrate(1.0 / np.cosh(g.nodes) ** 2, g) == pytest.approx(2.0, rel=1e-14)
    # derivatives integrate to zero on the periodic domain
    (d1,) = gr.spectral_derivatives(_band_field(g, 3).values, g, (1,))
    assert abs(gr.integrate(d1, g)) < 1e-13


def test_cumulative_quadrature_trig_and_mean():
    g = gr.PeriodicGrid(10.0, 128)
    k = 2 * math.pi / 10.0
    f = gr.GridField(g, np.cos(k * g.nodes) + 0.25)
    got = gr.cumulative_quadrature(f).values
    exact = (np.sin(k * g.nodes) - np.sin(-k * 10.0)) / k + 0.25 * (g.nodes + 10.0)
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
    assert got[0] == pytest.approx(0.0, abs=1e-14)


def test_cumulative_quadrature_inverts_derivative():
    g = gr.PeriodicGrid(25.0, 256)
    f = _band_field(g, 11)
    (fx,) = gr.spectral_derivatives(f.values, g, (1,))
    back = gr.cumulative_quadrature(f.with_values(fx)).values
    np.testing.assert_allclose(back, f.values - f.values[0], rtol=0, atol=1e-12)


def test_sobolev_norm_closed_form():
    g = gr.PeriodicGrid(10.0, 256)
    k = 3 * math.pi / 10.0
    f = gr.GridField(g, np.sin(k * g.nodes))
    base = 10.0  # int sin^2 over one period of length 20
    assert gr.h2_norm(f) == pytest.approx(math.sqrt(base * (1 + k**2 + k**4)), rel=1e-13)


def test_inner_product_requires_same_grid():
    f = _band_field(gr.PeriodicGrid(10.0, 64), 1)
    h = _band_field(gr.PeriodicGrid(10.0, 128), 1)
    with pytest.raises(ValueError, match="different grids"):
        gr.inner_product(f, h)


def test_field_validation_and_immutability():
    g = gr.PeriodicGrid(10.0, 64)
    with pytest.raises(ValueError):
        gr.GridField(g, np.zeros(63))
    bad = np.zeros(64)
    bad[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        gr.GridField(g, bad)
    f = gr.GridField(g, np.ones(64))
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    # the constructor copies, so mutating the source array cannot leak in
    src = np.zeros(64)
    f2 = gr.GridField(g, src)
    src[0] = 5.0
    assert f2.values[0] == 0.0


def test_with_values_time_tag():
    g = gr.PeriodicGrid(10.0, 64)
    f = gr.GridField(g, np.zeros(64), time_tag=0.5)
    assert f.with_values(np.ones(64)).time_tag == 0.5
    assert f.with_values(np.ones(64), time_tag=1.5).time_tag == 1.5


def test_sample_sets_time_tag():
    g = gr.PeriodicGrid(10.0, 64)
    f = gr.sample(lambda t, x: t + 0.0 * x, g, 0.75)
    assert f.time_tag == 0.75
    assert np.all(f.values == 0.75)


def test_binary_roundtrip_exact(tmp_path):
    g = gr.PeriodicGrid(12.5, 128)
    f = _band_field(g, 9).with_values(_band_field(g, 9).values, time_tag=0.375)
    path = tmp_path / "field.bin"
    gr.write_binary(f, path)
    back = gr.read_binary(path)
    assert back.grid == g
    assert back.time_tag == 0.375
    np.testing.assert_array_equal(back.values, f.values)


def test_binary_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.bin"
    g = gr.PeriodicGrid(10.0, 64)
    gr.write_binary(gr.GridField(g, np.zeros(64)), good)
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + good.read_bytes()[4:])
    with pytest.raises(ValueError, match="checkpoint"):
        gr.read_binary(bad_magic)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(good.read_bytes()[:-16])
    with pytest.raises(ValueError, match="expected"):
        gr.read_binary(truncated)
    header_cut = tmp_path / "header_cut.bin"
    header_cut.write_bytes(good.read_bytes()[:14])
    misaligned = tmp_path / "misaligned.bin"
    misaligned.write_bytes(good.read_bytes()[:-3])
    bad_size = tmp_path / "bad_size.bin"
    bad_size.write_bytes(b"BLGF" + struct.pack("<qdd", 3, 10.0, 0.0) + bytes(24))
    for path in (bad_magic, truncated, header_cut, misaligned, bad_size):
        with pytest.raises(ValueError) as info:
            gr.read_binary(path)
        assert str(path) in str(info.value)


def test_half_length_rules():
    # one rule for the whole family, above beta = 1 as below it
    assert gr.quadrature_half_length(2.0) == 15.0
    assert gr.quadrature_half_length(0.5) == 60.0
    assert gr.residual_grid(2.0) == gr.PeriodicGrid(22.0, 2048)
    assert gr.residual_grid(0.5) == gr.PeriodicGrid(88.0, 2048)
