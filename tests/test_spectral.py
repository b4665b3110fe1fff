"""Discrete linearized operator: assembly, classification, coercivity, roots."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from breatherlab import closed_forms as cf
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp

P = cf.BreatherParams(1.5, 1.0)
GRID = gr.default_grid(1.0, 512)


@pytest.fixture(scope="module")
def op():
    return sp.assemble(P, GRID, t=0.0)


@pytest.fixture(scope="module")
def report(op):
    return sp.spectrum(op)


def _band_field(grid, seed, kmax=2.5):
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.wavenumbers.shape[0], dtype=complex)
    band = (grid.wavenumbers > 0.0) & (grid.wavenumbers <= kmax)
    coeff[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    vals = np.fft.irfft(coeff, n=grid.n_points)
    return gr.GridField(grid, vals / np.max(np.abs(vals)))


def test_matrix_is_exactly_symmetric(op):
    np.testing.assert_array_equal(op.matrix, op.matrix.T)


def test_matrix_matches_operator_on_smooth_field(op):
    z = _band_field(GRID, 3)
    direct = fn.apply_operator(z, P, t=0.0).values
    via = op.matrix @ z.values
    rel = np.linalg.norm(via - direct) / np.linalg.norm(direct)
    assert rel <= 1e-10


def test_matrix_is_read_only(op):
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


def test_discrete_operator_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        sp.DiscreteOperator(GRID, np.zeros((4, 4)), P, 0.0)


def test_assemble_rejects_unresolved_grid():
    with pytest.raises(ValueError, match="does not resolve"):
        sp.assemble(P, gr.PeriodicGrid(5.0, 64), t=0.0)


def test_flat_spectrum_is_the_symbol():
    p = cf.BreatherParams(1.2, 0.8)
    g = gr.PeriodicGrid(20.0, 64)
    evals, _ = sp.eigensystem(sp.assemble_flat(p, g))
    k = g.wavenumbers
    sym = k**4 + 2.0 * (p.beta**2 - p.alpha**2) * k**2 + (p.alpha**2 + p.beta**2) ** 2
    # interior modes come in cos/sin pairs; the Nyquist multiplier is zeroed,
    # leaving just the constant term on that mode
    expected = np.sort(np.concatenate(
        [sym[:1], np.repeat(sym[1:-1], 2), [(p.alpha**2 + p.beta**2) ** 2]]))
    np.testing.assert_allclose(evals, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("p,expected", [
    (cf.BreatherParams(1.5, 1.0), 9.0),          # beta < alpha: interior min
    (cf.BreatherParams(1.0, 1.3), (1.0 + 1.69) ** 2),
    (cf.BreatherParams(1.0, 1.0), 4.0),          # branches coincide
])
def test_continuum_edge_branches(p, expected):
    assert sp.continuum_edge(p) == pytest.approx(expected, rel=1e-15)


def test_classification(report):
    assert report.negative_count == 1
    assert report.lambda0_sq > 0.0
    edge = sp.continuum_edge(P)
    assert report.continuum_edge == edge
    assert max(abs(d) for d in report.kernel_defect) <= 1e-3 * edge
    assert report.kernel_angle <= 1e-5
    assert report.nu0_estimate > 0.0
    assert report.mu0_estimate > 0.0
    assert np.all(np.diff(report.eigenvalues) >= 0.0)


def test_report_serializes(report):
    doc = json.dumps(report.to_dict())
    assert json.loads(doc)["negative_count"] == 1


def test_lambda0_sq_stable_under_refinement(report):
    fine = sp.spectrum(sp.assemble(P, gr.default_grid(1.0, 1024), t=0.0))
    rel = abs(fine.lambda0_sq - report.lambda0_sq) / fine.lambda0_sq
    assert rel <= 2e-6


def test_lambda0_sq_translation_invariant(report):
    shift = 8.0 * GRID.spacing
    moved = sp.spectrum(sp.assemble(replace(P, x1=P.x1 + shift, x2=P.x2 + shift), GRID))
    assert moved.lambda0_sq == pytest.approx(report.lambda0_sq, rel=1e-8)


def test_lambda0_sq_half_period_invariant(report):
    flipped = sp.spectrum(sp.assemble(replace(P, x1=P.x1 + np.pi / P.alpha, x2=P.x2), GRID))
    assert flipped.lambda0_sq == pytest.approx(report.lambda0_sq, rel=1e-8)


def test_equal_parameters_classify():
    rep = sp.spectrum(sp.assemble(cf.BreatherParams(1.0, 1.0), GRID, t=0.1))
    assert rep.negative_count == 1
    assert rep.continuum_edge == pytest.approx(4.0)


def test_flat_operator_fails_classification():
    with pytest.raises(sp.ClassificationError) as exc:
        sp.spectrum(sp.assemble_flat(P, GRID))
    assert isinstance(exc.value.offending, np.ndarray)


def test_negative_eigenvector(op, report):
    v = sp.negative_eigenvector(op)
    assert gr.inner_product(v, v) == pytest.approx(1.0, rel=1e-12)
    assert fn.quadratic_form(v, P, t=0.0) == pytest.approx(-report.lambda0_sq, rel=1e-10)


def test_coercivity_bounds_hold_on_samples(op, report):
    # project random fields onto the constraint space and check both
    # advertised inequalities with the reported constants
    x = GRID.nodes
    b = cf.breather(P, 0.0, x)
    b1 = cf.breather_dx1(P, 0.0, x)
    b2 = cf.breather_dx2(P, 0.0, x)
    vneg = sp.negative_eigenvector(op).values
    h = GRID.spacing
    rng = np.random.default_rng(99)
    nu0, mu0 = report.nu0_estimate, report.mu0_estimate
    for _ in range(300):
        z = rng.standard_normal(GRID.n_points)
        for w in (b1, b2, vneg):
            z = z - (z @ w) / (w @ w) * w
        f = gr.GridField(GRID, z)
        f = f.with_values(f.values / gr.sobolev_norm(f, 2))
        q = gr.inner_product(f, gr.GridField(GRID, op.matrix @ f.values))
        assert q - nu0 >= -1e-8

        z2 = rng.standard_normal(GRID.n_points)
        for w in (b1, b2):
            z2 = z2 - (z2 @ w) / (w @ w) * w
        f2 = gr.GridField(GRID, z2)
        f2 = f2.with_values(f2.values / gr.sobolev_norm(f2, 2))
        q2 = gr.inner_product(f2, gr.GridField(GRID, op.matrix @ f2.values))
        pairing = h * (f2.values @ b)
        assert q2 - mu0 + pairing**2 / mu0 >= -1e-8


def test_root_function_nondecreasing():
    p = cf.BreatherParams(1.5, 1.0, 0.9, -0.4)
    ys = np.linspace(-3.0, 3.0, 4001)
    vals = sp.root_function(p, 0.2, ys)
    assert np.all(np.diff(vals) >= -1e-12)


def test_default_scan_range_brackets_root():
    for p in (P, cf.BreatherParams(0.7, 1.3, 0.5, -0.2)):
        lo, hi = sp.default_scan_range(p)
        assert sp.root_function(p, 0.3, lo) < 0.0 < sp.root_function(p, 0.3, hi)


def test_wronskian_analysis_zero_shifts():
    rep = sp.wronskian_analysis(P, t=0.0)
    assert rep.root_count == 1
    assert rep.root_location == pytest.approx(0.0, abs=1e-12)
    assert rep.closed_form_max_err <= 1e-8


def test_wronskian_analysis_asymmetric():
    p = cf.BreatherParams(1.5, 1.0, 0.9, -0.4)
    rep = sp.wronskian_analysis(p, t=0.2)
    assert rep.root_count == 1
    assert abs(sp.root_function(p, 0.2, rep.root_location)) <= 1e-9
    assert rep.closed_form_max_err <= 1e-8
    assert json.dumps(rep.to_dict())


def _compensated_minimum(op, mu):
    """Smallest eigenvalue of Q - mu G + (h/mu) b b^T on the complement of
    B1, B2, built independently of the secular solve."""
    x = GRID.nodes
    z2 = np.linalg.svd(np.column_stack([cf.breather_dx1(P, 0.0, x),
                                        cf.breather_dx2(P, 0.0, x)]))[0][:, 2:]
    d2, d4 = gr.spectral_derivatives(np.eye(GRID.n_points), GRID, (2, 4), axis=0)
    gram = np.eye(GRID.n_points) - d2 + d4
    bred = z2.T @ cf.breather(P, 0.0, x)
    m = z2.T @ (op.matrix - mu * gram) @ z2 + (GRID.spacing / mu) * np.outer(bred, bred)
    return np.linalg.eigvalsh(0.5 * (m + m.T))[0]


def test_mu0_is_the_exact_threshold(op, report):
    # mu0 = 0.99 mu*; the form must turn indefinite within 0.1% above mu*,
    # so the threshold is exact rather than a 1% bracket
    mu_star = report.mu0_estimate / 0.99
    assert _compensated_minimum(op, 0.999 * mu_star) >= 0.0
    assert _compensated_minimum(op, 1.001 * mu_star) < 0.0


def _kernel_parts(op):
    jet = cf.breather_jet(op.params, op.time_tag, op.grid.nodes)
    return np.column_stack([jet.dx1, jet.dx2]), jet.b


def _coercivity(op, b_neg=None):
    if b_neg is None:
        b_neg = sp.eigensystem(op)[1][:, 0]
    return sp._coercivity_from_parts(op, b_neg, *_kernel_parts(op))


def _projected_pencil(op, constraints):
    """(L, G) on an orthonormal basis of the L2-complement of the constraint
    rows, G the H^2 Gram matrix I - D2 + D4."""
    z = scipy.linalg.null_space(constraints)
    n = op.grid.n_points
    d2, d4 = gr.spectral_derivatives(np.eye(n), op.grid, (2, 4), axis=0)
    gram = np.eye(n) - d2 + d4
    return z, z.T @ op.matrix @ z, z.T @ (0.5 * (gram + gram.T)) @ z


def _nu0_reference(op, b_neg):
    """Rayleigh minimum of Q/||.||_H2^2 on the L2-complement of
    span{b_neg, B1, B2}: the smallest eigenvalue of the projected pair."""
    kernel_span, _ = _kernel_parts(op)
    _, lred, gred = _projected_pencil(op, np.vstack([b_neg, kernel_span.T]))
    return scipy.linalg.eigh(lred, gred, eigvals_only=True, subset_by_index=(0, 0))[0]


@pytest.mark.parametrize("x1", [0.0, 0.3, 1.1])
def test_nu0_is_the_constrained_minimum_n256(x1):
    # at N=256 the full spectrum does not classify (one kernel eigenvalue
    # falls below the kernel window), but the constrained pencil is well posed
    op = sp.assemble(replace(P, x1=x1, x2=0.0), gr.default_grid(1.0, 256))
    b_neg = sp.eigensystem(op)[1][:, 0]
    nu0, _ = _coercivity(op, b_neg)
    assert nu0 == pytest.approx(_nu0_reference(op, b_neg), rel=1e-10)


def test_nu0_is_the_constrained_minimum_n512(op, report):
    b_neg = sp.negative_eigenvector(op).values
    assert report.nu0_estimate == pytest.approx(_nu0_reference(op, b_neg), rel=1e-10)


def test_nu0_rejects_negative_vector_outside_pencil_direction(op):
    # b_neg G-orthogonal to the pencil's negative direction: the constraint
    # no longer removes it, so psi has no root above lam_0
    kernel_span, _ = _kernel_parts(op)
    z2, lred, gred = _projected_pencil(op, kernel_span.T)
    w = scipy.linalg.eigh(lred, gred)[1]
    with pytest.raises(sp.ClassificationError, match="negative direction"):
        _coercivity(op, z2 @ (gred @ w[:, 1]))


def test_coercivity_rejects_flat_operator():
    flat = sp.assemble_flat(P, GRID)
    with pytest.raises(sp.ClassificationError, match="exactly one negative"):
        _coercivity(flat)


def test_coercivity_rejects_form_not_positive_for_tiny_mu():
    # one negative direction, a grid mode that B does not see: no
    # compensation by (int z B)^2 can lift it
    v = np.cos(GRID.wavenumbers[40] * GRID.nodes)
    flat = sp.assemble_flat(P, GRID)
    shift = 2.0 * (v @ flat.matrix @ v) / (v @ v) ** 2
    op = sp.DiscreteOperator(GRID, flat.matrix - shift * np.outer(v, v), P, 0.0)
    with pytest.raises(sp.ClassificationError, match="tiny mu"):
        _coercivity(op)


def test_sweep_spectra_matches_spectrum():
    cases = [(P, GRID, 0.0), (replace(P, x1=P.x1 + 0.5 * np.pi / P.alpha, x2=P.x2), GRID, 0.0)]
    for case in cases:
        op = sp.assemble(*case)
        point, full = sp.classify(op), sp.spectrum(op)
        assert point.negative_count == 1
        assert point.lambda0_sq == pytest.approx(full.lambda0_sq, rel=1e-12)


def test_classify_rejects_flat_operator():
    with pytest.raises(sp.ClassificationError) as exc:
        sp.classify(sp.assemble_flat(P, GRID))
    assert isinstance(exc.value.offending, np.ndarray)
