"""Discrete linearized operator: assembly, classification, coercivity, roots."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent import futures
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import breatherlab
from breatherlab import closed_forms as cf
from breatherlab import config as cfgmod
from breatherlab import functionals as fn
from breatherlab import grid as gr
from breatherlab import spectral as sp

P = cf.BreatherParams(1.5, 1.0)


def _grid(n):
    return gr.PeriodicGrid(gr.quadrature_half_length(P.beta), n)


GRID = _grid(512)


@pytest.fixture(scope="module")
def op():
    return sp.assemble(P, GRID, t=0.0)


@pytest.fixture(scope="module")
def report():
    return sp.spectrum(P, GRID, 0.0)[0]


def _band_field(grid, seed, kmax=2.5):
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.wavenumbers.shape[0], dtype=complex)
    band = (grid.wavenumbers > 0.0) & (grid.wavenumbers <= kmax)
    coeff[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    vals = np.fft.irfft(coeff, n=grid.n_points)
    return gr.GridField(grid, vals / np.max(np.abs(vals)))


def _flat(p, grid):
    """The operator's constant-coefficient part: every breather term off."""
    zeros = np.zeros(grid.n_points)
    mat = sp._assemble_from_coefficients(p, zeros, zeros, zeros, sp._derivative_matrices(grid))
    return sp.DiscreteOperator(grid, mat, p, 0.0)


def _assembling(monkeypatch, build):
    """spectrum's assemble replaced by build(p, grid) for synthetic operators."""
    monkeypatch.setattr(sp, "assemble", lambda p, grid, t=0.0, *, matrices=None: build(p, grid))


def _l2_norm(grid, values):
    f = gr.GridField(grid, values)
    return math.sqrt(gr.inner_product(f, f))


def _column_derivatives(grid, orders):
    """D^order built column by column: np.fft along axis 0 of the identity."""
    fh = np.fft.rfft(np.eye(grid.n_points), axis=0)
    return [np.fft.irfft(fh * grid.multiplier(order)[:, None], n=grid.n_points, axis=0)
            for order in orders]


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
    evals = scipy.linalg.eigh(_flat(p, g).matrix, eigvals_only=True)
    k = g.wavenumbers
    sym = k**4 + 2.0 * (p.beta**2 - p.alpha**2) * k**2 + (p.alpha**2 + p.beta**2) ** 2
    # interior modes come in cos/sin pairs; the Nyquist multiplier is zeroed,
    # leaving just the constant term on that mode
    expected = np.sort(np.concatenate(
        [sym[:1], np.repeat(sym[1:-1], 2), [(p.alpha**2 + p.beta**2) ** 2]]))
    np.testing.assert_allclose(evals, expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [256, 512])
def test_eigensystem_is_the_lowest_three_of_the_full_eigh(n):
    # at N=256 the spectrum does not classify, but its lowest pairs are
    # defined; the fourth pair only bounds the rest from below
    op = sp.assemble(P, _grid(n))
    evals, evecs = sp.eigensystem(op)
    full_evals, full_evecs = scipy.linalg.eigh(op.matrix)
    full_evecs = full_evecs[:, :3] / math.sqrt(op.grid.spacing)
    # the eigenvalues against the matrix's scale (a backward-stable solver's
    # error is roundoff times max |lambda|; the kernel pair is near zero)
    np.testing.assert_allclose(evals, full_evals[:4], rtol=0,
                               atol=1e-12 * np.max(np.abs(full_evals)))
    np.testing.assert_allclose([_l2_norm(op.grid, v) for v in evecs.T], 1.0, rtol=1e-12)
    # the negative eigenvector up to sign; the kernel pair's gap is too small
    # for roundoff to fix each vector, so only the plane it spans is compared
    sign = np.sign(evecs[:, 0] @ full_evecs[:, 0])
    assert _l2_norm(op.grid, evecs[:, 0] - sign * full_evecs[:, 0]) <= 1e-10
    assert np.max(scipy.linalg.subspace_angles(evecs[:, 1:3], full_evecs[:, 1:])) <= 1e-10


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
    doc = cfgmod.canonical_json(asdict(report))
    assert json.loads(doc)["negative_count"] == 1


def test_lambda0_sq_stable_under_refinement(report):
    fine = sp.spectrum(P, _grid(1024), 0.0)[0]
    rel = abs(fine.lambda0_sq - report.lambda0_sq) / fine.lambda0_sq
    assert rel <= 2e-6


def test_lambda0_sq_translation_invariant(report):
    shift = 8.0 * GRID.spacing
    moved = sp.spectrum(replace(P, x1=P.x1 + shift, x2=P.x2 + shift), GRID)[0]
    assert moved.lambda0_sq == pytest.approx(report.lambda0_sq, rel=1e-8)


def test_time_is_a_phase(report):
    # B(T; x1 = 2(alpha^2 + beta^2)T, 0) is B(0; 0, 0) translated by -gamma*T,
    # so the CLI's t = 0 breather loses no analysis. What remains is the grid's
    # own translation error: gamma*T is 4.9 spacings, and at N = 512 it reads
    # lambda0^2 3.4e-8, nu0 2.2e-8, mu0 2.0e-7 relative (2.45 spacings, at
    # T = 0.05, reads 4.0e-7, 2.6e-7 and 2.3e-6)
    T = 0.1
    later = sp.spectrum(replace(P, x1=2.0 * (P.alpha**2 + P.beta**2) * T), GRID, T)[0]
    assert later.lambda0_sq == pytest.approx(report.lambda0_sq, rel=1e-7)
    assert later.nu0_estimate == pytest.approx(report.nu0_estimate, rel=1e-7)
    assert later.mu0_estimate == pytest.approx(report.mu0_estimate, rel=1e-6)


def test_lambda0_sq_half_period_invariant(report):
    flipped = sp.spectrum(replace(P, x1=P.x1 + np.pi / P.alpha, x2=P.x2), GRID)[0]
    assert flipped.lambda0_sq == pytest.approx(report.lambda0_sq, rel=1e-8)


def test_equal_parameters_classify():
    rep = sp.spectrum(cf.BreatherParams(1.0, 1.0), GRID, 0.1)[0]
    assert rep.negative_count == 1
    assert rep.continuum_edge == pytest.approx(4.0)


def test_flat_operator_fails_classification(monkeypatch):
    _assembling(monkeypatch, _flat)
    with pytest.raises(sp.ClassificationError) as exc:
        sp.spectrum(P, GRID)
    assert isinstance(exc.value.offending, np.ndarray)


def test_negative_eigenvector(op, report):
    v = gr.GridField(GRID, sp.eigensystem(op)[1][:, 0])
    assert gr.inner_product(v, v) == pytest.approx(1.0, rel=1e-12)
    vx, vxx = gr.spectral_derivatives(v.values, GRID, (1, 2))
    q, _ = fn.expansion_terms(v, vx, vxx, cf.breather_jet(P, 0.0, GRID.nodes), P)
    assert q == pytest.approx(-report.lambda0_sq, rel=1e-10)


def test_coercivity_bounds_hold_on_samples(op, report):
    # project random fields onto the constraint space and check both
    # advertised inequalities with the reported constants
    x = GRID.nodes
    b = cf.breather(P, 0.0, x)
    jet = cf.breather_jet(P, 0.0, x)
    b1, b2 = jet.dx1, jet.dx2
    vneg = sp.eigensystem(op)[1][:, 0]
    h = GRID.spacing
    rng = np.random.default_rng(99)
    nu0, mu0 = report.nu0_estimate, report.mu0_estimate
    for _ in range(300):
        z = rng.standard_normal(GRID.n_points)
        for w in (b1, b2, vneg):
            z = z - (z @ w) / (w @ w) * w
        f = gr.GridField(GRID, z)
        f = f.with_values(f.values / gr.h2_norm(f))
        q = gr.inner_product(f, gr.GridField(GRID, op.matrix @ f.values))
        assert q - nu0 >= -1e-8

        z2 = rng.standard_normal(GRID.n_points)
        for w in (b1, b2):
            z2 = z2 - (z2 @ w) / (w @ w) * w
        f2 = gr.GridField(GRID, z2)
        f2 = f2.with_values(f2.values / gr.h2_norm(f2))
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
    assert json.loads(cfgmod.canonical_json(asdict(rep)))["root_count"] == 1


def _compensated_minimum(op, mu):
    """Smallest eigenvalue of Q - mu G + (h/mu) b b^T on the complement of
    B1, B2, built independently of the secular solve."""
    x = GRID.nodes
    jet = cf.breather_jet(P, 0.0, x)
    z2 = np.linalg.svd(np.column_stack([jet.dx1, jet.dx2]))[0][:, 2:]
    d2, d4 = _column_derivatives(GRID, (2, 4))
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
    gram = sp._gram_matrix(*sp._derivative_matrices(op.grid)[1:])
    return sp._coercivity_from_parts(op, gram, b_neg, *_kernel_parts(op))


def _projected_pencil(op, constraints):
    """(L, G) on an orthonormal basis of the L2-complement of the constraint
    rows, G the H^2 Gram matrix I - D2 + D4."""
    z = scipy.linalg.null_space(constraints)
    n = op.grid.n_points
    d2, d4 = _column_derivatives(op.grid, (2, 4))
    gram = np.eye(n) - d2 + d4
    return z, z.T @ op.matrix @ z, z.T @ (0.5 * (gram + gram.T)) @ z


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("x1", [0.0, 0.3, 1.1])
def test_reflector_reduction_is_the_projected_pencil(x1, n):
    op = sp.assemble(replace(P, x1=x1, x2=0.0), _grid(n))
    kernel_span, b = _kernel_parts(op)
    reflectors = sp._complement_reflectors(kernel_span)
    # rows 2: of H_2 H_1 are the complement's basis
    basis = sp._reflect(np.eye(n), reflectors)[2:].T
    np.testing.assert_allclose(basis.T @ basis, np.eye(n - 2), rtol=0, atol=1e-13)
    unit_kernel = kernel_span / np.linalg.norm(kernel_span, axis=0)
    assert np.max(np.abs(unit_kernel.T @ basis)) <= 1e-13

    lred = sp._reflect_both_sides(op.matrix.copy(), reflectors)[2:, 2:]
    gred = sp._reflect_both_sides(sp._gram_matrix(*sp._derivative_matrices(op.grid)[1:]),
                                  reflectors)[2:, 2:]
    np.testing.assert_array_equal(lred, lred.T)
    np.testing.assert_allclose(sp._reflect(b, reflectors)[2:], basis.T @ b, rtol=0,
                               atol=1e-13 * np.linalg.norm(b))
    _, lref, gref = _projected_pencil(op, kernel_span.T)
    lam = scipy.linalg.eigh(lred, gred, eigvals_only=True)
    lam_ref = scipy.linalg.eigh(lref, gref, eigvals_only=True)
    np.testing.assert_allclose(lam, lam_ref, rtol=1e-9)


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
    op = sp.assemble(replace(P, x1=x1, x2=0.0), _grid(256))
    b_neg = sp.eigensystem(op)[1][:, 0]
    nu0, _ = _coercivity(op, b_neg)
    assert nu0 == pytest.approx(_nu0_reference(op, b_neg), rel=1e-10)


def test_nu0_is_the_constrained_minimum_n512(op, report):
    b_neg = sp.eigensystem(op)[1][:, 0]
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
    flat = _flat(P, GRID)
    with pytest.raises(sp.ClassificationError, match="exactly one negative"):
        _coercivity(flat)


def test_coercivity_rejects_form_not_positive_for_tiny_mu():
    # one negative direction, a grid mode that B does not see: no
    # compensation by (int z B)^2 can lift it
    v = np.cos(GRID.wavenumbers[40] * GRID.nodes)
    flat = _flat(P, GRID)
    shift = 2.0 * (v @ flat.matrix @ v) / (v @ v) ** 2
    op = sp.DiscreteOperator(GRID, flat.matrix - shift * np.outer(v, v), P, 0.0)
    with pytest.raises(sp.ClassificationError, match="tiny mu"):
        _coercivity(op)


def test_sweep_spectra_matches_spectrum():
    # each sample, the base and the half-shifted operator, classified from
    # its four lowest eigenvalues, against its own sweep-free spectrum
    half = P.x1 + 0.5 * np.pi / P.alpha
    srep, sweep = sp.spectrum(P, GRID, 0.0, [P.x1, half])
    shifted = sp.spectrum(replace(P, x1=half), GRID, 0.0)[0]
    assert srep.negative_count == shifted.negative_count == 1
    assert sweep == [srep.lambda0_sq, shifted.lambda0_sq]


def test_classify_rejects_flat_operator(monkeypatch):
    # a flat sample after the base operator fails the sweep's classification
    real = sp.assemble
    _assembling(monkeypatch, lambda p, grid: real(p, grid) if p.x1 == P.x1 else _flat(p, grid))
    with pytest.raises(sp.ClassificationError) as exc:
        sp.spectrum(P, GRID, 0.0, _sweep_shifts(P, 3))
    assert isinstance(exc.value.offending, np.ndarray)


def test_spectrum_sweep_starts_at_its_own_bitwise_report(report):
    shifts = _sweep_shifts(P, 3)
    srep, sweep = sp.spectrum(P, GRID, 0.0, shifts)
    assert len(sweep) == 3 and sweep[0].hex() == report.lambda0_sq.hex()
    np.testing.assert_array_equal(srep.eigenvalues, report.eigenvalues)
    assert replace(srep, eigenvalues=None) == replace(report, eigenvalues=None)
    alone, none = sp.spectrum(P, GRID, 0.0, [])
    assert none == [] and replace(alone, eigenvalues=None) == replace(report, eigenvalues=None)
    with pytest.raises(ValueError, match="starts at x1"):
        sp.spectrum(P, GRID, 0.0, shifts[1:])


def _with_negative_directions(op, count):
    """op with `count` grid modes cos(k_j x) turned negative: on the flat
    operator each is an eigenvector, and the rank-one update flips its sign."""
    mat = op.matrix
    for j in range(40, 40 + count):
        v = np.cos(op.grid.wavenumbers[j] * op.grid.nodes)
        mat = mat - 2.0 * (v @ mat @ v) / (v @ v) ** 2 * np.outer(v, v)
    return sp.DiscreteOperator(op.grid, 0.5 * (mat + mat.T), op.params, op.time_tag)


def _classify_outcome(evals, edge):
    """(kernel indices or exception type, message) of _classify."""
    try:
        return tuple(sp._classify(evals, edge)), ""
    except sp.ClassificationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", ["n512", "n1024", "shift1", "shift5", "n256", "flat",
                                  "flat_two_negative", "flat_five_negative"])
def test_four_value_classification_is_the_full_list_classification(case):
    shifts = _sweep_shifts(P, 8)
    ops = {
        "n512": lambda: sp.assemble(P, GRID),
        "n1024": lambda: sp.assemble(P, _grid(1024)),
        "shift1": lambda: sp.assemble(replace(P, x1=shifts[1]), GRID),
        "shift5": lambda: sp.assemble(replace(P, x1=shifts[5]), GRID),
        "n256": lambda: sp.assemble(P, _grid(256)),  # does not classify
        "flat": lambda: _flat(P, GRID),
        "flat_two_negative": lambda: _with_negative_directions(_flat(P, GRID), 2),
        "flat_five_negative": lambda: _with_negative_directions(_flat(P, GRID), 5),
    }
    op = ops[case]()
    edge = sp.continuum_edge(op.params)
    four, four_message = _classify_outcome(
        scipy.linalg.eigh(op.matrix, eigvals_only=True, subset_by_index=(0, 3)), edge)
    full, full_message = _classify_outcome(scipy.linalg.eigh(op.matrix, eigvals_only=True), edge)
    assert four == full
    assert (four == (1, 2)) == (case in ("n512", "n1024", "shift1", "shift5"))
    if case == "flat_two_negative":
        assert "found 2" in four_message and "found 2" in full_message
    if case == "flat_five_negative":
        # four values cannot tell 4 negative eigenvalues from more
        assert "found at least 4" in four_message and "found 5" in full_message


def test_classify_and_spectrum_read_the_same_four_eigenvalues(op, report):
    # a sweep sample's solve without vectors and the spectrum's with them
    evals, _ = sp.eigensystem(op)
    np.testing.assert_array_equal(
        evals, scipy.linalg.eigh(op.matrix, eigvals_only=True, subset_by_index=(0, 3)))
    assert report.lambda0_sq == -evals[0]
    assert report.kernel_defect == (evals[1], evals[2])
    np.testing.assert_array_equal(report.eigenvalues,
                                  scipy.linalg.eigh(op.matrix, eigvals_only=True))


def _forms_near_singular(seed, n, count):
    """Symmetric n x n forms Q diag(d) Q^T, d in [1, 10] except the smallest,
    +-1e-6 of the largest, with the signs drawn from the seed."""
    rng = np.random.default_rng(seed)
    forms = []
    for sign in rng.choice([-1.0, 1.0], count):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = rng.uniform(1.0, 10.0, n)
        d[0] = sign * 1e-6 * np.max(d)
        m = (q * d) @ q.T
        forms.append(0.5 * (m + m.T))
    return forms


def test_cholesky_certificate_accepts_exactly_the_positive_forms():
    outcomes = []
    for m in _forms_near_singular(510, 510, 8):
        smallest = scipy.linalg.eigh(m, eigvals_only=True, subset_by_index=(0, 0))[0]
        try:
            sp._certify_positive(m, "not positive")
            accepted = True
        except sp.ClassificationError as exc:
            accepted = False
            assert exc.offending[0] == smallest
        outcomes.append((accepted, smallest > 0.0))
    assert all(accepted == positive for accepted, positive in outcomes)
    assert {positive for _, positive in outcomes} == {True, False}


def test_certificate_rejects_mu0_above_the_threshold(op, monkeypatch):
    real = sp._bisect
    # every root 20% high: mu0 = 0.99 * 1.2 mu* lies above mu*
    monkeypatch.setattr(sp, "_bisect", lambda f, a, b: 1.2 * real(f, a, b))
    _assembling(monkeypatch, lambda p, grid: op)
    with pytest.raises(sp.ClassificationError, match="not positive at mu0") as exc:
        sp.spectrum(P, GRID)
    assert exc.value.offending[0] < 0.0


def _sweep_shifts(p, n_samples):
    # the CLI's phase sweep: n_samples shifts of x1 over half a period
    return [p.x1 + j * (np.pi / p.alpha) / n_samples for j in range(n_samples)]


@pytest.mark.parametrize("n_samples", [8, 3])
def test_phase_sweep_is_bitwise_the_per_sample_classification(n_samples):
    shifts = _sweep_shifts(P, n_samples)
    _, swept = sp.spectrum(P, GRID, 0.0, shifts)
    alone = [sp.spectrum(replace(P, x1=s), GRID, 0.0)[0] for s in shifts]
    assert all(rep.negative_count == 1 for rep in alone)
    assert [v.hex() for v in swept] == [rep.lambda0_sq.hex() for rep in alone]


@pytest.mark.parametrize("n", [16, 64, 512, 1024])
def test_derivative_matrices_equal_the_column_build(n):
    grid = _grid(n)
    columns = _column_derivatives(grid, (1, 2, 4))
    for built, reference in zip(sp._derivative_matrices(grid), columns, strict=True):
        assert built.flags.c_contiguous
        assert built.tobytes() == reference.tobytes()


def test_phase_sweep_in_workers_is_bitwise_the_one_core_sweep(monkeypatch, one_core,
                                                              one_blas_thread):
    shifts = _sweep_shifts(P, 8)
    here, swept_here = sp.spectrum(P, GRID, 0.0, shifts)
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled, swept_pooled = sp.spectrum(P, GRID, 0.0, shifts)
    assert [(kw["max_workers"], kw["mp_context"].get_start_method()) for kw in pools] == [
        (2, "fork")]
    assert [v.hex() for v in swept_pooled] == [v.hex() for v in swept_here]
    assert pooled.eigenvalues.tobytes() == here.eigenvalues.tobytes()
    assert repr(replace(pooled, eigenvalues=None)) == repr(replace(here, eigenvalues=None))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [2, 1])
def test_a_failing_sample_wins_over_the_pencil(monkeypatch, one_blas_thread, cores):
    shifts = _sweep_shifts(P, 4)
    real = sp.apply_operator

    def wrong_in_last(z, p, t=0.0):
        out = real(z, p, t)
        return out.with_values(2.0 * out.values) if p.x1 == shifts[-1] else out

    def no_pencil(*args):
        raise sp.ClassificationError("injected pencil failure", np.zeros(1))

    monkeypatch.setattr(sp, "apply_operator", wrong_in_last)
    monkeypatch.setattr(sp, "_coercivity_from_parts", no_pencil)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    with pytest.raises(sp.AssemblyError):
        sp.spectrum(P, GRID, 0.0, shifts)
    assert multiprocessing.active_children() == []


def test_phase_sweep_forks_only_the_workers_the_dense_budget_holds(monkeypatch, one_blas_thread):
    # at the largest admitted N the budget holds one worker's arrays beside
    # the calling process's: the sweep runs here, however many cores there are
    cfgmod.validate_config(cfgmod.apply_overrides(cfgmod.load_config(None),
                                                  ["spectrum.n_points=4096"]))
    assert sp._sweep_workers(4096) == 1
    pools = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    shifts = _sweep_shifts(P, 3)
    for workers in (1, 2):
        arrays = cfgmod.SPECTRUM_DENSE_ARRAYS + 3 + workers * sp._SAMPLE_DENSE_ARRAYS
        monkeypatch.setattr(sp, "DENSE_BUDGET_BYTES", arrays * 8 * GRID.n_points**2)
        assert sp._sweep_workers(GRID.n_points) == workers
        sp.spectrum(P, GRID, 0.0, shifts)
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_phase_sweep_shares_one_read_only_set_of_matrices(monkeypatch, one_core):
    seen = []
    real = sp.assemble

    def spy(p, grid, t=0.0, *, matrices=None):
        seen.append(matrices)
        return real(p, grid, t, matrices=matrices)

    monkeypatch.setattr(sp, "assemble", spy)
    sp.spectrum(P, GRID, 0.0, _sweep_shifts(P, 3))
    assert len(seen) == 3 and all(m is seen[0] for m in seen)
    for m in seen[0]:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_phase_sweep_checks_every_sample(monkeypatch, one_core):
    calls = []
    real = sp.apply_operator

    def wrong_after_two(z, p, t=0.0):
        calls.append(p.x1)
        out = real(z, p, t)
        return out if len(calls) < 3 else out.with_values(2.0 * out.values)

    monkeypatch.setattr(sp, "apply_operator", wrong_after_two)
    shifts = _sweep_shifts(P, 4)
    with pytest.raises(sp.AssemblyError):
        sp.spectrum(P, GRID, 0.0, shifts)
    assert calls == shifts[:3]
    # the boundary check too: this grid cuts the breather's tails
    with pytest.raises(ValueError, match="does not resolve"):
        sp.spectrum(P, gr.PeriodicGrid(5.0, 128), 0.0, shifts)
    # and on a sample after a resolved base: its boundary value made large
    monkeypatch.setattr(sp, "apply_operator", real)
    real_fields = sp.coefficient_fields

    def unresolved_after_base(p, grid, t=0.0):
        b, bx, bxx = real_fields(p, grid, t)
        if p.x1 != P.x1:
            b = b.copy()
            b[0] = 1.0
        return b, bx, bxx

    monkeypatch.setattr(sp, "coefficient_fields", unresolved_after_base)
    with pytest.raises(ValueError, match="does not resolve"):
        sp.spectrum(P, GRID, 0.0, shifts)


def _secular_corpus(seed, n_pencils):
    """(f, a, b): phi and psi of _coercivity_from_parts on random pencils
    with lam_0 < 0 < lam_1 and weights from 1e-8 to 1, on its brackets."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_pencils):
        m = int(rng.integers(3, 40))
        lam = np.sort(np.concatenate([[-rng.uniform(1e-2, 10.0)], rng.uniform(1e-2, 100.0, m - 1)]))
        w = 10.0 ** rng.uniform(-8.0, 0.0, m)
        hi = lam[1] * (1.0 - 1e-12)
        cases.append((lambda mu, lam=lam, w=w: mu + float(np.sum(w / (lam - mu))), 0.0, hi))
        cases.append((lambda nu, lam=lam, w=w: float(np.sum(w / (lam - nu))),
                      lam[0] * (1.0 - 1e-12), hi))
    return cases


def _root_function_corpus(seed, n_params):
    """(f, a, b): root_function on its default_scan_range and on the sign
    change that wronskian_analysis brackets in it."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_params):
        p = cf.BreatherParams(*rng.uniform(0.3, 3.0, 2), *rng.uniform(-3.0, 3.0, 2))
        t = float(rng.uniform(-2.0, 2.0))
        f = lambda y, p=p, t=t: float(sp.root_function(p, t, y))
        lo, hi = sp.default_scan_range(p)
        ys = np.linspace(lo, hi, 2048)
        flip = np.nonzero(np.diff(np.sign(sp.root_function(p, t, ys))))[0][0]
        cases += [(f, lo, hi), (f, ys[flip], ys[flip + 1])]
    return cases


def test_bisection_is_exact_to_adjacent_floats():
    # the brackets _coercivity_from_parts and wronskian_analysis solve on:
    # 342 of the 600 secular cases and all 200 root-function cases
    corpus = _secular_corpus(20240, 300) + _root_function_corpus(20241, 100)
    cases = [(f, a, b) for f, a, b in corpus if f(a) < 0.0 < f(b)]
    assert len(cases) == 542
    for f, a, b in cases:
        r = sp._bisect(f, a, b)
        assert a <= r <= b
        assert f(r) == 0.0 or f(math.nextafter(r, -math.inf)) < 0.0 < f(r)
    assert sp._bisect(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert sp._bisect(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    assert sp._bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5
    for f in (lambda x: x * x + 1.0,                                # same sign
              lambda x: 0.5 - x,                                    # decreasing
              lambda x: math.nan if 0.3 < x < 0.7 else x - 0.2,     # NaN inside
              lambda x: math.nan):                                  # NaN at a
        with pytest.raises(ValueError):
            sp._bisect(f, 0.0, 1.0)


def test_spectrum_is_homogeneous_of_degree_four_under_scaling():
    # mKdV's scaling maps B(alpha, beta, x1) to B(lam alpha, lam beta, x1/lam)
    # and the grid rule maps the box with it, so the operator is lam^4 times
    # the original: at lam = 2 and 1/2 every scaling is by a power of two,
    # and lambda0^2 and the continuum edge scale bitwise
    def spectrum_at(lam):
        config = cfgmod.apply_overrides(cfgmod.default_config(), [
            f"alpha={1.5 * lam!r}", f"beta={lam!r}", f"x1={0.4 / lam!r}"])
        grid = cfgmod.make_grid(config, config["spectrum"]["n_points"])
        return sp.spectrum(cfgmod.breather_params(config), grid, 0.0)[0]

    base = spectrum_at(1.0)
    for lam in (2.0, 0.5):
        scaled = spectrum_at(lam)
        assert scaled.lambda0_sq == lam**4 * base.lambda0_sq
        assert scaled.continuum_edge == lam**4 * base.continuum_edge


def test_library_spectrum_ignores_the_blas_thread_setting():
    # a library caller that imports the package before numpy gets its one
    # BLAS thread too: under two threads the eigensolver would sum in another
    # order and move the eigenvalues' and mu0's last digits
    code = ("from breatherlab import config as c, spectral as sp; "
            "config = c.default_config(); "
            "report = sp.spectrum(c.breather_params(config), "
            "c.make_grid(config, config['spectrum']['n_points']))[0]; "
            "print(report.eigenvalues.tobytes().hex(), repr(report.mu0_estimate))")
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in breatherlab.BLAS_THREAD_VARS}
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = str(Path(breatherlab.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
