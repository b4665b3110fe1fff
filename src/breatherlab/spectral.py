"""Dense spectral analysis of the linearized operator.

The operator is discretized as a real symmetric N x N matrix built from
Fourier differentiation matrices, eigendecomposed in full, and its spectrum
classified into the unique negative eigenvalue, the two-dimensional kernel,
and the rest sitting above the continuum edge. Both coercivity constants are
roots of scalar secular equations on one constrained pencil: nu0 a Rayleigh
minimum, mu0 0.99 times the exact positive-semidefiniteness threshold of the
compensated form, certified by one more eigensolve, so the advertised
quadratic-form inequalities hold for every grid field by construction.
Phase sweeps only classify: eigenvalues without vectors, no coercivity.

The Wronskian of the two kernel directions has a closed form whose sign
structure counts the negative eigenvalues; wronskian_analysis cross-checks
the closed form against spectral derivatives and locates the single root of
the monotone root function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from . import closed_forms as cf
from .functionals import apply_operator, coefficient_fields, potential, wronskian_residual
from .grid import GridField, PeriodicGrid, residual_half_length, spectral_derivatives

_CONSISTENCY_SEED = 1729
_CONSISTENCY_TOL = 1e-8
_BOUNDARY_TOL = 1e-10


class AssemblyError(RuntimeError):
    """Assembled matrix disagrees with the direct operator action."""


class ClassificationError(RuntimeError):
    """Spectrum does not show the expected negative/kernel/continuum split."""

    def __init__(self, message: str, offending: np.ndarray):
        super().__init__(f"{message}: {np.array2string(offending, precision=6)}")
        self.offending = offending


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric discretization of the linearized operator on a grid."""

    grid: PeriodicGrid
    matrix: np.ndarray
    params: cf.BreatherParams
    time_tag: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        n = self.grid.n_points
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match grid ({n},{n})")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    negative_count: int
    lambda0_sq: float
    kernel_defect: tuple[float, float]
    kernel_angle: float
    continuum_edge: float
    nu0_estimate: float
    mu0_estimate: float

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "negative_count": self.negative_count,
            "lambda0_sq": self.lambda0_sq,
            "kernel_defect": [self.kernel_defect[0], self.kernel_defect[1]],
            "kernel_angle": self.kernel_angle,
            "continuum_edge": self.continuum_edge,
            "nu0_estimate": self.nu0_estimate,
            "mu0_estimate": self.mu0_estimate,
        }


@dataclass(frozen=True)
class WronskianReport:
    root_count: int
    root_location: float
    closed_form_max_err: float

    def to_dict(self) -> dict:
        return {
            "root_count": self.root_count,
            "root_location": self.root_location,
            "closed_form_max_err": self.closed_form_max_err,
        }


def continuum_edge(p: cf.BreatherParams) -> float:
    """Bottom of the essential spectrum: min over real k of the symbol
    k^4 + 2(beta^2-alpha^2)k^2 + (alpha^2+beta^2)^2.

    The interior minimum 4 alpha^2 beta^2 applies when the symbol has one
    (beta < alpha); otherwise the minimum sits at k=0. The two branches
    coincide at alpha = beta.
    """
    a2, b2 = p.alpha**2, p.beta**2
    if p.beta >= p.alpha:
        return (a2 + b2) ** 2
    return 4.0 * a2 * b2


def _derivative_matrices(grid: PeriodicGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fourier differentiation matrices D1, D2, D4 (multiplier on identity)."""
    return tuple(spectral_derivatives(np.eye(grid.n_points), grid, (1, 2, 4), axis=0))


def assemble(p: cf.BreatherParams, grid: PeriodicGrid, t: float = 0.0) -> DiscreteOperator:
    """Assemble the symmetric matrix of the linearized operator.

    matrix = D4 - 2(beta^2-alpha^2) D2 + (alpha^2+beta^2)^2 I
             + D1 diag(5 B^2) D1 + diag(potential)

    The advection pair enters in divergence form, so the matrix is symmetric
    by construction (D1 is antisymmetric); it is symmetrized once more to
    shave roundoff. Requires the grid to resolve the breather (boundary
    samples below 1e-10) and self-checks against apply_operator on a random
    field before returning.
    """
    b, bx, bxx = coefficient_fields(p, grid, t)
    if max(abs(b[0]), abs(b[-1])) >= _BOUNDARY_TOL:
        raise ValueError(
            f"grid does not resolve the breather: boundary value "
            f"{max(abs(b[0]), abs(b[-1])):.3e} >= {_BOUNDARY_TOL:g}"
        )
    mat = _assemble_from_coefficients(p, grid, b, bx, bxx)
    op = DiscreteOperator(grid, mat, p, t)

    rng = np.random.default_rng(_CONSISTENCY_SEED)
    z = GridField(grid, rng.standard_normal(grid.n_points), time_tag=t)
    direct = apply_operator(z, p, t).values
    via_matrix = op.matrix @ z.values
    rel = np.linalg.norm(via_matrix - direct) / np.linalg.norm(direct)
    if rel > _CONSISTENCY_TOL:
        raise AssemblyError(
            f"matrix application disagrees with operator action: rel err {rel:.3e}"
        )
    return op


def assemble_flat(p: cf.BreatherParams, grid: PeriodicGrid, t: float = 0.0) -> DiscreteOperator:
    """Constant-coefficient part of the operator (breather terms switched off).

    Its spectrum is exactly the symbol evaluated on the grid modes; useful for
    locating the continuum edge and as a discretization sanity check.
    """
    zeros = np.zeros(grid.n_points)
    mat = _assemble_from_coefficients(p, grid, zeros, zeros, zeros)
    return DiscreteOperator(grid, mat, p, t)


def _assemble_from_coefficients(p: cf.BreatherParams, grid: PeriodicGrid, b: np.ndarray,
                                bx: np.ndarray, bxx: np.ndarray) -> np.ndarray:
    a2, b2 = p.alpha**2, p.beta**2
    d1, d2, d4 = _derivative_matrices(grid)
    pot = potential(p, b, bx, bxx)
    mat = d4 - 2.0 * (b2 - a2) * d2 + (d1 * (5.0 * b**2)[None, :]) @ d1
    mat[np.diag_indices_from(mat)] += (a2 + b2) ** 2 + pot
    return 0.5 * (mat + mat.T)


def _gram_matrix(grid: PeriodicGrid) -> np.ndarray:
    """Discrete H^2 Gram: I + D1^T D1 + D2^T D2 = I - D2 + D4 (exact algebra)."""
    d2, d4 = spectral_derivatives(np.eye(grid.n_points), grid, (2, 4), axis=0)
    g = d4 - d2
    g[np.diag_indices_from(g)] += 1.0
    return 0.5 * (g + g.T)


def eigensystem(op: DiscreteOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition; eigenvectors are L2-normalized."""
    evals, evecs = scipy.linalg.eigh(op.matrix)
    return evals, evecs / math.sqrt(op.grid.spacing)


def _classify(evals: np.ndarray, edge: float) -> tuple[int, np.ndarray]:
    """Return (negative_count, kernel indices); raise if the split is wrong."""
    eps_ker = 1e-3 * edge
    eps_neg = eps_ker
    eps_edge = 0.05 * edge
    neg = np.nonzero(evals < -eps_neg)[0]
    ker = np.nonzero((evals > -eps_ker) & (evals < eps_ker))[0]
    rest = np.setdiff1d(np.arange(evals.size), np.concatenate([neg, ker]))
    if neg.size != 1:
        raise ClassificationError(
            f"expected exactly 1 eigenvalue below {-eps_neg:.3e}, found {neg.size}",
            evals[neg] if neg.size else evals[:3],
        )
    if ker.size != 2:
        raise ClassificationError(
            f"expected exactly 2 near-zero eigenvalues within {eps_ker:.3e}, "
            f"found {ker.size}",
            evals[ker] if ker.size else evals[:4],
        )
    low_rest = evals[rest] <= edge - eps_edge
    if np.any(low_rest):
        raise ClassificationError(
            f"eigenvalues between kernel window and continuum edge {edge:.6g}",
            evals[rest][low_rest],
        )
    return int(neg.size), ker


def spectrum(op: DiscreteOperator) -> SpectrumReport:
    """Eigendecompose, classify, and attach coercivity constants."""
    evals, evecs = eigensystem(op)
    edge = continuum_edge(op.params)
    _, ker_idx = _classify(evals, edge)
    jet = cf.breather_jet(op.params, op.time_tag, op.grid.nodes)
    kernel_span = np.column_stack([jet.dx1, jet.dx2])
    angles = scipy.linalg.subspace_angles(evecs[:, ker_idx], kernel_span)
    nu0, mu0 = _coercivity_from_parts(op, evecs[:, 0], kernel_span, jet.b)
    return SpectrumReport(
        eigenvalues=evals,
        negative_count=1,
        lambda0_sq=float(-evals[0]),
        kernel_defect=(float(evals[ker_idx[0]]), float(evals[ker_idx[1]])),
        kernel_angle=float(np.max(angles)),
        continuum_edge=edge,
        nu0_estimate=nu0,
        mu0_estimate=mu0,
    )


def negative_eigenvector(op: DiscreteOperator) -> GridField:
    """L2-normalized eigenvector of the unique negative eigenvalue."""
    evals, evecs = eigensystem(op)
    edge = continuum_edge(op.params)
    _classify(evals, edge)
    return GridField(op.grid, evecs[:, 0], time_tag=op.time_tag)


def _coercivity_from_parts(op: DiscreteOperator, b_neg: np.ndarray, kernel_span: np.ndarray,
                           b: np.ndarray) -> tuple[float, float]:
    """(nu0, mu0) from one pencil on the L2-complement of B1, B2.

    b_neg is the negative eigenvector, kernel_span holds B1, B2, b is B. The
    pencil (L, G), G the H^2 Gram matrix, is diagonalized once on the
    complement: W^T L W = diag(lam), W^T G W = I, and congruence keeps
    inertia. Each constant is then the single root of an increasing secular
    function (Golub, SIAM Rev. 15, 1973; Bunch, Nielsen and Sorensen, Numer.
    Math. 31, 1978), or lam_1 itself when the lam_1 coefficient vanishes.

    nu0, the minimum of Q[z]/||z||_H2^2 with z also L2-orthogonal to b_neg,
    is that of diag(lam) on the hyperplane orthogonal to d = W^T b_neg: the
    root in (lam_0, lam_1) of psi(nu) = sum_i d_i^2 / (lam_i - nu).

    mu0 is 0.99 mu*, mu* the largest mu with Q[z] - mu ||z||_H2^2
    + (1/mu)(int z B)^2 >= 0 for every grid field z orthogonal to B1, B2.
    For mu in (0, lam_1) only one entry of diag(lam) - mu I is negative and
    the rank-one term (h/mu) c c^T, c = W^T b, can only lift that one, so the
    form is semidefinite exactly when phi(mu) = mu + h sum_i c_i^2 /
    (lam_i - mu) <= 0: mu* is the root in (0, lam_1). One eigensolve at mu0
    certifies the form for arbitrary fields, not just sampled ones.
    """
    h = op.grid.spacing
    gram = _gram_matrix(op.grid)
    z2 = scipy.linalg.null_space(kernel_span.T)
    lred = z2.T @ op.matrix @ z2
    gred = z2.T @ gram @ z2
    bred = z2.T @ b
    neg_red = z2.T @ b_neg
    del z2, gram

    lam, w = scipy.linalg.eigh(lred, gred)
    c2 = h * (w.T @ bred) ** 2
    d2 = (w.T @ neg_red) ** 2
    del w
    if not lam[0] < 0.0 < lam[1]:
        raise ClassificationError(
            "constrained pencil does not show exactly one negative eigenvalue", lam[:3])

    def phi(mu: float) -> float:
        return mu + float(np.sum(c2 / (lam - mu)))

    def psi(nu: float) -> float:
        return float(np.sum(d2 / (lam - nu)))

    if phi(0.0) >= 0.0:
        raise ClassificationError(
            "compensated quadratic form is not positive even for tiny mu",
            np.array([phi(0.0)]),
        )
    # if c_1 = 0 (d_1 = 0), phi (psi) stays finite up to lam_1: take lam_1
    hi = lam[1] * (1.0 - 1e-12)
    mu_star = brentq(phi, 0.0, hi) if phi(hi) > 0.0 else hi
    mu0 = 0.99 * mu_star

    lo = lam[0] * (1.0 - 1e-12)
    if not psi(lo) < 0.0:
        raise ClassificationError("negative eigenvector misses the constrained "
                                  "pencil's negative direction", np.array([psi(lo)]))
    nu0 = brentq(psi, lo, hi) if psi(hi) > 0.0 else hi

    m = lred - mu0 * gred + (h / mu0) * np.outer(bred, bred)
    certificate = scipy.linalg.eigh(0.5 * (m + m.T), eigvals_only=True,
                                    subset_by_index=(0, 0))
    if certificate[0] < 0.0:
        raise ClassificationError(
            f"compensated quadratic form is not positive at mu0 = {mu0:.6g}", certificate)
    return float(nu0), float(mu0)


@dataclass(frozen=True)
class Classification:
    negative_count: int
    lambda0_sq: float


def classify(op: DiscreteOperator) -> Classification:
    """Eigenvalues only (no vectors, no coercivity), classified; raises
    ClassificationError when the negative/kernel/continuum split is wrong."""
    evals = scipy.linalg.eigh(op.matrix, eigvals_only=True)
    negative_count, _ = _classify(evals, continuum_edge(op.params))
    return Classification(negative_count, float(-evals[0]))


def root_function(p: cf.BreatherParams, t: float, y2):
    """Monotone function whose single sign change locates det W = 0.

    f(y2) = alpha sinh(2 beta y2) - beta sin(2 alpha y1(y2)), with
    y1 = y2 + (delta-gamma) t + x1 - x2. f' = 2 alpha beta (cosh - cos) >= 0.
    """
    a, b = p.alpha, p.beta
    phase = (p.delta - p.gamma) * t + p.x1 - p.x2
    y2 = np.asarray(y2, dtype=float)
    return a * np.sinh(2.0 * b * y2) - b * np.sin(2.0 * a * (y2 + phase))


def default_scan_range(p: cf.BreatherParams) -> tuple[float, float]:
    """y2 interval certain to contain the root: |sinh(2 beta y2)| > beta/alpha
    excludes roots outside, plus a unit margin."""
    r = math.asinh(p.beta / p.alpha) / (2.0 * p.beta) + 1.0
    return (-r, r)


def wronskian_analysis(p: cf.BreatherParams, t: float,
                       x_range: tuple[float, float] | None = None,
                       n_samples: int = 2048) -> WronskianReport:
    """Count sign changes of the root function and validate the closed form.

    The closed-form determinant is compared against spectral x-derivatives of
    the sampled kernel directions on a grid wide enough for the tails, by the
    functionals.wronskian_residual check the verify suite also runs; the
    root scan runs on [x_range] (default: the certified bracket).
    """
    if x_range is None:
        x_range = default_scan_range(p)
    ys = np.linspace(x_range[0], x_range[1], n_samples)
    vals = root_function(p, t, ys)
    signs = np.sign(vals)
    nonzero = signs[signs != 0.0]
    changes = int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))
    root_count = changes if changes else int(np.any(signs == 0.0))

    if changes:
        flips = np.nonzero(np.diff(np.sign(vals)))[0]
        lo, hi = ys[flips[0]], ys[flips[0] + 1]
        location = float(brentq(lambda y: float(root_function(p, t, y)), lo, hi))
    elif root_count:
        location = float(ys[np.nonzero(signs == 0.0)[0][0]])
    else:
        location = math.nan

    grid = PeriodicGrid(residual_half_length(p.beta), 2048)
    res, scale = wronskian_residual(p, cf.breather_jet(p, t, grid.nodes), grid, t)
    return WronskianReport(root_count=root_count, root_location=location,
                           closed_form_max_err=res / scale)
