"""Dense spectral analysis of the linearized operator.

The operator is discretized as a real symmetric N x N matrix built from
Fourier differentiation matrices. Its four lowest eigenvalues, the fourth
bounding all above it, classify it into the unique negative eigenvalue, the
two-dimensional kernel, and the rest sitting above the continuum edge.
spectrum is the one path to that split: it solves the four lowest pairs of
the operator, classifies each phase-sweep sample from its four lowest
eigenvalues alone, and solves the full eigenvalue list only for its report.
One build of the grid's differentiation matrices serves the operator and
every sample, and the first sample is the operator itself, solved once.
Both coercivity constants are roots of scalar secular equations on one
pencil constrained to the complement of the kernel directions B1, B2, whose
basis two Householder reflectors give: nu0 a Rayleigh minimum, mu0 0.99
times the exact positive-semidefiniteness threshold of the compensated form,
certified by a Cholesky factorization, so the advertised quadratic-form
inequalities hold for every grid field by construction.

The Wronskian of the two kernel directions has a closed form whose sign
structure counts the negative eigenvalues; wronskian_analysis cross-checks
the closed form against spectral derivatives and locates the single root of
the monotone root function.

Every scalar root (mu*, nu0, the Wronskian root) is that of an increasing
function with a sign change, and _bisect finds it by bisection to adjacent
floats: it returns a zero of f, or the float at which f turns positive, with
no tolerance and no iteration cap. The package thus uses scipy.linalg only:
importing scipy.optimize added 0.2-0.3 s and 20 MB to the start of every
command, on a 2-core x86-64 machine, also to those that never solve for a
root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import _ONE_BLAS_THREAD
from . import closed_forms as cf
from .config import DENSE_BUDGET_BYTES, SPECTRUM_DENSE_ARRAYS
from .functionals import apply_operator, coefficient_fields, potential, wronskian_residual
from .grid import (GridField, PeriodicGrid, ScientificError, _forked_map, _read_only,
                   residual_grid, spectral_derivatives)

_CONSISTENCY_SEED = 1729
_CONSISTENCY_TOL = 1e-8
_BOUNDARY_TOL = 1e-10
_ROOT_SCAN_SAMPLES = 2048
# classification reads the lowest eigenvalues only: the negative one, the
# kernel pair and the lowest of the rest, which bounds all others from below
_CLASSIFY_COUNT = 4
# A phase-sweep worker inherits the BLAS that numpy and scipy loaded, with
# its thread count, and cannot lower it: with numpy's BLAS threads unset, the
# parent and 2 workers on 2 cores made the pooled sweep slower than the
# sequential one. So the sweep pools only under _ONE_BLAS_THREAD, which the
# package records as it pins one thread (breatherlab/__init__.py).
# Each phase-sweep worker holds about this many dense N x N arrays of its
# own while it assembles and solves a sample (traced in the workers: 3.0 N^2
# doubles at N=512 and N=1024), and the workers together keep the 3
# differentiation matrices alive after the calling process drops them.
_SAMPLE_DENSE_ARRAYS = 3


class AssemblyError(ScientificError):
    """Assembled matrix disagrees with the direct operator action."""


class ClassificationError(ScientificError):
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
    """kernel_defect and kernel_angle are bound-only. kernel_defect, the two
    kernel eigenvalues, lies below the eigensolver's roundoff floor, about
    eps * max|lambda| (1e-10 at N=512), and only the bound |lambda| <= 1e-3
    * continuum_edge that classification enforces is meaningful.
    kernel_angle, the largest angle between the kernel eigenvectors and B1,
    B2, is about 4e-11 at N=1024 and moves by 1.5e-6 relative with the
    solver's call shape; only its magnitude is meaningful. negative_count
    is 1 by construction: any other count raises ClassificationError before
    a report exists."""

    eigenvalues: np.ndarray
    negative_count: int
    lambda0_sq: float
    kernel_defect: tuple[float, float]
    kernel_angle: float
    continuum_edge: float
    nu0_estimate: float
    mu0_estimate: float


@dataclass(frozen=True)
class WronskianReport:
    root_count: int
    root_location: float
    closed_form_max_err: float


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
    """Read-only Fourier differentiation matrices D1, D2, D4 (multipliers on the identity).

    The identity is symmetric, so differentiating its rows along the
    contiguous axis and transposing gives bitwise the matrix that the slower
    strided transforms of its columns would.
    """
    rows = spectral_derivatives(np.eye(grid.n_points), grid, (1, 2, 4))
    return tuple(_read_only(np.ascontiguousarray(m.T)) for m in rows)


def assemble(p: cf.BreatherParams, grid: PeriodicGrid, t: float = 0.0, *,
             matrices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
             ) -> DiscreteOperator:
    """Assemble the symmetric matrix of the linearized operator.

    matrix = D4 - 2(beta^2-alpha^2) D2 + (alpha^2+beta^2)^2 I
             + D1 diag(5 B^2) D1 + diag(potential)

    The advection pair enters in divergence form, so the matrix is symmetric
    by construction (D1 is antisymmetric); it is symmetrized once more to
    shave roundoff. Requires the grid to resolve the breather (boundary
    samples below 1e-10) and self-checks against apply_operator on a random
    field before returning. matrices, the grid's (D1, D2, D4) from
    _derivative_matrices, saves building them again.
    """
    b, bx, bxx = coefficient_fields(p, grid, t)
    if max(abs(b[0]), abs(b[-1])) >= _BOUNDARY_TOL:
        raise ValueError(
            f"grid does not resolve the breather: boundary value "
            f"{max(abs(b[0]), abs(b[-1])):.3e} >= {_BOUNDARY_TOL:g}"
        )
    mat = _assemble_from_coefficients(p, b, bx, bxx, matrices or _derivative_matrices(grid))
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


def _assemble_from_coefficients(p: cf.BreatherParams, b: np.ndarray, bx: np.ndarray,
                                bxx: np.ndarray, matrices: tuple[np.ndarray, ...]) -> np.ndarray:
    a2, b2 = p.alpha**2, p.beta**2
    d1, d2, d4 = matrices
    pot = potential(p, b, bx, bxx)
    mat = d4 - 2.0 * (b2 - a2) * d2 + (d1 * (5.0 * b**2)[None, :]) @ d1
    mat[np.diag_indices_from(mat)] += (a2 + b2) ** 2 + pot
    return 0.5 * (mat + mat.T)


def _gram_matrix(d2: np.ndarray, d4: np.ndarray) -> np.ndarray:
    """Discrete H^2 Gram from the grid's D2 and D4 of _derivative_matrices:
    I + D1^T D1 + D2^T D2 = I - D2 + D4 (exact algebra)."""
    g = d4 - d2
    g[np.diag_indices_from(g)] += 1.0
    return 0.5 * (g + g.T)


def eigensystem(op: DiscreteOperator) -> tuple[np.ndarray, np.ndarray]:
    """The four lowest eigenpairs, ascending; eigenvectors are L2-normalized.

    A spectrum that classifies has exactly one negative and two kernel
    eigenvalues, so the three lowest pairs are its negative and kernel
    directions and the fourth eigenvalue bounds the rest. The eigenvalues are
    bitwise those of the same subset solved without vectors (values
    independent of the vectors; other subset shapes differ in the last bits).
    """
    evals, evecs = scipy.linalg.eigh(op.matrix, subset_by_index=(0, _CLASSIFY_COUNT - 1))
    return evals, evecs / math.sqrt(op.grid.spacing)


def _classify(evals: np.ndarray, edge: float) -> np.ndarray:
    """Return the kernel indices; raise unless exactly one eigenvalue is
    negative, two sit in the kernel window and none lies below the edge.

    evals are the lowest eigenvalues, ascending: the whole spectrum or its
    first _CLASSIFY_COUNT, which decide the same outcome. A count that runs
    to the last given value is reported as a lower bound.
    """
    eps_ker = 1e-3 * edge
    eps_neg = eps_ker
    eps_edge = 0.05 * edge
    neg = np.nonzero(evals < -eps_neg)[0]
    ker = np.nonzero((evals > -eps_ker) & (evals < eps_ker))[0]
    rest = np.setdiff1d(np.arange(evals.size), np.concatenate([neg, ker]))

    def found(idx: np.ndarray) -> str:
        capped = idx.size and idx[-1] == evals.size - 1
        return f"found at least {idx.size}" if capped else f"found {idx.size}"

    if neg.size != 1:
        raise ClassificationError(
            f"expected exactly 1 eigenvalue below {-eps_neg:.3e}, {found(neg)}",
            evals[neg] if neg.size else evals[:3],
        )
    if ker.size != 2:
        raise ClassificationError(
            f"expected exactly 2 near-zero eigenvalues within {eps_ker:.3e}, {found(ker)}",
            evals[ker] if ker.size else evals[:4],
        )
    low_rest = evals[rest] <= edge - eps_edge
    if np.any(low_rest):
        raise ClassificationError(
            f"eigenvalues between kernel window and continuum edge {edge:.6g}",
            evals[rest][low_rest],
        )
    return ker


def spectrum(p: cf.BreatherParams, grid: PeriodicGrid, t: float = 0.0,
             shifts: list[float] | tuple[float, ...] = ()) -> tuple[SpectrumReport, list[float]]:
    """The spectrum report of assemble(p, grid, t), and lambda0^2 of each
    phase-sweep sample: the operator with x1 = shift, for shifts empty or
    starting at p.x1.

    One build of the differentiation matrices serves every operator and the
    pencil's Gram matrix. The operator's four lowest eigenpairs are
    classified before any sample is assembled, and they are the first
    sample. Every other sample runs the assembly's boundary check and
    self-check and is classified from its four lowest eigenvalues, without
    vectors; grid._forked_map runs them in forked workers while the kernel
    comparison, the coercivity constants and the full eigenvalue list are
    computed here, or here before those on one core, when BLAS may run more
    than one thread, or when the dense budget has no room for two workers
    (_sweep_workers). The matrices are dropped before the pencil, so its
    arrays never sit beside them; a failing sample's error wins over the
    pencil's.
    """
    if shifts and shifts[0] != p.x1:
        raise ValueError(f"a phase sweep starts at x1 = {p.x1!r}, not at {shifts[0]!r}")
    edge = continuum_edge(p)
    matrices = _derivative_matrices(grid)
    op = assemble(p, grid, t, matrices=matrices)
    evals, evecs = eigensystem(op)
    ker_idx = _classify(evals, edge)

    def sample(x1: float) -> float:
        lowest = scipy.linalg.eigh(assemble(replace(p, x1=x1), grid, t, matrices=matrices).matrix,
                                   eigvals_only=True, subset_by_index=(0, _CLASSIFY_COUNT - 1))
        _classify(lowest, edge)
        return float(-lowest[0])

    with _forked_map(sample, shifts[1:], _sweep_workers(grid.n_points)) as collect:
        # forked workers keep their own copies; dropping D1 before the Gram
        # matrix is built measured 2 MB less peak RSS at N=512
        d2, d4 = matrices[1:]
        del matrices
        gram = _gram_matrix(d2, d4)
        del d2, d4
        jet = cf.breather_jet(p, t, grid.nodes)
        kernel_span = np.column_stack([jet.dx1, jet.dx2])
        angles = scipy.linalg.subspace_angles(evecs[:, ker_idx], kernel_span)
        nu0, mu0 = _coercivity_from_parts(op, gram, evecs[:, 0], kernel_span, jet.b)
        eigenvalues = scipy.linalg.eigh(op.matrix, eigvals_only=True)
        sweep = [float(-evals[0]), *collect()] if shifts else []
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=1,
        lambda0_sq=float(-evals[0]),
        kernel_defect=(float(evals[ker_idx[0]]), float(evals[ker_idx[1]])),
        kernel_angle=float(np.max(angles)),
        continuum_edge=edge,
        nu0_estimate=nu0,
        mu0_estimate=mu0,
    ), sweep


def _sweep_workers(n_points: int) -> int:
    """The most forked workers a phase sweep on n_points may run: one (none
    forked) unless BLAS runs one thread, else as many as the dense budget has
    room for beside the calling process's SPECTRUM_DENSE_ARRAYS and the
    differentiation matrices the workers keep alive. At the largest admitted
    N, 4096, that leaves room for one."""
    if not _ONE_BLAS_THREAD:
        return 1
    room = DENSE_BUDGET_BYTES // (8 * n_points**2) - SPECTRUM_DENSE_ARRAYS - 3
    return room // _SAMPLE_DENSE_ARRAYS


def _coercivity_from_parts(op: DiscreteOperator, gram: np.ndarray, b_neg: np.ndarray,
                           kernel_span: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(nu0, mu0) from one pencil on the L2-complement of B1, B2.

    gram is the H^2 Gram matrix of _gram_matrix, reduced in place, b_neg the
    negative eigenvector, kernel_span holds B1, B2, b is B. The pencil
    (L, G), G = gram, is diagonalized once on the
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
    (lam_i - mu) <= 0: mu* is the root in (0, lam_1). A Cholesky
    factorization at mu0 certifies the form for arbitrary fields, not just
    sampled ones.

    The complement's basis is the last N-2 columns of Q = H_1 H_2, the two
    Householder reflectors of the QR factorization of [B1 B2], so both
    matrices of the pencil come from O(N^2) rank-two updates.
    """
    h = op.grid.spacing
    reflectors = _complement_reflectors(kernel_span)
    lred = _reflect_both_sides(op.matrix.copy(), reflectors)[2:, 2:]
    gred = _reflect_both_sides(gram, reflectors)[2:, 2:]
    bred = _reflect(b, reflectors)[2:]
    neg_red = _reflect(b_neg, reflectors)[2:]

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
    mu_star = _bisect(phi, 0.0, hi) if phi(hi) > 0.0 else hi
    mu0 = 0.99 * mu_star

    lo = lam[0] * (1.0 - 1e-12)
    if not psi(lo) < 0.0:
        raise ClassificationError("negative eigenvector misses the constrained "
                                  "pencil's negative direction", np.array([psi(lo)]))
    nu0 = _bisect(psi, lo, hi) if psi(hi) > 0.0 else hi

    m = lred - mu0 * gred + (h / mu0) * np.outer(bred, bred)
    _certify_positive(0.5 * (m + m.T), f"compensated quadratic form is not positive at "
                                       f"mu0 = {mu0:.6g}")
    return float(nu0), float(mu0)


def _certify_positive(m: np.ndarray, message: str) -> None:
    """Raise ClassificationError(message) unless the symmetric m is positive
    definite. The Cholesky factorization exists exactly then (Golub and Van
    Loan, Matrix Computations, 4th ed., 4.2); only when it breaks down is the
    smallest eigenvalue solved for, for the error to carry."""
    try:
        scipy.linalg.cholesky(m, check_finite=False)
    except np.linalg.LinAlgError:
        smallest = scipy.linalg.eigh(m, eigvals_only=True, subset_by_index=(0, 0))
        raise ClassificationError(message, smallest) from None


def _complement_reflectors(kernel_span: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Householder pairs (v_j, tau_j), H_j = I - tau_j v_j v_j^T, with
    H_2 H_1 kernel_span = [R; 0] (Golub and Van Loan, Matrix Computations,
    4th ed., 5.1-5.2). The rows 2: of H_2 H_1 are thus an orthonormal basis
    of the L2-complement of the columns of kernel_span."""
    (packed, taus), _ = scipy.linalg.qr(kernel_span, mode="raw")
    vs = np.tril(packed, -1).T.copy()  # v_j below the diagonal, v_j[j] = 1
    np.fill_diagonal(vs, 1.0)
    return list(zip(vs, taus))


def _reflect(x: np.ndarray, reflectors: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """H_2 H_1 x for a vector, or for each column of a matrix."""
    for v, tau in reflectors:
        x = x - np.multiply.outer(v, tau * (v @ x))
    return x


def _reflect_both_sides(a: np.ndarray, reflectors: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Overwrite the symmetric a with H_2 H_1 a H_1 H_2 and return it, one
    symmetric rank-two update per reflector: H a H = a - (v p^T + p v^T),
    w = tau a v, p = w - (tau/2)(v^T w) v. The update is summed before it is
    subtracted, so an exactly symmetric a stays exactly symmetric."""
    for v, tau in reflectors:
        w = tau * (a @ v)
        p = w - (0.5 * tau * (v @ w)) * v
        a -= np.outer(v, p) + np.outer(p, v)
    return a


def _bisect(f, a: float, b: float) -> float:
    """Root of the increasing f in [a, b], exact to adjacent floats.

    An endpoint where f is zero is returned as is. Otherwise [a, b] is halved
    until f is zero at a midpoint, which is returned, or until a and b are
    adjacent floats with f(a) < 0 < f(b), and b is returned. Raises ValueError
    unless f(a) < 0 < f(b), or when f returns NaN.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    a, b = float(a), float(b)
    fa, fb = value(a), value(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not fa < 0.0 < fb:
        raise ValueError(f"f(a) = {fa} and f(b) = {fb} do not bracket an increasing root")
    while (mid := 0.5 * (a + b)) not in (a, b):
        fm = value(mid)
        if fm == 0.0:
            return mid
        a, b = (mid, b) if fm < 0.0 else (a, mid)
    return b


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


def wronskian_analysis(p: cf.BreatherParams, t: float) -> WronskianReport:
    """Count sign changes of the root function and validate the closed form.

    The closed-form determinant is compared against spectral x-derivatives of
    the sampled kernel directions on a grid wide enough for the tails, by the
    functionals.wronskian_residual check the verify suite also runs; the
    root scan samples the certified bracket of default_scan_range.
    """
    lo, hi = default_scan_range(p)
    ys = np.linspace(lo, hi, _ROOT_SCAN_SAMPLES)
    vals = root_function(p, t, ys)
    signs = np.sign(vals)
    nonzero = signs[signs != 0.0]
    changes = int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))
    root_count = changes if changes else int(np.any(signs == 0.0))

    if changes:
        flips = np.nonzero(np.diff(np.sign(vals)))[0]
        lo, hi = ys[flips[0]], ys[flips[0] + 1]
        location = _bisect(lambda y: root_function(p, t, y), lo, hi)
    elif root_count:
        location = float(ys[np.nonzero(signs == 0.0)[0][0]])
    else:
        location = math.nan

    grid = residual_grid(p.beta)
    res, scale = wronskian_residual(p, cf.breather_jet(p, t, grid.nodes), grid, t)
    return WronskianReport(root_count=root_count, root_location=location,
                           closed_form_max_err=res / scale)
