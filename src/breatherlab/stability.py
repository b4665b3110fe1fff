"""Modulation decomposition and the orbital-stability experiment.

A perturbed breather field is decomposed as u = B(t; x1, x2) + z where the
two shifts are fitted so that z is L2-orthogonal to both translation
directions of B.  The experiment evolves B + eta*P in the breather's
co-moving frame, refits the shifts at every monitor time, and reports the
observed perturbation growth and shift drift; the same pass audits the
energy-functional expansion that controls that growth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import closed_forms as cf
from . import evolution as ev
from . import functionals as fn
from . import grid as gr

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50
_STALL_STEP = 1e-14
# a stalled Newton fit is accepted only at residuals this small
_STALL_RESIDUAL = 1e-8
# ||z||_H2 at or above this fraction of ||B||_H2 is outside the modulation
# regime: z is not a small perturbation of the fitted breather
_MAX_Z_FRACTION = 0.5


class ModulationError(gr.ScientificError):
    """Shift fit failed; carries the final orthogonality residuals."""

    def __init__(self, message: str, residuals: tuple[float, float]):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class ModulationState:
    """Fitted shifts, the breather jet at them and the orthogonal remainder
    z = u - B(t; x1, x2) with its first two spectral derivatives."""

    x1: float
    x2: float
    jet: cf.BreatherJet
    z: gr.GridField
    z_x: np.ndarray
    z_xx: np.ndarray
    z_h2: float
    ortho_residuals: tuple[float, float]
    sign_branch: int

    @property
    def b(self) -> gr.GridField:
        return gr.GridField(self.z.grid, self.jet.b)


@dataclass(frozen=True)
class LyapunovAudit:
    """Per-checkpoint decomposition H[u] = H[B] + Q[z]/2 + N[z], its miss
    relative to |H[u]| (closure_rel) and the mass pairing |integral z B|."""

    h_u: np.ndarray
    h_b: np.ndarray
    q_z: np.ndarray
    n_z: np.ndarray
    closure_rel: np.ndarray
    mass_pairing: np.ndarray
    q_growth_constant: float
    pairing_constant: float


@dataclass(frozen=True)
class StabilityRunReport:
    """History of one perturbed run.

    x1_series and x2_series are lab-frame shifts (fitted frame shifts minus
    frame_speed*t); audit is the Lyapunov decomposition at the same times.
    failure_time is set when modulation stopped converging and the series
    are truncated; shift_rate_sup is None below three fitted checkpoints.
    """

    eta: float
    sup_z_h2: float
    a0_observed: float
    shift_rate_sup: float | None
    times: np.ndarray
    z_h2_series: np.ndarray
    x1_series: np.ndarray
    x2_series: np.ndarray
    sign_branches: np.ndarray
    ortho_max: float
    frame_speed: float
    audit: LyapunovAudit
    failure_time: float | None = None


def _shift_fit_parts(u_vals: np.ndarray, p: cf.BreatherParams, t: float, x: np.ndarray, h: float):
    jet = cf.breather_jet(p, t, x)
    b1, b2 = jet.dx1, jet.dx2
    z = u_vals - jet.b
    r1 = h * float(z @ b1)
    r2 = h * float(z @ b2)
    gram = h * np.array([[b1 @ b1, b1 @ b2], [b1 @ b2, b2 @ b2]])
    return jet, r1, r2, gram


def modulate(u: gr.GridField, p_guess: cf.BreatherParams, t: float) -> ModulationState:
    """Fit (x1, x2) so that u - B(t; x1, x2) is orthogonal to B1 and B2.

    Newton iteration on the two orthogonality integrals with the Gram matrix
    of (B1, B2) as Jacobian; a stalled iteration counts as converged only at
    residuals below _STALL_RESIDUAL.  The half-period sign ambiguity is
    resolved afterwards: B(t; x1 + pi/alpha, x2) = -B, so the flip wins when
    ||u + B|| < ||u - B||.  The jet at the fitted shifts is the one of the
    last Newton evaluation, which ran at exactly those shifts, or of one
    more evaluation at the flipped shift.  Raises ModulationError when the
    fit fails or when ||z||_H2 is not small against ||B||_H2.
    """
    grid = u.grid
    nodes, h = grid.nodes, grid.spacing
    x1, x2 = p_guess.x1, p_guess.x2
    r1 = r2 = np.inf
    converged = False
    step = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        p_cur = replace(p_guess, x1=x1, x2=x2)
        jet, r1, r2, gram = _shift_fit_parts(u.values, p_cur, t, nodes, h)
        stalled = step < _STALL_STEP
        if max(abs(r1), abs(r2)) <= (_STALL_RESIDUAL if stalled else _NEWTON_TOL):
            converged = True
            break
        if stalled:
            raise ModulationError(
                f"Newton stalled at residuals ({r1:.3e}, {r2:.3e})", residuals=(r1, r2)
            )
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
        if abs(det) < 1e-10 * gram[0, 0] * gram[1, 1]:
            raise ModulationError("singular shift-fit Jacobian", residuals=(r1, r2))
        # the fit map is r(x) = integral (u - B) B_j, whose leading Jacobian
        # is minus the Gram matrix, so the Newton update is +G^{-1} r
        d1 = (gram[1, 1] * r1 - gram[0, 1] * r2) / det
        d2 = (gram[0, 0] * r2 - gram[0, 1] * r1) / det
        x1 += d1
        x2 += d2
        step = abs(d1) + abs(d2)
    if not converged:
        raise ModulationError(
            f"no convergence in {_NEWTON_MAX_ITER} iterations", residuals=(r1, r2)
        )

    sign_branch = int(np.linalg.norm(u.values + jet.b) < np.linalg.norm(u.values - jet.b))
    if sign_branch:
        x1 += np.pi / p_guess.alpha
        jet, r1, r2, _ = _shift_fit_parts(u.values, replace(p_cur, x1=x1), t, nodes, h)
    z = gr.GridField(grid, u.values - jet.b)
    z_x, z_xx = gr.spectral_derivatives(z.values, grid, (1, 2))
    z_h2 = gr.sobolev_from_derivatives(z.values, (z_x, z_xx), grid)
    b_h2 = gr.sobolev_from_derivatives(jet.b, (jet.b_x, jet.b_xx), grid)
    if not z_h2 < _MAX_Z_FRACTION * b_h2:
        raise ModulationError(
            f"fit outside the modulation regime: ||z||_H2 = {z_h2:.3e} against "
            f"||B||_H2 = {b_h2:.3e}",
            residuals=(r1, r2),
        )
    return ModulationState(
        x1=x1,
        x2=x2,
        jet=jet,
        z=z,
        z_x=z_x,
        z_xx=z_xx,
        z_h2=z_h2,
        ortho_residuals=(r1, r2),
        sign_branch=sign_branch,
    )


def band_limited_values(grid: gr.PeriodicGrid, seed: int) -> np.ndarray:
    """Seeded random field with Fourier content on wavenumbers 0.2 <= k <= 2.5."""
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.wavenumbers.shape[0], dtype=complex)
    band = (grid.wavenumbers >= 0.2) & (grid.wavenumbers <= 2.5)
    count = int(np.sum(band))
    coeff[band] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return np.fft.irfft(coeff, n=grid.n_points)


def perturbation(grid: gr.PeriodicGrid, name: str, seed: int) -> gr.GridField:
    """Unit-H^2 perturbation by name: sech (even, localized), sech_cos
    (oscillatory) or random_band (generic, drawn from seed)."""
    x = grid.nodes
    shapes = {
        "sech": lambda: 1.0 / np.cosh(x),
        "sech_cos": lambda: np.cos(3.0 * x) / np.cosh(x),
        "random_band": lambda: band_limited_values(grid, seed),
    }
    vals = shapes[name]()
    field = gr.GridField(grid, vals)
    return field.with_values(vals / gr.h2_norm(field))


def default_stability_config(p: cf.BreatherParams, dt: float, t_end: float,
                             monitor_stride: int) -> ev.IntegratorConfig:
    """The stability run's integrator at the caller's dt, t_end and stride:
    the breather's co-moving frame (-gamma) and a boundary guard at 5/beta.
    This is the one place the stability command's frame and guard are set."""
    return ev.IntegratorConfig(dt=dt, t_end=t_end, frame_speed=-p.gamma,
                               monitor_stride=monitor_stride, boundary_margin=5.0 / p.beta)


def stability_experiment(
    p: cf.BreatherParams,
    perturbation: gr.GridField,
    eta: float,
    cfg: ev.IntegratorConfig,
) -> StabilityRunReport:
    """Evolve B + eta*perturbation, track the modulation decomposition and
    audit the Lyapunov expansion at each checkpoint as evolve reaches it.

    The evolution runs in the frame cfg prescribes; fitted frame shifts are
    converted to lab shifts via x_lab = x_fit - frame_speed*t, which are the
    series the shift-rate bound applies to.  H[u] comes from the trace's
    invariant series; H[B], Q[z], N[z] and |integral z B| from the fitted
    state.  A modulation failure at the first checkpoint is raised; a later
    one ends the evolution at that checkpoint, sets failure_time to its time
    and truncates the series to the fitted checkpoints before it.  An eta so
    small that a0 = sup_z_h2 / eta overflows raises ValueError.
    """
    h2 = gr.h2_norm(perturbation)
    if abs(h2 - 1.0) > 1e-6:
        raise ValueError(f"perturbation must be unit H^2, got {h2}")
    if not 0.0 <= eta <= 0.05:
        raise ValueError(f"eta must lie in [0, 0.05], got {eta}")

    grid = perturbation.grid
    b0 = gr.sample(lambda tt, xx: cf.breather(p, tt, xx), grid, 0.0)
    u0 = b0.with_values(b0.values + eta * perturbation.values)

    c = cfg.frame_speed
    # one row per fitted checkpoint: t, z_h2, lab x1, lab x2, sign branch,
    # H[B], Q[z], N[z] and |integral z B|
    rows: list[tuple] = []
    ortho_max = 0.0
    failure_time = None
    guess1, guess2 = p.x1, p.x2
    prev_t = 0.0

    def observe(field: gr.GridField) -> bool | None:
        nonlocal ortho_max, failure_time, guess1, guess2, prev_t
        # u0 is tagged t = 0, so each tag is the elapsed time
        t = field.time_tag
        # warm start: previous fit advected by the known frame drift
        guess = replace(p, x1=guess1 + c * (t - prev_t), x2=guess2 + c * (t - prev_t))
        try:
            state = modulate(field, guess, t)
        except ModulationError:
            if not rows:
                raise
            failure_time = t
            return True
        ortho_max = max(ortho_max, abs(state.ortho_residuals[0]), abs(state.ortho_residuals[1]))
        b = state.b
        q, nz = fn.expansion_terms(state.z, state.z_x, state.z_xx, state.jet, p)
        rows.append((t, state.z_h2, state.x1 - c * t, state.x2 - c * t, state.sign_branch,
                     fn.h_value(b, p), q, nz, abs(gr.inner_product(state.z, b))))
        guess1, guess2, prev_t = state.x1, state.x2, t

    # after a failure the trace holds one more checkpoint than the series
    trace = ev.evolve(u0, cfg, observe)
    t_arr, z_h2_arr, lab1, lab2, branches, h_b_arr, q_arr, n_arr, pairing_arr = map(
        np.asarray, zip(*rows))
    sup_z = float(np.max(z_h2_arr))
    a0 = sup_z / eta if eta > 0.0 else 0.0
    if not np.isfinite(a0):
        raise ValueError(f"eta = {eta!r} is too small: a0_observed = sup_z_h2 / eta overflows")
    rate = None
    if len(rows) >= 3:
        r1 = np.gradient(lab1, t_arr)
        r2 = np.gradient(lab2, t_arr)
        rate = float(np.max(np.abs(r1) + np.abs(r2)))

    h_u = fn.h_from_parts(p, trace.mass_series, trace.energy_series, trace.f_series)[:len(rows)]
    closure = np.abs(h_u - h_b_arr - 0.5 * q_arr - n_arr) / np.maximum(np.abs(h_u), 1e-30)
    # growth-bound constants: Q[z](t) - Q[z](0) against the cubes of the H^2
    # norms, and the mass pairing against eta + eta^2 a0^2
    cubes = z_h2_arr**3 + z_h2_arr[0] ** 3
    growth = q_arr - q_arr[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        q_const = float(np.max(np.where(cubes > 0.0, growth / cubes, 0.0)))
    pairing_scale = eta + eta**2 * a0**2
    p_const = float(np.max(pairing_arr) / pairing_scale) if pairing_scale > 0.0 else 0.0
    audit = LyapunovAudit(
        h_u=h_u,
        h_b=h_b_arr,
        q_z=q_arr,
        n_z=n_arr,
        closure_rel=closure,
        mass_pairing=pairing_arr,
        q_growth_constant=max(0.0, q_const),
        pairing_constant=p_const,
    )
    return StabilityRunReport(
        eta=eta,
        sup_z_h2=sup_z,
        a0_observed=a0,
        shift_rate_sup=rate,
        times=t_arr,
        z_h2_series=z_h2_arr,
        x1_series=lab1,
        x2_series=lab2,
        sign_branches=branches,
        ortho_max=ortho_max,
        frame_speed=c,
        audit=audit,
        failure_time=failure_time,
    )


def stability_sweep(
    p: cf.BreatherParams,
    perturbation: gr.GridField,
    etas: list[float],
    cfg: ev.IntegratorConfig,
) -> list[StabilityRunReport]:
    """stability_experiment at each eta; the reports come in listed order.

    The runs share nothing, so grid._forked_map runs them in forked workers,
    one per eta up to the usable cores, or here one after the other; each
    report is bitwise the same either way.
    """
    def run(eta: float) -> StabilityRunReport:
        return stability_experiment(p, perturbation, eta, cfg)

    with gr._forked_map(run, etas) as collect:
        return collect()


def write_stability_csv(run: StabilityRunReport, path) -> None:
    """One row per checkpoint: t, z_h2, x1, x2, H_u, Q_z, N_z."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("t,z_h2,x1,x2,H_u,Q_z,N_z\n")
        rows = zip(
            run.times, run.z_h2_series, run.x1_series, run.x2_series,
            run.audit.h_u, run.audit.q_z, run.audit.n_z,
        )
        for t, zh, x1, x2, hu, qz, nz in rows:
            handle.write(f"{t:.17g},{zh:.17g},{x1:.17g},{x2:.17g},{hu:.17g},{qz:.17g},{nz:.17g}\n")
