"""Fourth-order exponential time stepping for mKdV on the periodic grid.

The flow is integrated in a frame moving at constant speed c: writing
v(t, xi) = u(t, xi + c*t) for a solution u of u_t + (u_xx + u^3)_x = 0,
the transformed field obeys

    v_t = -v_xxx + c v_x - (v^3)_x,

so the linear part -d^3/dx^3 + c d/dx is applied exactly in Fourier space
and only the cubic flux is stepped.  The scheme is the standard four-stage
exponential integrator; its phi-function weights are evaluated as circle
means around each scaled symbol point, which removes the 0/0 cancellation
at small wavenumbers without special-casing the zero mode.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from . import grid as gr

# |dt * (k^3 + c k)| cap; beyond this the weight quadrature and the cubic
# coupling are no longer in the scheme's accurate regime.
_STABILITY_BUDGET = 200.0
_BLOWUP_SUP = 1e6
_CONTOUR_POINTS = 32
# rows of the (modes x _CONTOUR_POINTS) circle-mean tables built at a time
_ROW_BLOCK = 64


class BlowUpError(gr.ScientificError):
    """Sup norm of the field exceeded the blow-up threshold."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class DomainExitError(gr.ScientificError):
    """The field's energy centroid drifted too close to the boundary."""

    def __init__(self, message: str, time: float, centroid: float):
        super().__init__(message)
        self.time = time
        self.centroid = centroid


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping parameters.

    frame_speed is the lab velocity of the co-moving frame: 0 integrates in
    the lab frame, -gamma keeps a breather's envelope centered, +c keeps the
    speed-c soliton steady.  boundary_margin, when set, aborts the run once
    the centroid of u^2 comes within that distance of the domain boundary.
    config.plan derives both from the run's parameters and offers neither as
    a setting: evolve co-moves with its initial profile and sets no guard,
    stability co-moves with the breather and guards at 5/beta (see
    stability.default_stability_config).  The cubic flux is always truncated
    to the 2/3-rule band: the band is part of the scheme (see _Stepper), not
    a setting.
    """

    dt: float
    t_end: float
    frame_speed: float = 0.0
    monitor_stride: int = 1
    boundary_margin: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not np.isfinite(self.frame_speed):
            raise ValueError("frame_speed must be finite")
        if int(self.monitor_stride) != self.monitor_stride or self.monitor_stride < 1:
            raise ValueError(f"monitor_stride must be a positive integer, got {self.monitor_stride}")
        if self.boundary_margin is not None and not self.boundary_margin > 0.0:
            raise ValueError("boundary_margin must be positive when set")


@dataclass(frozen=True)
class EvolutionTrace:
    """Monitored history of one evolution run.

    final is the state at the last checkpoint, t_end unless the observer
    stopped the run; max_drift is the largest relative excursion of (mass,
    energy, f) from their initial values.
    """

    times: np.ndarray
    final: gr.GridField
    mass_series: np.ndarray
    energy_series: np.ndarray
    f_series: np.ndarray
    sup_series: np.ndarray
    max_drift: tuple[float, float, float]


class _Stepper:
    """Precomputed propagator tables and step workspace for one (grid, config) pair.

    Only the K kept modes enter the flux, so every table but e_full covers
    that band alone, and so do the stage values advance computes. A step is
    8 transforms, about 102 us at N=2048 on a 2-core Xeon with one BLAS
    thread, and about 32 us of cubing and band arithmetic. Every
    intermediate is written into a workspace the stepper keeps, so a step
    allocates only the spectrum it returns.
    """

    def __init__(self, grid: gr.PeriodicGrid, cfg: IntegratorConfig):
        self.n = grid.n_points
        z = linear_exponent(grid, cfg)
        # 2/3 rule: irfft zero-pads the K = n//3 modes kept for cubing, and
        # the flux is truncated to the same band. K removes the aliasing of a
        # quadratic product only: u^3 reaches mode 3K ~ n, and its modes in
        # [n-K, 3K] alias into the kept band. At N=2048 that moves a
        # t_end=0.25 stability run's sup_z_h2, shift rate and Q[z] by at most
        # 8.5e-12 relative against the alias-free band n//4 (see the tests).
        keep = self.keep = self.n // 3 + 1
        self.e_full = np.exp(z)
        self.e_half = np.exp(z[:keep] / 2.0)
        # a complex Nyquist coefficient has no real-signal preimage, so the
        # propagator annihilates that mode, matching the derivative tables
        self.e_full[-1] = 0.0
        # flux takes irfft without its 1/n (norm="forward"), which skips a
        # scaling pass, and applies 1/n^3 to the cube here instead. n is a
        # power of two (PeriodicGrid), so moving the scaling is exact unless
        # a value leaves the normal float range, and the flux is the same to
        # the bit (see the tests).
        self.flux_factor = -grid.multiplier(1)[:keep] / float(self.n) ** 3
        # weights via circle means: the integrands are entire, so the mean of
        # each over a unit circle centered at z equals its value at z. They
        # are taken a block of rows at a time, so no (modes x 32) table is
        # held; each product with exp(lr) is written (...) * elr, the order
        # numpy's temporary elision gives a whole-table build at N >= 1024.
        theta = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS)
        dt = cfg.dt
        self.q, self.w1, self.w2x2, self.w3 = (np.empty(keep, dtype=complex) for _ in range(4))
        for lo in range(0, keep, _ROW_BLOCK):
            rows = slice(lo, min(lo + _ROW_BLOCK, keep))
            lr = z[rows, None] + theta[None, :]
            elr = np.exp(lr)
            self.q[rows] = dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
            self.w1[rows] = dt * np.mean((-4.0 - lr + (4.0 - 3.0 * lr + lr**2) * elr) / lr**3, axis=1)
            self.w2x2[rows] = 2.0 * (dt * np.mean((2.0 + lr + (lr - 2.0) * elr) / lr**3, axis=1))
            self.w3[rows] = dt * np.mean((-4.0 - 3.0 * lr - lr**2 + (4.0 - lr) * elr) / lr**3, axis=1)
        # the step's workspace: the physical field, its cube, the rfft output,
        # and seven arrays of the kept band (stages a and b, fluxes nv, na,
        # nb, nc, and a temporary)
        self._u, self._u3 = np.empty(self.n), np.empty(self.n)
        self._spec = np.empty(self.n // 2 + 1, dtype=complex)
        self._band = tuple(np.empty(keep, dtype=complex) for _ in range(7))

    def flux(self, vk: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Kept band of the cubic flux -(u^3)_x of the field whose kept band is
        vk, written into out and returned."""
        u, u3 = self._u, self._u3
        np.fft.irfft(vk, self.n, norm="forward", out=u)
        np.multiply(u, u, out=u3)
        np.multiply(u3, u, out=u3)
        np.fft.rfft(u3, out=self._spec)
        return np.multiply(self.flux_factor, self._spec[:self.keep], out=out)

    def advance(self, vhat: np.ndarray) -> np.ndarray:
        # every complex product keeps its operand order and every sum its
        # association: numpy's complex multiply need not commute bitwise.
        # half is held in b's buffer until b is written over it, c in a's.
        a, b, nv, na, nb, nc, t = self._band
        e_half, q = self.e_half, self.q
        vk = vhat[:self.keep]
        self.flux(vk, nv)
        half = np.multiply(e_half, vk, out=b)
        np.add(half, np.multiply(q, nv, out=t), out=a)
        self.flux(a, na)
        np.add(half, np.multiply(q, na, out=t), out=b)
        self.flux(b, nb)
        np.subtract(np.multiply(2.0, nb, out=t), nv, out=t)
        c = np.add(np.multiply(e_half, a, out=a), np.multiply(q, t, out=t), out=a)
        self.flux(c, nc)
        out = self.e_full * vhat
        band = out[:self.keep]
        band += np.multiply(self.w1, nv, out=t)
        band += np.multiply(self.w2x2, np.add(na, nb, out=t), out=t)
        band += np.multiply(self.w3, nc, out=t)
        return out


def linear_exponent(grid: gr.PeriodicGrid, cfg: IntegratorConfig) -> np.ndarray:
    """i dt (k^3 + c k), c the frame speed; ValueError above the stability budget."""
    k = grid.wavenumbers
    z = 1j * cfg.dt * (k**3 + cfg.frame_speed * k)
    budget = float(np.max(np.abs(z)))
    if budget > _STABILITY_BUDGET:
        raise ValueError(f"dt*max|k^3 + c k| = {budget:.3g} exceeds the stability budget "
                         f"{_STABILITY_BUDGET}; reduce dt or the grid resolution")
    return z


def energy_centroid(u: gr.GridField) -> float:
    """Centroid of u^2, the tracked position of a localized field."""
    weight = u.values * u.values
    total = float(np.sum(weight))
    if total < 1e-30:
        return 0.0
    return float(np.sum(u.grid.nodes * weight) / total)


def evolve(u0: gr.GridField, cfg: IntegratorConfig, observe=lambda field: None) -> EvolutionTrace:
    """Step u0 to t_end, monitoring invariants every monitor_stride steps.

    Checkpoints (mass, energy, f, sup|u|) are recorded at elapsed t = 0, at
    every monitor_stride-th step, and at t_end.  Each checkpoint's state,
    tagged u0.time_tag + t, passes the blow-up and boundary checks (their
    errors carry the failure time) and then goes to observe, which runs
    under the caller's numpy error state; an exception it raises ends the run.
    When observe returns a true value the run stops there: the trace's series
    end at that checkpoint, max_drift covers them, and final is its state.
    """
    grid = u0.grid
    stepper = _Stepper(grid, cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))
    if n_steps < 1 or abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, abs(cfg.t_end)):
        raise ValueError("t_end must be a positive integer multiple of dt")

    between = range(int(cfg.monitor_stride), n_steps, int(cfg.monitor_stride))
    # one column (t, mass, energy, f, sup|u|) per checkpoint, the start included
    table = np.empty((5, len(between) + 2))
    recorded = 0

    def record(step_index: int, vals: np.ndarray) -> gr.GridField:
        nonlocal recorded
        t = step_index * cfg.dt
        sup = float(np.max(np.abs(vals)))
        if not np.all(np.isfinite(vals)) or sup > _BLOWUP_SUP:
            raise BlowUpError(f"blow-up detected at t = {t}", time=t)
        field = u0.with_values(vals, time_tag=u0.time_tag + t)
        if cfg.boundary_margin is not None:
            centroid = energy_centroid(field)
            if grid.half_length - abs(centroid) < cfg.boundary_margin:
                raise DomainExitError(
                    f"field centroid {centroid:.3f} within {cfg.boundary_margin} of the "
                    f"boundary at t = {t}; use a co-moving frame or a larger domain",
                    time=t,
                    centroid=centroid,
                )
        table[:, recorded] = (t, *fn.invariants(field), sup)
        recorded += 1
        return field

    field = record(0, u0.values)
    stop = observe(field)
    vhat = np.fft.rfft(u0.values)
    done = 0
    for checkpoint in itertools.chain(between, [n_steps]):
        if stop:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(checkpoint - done):
                vhat = stepper.advance(vhat)
            field = record(checkpoint, np.fft.irfft(vhat, n=grid.n_points))
        stop = observe(field)
        done = checkpoint

    times, masses, energies, f_values, sups = table[:, :recorded]
    return EvolutionTrace(
        times=times,
        final=field,
        mass_series=masses,
        energy_series=energies,
        f_series=f_values,
        sup_series=sups,
        max_drift=(relative_drift(masses), relative_drift(energies), relative_drift(f_values)),
    )


def relative_drift(series) -> float:
    """max|s - s[0]| / max(|s[0]|, 1e-30): the largest excursion of a
    monitored series from its first value, relative to that value."""
    base = series[0]
    return float(np.max(np.abs(np.asarray(series) - base)) / max(abs(base), 1e-30))


def write_trace_csv(trace: EvolutionTrace, path) -> None:
    """One row per monitored time: t, mass, energy, f, sup|u|."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("t,mass,energy,f,sup_abs_u\n")
        rows = zip(
            trace.times, trace.mass_series, trace.energy_series, trace.f_series, trace.sup_series
        )
        for t, m, e, f, s in rows:
            handle.write(f"{t:.17g},{m:.17g},{e:.17g},{f:.17g},{s:.17g}\n")


def checkpoint_writer(directory, names: list[str], cfg: IntegratorConfig):
    """Observer for evolve(u0, cfg) that writes each checkpointed field into
    directory in the binary grid format as it arrives, numbered in order, and
    appends each file name to names.  The numbers are zero-padded to the
    width of the run's last one (at least 5), so the names sort in time order."""
    last = -(-int(round(cfg.t_end / cfg.dt)) // int(cfg.monitor_stride))
    width = max(5, len(str(last)))

    def write(field: gr.GridField) -> None:
        names.append(f"checkpoint_{len(names):0{width}d}.field")
        gr.write_binary(field, os.path.join(directory, names[-1]))

    return write
