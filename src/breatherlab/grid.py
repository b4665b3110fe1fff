"""Periodic grid, spectral calculus, and field serialization.

The domain is [-L, L) sampled at N equispaced nodes (N a power of two).
Derivatives are Fourier multipliers (i k)^order acting through rfft/irfft.
The unpaired Nyquist mode is annihilated for every order, so the discrete
calculus is closed under composition (D^a D^b = D^(a+b)) and summation by
parts is exact; resolved fields carry machine-zero Nyquist content anyway.
A grid builds its nodes, wavenumbers and multipliers once, on first use, and
hands out read-only arrays; equality and hashing stay those of its fields.
The module also holds what the sweeps share: the error type of a failed
scientific check and the forked pool that both sweeps run their samples on.

Quadrature is the trapezoid rule, which is spectrally accurate for periodic
integrands. Fields whose real-line integrals are approximated on the
truncated domain should have negligible boundary values.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

_BINARY_MAGIC = b"BLGF"
_LONG_PI = np.arccos(np.longdouble(-1.0))


class ScientificError(RuntimeError):
    """A failed scientific check (the CLI exits 2). It is pickled as its message
    and attributes, so no subclass needs pickling code of its own."""

    def __reduce__(self):
        # rebuilt from the final text, which a subclass __init__ may have formatted
        return RuntimeError.__new__, (type(self), str(self)), self.__dict__


# a pool worker's task, set by the pool's initializer in the worker only
_TASK = None


def _install_task(task) -> None:
    global _TASK
    _TASK = task


def _run_task(item):
    return _TASK(item)


@contextmanager
def _forked_map(task, items, max_workers: int | None = None):
    """Run task(item) for each item; yields a function that returns the
    results in listed order.

    With more than one item, more than one usable core and max_workers
    (None for no cap) above one, min(len(items), cores, max_workers) forked
    workers run the items while the with block's body runs here; otherwise
    they run here, in order, on entry. task reaches the workers by fork
    inheritance, never pickled, so only items and results cross the pipe.
    The results are collected before the block is left, so an item's error
    wins over the body's, and the first listed item's error over the
    others': it is raised once the items before it have finished, and the
    workers still running are stopped. A worker lost without an error
    (killed by a signal, say) raises ScientificError.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cores, len(items) if max_workers is None else max_workers)
    if workers < 2:
        results = [task(item) for item in items]
        yield lambda: results
        return
    # imported here: a run without a pool does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a worker starts with numpy, scipy and this package
    # already imported instead of importing them again, and the pool forks
    # every worker at the first submit, before it starts its own thread
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                             initializer=_install_task, initargs=(task,)) as pool:
        futures = [pool.submit(_run_task, item) for item in items]

        def collect() -> list:
            return [future.result() for future in futures]

        try:
            try:
                yield collect
            finally:
                collect()
        except BaseException as exc:
            # the executor has no way to stop a running task, and leaving
            # the with block would wait for every one of them; the lab
            # starts no child process but the pool's workers
            for process in multiprocessing.active_children():
                process.terminate()
            if isinstance(exc, BrokenProcessPool):
                raise ScientificError(f"a worker process was lost: {exc}") from exc
            raise


@dataclass(frozen=True)
class PeriodicGrid:
    """Equispaced periodic grid on [-half_length, half_length)."""

    half_length: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.half_length > 0.0 and np.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if not self.is_dyadic(self.n_points):
            raise ValueError(f"n_points must be a power of two >= 16, got {self.n_points}")

    @staticmethod
    def is_dyadic(n: int) -> bool:
        """Whether n is a grid size: a power of two, at least 16."""
        return n >= 16 and (n & (n - 1)) == 0

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(-self.half_length + self.spacing * np.arange(self.n_points))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """rfft wavenumbers k_j = j*pi/L, j = 0..N/2."""
        return _read_only(2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing))

    @cached_property
    def _multipliers(self) -> dict[int, np.ndarray]:
        return {}

    def multiplier(self, order: int) -> np.ndarray:
        """(i k)^order with the Nyquist bin zeroed, built once per order."""
        m = self._multipliers.get(order)
        if m is None:
            m = self._multipliers[order] = _read_only(_zeroed_power(1j * self.wavenumbers, order))
        return m


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _zeroed_power(ik: np.ndarray, order: int) -> np.ndarray:
    """ik**order with the unpaired Nyquist bin annihilated."""
    m = ik**order
    m[-1] = 0.0
    return m


@dataclass(frozen=True)
class GridField:
    """Real field sampled on a PeriodicGrid at time time_tag."""

    grid: PeriodicGrid
    values: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray, time_tag: float | None = None) -> "GridField":
        return GridField(self.grid, values, self.time_tag if time_tag is None else time_tag)


def sample(evaluator, grid: PeriodicGrid, t: float = 0.0) -> GridField:
    """Sample a callable (t, x) -> values on the grid nodes."""
    vals = np.asarray(evaluator(t, grid.nodes), dtype=float)
    return GridField(grid, vals, time_tag=t)


def spectral_derivatives(values, grid: PeriodicGrid, orders) -> list[np.ndarray]:
    """(ik)^order applied along the last axis for each order, from one forward
    transform.

    The dtype of values is kept. longdouble input is differentiated in 80-bit
    precision with k_j = j*pi/L, which matters for fourth derivatives: in
    float64 the sampling quantization alone is amplified by k_max^4, capping
    sup-norm residual checks near 1e-8 on grids wide enough for breather
    tails. Every order, the zeroth included, annihilates the Nyquist bin.
    """
    values = np.asarray(values)
    fh = np.fft.rfft(values)
    if values.dtype == np.longdouble:
        k = (_LONG_PI / np.longdouble(grid.half_length)) * np.arange(
            grid.n_points // 2 + 1, dtype=np.longdouble)
        multiplier = partial(_zeroed_power, 1j * k.astype(np.clongdouble))
    else:
        multiplier = grid.multiplier
    return [np.fft.irfft(fh * multiplier(order), n=grid.n_points) for order in orders]


def integrate(values: np.ndarray, grid: PeriodicGrid) -> float:
    """Trapezoid rule on raw samples; exact Parseval pairing for periodic
    integrands."""
    return float(grid.spacing * np.sum(values))


def cumulative_quadrature(f: GridField) -> GridField:
    """Cumulative integral from the left edge, spectrally exact.

    Splits f into its mean (integrated as a ramp) plus the zero-mean part
    (antiderivative via division by ik), so the result carries none of the
    O(h^2) truncation a running trapezoid sum would have.
    """
    fh = np.fft.rfft(f.values)
    mean = fh[0].real / f.grid.n_points
    anti = np.zeros_like(fh)  # the mean and Nyquist bins stay zero
    anti[1:-1] = fh[1:-1] / f.grid.multiplier(1)[1:-1]
    osc = np.fft.irfft(anti, n=f.grid.n_points)
    ramp = mean * (f.grid.nodes + f.grid.half_length)
    vals = ramp + osc - osc[0]
    return f.with_values(vals)


def h2_norm(f: GridField) -> float:
    """H^2 norm: sqrt(int f^2 + int f_x^2 + int f_xx^2)."""
    derivatives = spectral_derivatives(f.values, f.grid, (1, 2))
    return sobolev_from_derivatives(f.values, derivatives, f.grid)


def sobolev_from_derivatives(values: np.ndarray, derivatives, grid: PeriodicGrid) -> float:
    """sqrt(int f^2 + sum_j int d_j^2) for samples of f and of derivatives d_j
    already at hand, summed in the order h2_norm uses."""
    total = integrate(values**2, grid)
    for dj in derivatives:
        total += integrate(dj**2, grid)
    return float(np.sqrt(total))


def inner_product(f: GridField, g: GridField) -> float:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(f.grid.spacing * np.dot(f.values, g.values))


def write_binary(f: GridField, path: str | Path) -> None:
    """Checkpoint format: magic, N (int64), L, t (float64), then values."""
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<qdd", f.grid.n_points, f.grid.half_length, f.time_tag))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_binary(path: str | Path) -> GridField:
    """Inverse of write_binary; a corrupt file raises ValueError naming path.

    The package itself never reads a checkpoint back: this is the reader of
    the *_checkpoints/*.field files that the evolve command writes.
    """
    raw = Path(path).read_bytes()
    try:
        if raw[:4] != _BINARY_MAGIC:
            raise ValueError("not a grid-field checkpoint")
        if len(raw) < 28 or (len(raw) - 28) % 8:
            raise ValueError(f"{len(raw)} bytes is not a 28-byte header plus float64 values")
        n, half_length, t = struct.unpack("<qdd", raw[4:28])
        vals = np.frombuffer(raw[28:], dtype="<f8")
        if vals.shape[0] != n:
            raise ValueError(f"expected {n} values, found {vals.shape[0]}")
        return GridField(PeriodicGrid(half_length, int(n)), vals.astype(float), time_tag=t)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def quadrature_half_length(beta: float) -> float:
    """30/beta: keeps exp(-2*beta*L) below quadrature tolerances. mKdV's scaling
    u -> lam*u(lam^3 t, lam x) maps B(alpha, beta) to B(lam*alpha, lam*beta)
    and shrinks space by 1/lam, so one rule serves the whole family: h*beta is
    fixed on an N-point grid and only h*alpha = 60*alpha/(beta*N) varies."""
    return 30.0 / beta


def residual_grid(beta: float) -> PeriodicGrid:
    """The grid of the sup-norm residual checks: half-length 44/beta, wider
    than the quadrature box so the breather tails sit below the residual
    floor at the boundary, and 2048 points."""
    return PeriodicGrid(44.0 / beta, 2048)
