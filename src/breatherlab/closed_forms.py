"""Closed-form evaluation of the mKdV breather family and its companions.

The breather is the two-phase solution of

    u_t + (u_xx + u^3)_x = 0

written as B = 2*sqrt(2) * d/dx arctan( (beta/alpha) sin(alpha*y1) / cosh(beta*y2) ),
with phases

    y1 = x + delta*t + x1,   delta = alpha^2 - 3*beta^2,
    y2 = x + gamma*t + x2,   gamma = 3*alpha^2 - beta^2.

Everything in this module is an explicit formula in (alpha, beta, x1, x2, t, x):
the field itself, its arctan primitive, the shift derivatives dx1/dx2, the time
derivative of the primitive, the half cumulative mass integral, and the soliton.
breather_jet returns B, both shift derivatives and the primitive's time
derivative from one trig evaluation; the named first-order evaluators read it.
The scaling derivatives d/dalpha and d/dbeta are evaluated by complex-step
differentiation of the same formulas (the expressions are analytic in both
parameters), which is exact to roundoff and avoids the subtractive cancellation
of finite differences.

All evaluators are vectorized over x and return float64 arrays (or a scalar for
scalar input). Hyperbolic arguments are clipped at |beta*y2| = 300 and decaying
fields are zeroed beyond the clip; this keeps every intermediate quotient finite
in float64 while the discarded magnitudes sit below 1e-130.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SQRT2 = math.sqrt(2.0)
COSH_GUARD = 300.0
# Complex-step size for parameter derivatives; no cancellation, so it can sit
# far below any finite-difference step.
_CSTEP = 1e-20


@dataclass(frozen=True)
class BreatherParams:
    """Canonical breather parameters: frequencies alpha, beta > 0 and shifts.

    delta and gamma are the phase velocities of y1 and y2; the envelope
    travels with velocity -gamma.
    """

    alpha: float
    beta: float
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    @property
    def delta(self) -> float:
        return self.alpha**2 - 3.0 * self.beta**2

    @property
    def gamma(self) -> float:
        return 3.0 * self.alpha**2 - self.beta**2


@dataclass(frozen=True)
class SolitonParams:
    """Soliton parameters: speed c > 0 and initial center x0."""

    c: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")


def _phases(alpha, beta, x1, x2, t, x):
    delta = alpha * alpha - 3.0 * beta * beta
    gamma = 3.0 * alpha * alpha - beta * beta
    y1 = x + delta * t + x1
    y2 = x + gamma * t + x2
    return y1, y2


def _clip_arg(w):
    """Clip the real part of a hyperbolic argument into [-300, 300].

    Returns (clipped argument, mask of clipped points). For complex input only
    the real part is clipped; the imaginary part carries the complex-step
    payload and stays intact.
    """
    re = np.real(w)
    mask = np.abs(re) > COSH_GUARD
    safe_re = np.clip(re, -COSH_GUARD, COSH_GUARD)
    if np.iscomplexobj(w):
        return safe_re + 1j * np.imag(w), mask
    return safe_re, mask


def _trig_parts(alpha, beta, x1, x2, t, x):
    y1, y2 = _phases(alpha, beta, x1, x2, t, x)
    w2, clipped = _clip_arg(beta * y2)
    S = np.sin(alpha * y1)
    C = np.cos(alpha * y1)
    ch = np.cosh(w2)
    sh = np.sinh(w2)
    return S, C, ch, sh, clipped


def _quotient_parts(alpha, beta, x1, x2, t, x):
    """Trig parts plus the shared quotient denominator and breather numerator."""
    S, C, ch, sh, clipped = _trig_parts(alpha, beta, x1, x2, t, x)
    den = alpha * alpha * ch * ch + beta * beta * S * S
    num = alpha * C * ch - beta * S * sh
    return S, C, ch, sh, clipped, den, num


def _zero_clipped(out, clipped):
    if not np.any(clipped):  # the usual case; skips a full-size select
        return out
    return np.where(clipped, 0.0 * out, out)


def _breather_quotient(alpha, beta, num, den, clipped):
    return _zero_clipped(2.0 * _SQRT2 * alpha * beta * num / den, clipped)


def breather_values(alpha, beta, x1, x2, t, x):
    """Breather field for raw parameters (any nonzero alpha, beta).

    Quotient form: 2*sqrt(2)*alpha*beta*(alpha*cos(a y1)*cosh(b y2)
    - beta*sin(a y1)*sinh(b y2)) / (alpha^2 cosh^2(b y2) + beta^2 sin^2(a y1)).
    Accepts complex alpha or beta (used for complex-step derivatives).
    """
    *_, clipped, den, num = _quotient_parts(alpha, beta, x1, x2, t, x)
    return _breather_quotient(alpha, beta, num, den, clipped)


def breather(p: BreatherParams, t, x):
    return breather_values(p.alpha, p.beta, p.x1, p.x2, t, x)


def breather_primitive(p: BreatherParams, t, x):
    """Arctan primitive: 2*sqrt(2)*arctan((beta/alpha) sin(a y1)/cosh(b y2))."""
    S, _, ch, _, _ = _trig_parts(p.alpha, p.beta, p.x1, p.x2, t, x)
    return 2.0 * _SQRT2 * np.arctan((p.beta / p.alpha) * S / ch)


class BreatherJet(NamedTuple):
    """The breather and its first-order companions from one trig evaluation.

    b is B, dx1 and dx2 are the shift derivatives, primitive_t the time
    derivative of the arctan primitive.
    """

    b: np.ndarray
    dx1: np.ndarray
    dx2: np.ndarray
    primitive_t: np.ndarray

    @property
    def b_x(self):
        """Space derivative; x enters only through y1 and y2."""
        return self.dx1 + self.dx2

    @property
    def b_xx(self):
        """Second space derivative via the pointwise relation
        B_xx = -(primitive_t + B^3), so no grid is involved. The relation
        itself is verified independently by the identity residual suite."""
        return -(self.primitive_t + self.b * self.b * self.b)


def breather_jet(p: BreatherParams, t, x) -> BreatherJet:
    """B, B1 = dB/dx1, B2 = dB/dx2 and the primitive's time derivative."""
    a, b = p.alpha, p.beta
    delta = a * a - 3.0 * b * b
    gamma = 3.0 * a * a - b * b
    S, C, ch, sh, clipped, den, num = _quotient_parts(a, b, p.x1, p.x2, t, x)
    num_over_den = num / den
    r1 = (a * S * ch + b * C * sh) / den
    r2 = num_over_den * (S * C / den)
    r3 = (a * C * sh - b * S * ch) / den
    r4 = num_over_den * (ch * sh / den)
    return BreatherJet(
        b=_breather_quotient(a, b, num, den, clipped),
        dx1=_zero_clipped(-2.0 * _SQRT2 * a * a * b * (r1 + 2.0 * b * b * r2), clipped),
        dx2=_zero_clipped(2.0 * _SQRT2 * a * b * b * (r3 - 2.0 * a * a * r4), clipped),
        primitive_t=_zero_clipped(
            2.0 * _SQRT2 * a * b * (a * delta * C * ch - b * gamma * S * sh) / den, clipped
        ),
    )


def breather_primitive_t(p: BreatherParams, t, x):
    return breather_jet(p, t, x).primitive_t


def breather_dx1(p: BreatherParams, t, x):
    """Derivative with respect to the first shift (equivalently the y1 phase)."""
    return breather_jet(p, t, x).dx1


def breather_dx2(p: BreatherParams, t, x):
    """Derivative with respect to the second shift (the y2 phase)."""
    return breather_jet(p, t, x).dx2


def mass_profile(p: BreatherParams, t, x):
    """Half cumulative mass 0.5*int_{-inf}^x B^2, in closed form.

    Tends to 0 as x -> -inf and to 4*beta as x -> +inf.
    """
    a, b = p.alpha, p.beta
    S, C, ch, sh, clipped, den, _ = _quotient_parts(a, b, p.x1, p.x2, t, x)
    _, y2 = _phases(a, b, p.x1, p.x2, t, x)
    grow = ch + sh  # exp(b*y2) on the clipped range
    f = a * a + 2.0 * a * b * S * C + 2.0 * b * b * S * S + a * a * grow * grow
    out = b * f / den
    right = np.real(b * y2) > COSH_GUARD
    out = np.where(clipped & right, 4.0 * b + 0.0 * out, out)
    out = np.where(clipped & ~right, 0.0 * out, out)
    return out


def mass_profile_t(p: BreatherParams, t, x):
    """Time derivative of the mass profile, in closed form."""
    a, b = p.alpha, p.beta
    delta, gamma = p.delta, p.gamma
    S, C, ch, sh, clipped, den, _ = _quotient_parts(a, b, p.x1, p.x2, t, x)
    cos2 = 1.0 - 2.0 * S * S
    sin2 = 2.0 * S * C
    cosh2 = 2.0 * ch * ch - 1.0
    sinh2 = 2.0 * ch * sh
    h = (
        gamma * a * a
        - delta * b * b
        + (a * a + b * b) * (delta * cos2 + gamma * cosh2)
        + (delta * a * a - gamma * b * b) * cos2 * cosh2
        - a * b * (delta + gamma) * sin2 * sinh2
    )
    return _zero_clipped(a * a * b * b * (h / den) / den, clipped)


def wronskian_det(p: BreatherParams, t, x):
    """Closed-form Wronskian determinant of the two kernel directions.

    det W[B1, B2] = 4 a^3 b^3 (a^2+b^2) [a sinh(2 b y2) - b sin(2 a y1)] / den^2

    with den the usual quotient denominator. den^2 overflows near the clip
    guard, so the division is staged ratio by ratio like the derivatives.
    """
    a, b = p.alpha, p.beta
    S, C, ch, sh, clipped, den, _ = _quotient_parts(a, b, p.x1, p.x2, t, x)
    num = 2.0 * a * sh * ch - 2.0 * b * S * C
    return _zero_clipped(4.0 * a**3 * b**3 * (a * a + b * b) * (num / den) / den, clipped)


def scaling_derivative(p: BreatherParams, t, x, which: str):
    """d/dalpha or d/dbeta of the breather at fixed (x1, x2, t, x).

    Complex-step differentiation: Im B(alpha + i*h) / h with h = 1e-20, exact
    to roundoff because the closed form is analytic in both parameters.
    """
    if which == "alpha":
        h = _CSTEP * max(1.0, p.alpha)
        vals = breather_values(p.alpha + 1j * h, p.beta, p.x1, p.x2, t, x)
    elif which == "beta":
        h = _CSTEP * max(1.0, p.beta)
        vals = breather_values(p.alpha, p.beta + 1j * h, p.x1, p.x2, t, x)
    else:
        raise ValueError(f"which must be 'alpha' or 'beta', got {which!r}")
    return np.imag(vals) / h


def b0_direction(p: BreatherParams, t, x):
    """Normalized mix of the scaling derivatives that the linearized operator
    maps to -B: (alpha*dbeta + beta*dalpha) / (8*alpha*beta*(alpha^2+beta^2))."""
    a, b = p.alpha, p.beta
    mix = a * scaling_derivative(p, t, x, "beta") + b * scaling_derivative(p, t, x, "alpha")
    return mix / (8.0 * a * b * (a * a + b * b))


def double_pole(p: BreatherParams, t, x):
    """alpha -> 0 limit of the family at fixed beta (algebraic-in-y1 envelope).

    Uses p.beta and the shifts; p.alpha is ignored. Phases carry the limiting
    velocities delta -> -3 beta^2, gamma -> -beta^2.
    """
    b = p.beta
    y1 = x - 3.0 * b * b * t + p.x1
    y2 = x - b * b * t + p.x2
    w2, clipped = _clip_arg(b * y2)
    sech = 1.0 / np.cosh(w2)
    th = np.tanh(w2)
    u = b * y1 * sech
    out = 2.0 * _SQRT2 * b * sech * (1.0 - b * y1 * th) / (1.0 + u * u)
    return _zero_clipped(out, clipped)


def soliton(s: SolitonParams, t, x):
    """Soliton sqrt(2c) sech(sqrt(c)(x - c t - x0))."""
    rc = math.sqrt(s.c)
    w, clipped = _clip_arg(rc * (np.asarray(x, dtype=float) - s.c * t - s.x0))
    out = math.sqrt(2.0 * s.c) / np.cosh(w)
    return np.where(clipped, 0.0, out)


def shift_to_spacetime(p: BreatherParams) -> tuple[float, float]:
    """Map shifts (x1, x2) to the equivalent (t0, x0) with
    B(t, x; x1, x2) = B(t - t0, x - x0; 0, 0)."""
    s = 2.0 * (p.alpha**2 + p.beta**2)
    t0 = (p.x1 - p.x2) / s
    x0 = (p.delta * p.x2 - p.gamma * p.x1) / s
    return t0, x0

