"""Conserved functionals, the linearized energy operator, and identity residuals.

Functionals of a grid field u; invariants returns (M, E, F) from one pass,
h_value returns H:

    M[u] = 1/2 int u^2
    E[u] = 1/2 int u_x^2 - 1/4 int u^4
    F[u] = 1/2 int u_xx^2 - 5/2 int u^2 u_x^2 + 1/4 int u^6
    H[u] = F[u] + 2(beta^2-alpha^2) E[u] + (alpha^2+beta^2)^2 M[u]

H is the Lyapunov functional whose expansion around the breather is
H[B+z] - H[B] = 1/2 Q[z] + N[z]: Q the quadratic form of the fourth-order
linearized operator, N the nine-term cubic-and-higher remainder.

Operator coefficients (B, B_x, B_xx) are always evaluated from closed forms,
never by differentiating sampled B; z-derivatives are spectral. The advection
pair 5 B^2 z_xx + 10 B B_x z_x is applied in divergence form d/dx(5 B^2 z_x),
which is pointwise-identical in the continuum and keeps the discrete operator
exactly symmetric (and exactly consistent with the assembled matrix) for
arbitrary grid fields, not just resolved ones.

identity_residuals checks the pointwise identities of the closed forms from
one sampling pass per grid: one jet, one evaluation of each other closed
form. The identities themselves differentiate sampled B spectrally, so they
test the closed-form derivative relations rather than assume them.
"""

from __future__ import annotations

import numpy as np

from . import closed_forms as cf
from .grid import (GridField, PeriodicGrid, cumulative_quadrature, integrate, sample,
                   spectral_derivatives)


def mass(u: GridField) -> float:
    return 0.5 * integrate(u.values**2, u.grid)


def invariants(u: GridField) -> tuple[float, float, float]:
    """(M, E, F) from one spectral-derivative pass; powers above 2 are
    products of the shared square."""
    ux, uxx = spectral_derivatives(u.values, u.grid, (1, 2))
    u2 = u.values * u.values
    u4 = u2 * u2
    ux2 = ux * ux
    e = integrate(0.5 * ux2 - 0.25 * u4, u.grid)
    f = integrate(0.5 * uxx**2 - 2.5 * u2 * ux2 + 0.25 * (u4 * u2), u.grid)
    return mass(u), e, f


def h_from_parts(p: cf.BreatherParams, m, e, f):
    """H from its parts M, E, F; works elementwise on invariant series."""
    a2, b2 = p.alpha**2, p.beta**2
    return f + 2.0 * (b2 - a2) * e + (a2 + b2) ** 2 * m


def h_value(u: GridField, p: cf.BreatherParams) -> float:
    return h_from_parts(p, *invariants(u))


def coefficient_fields(p: cf.BreatherParams, grid: PeriodicGrid, t: float):
    """Closed-form (B, B_x, B_xx) sampled on the grid."""
    jet = cf.breather_jet(p, t, grid.nodes)
    return jet.b, jet.b_x, jet.b_xx


def potential(p: cf.BreatherParams, b, bx, bxx):
    """Zeroth-order coefficient of the linearized operator,
    5 B_x^2 + 10 B B_xx + 15/2 B^4 - 6(beta^2-alpha^2) B^2."""
    a2, b2 = p.alpha**2, p.beta**2
    bb = b * b
    return 5.0 * bx**2 + 10.0 * b * bxx + 7.5 * (bb * bb) - 6.0 * (b2 - a2) * bb


def _operator_values(zv: np.ndarray, p: cf.BreatherParams, grid: PeriodicGrid, t: float,
                     x: np.ndarray) -> np.ndarray:
    """Operator action on raw samples; dtype (float64 or longdouble) follows x."""
    a2, b2 = p.alpha**2, p.beta**2
    jet = cf.breather_jet(p, t, x)
    b = jet.b
    zx, z2, z4 = spectral_derivatives(zv, grid, (1, 2, 4))
    adv = spectral_derivatives(5.0 * b**2 * zx, grid, (1,))[0]
    pot = potential(p, b, jet.b_x, jet.b_xx)
    return z4 - 2.0 * (b2 - a2) * z2 + (a2 + b2) ** 2 * zv + adv + pot * zv


def apply_operator(z: GridField, p: cf.BreatherParams, t: float) -> GridField:
    """Action of the linearized operator around the breather at time t.

    L z = z_4x - 2(beta^2-alpha^2) z_xx + (alpha^2+beta^2)^2 z
          + d/dx(5 B^2 z_x)
          + [5 B_x^2 + 10 B B_xx + 15/2 B^4 - 6(beta^2-alpha^2) B^2] z
    """
    out = _operator_values(z.values, p, z.grid, t, z.grid.nodes)
    return z.with_values(out, time_tag=t)


def apply_operator_direction(direction, p: cf.BreatherParams, grid: PeriodicGrid,
                             t: float) -> GridField:
    """Operator applied to a closed-form direction, in extended precision.

    direction is an evaluator (p, t, x) -> values such as cf.b0_direction or
    a shift derivative read off cf.breather_jet. No command calls this: it is
    the extended-precision reference of guarantees c04 and c06.

    Sampling, differentiation and coefficient evaluation all run in
    longdouble, so kernel residuals (L B1, L B2) and inverse checks
    (L B0 + B) come out at the truncation floor of the grid instead of the
    k_max^4-amplified float64 quantization. Use apply_operator for arbitrary
    float64 fields.
    """
    x = grid.nodes.astype(np.longdouble)
    zv = np.asarray(direction(p, t, x), dtype=np.longdouble)
    out = _operator_values(zv, p, grid, t, x)
    return GridField(grid, out.astype(float), time_tag=t)


def expansion_terms(z: GridField, zx: np.ndarray, zxx: np.ndarray, jet: cf.BreatherJet,
                    p: cf.BreatherParams) -> tuple[float, float]:
    """Q[z] and N[z] from z, its first two spectral derivatives and the
    breather jet at the same shifts and time.

    Q[z] = int z_xx^2 + 2(beta^2-alpha^2) int z_x^2 + (alpha^2+beta^2)^2 int z^2
           - 5 int B^2 z_x^2 + 5 int B_x^2 z^2 + 10 int B B_xx z^2
           + 15/2 int B^4 z^2 - 6(beta^2-alpha^2) int B^2 z^2
    agrees with integrate(z * L z) to roundoff (summation by parts is
    exact). N[z] is the nine-term cubic-and-higher remainder. Powers above
    2 are products of shared squares.
    """
    a2, b2 = p.alpha**2, p.beta**2
    b, bxx = jet.b, jet.b_xx
    zz = z.values
    bb = b * b
    z2 = zz * zz
    z3 = z2 * zz
    z4 = z2 * z2
    zx2 = zx * zx
    q_integrand = (
        zxx**2
        + 2.0 * (b2 - a2) * zx2
        + (a2 + b2) ** 2 * z2
        - 5.0 * bb * zx2
        + potential(p, b, jet.b_x, bxx) * z2
    )
    n_integrand = (
        5.0 * (bb * b) * z3
        - 2.0 * (b2 - a2) * b * z3
        + (5.0 / 3.0) * bxx * z3
        - 5.0 * b * zx2 * zz
        + 3.75 * bb * z4
        - 0.5 * (b2 - a2) * z4
        - 2.5 * z2 * zx2
        + 1.5 * b * (z4 * zz)
        + 0.25 * (z4 * z2)
    )
    return integrate(q_integrand, z.grid), integrate(n_integrand, z.grid)


def stationary_residual(p: cf.BreatherParams, grid: PeriodicGrid, t: float) -> GridField:
    """Residual of the fourth-order stationary equation satisfied by B.

    G[B] = B_4x - 2(beta^2-alpha^2)(B_xx + B^3) + (alpha^2+beta^2)^2 B
           + 5 B B_x^2 + 5 B^2 B_xx + 3/2 B^5
    Derivatives are spectral derivatives of the sampled field, so the check is
    independent of the closed-form derivative identities. Sampling and
    differentiation run in extended precision; in float64 the fourth
    derivative amplifies the sampling quantization by k_max^4 and the residual
    would bottom out near 1e-8 instead of the grid truncation floor.

    The constant coefficients are the symmetric functions of the two phase
    velocities: -2(beta^2-alpha^2) = (delta+gamma)/2 and (alpha^2+beta^2)^2
    = ((delta-gamma)/2)^2, so a wrong gamma corrupts both coefficients and
    breaks the identity.
    """
    x = grid.nodes.astype(np.longdouble)
    b = cf.breather(p, t, x)
    c1 = 0.5 * (p.delta + p.gamma)
    c2 = (0.5 * (p.delta - p.gamma)) ** 2
    bx, bxx, b4 = spectral_derivatives(b, grid, (1, 2, 4))
    res = (
        b4
        + c1 * (bxx + b**3)
        + c2 * b
        + 5.0 * b * bx**2
        + 5.0 * b**2 * bxx
        + 1.5 * b**5
    )
    return GridField(grid, res.astype(float), time_tag=t)


def wronskian_residual(p: cf.BreatherParams, jet: cf.BreatherJet, grid: PeriodicGrid,
                       t: float) -> tuple[float, float]:
    """(sup residual, scale) of the Wronskian of the kernel directions.

    (B1)_x B2 - (B2)_x B1 with spectral first derivatives of the jet's B1, B2,
    against the closed-form determinant; scale is the determinant's sup, so
    res / scale is a relative check.
    """
    d1b1, d1b2 = spectral_derivatives(np.stack([jet.dx1, jet.dx2]), grid, (1,))[0]
    det = d1b1 * jet.dx2 - d1b2 * jet.dx1
    det_closed = cf.wronskian_det(p, t, grid.nodes)
    return float(np.max(np.abs(det - det_closed))), float(np.max(np.abs(det_closed)))


def identity_residuals(p: cf.BreatherParams, grid: PeriodicGrid,
                       t: float) -> dict[str, tuple[float, float]]:
    """{name: (sup residual, scale)} for the pointwise identities of the
    breather, from one jet and one pass of each other closed form.

    scale is max(1, sup|B|^5) for the quintic stationary identity, the sup of
    the closed-form determinant for the Wronskian (a relative check), and 1
    for the rest. B_x and B_xx are spectral derivatives of the sampled B.
    """
    a2, b2 = p.alpha**2, p.beta**2
    x = grid.nodes
    jet = cf.breather_jet(p, t, x)
    b, prim_t = jet.b, jet.primitive_t
    bx, bxx = spectral_derivatives(b, grid, (1, 2))
    prof = cf.mass_profile(p, t, x)
    prof_t = cf.mass_profile_t(p, t, x)
    # B_xt is the spectral x-derivative of the closed-form B_t
    bxt = spectral_derivatives(p.delta * jet.dx1 + p.gamma * jet.dx2, grid, (1,))[0]
    cum = cumulative_quadrature(GridField(grid, 0.5 * b**2)).values

    def sup(res) -> float:
        return float(np.max(np.abs(res)))

    return {
        "stationary": (sup(stationary_residual(p, grid, t).values),
                       max(1.0, sup(b) ** 5)),
        "second_order": (sup(bxx + prim_t + b**3), 1.0),
        "first_order": (sup(bx**2 + 0.5 * b**4 + 2.0 * b * prim_t - 2.0 * prof_t), 1.0),
        "mixed": (sup(bxt + 2.0 * prof_t * b - 2.0 * (b2 - a2) * prim_t - (a2 + b2) ** 2 * b),
                  1.0),
        # cumulative quadrature of B^2/2 against the closed-form profile,
        # both anchored at the left edge
        "mass_profile": (sup(cum - (prof - prof[0])), 1.0),
        "wronskian": wronskian_residual(p, jet, grid, t),
    }


def soliton_ode_residual(s: cf.SolitonParams, grid: PeriodicGrid, t: float = 0.0) -> GridField:
    """Q'' - c Q + Q^3 with spectral Q'' of the sampled soliton."""
    q = sample(lambda tt, xx: cf.soliton(s, tt, xx), grid, t)
    res = spectral_derivatives(q.values, grid, (2,))[0] - s.c * q.values + q.values**3
    return GridField(grid, res, time_tag=t)


def weinstein_derivatives(b: GridField, p: cf.BreatherParams) -> dict:
    """Parameter derivatives of mass and energy along the breather family.

    b is the breather of p sampled at time b.time_tag. With dB the exact
    complex-step derivative d/dalpha or d/dbeta of the closed form
    (cf.scaling_derivative), dM = int B dB and dE = int B_x (dB)_x - B^3 dB,
    with spectral x-derivatives. Expected values: dM/dalpha = 0,
    dM/dbeta = 4, dE/dalpha = 8 alpha beta, dE/dbeta = 4 (alpha^2 - beta^2).
    """
    grid, bv = b.grid, b.values
    da, db = (cf.scaling_derivative(p, b.time_tag, grid.nodes, w) for w in ("alpha", "beta"))
    bx, dax, dbx = spectral_derivatives(np.stack([bv, da, db]), grid, (1,))[0]
    out = {}
    for which, d, dx in (("alpha", da, dax), ("beta", db, dbx)):
        out[f"dmass_d{which}"] = integrate(bv * d, grid)
        out[f"denergy_d{which}"] = integrate(bx * dx - bv**3 * d, grid)
    return out
