"""Analytic solution of the master equation via time-dependent gauge parameters.

Instead of integrating the 4-component linear master equation directly, the
solution is written as a time-dependent similarity transformation applied to
the initial components.  The transformation is fixed by a Riccati pair
(alpha_plus, alpha_minus) acting in the population sector, a second pair
(eta_plus, eta_minus) acting in the coherence sector, and four weight
factors f_{s,s'}.  alpha_minus grows like exp(gamma (2N+1) t) and eta_minus
like sinh(u) cosh(u) with u = gamma M t, but the density only ever uses the
products b = alpha_minus f_ee and e = eta_minus f_eg.  The flow integrates
those products in place of alpha_minus and eta_minus.  With
c = N + 1/2 + M eta_plus, the product rule gives

    d alpha_plus/dt = gamma (N - alpha_plus - (N+1) alpha_plus^2)
    d b/dt          = gamma [(N+1) f_ee + ((N+1) alpha_plus - N) b]
    d eta_plus/dt   = gamma (M eta_plus^2 - conj(M))
    d e/dt          = -gamma (M f_eg + c e)
    d f_ee/dt       = -gamma (N+1) (1 + alpha_plus) f_ee
    d f_gg/dt       = -gamma (N - (N+1) alpha_plus) f_gg
    d f_eg/dt       = -gamma (N + 1/2 - M eta_plus) f_eg
    d f_ge/dt       = -gamma c f_ge

A gauge state is a complex array whose last axis holds the eight columns

    (alpha_plus, b, eta_plus, e, f_ee, f_gg, f_eg, f_ge),

the weights in the component order of BASIS_LABELS.  At t = 0 the
transformation is the identity, (0, 0, 0, 0, 1, 1, 1, 1).  evolve_gauge
returns one row per grid time, the flow, which depends only on the
reservoir; the initial state enters only in assemble_density.

Every column stays bounded.  Setting one initial component to 1 in the
expansion of assemble_density shows that b, f_gg, e and f_ge are matrix
elements of the evolved basis operators |e><e|, |g><g|, |e><g| and |g><e|,
which the trace-preserving evolution keeps within 1.  alpha_plus stays in
[0, 1), so the trace identities f_gg (1 + alpha_plus) = 1 and
f_ee + (1 + alpha_plus) b = 1 bound f_ee; eta_plus (-tanh(gamma M t) for a
constant reservoir) and with it f_eg stay of order one.  The right-hand side
and the assembly are therefore polynomials in bounded values, with nothing
to overflow.

For a constant reservoir all eight columns have closed forms, implemented
in autonomous_gauge; the time stepping must reproduce them, and both must
match the brute-force reference integrator.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import unvectorize, vectorize
from .bath import BathSchedule
from .errors import InvalidInputError, NumericalFailureError
from .integrate import plan_integration
from .states import check_density

__all__ = [
    "evolve_gauge",
    "autonomous_gauge",
    "assemble_density",
    "autonomous_expectations",
]


def _gauge_rhs(gamma: float, n: float, m: complex, y: tuple[complex, ...]):
    ap, b, ep, e, f_ee, f_gg, f_eg, f_ge = y
    mep = m * ep
    c = n + 0.5 + mep
    return (
        gamma * (n - ap - (n + 1.0) * ap * ap),
        gamma * ((n + 1.0) * f_ee + ((n + 1.0) * ap - n) * b),
        gamma * (mep * ep - m.conjugate()),
        -gamma * (m * f_eg + c * e),
        -gamma * (n + 1.0) * (1.0 + ap) * f_ee,
        -gamma * (n - (n + 1.0) * ap) * f_gg,
        -gamma * (n + 0.5 - mep) * f_eg,
        -gamma * c * f_ge,
    )


def evolve_gauge(
    schedule: BathSchedule,
    grid: np.ndarray,
    step: float | None = None,
) -> np.ndarray:
    """Integrate the gauge ODEs from the identity with fixed 4th-order steps.

    Parameters
    ----------
    schedule : BathSchedule
    grid : array of times
        Output times starting at 0, strictly increasing.
    step : float, optional
        Internal substep, at most the grid spacing; defaults to 1e-3 over
        the largest gamma on the grid.

    Returns
    -------
    ndarray, shape (len(grid), 8)
        The gauge state at each grid time; row 0 is the identity
        (0, 0, 0, 0, 1, 1, 1, 1).

    Raises
    ------
    NumericalFailureError
        On non-finite gauge values (Riccati blow-up), naming the time.
    """
    grid, plan, (g_nodes, n_nodes, m_nodes) = plan_integration(schedule, grid, step)
    out = np.zeros((grid.size, 8), dtype=complex)
    # Plain Python scalars keep the innermost loop an order of magnitude
    # faster than numpy element arithmetic on length-8 arrays.
    gl = [float(v) for v in g_nodes]
    nl = [float(v) for v in n_nodes]
    ml = [complex(v) for v in m_nodes]
    y: tuple[complex, ...] = (0j, 0j, 0j, 0j, 1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)
    out[0] = y
    for i in range(grid.size - 1):
        m_sub = int(plan.counts[i])
        h = float(plan.widths[i])
        base = int(plan.offsets[i])
        h2 = 0.5 * h
        h6 = h / 6.0
        for k in range(m_sub):
            j = base + 2 * k
            k1 = _gauge_rhs(gl[j], nl[j], ml[j], y)
            k2 = _gauge_rhs(
                gl[j + 1], nl[j + 1], ml[j + 1],
                tuple(a + h2 * b for a, b in zip(y, k1)),
            )
            k3 = _gauge_rhs(
                gl[j + 1], nl[j + 1], ml[j + 1],
                tuple(a + h2 * b for a, b in zip(y, k2)),
            )
            k4 = _gauge_rhs(
                gl[j + 2], nl[j + 2], ml[j + 2],
                tuple(a + h * b for a, b in zip(y, k3)),
            )
            y = tuple(
                a + h6 * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            )
        if not all(cmath.isfinite(v) for v in y):
            raise NumericalFailureError(
                "gauge parameters non-finite at t = %r" % (float(grid[i + 1]),)
            )
        out[i + 1] = y
    return out


def autonomous_gauge(gamma: float, n: float, m: float, t: float) -> np.ndarray:
    """Closed-form gauge state, shape (8,), for a constant reservoir with real M.

    With E = exp(-gamma (2N+1) t) and D = N + 1 + N E, the population
    columns are

        alpha_plus = N (1 - E) / D,      b    = (N+1) (1 - E) / (2N+1),
        f_ee       = (2N+1) E / D,       f_gg = D / (2N+1)

    (alpha_plus is the standard form of the printed expression multiplied
    through by N, which also resolves its 0/0 limit at N = 0 to 0).  With
    u = gamma M t, S = exp(-gamma (N + 1/2 - |M|) t) and
    F = exp(-gamma (N + 1/2 + |M|) t), the coherence columns are

        eta_plus = -tanh(u),             e    = -sign(M) (S - F) / 2,
        f_eg     = 2 F / (1 + exp(-2 |u|)),  f_ge = (S + F) / 2.

    Every exponent is non-positive for a physical reservoir
    (|M| <= N + 1/2), so no intermediate value overflows at any t.
    """
    for name, v in (("gamma", gamma), ("N", n), ("M", m), ("t", t)):
        if not math.isfinite(v):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))
    if t < 0.0:
        raise InvalidInputError("t must be >= 0, got %r" % (t,))
    if gamma < 0.0 or n < 0.0:
        raise InvalidInputError("gamma and N must be >= 0")
    w = 2.0 * n + 1.0
    big_e = math.exp(-gamma * w * t)
    den = n + 1.0 + n * big_e
    u = gamma * m * t
    s = math.exp(-gamma * (n + 0.5 - abs(m)) * t)
    f = math.exp(-gamma * (n + 0.5 + abs(m)) * t)
    return np.array(
        [
            n * (1.0 - big_e) / den,
            (n + 1.0) * (1.0 - big_e) / w,
            -math.tanh(u),
            -math.copysign(0.5 * (s - f), m),
            w * big_e / den,
            den / w,
            2.0 * f / (1.0 + math.exp(-2.0 * abs(u))),
            0.5 * (s + f),
        ],
        dtype=complex,
    )


def assemble_density(rho0: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Density matrices at the instants described by gauge states.

    rho0 is the initial density matrix (checked by check_density), flow one
    gauge state of shape (8,) or a (..., 8) stack such as evolve_gauge's
    result; the result has shape (..., 2, 2).  Implements the component
    expansion

        rho_ee = l_ee (f_ee + a+ b) + l_gg f_gg a+
        rho_gg = l_ee b             + l_gg f_gg
        rho_eg = l_eg (f_eg + e+ e) + l_ge f_ge e+
        rho_ge = l_eg e             + l_ge f_ge

    with l the components of rho0, a+ = alpha_plus, e+ = eta_plus and
    (b, e, f) the remaining columns of the gauge state.  The result is
    Hermitian with trace 1 up to integration tolerances.
    """
    l_ee, l_gg, l_eg, l_ge = (complex(v) for v in vectorize(check_density(rho0)))
    flow = np.asarray(flow, dtype=complex)
    if not np.all(np.isfinite(flow)):
        raise NumericalFailureError("gauge parameters are not finite; cannot assemble")
    ap, b, ep, e, f_ee, f_gg, f_eg, f_ge = np.moveaxis(flow, -1, 0)
    rho = np.stack(
        [
            l_ee * (f_ee + ap * b) + l_gg * f_gg * ap,
            l_ee * b + l_gg * f_gg,
            l_eg * (f_eg + ep * e) + l_ge * f_ge * ep,
            l_eg * e + l_ge * f_ge,
        ],
        axis=-1,
    )
    return unvectorize(rho)


def autonomous_expectations(
    rho0: np.ndarray, gamma: float, n: float, m: float, t: float | np.ndarray
) -> np.ndarray:
    """Closed-form Pauli expectations for a constant reservoir with real M.

    Starting from the density matrix rho0 (checked by check_density):

        <sigma_x>(t) =  2 Re(rho_eg) exp(-gamma (N + M + 1/2) t)
        <sigma_y>(t) = -2 Im(rho_eg) exp(-gamma (N - M + 1/2) t)
        <sigma_z>(t) = (2 [rho_ee (N+1) - rho_gg N] exp(-gamma (2N+1) t) - 1)
                       / (2N + 1)

    The two quadratures decay at the split rates gamma (N +- M + 1/2), the
    inversion at gamma (2N+1) toward -1/(2N+1).  t is one time or an array
    of times; the result has shape t.shape + (3,) with columns sx, sy, sz,
    like pauli_expectations.
    """
    rho0 = check_density(rho0)
    t = np.asarray(t, dtype=float)
    for name, v in (("gamma", gamma), ("N", n), ("M", m), ("t", t)):
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))
    if np.any(t < 0.0):
        raise InvalidInputError("t must be >= 0, got %r" % (float(np.min(t)),))
    p_e = float(rho0[0, 0].real)
    p_g = float(rho0[1, 1].real)
    coh = complex(rho0[0, 1])
    sx = 2.0 * coh.real * np.exp(-gamma * (n + m + 0.5) * t)
    sy = -2.0 * coh.imag * np.exp(-gamma * (n - m + 0.5) * t)
    sz = (
        2.0 * (p_e * (n + 1.0) - p_g * n) * np.exp(-gamma * (2.0 * n + 1.0) * t)
        - 1.0
    ) / (2.0 * n + 1.0)
    return np.stack([sx, sy, sz], axis=-1)
