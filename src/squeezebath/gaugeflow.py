"""Analytic solution of the master equation via time-dependent gauge parameters.

Instead of integrating the 4-component linear master equation directly, the
solution is written as a time-dependent similarity transformation applied to
the initial components.  The transformation is fixed by four scalar gauge
parameters: a Riccati pair (alpha_plus, alpha_minus) acting in the population
sector and a second pair (eta_plus, eta_minus) acting in the coherence
sector, together with four exponential weight factors f_{s,s'}.  All four
parameters start at zero and obey first-order ODEs driven by the reservoir
parameters (gamma, N, M):

    d alpha_plus /dt = -gamma (N+1) alpha_plus^2 - gamma alpha_plus + gamma N
    d alpha_minus/dt =  gamma (N+1) (1 + 2 alpha_plus alpha_minus) + gamma alpha_minus
    d eta_plus   /dt =  gamma (M eta_plus^2 - conj(M))
    d eta_minus  /dt = -gamma M (1 + 2 eta_plus eta_minus)

and the weights obey d(log f_{s,s'})/dt =
-gamma { [(N+1) alpha_plus + 1/2](s+s')/2 - M eta_plus (s-s')/2 + (2N+1)/2 }.

The weights are stored and integrated as complex logarithms: they decay like
exp(-rate * t) while alpha_minus grows like the inverse, and only products of
the two are of order one.  Assembly therefore multiplies each term in
log space.

A gauge state is a complex array whose last axis holds the eight columns

    (alpha_plus, alpha_minus, eta_plus, eta_minus,
     log f_ee, log f_gg, log f_eg, log f_ge),

the weights in the component order of BASIS_LABELS.  At t = 0 every column is
zero (the transformation starts at the identity).  evolve_gauge returns one
row per grid time, the flow, which depends only on the reservoir; the
initial state enters only in assemble_density.

For a constant reservoir all five quantities have closed forms, implemented
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
    "gauge_derivatives",
    "evolve_gauge",
    "autonomous_gauge",
    "assemble_density",
    "autonomous_expectations",
]


def _gauge_rhs(gamma: float, n: float, m: complex, y: tuple[complex, ...]):
    ap, am, ep, em = y[0], y[1], y[2], y[3]
    mc = m.conjugate()
    half = n + 0.5
    mep = m * ep
    return (
        gamma * (n - ap - (n + 1.0) * ap * ap),
        gamma * ((n + 1.0) * (1.0 + 2.0 * ap * am) + am),
        gamma * (mep * ep - mc),
        -gamma * (m + 2.0 * mep * em),
        -gamma * (n + 1.0) * (1.0 + ap),
        -gamma * (n - (n + 1.0) * ap),
        -gamma * (half - mep),
        -gamma * (half + mep),
    )


def gauge_derivatives(t: float, y: np.ndarray, schedule: BathSchedule) -> np.ndarray:
    """Right-hand sides of the gauge ODE system at time t.

    y is one gauge state, shape (8,); the result holds the time derivatives
    of its columns (including the log-weight exponent rates).
    """
    point = schedule.at(t)
    y = tuple(complex(v) for v in np.asarray(y))
    return np.array(_gauge_rhs(point.gamma, point.n_param, point.m_param, y), dtype=complex)


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
        The gauge state at each grid time; row 0 is zero.

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
    y: tuple[complex, ...] = (0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j)
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


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def autonomous_gauge(gamma: float, n: float, m: float, t: float) -> np.ndarray:
    """Closed-form gauge state, shape (8,), for a constant reservoir with real M.

    The alpha pair depends on gamma, N and t through E = exp(-gamma(2N+1)t):

        alpha_plus  = N (1 - E) / (N + 1 + N E)
        alpha_minus = (N+1)(N + 1 + N E)(1 - E) / ((2N+1)^2 E)

    (alpha_plus is the standard form of the printed expression multiplied
    through by N, which also resolves its 0/0 limit at N = 0 to 0).  The eta
    pair is hyperbolic in u = gamma M t:

        eta_plus = -tanh(u),  eta_minus = -sinh(u) cosh(u)

    and the log-weights integrate the exponent rates in closed form.
    """
    for name, v in (("gamma", gamma), ("N", n), ("M", m), ("t", t)):
        if not math.isfinite(v):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))
    if t < 0.0:
        raise InvalidInputError("t must be >= 0, got %r" % (t,))
    if gamma < 0.0 or n < 0.0:
        raise InvalidInputError("gamma and N must be >= 0")
    x = gamma * (2.0 * n + 1.0) * t
    e = math.exp(-x)
    den = n + 1.0 + n * e
    ap = n * (1.0 - e) / den
    if e > 0.0:
        am = (n + 1.0) * den * (1.0 - e) / ((2.0 * n + 1.0) ** 2 * e)
    else:
        am = math.inf
    u = gamma * m * t
    ep = -math.tanh(u)
    em = -math.sinh(u) * math.cosh(u) if abs(u) < 350.0 else -math.copysign(math.inf, u)
    lc = _log_cosh(u)
    f_ee = -x + math.log((2.0 * n + 1.0) / den)
    f_gg = math.log(den / (2.0 * n + 1.0))
    f_eg = -gamma * (n + 0.5) * t - lc
    f_ge = -gamma * (n + 0.5) * t + lc
    return np.array([ap, am, ep, em, f_ee, f_gg, f_eg, f_ge], dtype=complex)


def _term(lam: complex, log_f: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    # lam * exp(log_f) * coeff, multiplied in log space: the weight factor
    # and the coefficient can separately overflow or underflow while their
    # product stays of order one.  Exactly zero where lam or coeff is.
    coeff = np.broadcast_to(coeff, log_f.shape)
    out = np.zeros(log_f.shape, dtype=complex)
    if lam != 0:
        live = coeff != 0
        out[live] = lam * np.exp(log_f[live] + np.log(coeff[live]))
    return out


def assemble_density(rho0: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Density matrices at the instants described by gauge states.

    rho0 is the initial density matrix (checked by check_density), flow one
    gauge state of shape (8,) or a (..., 8) stack such as evolve_gauge's
    result; the result has shape (..., 2, 2).  Implements the component
    expansion

        rho_ee = l_ee f_ee (1 + a+ a-) + l_gg f_gg a+
        rho_gg = l_ee f_ee a-          + l_gg f_gg
        rho_eg = l_eg f_eg (1 + e+ e-) + l_ge f_ge e+
        rho_ge = l_eg f_eg e-          + l_ge f_ge

    with l the components of rho0, a+- = alpha_plus/minus, e+- =
    eta_plus/minus and f the exponential weights.  The result is Hermitian
    with trace 1 up to integration tolerances.
    """
    l_ee, l_gg, l_eg, l_ge = (complex(v) for v in vectorize(check_density(rho0)))
    flow = np.asarray(flow, dtype=complex)
    if not np.all(np.isfinite(flow[..., :4])):
        raise NumericalFailureError("gauge parameters are not finite; cannot assemble")
    ap, am, ep, em, f_ee, f_gg, f_eg, f_ge = np.moveaxis(flow, -1, 0)
    rho = np.stack(
        [
            _term(l_ee, f_ee, 1.0 + ap * am) + _term(l_gg, f_gg, ap),
            _term(l_ee, f_ee, am) + _term(l_gg, f_gg, 1.0),
            _term(l_eg, f_eg, 1.0 + ep * em) + _term(l_ge, f_ge, ep),
            _term(l_eg, f_eg, em) + _term(l_ge, f_ge, 1.0),
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
