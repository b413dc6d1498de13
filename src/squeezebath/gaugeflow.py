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
reservoir; the initial state enters only in assemble_density, so one flow
serves any number of initial states.

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
    grid, chunks = plan_integration(schedule, grid, step)
    # One classic RK4 substep, unrolled into Python scalars: an order of
    # magnitude faster than numpy arithmetic on length-8 arrays, and about
    # twice as fast as a right-hand-side function over tuples.  The population
    # sector (alpha_plus, b, f_ee, f_gg) starts real and its ODEs have only
    # real coefficients (gamma, N), so it is carried as floats: complex
    # arithmetic would give the same real parts, exactly, at about 1.5 times
    # the cost.  Only the coherence sector (eta_plus, e, f_eg, f_ge) sees M
    # and stays complex.  Node k of a substep (start 0, midpoint 1, end 2)
    # gives gk, nk, mk = gamma, N, M, with nk1 = N + 1 and nkh = N + 1/2;
    # j runs over the start nodes of the substeps of a chunk, and each end
    # node, across grid times and chunks too, is the next substep's start
    # node, so the start node's parameters and the eight columns carry over.
    # Every expression keeps the operation order of the module docstring's
    # ODEs; test_gaugeflow compares the flow bit for bit with a plain RK4
    # over that right-hand side, which pins the order.
    ap = b = 0.0
    f_ee = f_gg = 1.0
    ep = e = 0j
    f_eg = f_ge = 1 + 0j
    out = np.empty((grid.size, 8), dtype=complex)
    out[0] = (ap, b, ep, e, f_ee, f_gg, f_eg, f_ge)
    for i0, plan, (g_nodes, n_nodes, m_nodes) in chunks:
        gl = g_nodes.tolist()
        nl = n_nodes.tolist()
        ml = m_nodes.tolist()
        if i0 == 0:
            g0, n0, m0 = gl[0], nl[0], ml[0]
        j = 0
        rows = zip(plan.counts.tolist(), plan.widths.tolist())
        for i, (count, h) in enumerate(rows, i0 + 1):
            h2 = 0.5 * h
            h6 = h / 6.0
            for j in range(j, j + 2 * count, 2):
                g1 = gl[j + 1]
                n1 = nl[j + 1]
                m1 = ml[j + 1]
                g2 = gl[j + 2]
                n2 = nl[j + 2]
                m2 = ml[j + 2]
                # k1 at the start node
                n01 = n0 + 1.0
                n0h = n0 + 0.5
                mep = m0 * ep
                c = n0h + mep
                ap1 = g0 * (n0 - ap - n01 * ap * ap)
                b1 = g0 * (n01 * f_ee + (n01 * ap - n0) * b)
                ep1 = g0 * (mep * ep - m0.conjugate())
                e1 = -g0 * (m0 * f_eg + c * e)
                fee1 = -g0 * n01 * (1.0 + ap) * f_ee
                fgg1 = -g0 * (n0 - n01 * ap) * f_gg
                feg1 = -g0 * (n0h - mep) * f_eg
                fge1 = -g0 * c * f_ge
                # k2 and k3 at the midpoint node
                n11 = n1 + 1.0
                n1h = n1 + 0.5
                m1c = m1.conjugate()
                y_ap = ap + h2 * ap1
                y_b = b + h2 * b1
                y_ep = ep + h2 * ep1
                y_e = e + h2 * e1
                y_fee = f_ee + h2 * fee1
                y_fgg = f_gg + h2 * fgg1
                y_feg = f_eg + h2 * feg1
                y_fge = f_ge + h2 * fge1
                mep = m1 * y_ep
                c = n1h + mep
                ap2 = g1 * (n1 - y_ap - n11 * y_ap * y_ap)
                b2 = g1 * (n11 * y_fee + (n11 * y_ap - n1) * y_b)
                ep2 = g1 * (mep * y_ep - m1c)
                e2 = -g1 * (m1 * y_feg + c * y_e)
                fee2 = -g1 * n11 * (1.0 + y_ap) * y_fee
                fgg2 = -g1 * (n1 - n11 * y_ap) * y_fgg
                feg2 = -g1 * (n1h - mep) * y_feg
                fge2 = -g1 * c * y_fge
                y_ap = ap + h2 * ap2
                y_b = b + h2 * b2
                y_ep = ep + h2 * ep2
                y_e = e + h2 * e2
                y_fee = f_ee + h2 * fee2
                y_fgg = f_gg + h2 * fgg2
                y_feg = f_eg + h2 * feg2
                y_fge = f_ge + h2 * fge2
                mep = m1 * y_ep
                c = n1h + mep
                ap3 = g1 * (n1 - y_ap - n11 * y_ap * y_ap)
                b3 = g1 * (n11 * y_fee + (n11 * y_ap - n1) * y_b)
                ep3 = g1 * (mep * y_ep - m1c)
                e3 = -g1 * (m1 * y_feg + c * y_e)
                fee3 = -g1 * n11 * (1.0 + y_ap) * y_fee
                fgg3 = -g1 * (n1 - n11 * y_ap) * y_fgg
                feg3 = -g1 * (n1h - mep) * y_feg
                fge3 = -g1 * c * y_fge
                # k4 at the end node
                n21 = n2 + 1.0
                n2h = n2 + 0.5
                y_ap = ap + h * ap3
                y_b = b + h * b3
                y_ep = ep + h * ep3
                y_e = e + h * e3
                y_fee = f_ee + h * fee3
                y_fgg = f_gg + h * fgg3
                y_feg = f_eg + h * feg3
                y_fge = f_ge + h * fge3
                mep = m2 * y_ep
                c = n2h + mep
                ap += h6 * (ap1 + 2.0 * (ap2 + ap3) + g2 * (n2 - y_ap - n21 * y_ap * y_ap))
                b += h6 * (b1 + 2.0 * (b2 + b3) + g2 * (n21 * y_fee + (n21 * y_ap - n2) * y_b))
                ep += h6 * (ep1 + 2.0 * (ep2 + ep3) + g2 * (mep * y_ep - m2.conjugate()))
                e += h6 * (e1 + 2.0 * (e2 + e3) + -g2 * (m2 * y_feg + c * y_e))
                f_ee += h6 * (fee1 + 2.0 * (fee2 + fee3) + -g2 * n21 * (1.0 + y_ap) * y_fee)
                f_gg += h6 * (fgg1 + 2.0 * (fgg2 + fgg3) + -g2 * (n2 - n21 * y_ap) * y_fgg)
                f_eg += h6 * (feg1 + 2.0 * (feg2 + feg3) + -g2 * (n2h - mep) * y_feg)
                f_ge += h6 * (fge1 + 2.0 * (fge2 + fge3) + -g2 * c * y_fge)
                g0 = g2
                n0 = n2
                m0 = m2
            j += 2  # the last substep's end node starts the next interval
            out[i] = (ap, b, ep, e, f_ee, f_gg, f_eg, f_ge)
    # Non-finite values never become finite again, so the first non-finite
    # row is the first interval on which the flow blew up.
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(
            "gauge parameters non-finite at t = %r" % (float(grid[np.argmin(finite)]),)
        )
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

    rho0 is the initial density matrix, or a (k, 2, 2) stack of them (checked
    by check_density); flow is one gauge state of shape (8,) or a (..., 8)
    stack such as evolve_gauge's result.  The result has shape
    flow.shape[:-1] + rho0.shape: every gauge state assembled for every
    initial state.  Implements the component expansion

        rho_ee = l_ee (f_ee + a+ b) + l_gg f_gg a+
        rho_gg = l_ee b             + l_gg f_gg
        rho_eg = l_eg (f_eg + e+ e) + l_ge f_ge e+
        rho_ge = l_eg e             + l_ge f_ge

    with l the components of rho0, a+ = alpha_plus, e+ = eta_plus and
    (b, e, f) the remaining columns of the gauge state.  The result is
    Hermitian with trace 1 up to integration tolerances.
    """
    rho0 = check_density(rho0)
    l_ee, l_gg, l_eg, l_ge = np.moveaxis(vectorize(rho0), -1, 0)
    flow = np.asarray(flow, dtype=complex)
    if not np.all(np.isfinite(flow)):
        raise NumericalFailureError("gauge parameters are not finite; cannot assemble")
    # one trailing axis per stack axis of rho0, so the columns broadcast over it
    columns = np.moveaxis(flow, -1, 0).reshape((8,) + flow.shape[:-1] + (1,) * (rho0.ndim - 2))
    ap, b, ep, e, f_ee, f_gg, f_eg, f_ge = columns
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
    if rho0.ndim != 2:
        raise InvalidInputError("rho0 must be one 2x2 state, got shape %r" % (rho0.shape,))
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
