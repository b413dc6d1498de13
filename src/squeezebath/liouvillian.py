"""Rate operator of the squeezed-reservoir master equation and its brute-force solver.

The master equation for the atomic density matrix,

    drho/dt = (gamma/2)(N+1)(2 sm rho sp - sp sm rho - rho sp sm)
            + (gamma/2) N   (2 sp rho sm - sm sp rho - rho sm sp)
            - gamma M  sm rho sm - gamma conj(M) sp rho sp,

is linear in rho, so on the component vector (ee, gg, eg, ge) it is a 4x4
matrix, the rate operator.  This module builds that matrix two independent
ways (directly from the sandwich terms above, and as a combination of the
composite ladder generators), exposes its spectrum and steady state, and
integrates the equation step by step.  The stepwise integrator is the
ground-truth oracle against which the analytic gauge-flow solution is tested,
so it shares no solution formulas with the gaugeflow module.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    composite_generators,
    lift_left,
    lift_right,
    unvectorize,
    vectorize,
)
from .bath import BathPoint, BathSchedule, _validate_bath_point
from .errors import InvalidInputError, NumericalFailureError
from .integrate import plan_integration
from .states import hermiticity_defect, min_eigenvalue, trace_error

__all__ = [
    "build_rate_operator",
    "rate_matrix_batch",
    "spectrum",
    "steady_state",
    "integrate_reference",
]

_GEN = composite_generators()
_I4 = np.eye(4, dtype=complex)


def rate_matrix_batch(gamma, n, m) -> np.ndarray:
    """Stack of rate matrices for arrays of reservoir parameters.

    Parameters gamma, n (real) and m (complex) must have a common shape (K,);
    the result has shape (K, 4, 4).  Used by the reference integrator to
    evaluate the operator on many node times in one pass.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=complex)
    out = np.zeros(gamma.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = -gamma * (n + 1.0)
    out[..., 0, 1] = gamma * n
    out[..., 1, 0] = gamma * (n + 1.0)
    out[..., 1, 1] = -gamma * n
    out[..., 2, 2] = -gamma * (n + 0.5)
    out[..., 2, 3] = -gamma * np.conj(m)
    out[..., 3, 2] = -gamma * m
    out[..., 3, 3] = -gamma * (n + 0.5)
    return out


def build_rate_operator(point: BathPoint, method: str = "sandwich") -> np.ndarray:
    """Build the rate operator at one reservoir point.

    Parameters
    ----------
    point : BathPoint
    method : {"sandwich", "algebraic"}
        "sandwich" assembles the operator term by term from left/right lifts
        of the master-equation sandwich products.  "algebraic" takes the
        combination of composite ladder generators

            gamma [ (N+1) j_minus + N j_plus - j0/2
                    - M k_minus - conj(M) k_plus - (2N+1)/2 ]

        The two constructions agree entrywise to <= 1e-14 and tests pin that.

    Returns
    -------
    ndarray, shape (4, 4)
        Block diagonal: entries coupling the population components (0, 1) to
        the coherence components (2, 3) are exactly zero, and the population
        columns sum to zero (trace preservation).
    """
    _validate_bath_point(point.gamma, point.n_param, point.m_param)
    g = point.gamma
    n = point.n_param
    m = complex(point.m_param)
    if method == "sandwich":
        sp_l = lift_left(SIGMA_PLUS)
        sm_l = lift_left(SIGMA_MINUS)
        sp_r = lift_right(SIGMA_PLUS)
        sm_r = lift_right(SIGMA_MINUS)
        pm_l = lift_left(SIGMA_PLUS @ SIGMA_MINUS)
        pm_r = lift_right(SIGMA_PLUS @ SIGMA_MINUS)
        mp_l = lift_left(SIGMA_MINUS @ SIGMA_PLUS)
        mp_r = lift_right(SIGMA_MINUS @ SIGMA_PLUS)
        mat = 0.5 * g * (n + 1.0) * (2.0 * sm_l @ sp_r - pm_l - pm_r)
        mat = mat + 0.5 * g * n * (2.0 * sp_l @ sm_r - mp_l - mp_r)
        mat = mat - g * m * (sm_l @ sm_r) - g * np.conj(m) * (sp_l @ sp_r)
    elif method == "algebraic":
        mat = g * (
            (n + 1.0) * _GEN.j_minus
            + n * _GEN.j_plus
            - 0.5 * _GEN.j0
            - m * _GEN.k_minus
            - np.conj(m) * _GEN.k_plus
            - 0.5 * (2.0 * n + 1.0) * _I4
        )
    else:
        raise InvalidInputError("method must be 'sandwich' or 'algebraic', got %r" % (method,))
    return np.asarray(mat, dtype=complex)


def _as_matrix(rate) -> np.ndarray:
    mat = np.asarray(rate, dtype=complex)
    if mat.shape != (4, 4):
        raise InvalidInputError("expected a 4x4 rate matrix, got shape %r" % (mat.shape,))
    return mat


def spectrum(rate) -> np.ndarray:
    """Eigenvalues of the rate operator, sorted for deterministic comparison.

    Sorted by real part descending, ties broken by imaginary part ascending.
    For real M the values are {0, -gamma(2N+1), -gamma(N+1/2-|M|),
    -gamma(N+1/2+|M|)}.
    """
    mat = _as_matrix(rate)
    try:
        eigs = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvals on 4x4 converges
        raise NumericalFailureError("eigendecomposition failed: %s" % (exc,)) from exc
    order = np.lexsort((eigs.imag, -eigs.real))
    return eigs[order]


def steady_state(rate) -> np.ndarray:
    """Trace-one null vector of the rate operator as a 2x2 density matrix.

    Computed from the singular vector of the smallest singular value.  Raises
    NumericalFailureError when the null space is not one-dimensional (this
    happens for gamma = 0, where the whole operator vanishes).
    """
    mat = _as_matrix(rate)
    _, sing, vh = np.linalg.svd(mat)
    scale = float(sing[0])
    if scale == 0.0 or float(sing[-2]) <= 1e-10 * scale:
        raise NumericalFailureError(
            "rate operator null space is degenerate (singular values %s)" % (sing,)
        )
    vec = vh[-1].conj()
    tr = vec[0] + vec[1]
    if abs(tr) < 1e-12:
        raise NumericalFailureError("null vector has vanishing trace; cannot normalize")
    return unvectorize(vec / tr)


def _check_rho0(rho0: np.ndarray) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise InvalidInputError("rho0 must be 2x2, got shape %r" % (rho0.shape,))
    if not np.all(np.isfinite(rho0)):
        raise InvalidInputError("rho0 must be finite")
    if trace_error(rho0) > 1e-9:
        raise InvalidInputError("rho0 trace differs from 1 by %g" % trace_error(rho0))
    if hermiticity_defect(rho0) > 1e-9:
        raise InvalidInputError("rho0 is not Hermitian (defect %g)" % hermiticity_defect(rho0))
    if min_eigenvalue(rho0) < -1e-8:
        raise InvalidInputError("rho0 has negative eigenvalue %g" % min_eigenvalue(rho0))
    return rho0


def integrate_reference(
    schedule: BathSchedule,
    rho0: np.ndarray,
    grid: np.ndarray,
    step: float | None = None,
) -> np.ndarray:
    """Integrate the master equation with the classic 4th-order fixed step.

    Parameters
    ----------
    schedule : BathSchedule
        Reservoir controls; the rate operator is rebuilt at every substep
        node (start, midpoint, end).
    rho0 : ndarray, shape (2, 2)
        Physical initial state (trace one, Hermitian, positive within 1e-8).
    grid : array of times
        Output times, starting at 0, strictly increasing.
    step : float, optional
        Internal substep; must not exceed the grid spacing.  Defaults to
        1e-3 divided by the largest gamma on the grid.

    Returns
    -------
    ndarray, shape (len(grid), 2, 2)
        The density matrix at each grid time.

    Raises
    ------
    NumericalFailureError
        If the state stops being finite, with the offending time named.
    """
    rho0 = _check_rho0(rho0)
    grid, plan, (g_nodes, n_nodes, m_nodes) = plan_integration(schedule, grid, step)
    rates = rate_matrix_batch(g_nodes, n_nodes, m_nodes)
    states = np.zeros((grid.size, 2, 2), dtype=complex)
    y = vectorize(rho0).astype(complex)
    states[0] = rho0
    for i in range(grid.size - 1):
        m_sub = int(plan.counts[i])
        h = float(plan.widths[i])
        base = int(plan.offsets[i])
        g0 = rates[base : base + 2 * m_sub : 2]
        gm = rates[base + 1 : base + 2 * m_sub : 2]
        g1 = rates[base + 2 : base + 2 * m_sub + 2 : 2]
        k1 = g0
        k2 = np.matmul(gm, _I4 + (0.5 * h) * k1)
        k3 = np.matmul(gm, _I4 + (0.5 * h) * k2)
        k4 = np.matmul(g1, _I4 + h * k3)
        one_step = _I4 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for a in one_step:
            y = a @ y
        if not np.all(np.isfinite(y)):
            raise NumericalFailureError(
                "reference state non-finite at t = %r" % (float(grid[i + 1]),)
            )
        states[i + 1] = unvectorize(y)
    return states
