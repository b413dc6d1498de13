"""Rate operator of the squeezed-reservoir master equation and its brute-force solver.

The master equation for the atomic density matrix,

    drho/dt = (gamma/2)(N+1)(2 sm rho sp - sp sm rho - rho sp sm)
            + (gamma/2) N   (2 sp rho sm - sm sp rho - rho sm sp)
            - gamma M  sm rho sm - gamma conj(M) sp rho sp,

is linear in rho, so on the component vector (ee, gg, eg, ge) it is a 4x4
matrix, the rate operator.  This module builds that matrix once, from the
left and right lifts of the sandwich terms above, exposes its spectrum and
steady state, and integrates the equation step by step.  The stepwise
integrator is the ground-truth oracle against which the analytic gauge-flow
solution is tested, so it shares no solution formulas with the gaugeflow
module, nor the generator form of the operator that the analytic route rests
on (verify checks that form against this construction).
"""

from __future__ import annotations

import numpy as np

from .algebra import SIGMA_MINUS, SIGMA_PLUS, lift_left, lift_right, unvectorize, vectorize
from .bath import BathPoint, BathSchedule, _validate_bath_point
from .errors import InvalidInputError, NumericalFailureError
from .integrate import plan_integration
from .states import check_density

__all__ = [
    "build_rate_operator",
    "rate_matrix_batch",
    "spectrum",
    "steady_state",
    "integrate_reference",
]

_I4 = np.eye(4, dtype=complex)
_SP_L, _SM_L = lift_left(SIGMA_PLUS), lift_left(SIGMA_MINUS)
_SP_R, _SM_R = lift_right(SIGMA_PLUS), lift_right(SIGMA_MINUS)
_PM, _MP = SIGMA_PLUS @ SIGMA_MINUS, SIGMA_MINUS @ SIGMA_PLUS
# The four sandwich terms of the master equation as constant matrices; the
# rate operator weighs them by gamma(N+1)/2, gamma N/2, -gamma M, -gamma conj(M).
_EMISSION = 2.0 * _SM_L @ _SP_R - lift_left(_PM) - lift_right(_PM)
_ABSORPTION = 2.0 * _SP_L @ _SM_R - lift_left(_MP) - lift_right(_MP)
_SQUEEZE = _SM_L @ _SM_R
_SQUEEZE_CONJ = _SP_L @ _SP_R


def _add_term(out: np.ndarray, term: np.ndarray, coeff) -> None:
    for i, j in zip(*np.nonzero(term)):
        out[..., i, j] += term[i, j] * coeff


def rate_matrix_batch(gamma, n, m) -> np.ndarray:
    """Rate matrices for scalars or arrays of reservoir parameters.

    gamma, n (real) and m (complex) are scalars or arrays of a common shape
    (K,); the result has shape (4, 4) or (K, 4, 4).  This is the one
    construction of the rate operator: each sandwich term times its weight.
    The weights are computed one at a time, so a long stack of node times
    holds one weight array beside the result.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=complex)
    out = np.zeros(gamma.shape + (4, 4), dtype=complex)
    _add_term(out, _EMISSION, 0.5 * gamma * (n + 1.0))
    _add_term(out, _ABSORPTION, 0.5 * gamma * n)
    _add_term(out, _SQUEEZE, -gamma * m)
    _add_term(out, _SQUEEZE_CONJ, -gamma * np.conj(m))
    return out


def build_rate_operator(point: BathPoint) -> np.ndarray:
    """The rate operator at one reservoir point, shape (4, 4).

    Block diagonal: entries coupling the population components (0, 1) to the
    coherence components (2, 3) are exactly zero, and the population columns
    sum to zero (trace preservation).
    """
    _validate_bath_point(point.gamma, point.n_param, point.m_param)
    return rate_matrix_batch(point.gamma, point.n_param, point.m_param)


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
    rho0 : ndarray, shape (2, 2) or (k, 2, 2)
        Physical initial state, or a stack of k of them (trace one,
        Hermitian, positive within 1e-8).  A stack is integrated in one pass
        and each state gets the same bits it gets alone.
    grid : array of times
        Output times, starting at 0, strictly increasing.
    step : float, optional
        Internal substep; must not exceed the grid spacing.  Defaults to
        1e-3 divided by the largest gamma on the grid.

    Returns
    -------
    ndarray, shape (len(grid),) + rho0.shape
        The density matrix, or the stack of them, at each grid time.

    Raises
    ------
    NumericalFailureError
        If the state stops being finite, with the offending time named.
    """
    rho0 = check_density(rho0)
    grid, plan, (g_nodes, n_nodes, m_nodes) = plan_integration(schedule, grid, step)
    rates = rate_matrix_batch(g_nodes, n_nodes, m_nodes)
    # substep k of the grid runs over nodes 2k, 2k+1 and 2k+2
    starts, mids, ends = rates[0:-1:2], rates[1::2], rates[2::2]
    # States are column vectors, so that a @ y is the same matrix-vector
    # product for every state of a stack; y @ a.T would round differently.
    y = vectorize(rho0)[..., None]
    vectors = np.zeros((grid.size,) + y.shape[:-1], dtype=complex)
    vectors[0] = y[..., 0]
    done = 0  # substeps before interval i
    for i in range(grid.size - 1):
        m_sub = int(plan.counts[i])
        h = float(plan.widths[i])
        k1 = starts[done : done + m_sub]
        gm = mids[done : done + m_sub]
        k2 = np.matmul(gm, _I4 + (0.5 * h) * k1)
        k3 = np.matmul(gm, _I4 + (0.5 * h) * k2)
        k4 = np.matmul(ends[done : done + m_sub], _I4 + h * k3)
        one_step = _I4 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for a in one_step:
            y = a @ y
        vectors[i + 1] = y[..., 0]
        done += m_sub
    # non-finite values stay non-finite, so the first such row is where it blew up
    finite = np.isfinite(vectors).reshape(grid.size, -1).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(
            "reference state non-finite at t = %r" % (float(grid[np.argmin(finite)]),)
        )
    return unvectorize(vectors)
