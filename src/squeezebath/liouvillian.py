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

rate_matrix_batch, and so the spectrum and steady state, work in the
component basis.  The integrator works in the real Bloch coordinates
(tr rho, <sz>, <sx>, <sy>): the equation maps Hermitian matrices to
Hermitian ones, so there the same weighted sum of sandwich terms is a real
4x4 matrix (the Bloch equations of the squeezed-vacuum atom), and the
integrator's batched arithmetic is real.
"""

from __future__ import annotations

import numpy as np

from .algebra import SIGMA_MINUS, SIGMA_PLUS, lift_left, lift_right, unvectorize, vectorize
from .bath import BathPoint, BathSchedule, _validate_bath_point
from .errors import InvalidInputError, NumericalFailureError
from .integrate import pairwise_products, plan_integration, prefix_products
from .states import check_density

__all__ = [
    "build_rate_operator",
    "rate_matrix_batch",
    "spectrum",
    "steady_state",
    "integrate_reference",
]

_SP_L, _SM_L = lift_left(SIGMA_PLUS), lift_left(SIGMA_MINUS)
_SP_R, _SM_R = lift_right(SIGMA_PLUS), lift_right(SIGMA_MINUS)
_PM, _MP = SIGMA_PLUS @ SIGMA_MINUS, SIGMA_MINUS @ SIGMA_PLUS
# The four sandwich terms of the master equation as constant matrices; the
# rate operator weighs them by gamma(N+1)/2, gamma N/2, -gamma M, -gamma conj(M).
_EMISSION = 2.0 * _SM_L @ _SP_R - lift_left(_PM) - lift_right(_PM)
_ABSORPTION = 2.0 * _SP_L @ _SM_R - lift_left(_MP) - lift_right(_MP)
_SQUEEZE = _SM_L @ _SM_R
_SQUEEZE_CONJ = _SP_L @ _SP_R

# Bloch coordinates (tr rho, <sz>, <sx>, <sy>) of a component vector: rows
# ee+gg, ee-gg, eg+ge and i(eg-ge).  The master equation maps Hermitian rho to
# Hermitian drho/dt, so in these coordinates each weighted term is real: the
# emission and absorption terms as they are, the squeeze pair once split into
# real weights, -gamma Re M on SQ + SQC and -gamma Im M on i(SQ - SQC).
_TO_BLOCH = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1j, -1j]])
_FROM_BLOCH = 0.5 * np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, -1j], [0, 0, 1, 1j]])
_TERMS = (_EMISSION, _ABSORPTION, _SQUEEZE, _SQUEEZE_CONJ)
_BLOCH_TERMS = [
    _TO_BLOCH @ term @ _FROM_BLOCH
    for term in (_EMISSION, _ABSORPTION, _SQUEEZE + _SQUEEZE_CONJ, 1j * (_SQUEEZE - _SQUEEZE_CONJ))
]
assert not any(np.any(term.imag) for term in _BLOCH_TERMS)
_BLOCH_TERMS = tuple(term.real for term in _BLOCH_TERMS)
_I4 = np.eye(4)


def _weighted_sum(terms, gamma, n, m, m_parts, dtype) -> np.ndarray:
    # The four terms weighted by gamma(N+1)/2, gamma N/2, then -gamma times
    # each of m_parts applied to M.  Each weight is made when its term is
    # reached, so a long stack of node times holds one weight array beside
    # the result.
    gamma = np.asarray(gamma, dtype=float)
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=complex)

    def weights():
        yield 0.5 * gamma * (n + 1.0)
        yield 0.5 * gamma * n
        for part in m_parts:
            yield -gamma * part(m)

    out = np.zeros(gamma.shape + (4, 4), dtype=dtype)
    for term, weight in zip(terms, weights()):
        for i, j in zip(*np.nonzero(term)):
            out[..., i, j] += term[i, j] * weight
    return out


def rate_matrix_batch(gamma, n, m) -> np.ndarray:
    """Rate matrices for scalars or arrays of reservoir parameters.

    gamma, n (real) and m (complex) are scalars or arrays of a common shape
    (K,); the result has shape (4, 4) or (K, 4, 4), in the component basis
    (ee, gg, eg, ge).  This is the one construction of the rate operator:
    each sandwich term times its weight.  integrate_reference builds its real
    Bloch-coordinate stack by the same weighted sum.
    """
    return _weighted_sum(_TERMS, gamma, n, m, (np.asarray, np.conj), complex)


def _bloch_rates(gamma, n, m) -> np.ndarray:
    # rate_matrix_batch in Bloch coordinates, _TO_BLOCH @ rate @ _FROM_BLOCH, as a real array
    return _weighted_sum(_BLOCH_TERMS, gamma, n, m, (np.real, np.imag), float)


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


def _then(d, d2):
    # (I + d) followed by (I + d2) is I + (d2 + d + d2 d)
    out = d2 + d
    out += d2 @ d
    return out


def integrate_reference(
    schedule: BathSchedule,
    rho0: np.ndarray,
    grid: np.ndarray,
    step: float | None = None,
) -> np.ndarray:
    """Integrate the master equation with the classic 4th-order fixed step.

    The state is carried in Bloch coordinates (tr rho, <sz>, <sx>, <sy>),
    where the rate operator is a real 4x4 matrix; it is converted in from
    rho0 and back out once, at the end.  The grid is walked in the chunks of
    plan_integration.  For each chunk, the real rate operators at its nodes
    and the RK4 one-step matrices I + D_k of all its substeps are built in
    one batch, a dense general 4x4 each.  Every interval of a chunk has the
    same m substeps, so their differences D_k from the identity form a
    (K, m, 4, 4) stack, which the two functions of integrate that the gauge
    route shares reduce by the law of D followed by D',
    (I + D')(I + D) = I + (D' + D + D' D).  pairwise_products multiplies
    each interval's steps; adding the identity only to the finished product
    keeps the low bits that multiplying the rounded one-step matrices
    loses.  prefix_products then joins the chunk's interval products into
    I + P_i, the product from the chunk's start to each of its grid times,
    and one batched matmul applies every I + P_i to the state at the
    chunk's start.  The state itself stays complex, so an initial state
    that is Hermitian only within the tolerance is propagated
    as the linear map propagates it.

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
        integrate.default_step(schedule, grid).

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
    grid, chunks = plan_integration(schedule, grid, step)
    # States are column vectors, so that a @ y is the same matrix-vector
    # product for every state of a stack; y @ a.T would round differently.
    y = _TO_BLOCH @ vectorize(rho0)[..., None]
    vectors = np.zeros((grid.size,) + y.shape[:-1], dtype=complex)
    vectors[0] = y[..., 0]
    # one 4x4 per state of the stack: (4, 4) for one state, (1, 4, 4) for a stack
    matrix_shape = (1,) * (y.ndim - 2) + (4, 4)
    for i0, plan, params in chunks:
        # a blown-up state is reported below, by its first non-finite row
        with np.errstate(over="ignore", invalid="ignore"):
            rates = _bloch_rates(*params)
            # substep k of the chunk runs over nodes 2k, 2k+1 and 2k+2
            k1, mids, ends = rates[0:-1:2], rates[1::2], rates[2::2]
            h = np.repeat(plan.widths, plan.counts)[:, None, None]
            k2 = np.matmul(mids, _I4 + (0.5 * h) * k1)
            k3 = np.matmul(mids, _I4 + (0.5 * h) * k2)
            k4 = np.matmul(ends, _I4 + h * k3)
            deltas = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # each interval's product, then each prefix of the chunk's intervals
            size = plan.counts.size
            deltas = deltas.reshape(size, plan.counts.max(initial=1), 4, 4)
            deltas = prefix_products(pairwise_products(deltas, 1, _then)[:, 0], 0, _then)
            # the chunk's start state times every prefix, in one batched product
            start = vectors[i0][..., None]
            prefixes = (_I4 + deltas).reshape((size,) + matrix_shape)
            vectors[i0 + 1 : i0 + 1 + size] = (prefixes @ start)[..., 0]
    # non-finite values stay non-finite, so the first such row is where it blew up
    finite = np.isfinite(vectors).reshape(grid.size, -1).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(
            "reference state non-finite at t = %r" % (float(grid[np.argmin(finite)]),)
        )
    # rebound, so the Bloch rows are freed before unvectorize copies the result
    vectors = vectors @ _FROM_BLOCH.T
    return unvectorize(vectors)
