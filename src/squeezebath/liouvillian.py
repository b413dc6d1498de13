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
4x4 matrix (the Bloch equations of the squeezed-vacuum atom).  Its trace
row is exactly zero, and the rest is two blocks: [[0, 0], [-gamma,
-gamma (2N+1)]] on (tr, <sz>), the populations, and -gamma (N + 1/2) I -
gamma [[Re M, Im M], [Im M, -Re M]] on (<sx>, <sy>), the coherences.  The
integrator takes only the six entries of the two blocks from the weighted
sum and carries each block by its own composition law.
"""

from __future__ import annotations

import numpy as np

from .algebra import SIGMA_MINUS, SIGMA_PLUS, lift_left, lift_right, unvectorize, vectorize
from .bath import BathPoint, BathSchedule
from .errors import InvalidInputError, NumericalFailureError
from .integrate import pairwise_products, prefix_products, walk_chunks
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
# In Bloch coordinates the rate operator has an exactly zero trace row and
# two blocks: [[0, 0], [a10, a11]] on (tr, sz), the populations, and
# [[c22, c23], [c32, c33]] on (sx, sy), the coherences.  These are its only
# entries that can be nonzero, and every RK4 product keeps this shape.
_BLOCK_ENTRIES = ((1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
_OFF_BLOCKS = np.ones((4, 4), dtype=bool)
_OFF_BLOCKS[tuple(zip(*_BLOCK_ENTRIES))] = False
assert not any(np.any(term[_OFF_BLOCKS]) for term in _BLOCH_TERMS)
_ALL_ENTRIES = tuple((i, j) for i in range(4) for j in range(4))


def _weighted_sum(terms, entries, gamma, n, m, m_parts, dtype) -> np.ndarray:
    # The entries (i, j) of the four terms weighted by gamma(N+1)/2,
    # gamma N/2, then -gamma times each of m_parts applied to M: one
    # contiguous row per entry, shape (len(entries),) + gamma.shape.  Each
    # weight is made when its term is reached, so a long stack of node times
    # holds one weight array beside the result.
    gamma = np.asarray(gamma, dtype=float)
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=complex)

    def weights():
        yield 0.5 * gamma * (n + 1.0)
        yield 0.5 * gamma * n
        for part in m_parts:
            yield -gamma * part(m)

    out = np.zeros((len(entries),) + gamma.shape, dtype=dtype)
    for term, weight in zip(terms, weights()):
        for row, (i, j) in enumerate(entries):
            if term[i, j]:
                out[row] += term[i, j] * weight
    return out


def rate_matrix_batch(gamma, n, m) -> np.ndarray:
    """Rate matrices for scalars or arrays of reservoir parameters.

    gamma, n (real) and m (complex) are scalars or arrays of a common shape
    (K,); the result has shape (4, 4) or (K, 4, 4), in the component basis
    (ee, gg, eg, ge).  This is the one construction of the rate operator:
    each sandwich term times its weight.  integrate_reference takes the
    blocks of its real Bloch-coordinate operator from the same weighted sum.
    """
    out = _weighted_sum(_TERMS, _ALL_ENTRIES, gamma, n, m, (np.asarray, np.conj), complex)
    return np.moveaxis(out.reshape((4, 4) + out.shape[1:]), (0, 1), (-2, -1))


def _bloch_blocks(gamma, n, m) -> np.ndarray:
    # the _BLOCK_ENTRIES of rate_matrix_batch in Bloch coordinates,
    # _TO_BLOCH @ rate @ _FROM_BLOCH, as a real (6,) + gamma.shape array
    return _weighted_sum(_BLOCH_TERMS, _BLOCK_ENTRIES, gamma, n, m, (np.real, np.imag), float)


def build_rate_operator(point: BathPoint) -> np.ndarray:
    """The rate operator at one reservoir point, shape (4, 4).

    Block diagonal: entries coupling the population components (0, 1) to the
    coherence components (2, 3) are exactly zero, and the population columns
    sum to zero (trace preservation).  The point checked itself when it
    was made.
    """
    return rate_matrix_batch(point.gamma, point.n_param, point.m_param)


def _as_matrix(rate, stack: bool = False) -> np.ndarray:
    # rate as a finite complex 4x4 matrix or, if stack is True, a (..., 4, 4) stack
    mat = np.asarray(rate, dtype=complex)
    if mat.shape[-2:] != (4, 4) or (mat.ndim != 2 and not stack):
        raise InvalidInputError("expected a 4x4 rate matrix, got shape %r" % (mat.shape,))
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("rate matrix must be finite")
    return mat


def spectrum(rate) -> np.ndarray:
    """Eigenvalues of the rate operator, sorted for deterministic comparison.

    rate is one 4x4 matrix or a (..., 4, 4) stack; the result is (4,) or
    (..., 4), each matrix's eigenvalues sorted by real part descending, ties
    broken by imaginary part ascending.  Entry i of a stack's result is the
    result for matrix i alone.  For real M the values are {0, -gamma(2N+1),
    -gamma(N+1/2-|M|), -gamma(N+1/2+|M|)}.
    """
    mat = _as_matrix(rate, stack=True)
    try:
        eigs = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvals on 4x4 converges
        raise NumericalFailureError("eigendecomposition failed: %s" % (exc,)) from exc
    order = np.lexsort((eigs.imag, -eigs.real), axis=-1)
    return np.take_along_axis(eigs, order, axis=-1)


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


def _after(rate, y):
    # the rate operator times (I + Y), both as their blocks: the population
    # row (a10, a11) and the coherence entries (c22, c23, c32, c33)
    a10, a11, c22, c23, c32, c33 = rate
    y10, y11, e22, e23, e32, e33 = y
    u22, u33 = 1.0 + e22, 1.0 + e33
    return (a10 + a11 * y10, a11 * (1.0 + y11),
            c22 * u22 + c23 * e32, c22 * e23 + c23 * u33,
            c32 * u22 + c33 * e32, c32 * e23 + c33 * u33)


def _rk4_steps(blocks, h: np.ndarray, m):
    # One RK4 step from the identity per substep, from the rate operator's
    # blocks at the 2S+1 nodes and the S = K m widths h, as the difference D
    # from I of each block: the population's lower row (p, q), a (2, K, m)
    # array, and the coherence block's 2x2 entries, a (2, 2, K, m) array.
    # the start (k = 0), midpoint (1) and end (2) node of every substep
    at = [tuple(x[k : x.size - 2 + k : 2] for x in blocks) for k in range(3)]
    h2, h6 = 0.5 * h, h / 6.0
    k1 = at[0]
    k2 = _after(at[1], [h2 * x for x in k1])
    k3 = _after(at[1], [h2 * x for x in k2])
    k4 = _after(at[2], [h * x for x in k3])
    steps = [h6 * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]
    return np.array(steps[:2]).reshape(2, -1, m), np.array(steps[2:]).reshape(2, 2, -1, m)


def _population_then(d, d2):
    # (I + D) followed by (I + D') on (tr, sz), each D as its lower row
    # (p, q): the lower row of D' + D + D' D, p'' = p' + p + q' p and
    # q'' = q' + q + q' q
    out = d2[1] * d
    out += d
    out += d2
    return out


def _coherence_then(d, d2):
    # (I + D) followed by (I + D') on (sx, sy), each D as its 2x2 entries
    # on the first two axes: D' + D + D' D
    out = d2[:, :1] * d[:1]
    out += d2[:, 1:] * d[1:]
    out += d
    out += d2
    return out


# the laws of the population row and the coherence block, in the order of _rk4_steps
_LAWS = (_population_then, _coherence_then)


def integrate_reference(
    schedule: BathSchedule,
    rho0: np.ndarray,
    grid: np.ndarray,
    step: float | None = None,
) -> np.ndarray:
    """Integrate the master equation with the classic 4th-order fixed step.

    The state is carried in Bloch coordinates (tr rho, <sz>, <sx>, <sy>),
    where the rate operator is real with a zero trace row and two blocks
    (see the module docstring); it is converted in from rho0 and back out
    once, at the end, and walked by integrate.walk_chunks, each chunk taken
    by reference_chunk and each row block by reference_rows.  The state
    itself stays complex, so an initial state that is Hermitian only within
    the tolerance is propagated as the linear map propagates it.

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
    # one column vector per state, so that each state of a stack is converted
    # by the same matrix-vector product as alone; the Bloch rows are freed
    # before unvectorize copies the result
    y = (_TO_BLOCH @ vectorize(rho0)[..., None])[..., 0]
    return unvectorize(walk_chunks(schedule, grid, step, y, reference_chunk, reference_rows,
                                   "reference state")
                       @ _FROM_BLOCH.T)


def reference_chunk(controls, h, m) -> tuple[None, tuple[np.ndarray, np.ndarray]]:
    """integrate_reference's per-chunk function for integrate.walk_chunks.

    The rate operator's blocks at the chunk's nodes and the RK4 one-step
    maps I + D_k of all its substeps are built in one batch, elementwise,
    and every product keeps the two blocks.  D_k is carried as the lower
    row (p, q) of its population block, which leaves tr unchanged, and as
    the four real entries of its coherence block.  Each block has its own
    law for D followed by D', the block of (I + D')(I + D) - I = D' + D +
    D' D: p'' = p' + p + q' p and q'' = q' + q + q' q for the population
    row, and the 2x2 product for the coherence block.  The entries are kept
    rather than the complex pair (P, Q) of z -> P z + Q conj(z) on
    z = <sx> + i<sy>: under strong squeezing the slow coherence rate
    gamma (N + 1/2 - |M|) is the small difference of |P| and |Q|, of order
    gamma (N + 1/2), so the pair would lose its low bits at every step.

    Each block's D_k form a (..., K, m) stack, and pairwise_products
    multiplies each interval's steps: adding the identity only to the
    finished product keeps the low bits that multiplying the rounded
    one-step maps loses.  Nothing is held; the elements are each
    interval's D, a (2, K) population and a (2, 2, K) coherence array.
    """
    return None, tuple(pairwise_products(d, law)[..., 0]
                       for d, law in zip(_rk4_steps(_bloch_blocks(*controls), h, m), _LAWS))


def reference_rows(start, elements, rows) -> None:
    """integrate_reference's per-row-block function for integrate.walk_chunks.

    prefix_products joins the row block's interval products into I + P_i,
    the product from the block's start to each of its grid times, and
    every I + P_i is applied to the Bloch vectors start at once, into rows.
    """
    pop, coh = (prefix_products(x, law) for x, law in zip(elements, _LAWS))
    tr, sz, sx, sy = np.moveaxis(start, -1, 0)
    # the prefixes along the first axis of each state's rows
    prefixes = np.concatenate((pop, coh.reshape(4, -1)))
    p, q, d22, d23, d32, d33 = prefixes.reshape((6, -1) + (1,) * tr.ndim)
    rows[..., 0] = tr
    rows[..., 1] = p * tr + (1.0 + q) * sz
    rows[..., 2] = (1.0 + d22) * sx + d23 * sy
    rows[..., 3] = d32 * sx + (1.0 + d33) * sy
