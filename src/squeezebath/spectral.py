"""Steady transformation branches, eigenmode decomposition, and the long-time state.

The similarity transformation that diagonalizes the rate operator is built
from the four gauge parameters frozen at the roots of the steady conditions

    (N+1) alpha_plus^2 + alpha_plus - N = 0
    (N+1) (1 + 2 alpha_plus alpha_minus) + alpha_minus = 0
    M eta_plus^2 - conj(M) = 0
    1 + 2 eta_plus eta_minus = 0.

The quadratic for alpha_plus has roots N/(N+1) and -1; eta_plus is a unit
phase +-exp(i theta).  The root pair (N/(N+1), -exp(i theta)) is the one the
time-dependent gauge flow converges to and is labeled "stable"; the other
pair (-1, +exp(i theta)) is "unstable".  Either branch diagonalizes the rate
operator and both give the same eigenvalue multiset.

Eigenmodes are produced by applying the transformation to the component basis
matrices.  Because the raising and lowering generators square to zero, each
exponential factor of the transformation is exactly I + parameter * generator,
so the modes are polynomial in the branch parameters.  The dual (left)
eigenvectors come from the conjugate-transposed inverse transformation and
pair biorthogonally with the modes by construction.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import BASIS_LABELS, composite_generators, unvectorize
from .bath import BathPoint, BathSchedule, _Record, _wrap_phase, bath_params
from .errors import InvalidInputError
from .states import steady_populations

__all__ = [
    "TransformationBranch",
    "EigenMode",
    "solve_transformation_conditions",
    "condition_residuals",
    "closed_form_spectrum",
    "eigen_modes",
    "asymptotic_state",
]

_GEN = composite_generators()
_I4 = np.eye(4, dtype=complex)


class TransformationBranch(_Record):
    """One root set of the steady transformation conditions.

    solve_transformation_conditions returns the stable branch first and the
    unstable one second.
    """

    __slots__ = _fields = ("alpha_plus", "alpha_minus", "eta_plus", "eta_minus")

    def __init__(self, alpha_plus: complex, alpha_minus: complex, eta_plus: complex,
                 eta_minus: complex):
        self._set(alpha_plus, alpha_minus, eta_plus, eta_minus)


class EigenMode(_Record):
    """Eigenvalue beta and right/left eigenvectors of one mode.

    eigen_modes lists the modes in the component order of BASIS_LABELS.

    mode is the right eigenvector of the rate operator reshaped to 2x2;
    dual is the corresponding eigenvector of the adjoint operator, so that
    the Hilbert-Schmidt pairings <dual_i, mode_j> are exactly diagonal.
    """

    __slots__ = _fields = ("beta", "mode", "dual")

    def __init__(self, beta: complex, mode: np.ndarray, dual: np.ndarray):
        self._set(beta, mode, dual)


def condition_residuals(
    branch: TransformationBranch, n: float, m: complex
) -> tuple[float, float, float, float]:
    """Absolute residuals of the four steady conditions for given N and M."""
    ap, am = branch.alpha_plus, branch.alpha_minus
    ep, em = branch.eta_plus, branch.eta_minus
    m = complex(m)
    return (
        abs((n + 1.0) * ap * ap + ap - n),
        abs((n + 1.0) * (1.0 + 2.0 * ap * am) + am),
        abs(m * ep * ep - m.conjugate()),
        abs(1.0 + 2.0 * ep * em),
    )


def solve_transformation_conditions(
    n: float, theta: float
) -> tuple[TransformationBranch, TransformationBranch]:
    """Both root sets of the steady conditions for photon number N and phase theta.

    Returns
    -------
    (stable, unstable) : pair of TransformationBranch
        stable carries alpha_plus = N/(N+1) and eta_plus = -exp(i theta);
        unstable carries alpha_plus = -1 and eta_plus = +exp(i theta).  In
        each case alpha_minus = -(N+1)/(2(N+1) alpha_plus + 1) and
        eta_minus = -1/(2 eta_plus).  condition_residuals measures how
        closely they solve the conditions (verify's branch-conditions check).
    """
    if not (math.isfinite(n) and n >= 0.0):
        raise InvalidInputError("N must be finite and >= 0, got %r" % (n,))
    if not math.isfinite(theta):
        raise InvalidInputError("theta must be finite, got %r" % (theta,))
    phase = cmath.exp(1j * float(_wrap_phase(theta)))
    branches = []
    for ap, eta_sign in ((n / (n + 1.0), -1), (-1.0, +1)):
        am = -(n + 1.0) / (2.0 * (n + 1.0) * ap + 1.0)
        ep = eta_sign * phase
        em = -1.0 / (2.0 * ep)
        branches.append(TransformationBranch(
            alpha_plus=complex(ap),
            alpha_minus=complex(am),
            eta_plus=ep,
            eta_minus=em,
        ))
    return branches[0], branches[1]


def closed_form_spectrum(gamma, n, m) -> np.ndarray:
    """The rate operator's eigenvalues {0, -gamma (2N+1), -gamma (N+1/2 -+ |M|)}
    in closed form for any phase of m, sorted like liouvillian.spectrum.

    gamma, n (real) and m (complex) are scalars or arrays that broadcast
    together; the result has shape (4,) for scalars and (..., 4) for arrays,
    entry i being the result for point i alone.
    """
    gamma, n, m = np.broadcast_arrays(gamma, n, m)
    # 0 - x, not -x: a zero rate is +0, as the rate operator's own zero
    rates = np.stack(
        [np.zeros(gamma.shape), 0.0 - gamma * (2 * n + 1), 0.0 - gamma * (n + 0.5 - np.abs(m)),
         0.0 - gamma * (n + 0.5 + np.abs(m))],
        axis=-1,
    )
    return -np.sort(-rates, axis=-1, kind="stable")


def _transformation(branch: TransformationBranch) -> tuple[np.ndarray, np.ndarray]:
    """The similarity transformation U and the conjugate-transposed inverse.

    Each factor exponential truncates exactly because the generator squares
    to zero.  The second matrix is (U^{-1})^dagger, whose columns are the
    dual eigenvectors.
    """
    ap, am = branch.alpha_plus, branch.alpha_minus
    ep, em = branch.eta_plus, branch.eta_minus
    u = (
        (_I4 + ap * _GEN.j_plus)
        @ (_I4 + am * _GEN.j_minus)
        @ (_I4 + ep * _GEN.k_plus)
        @ (_I4 + em * _GEN.k_minus)
    )
    u_inv_dag = (
        (_I4 - np.conj(ap) * _GEN.j_minus)
        @ (_I4 - np.conj(am) * _GEN.j_plus)
        @ (_I4 - np.conj(ep) * _GEN.k_minus)
        @ (_I4 - np.conj(em) * _GEN.k_plus)
    )
    return u, u_inv_dag


def eigen_modes(
    gamma: float, n: float, m: complex, branch: TransformationBranch
) -> list[EigenMode]:
    """All four eigenmodes of the rate operator at one reservoir point.

    Parameters
    ----------
    gamma, n, m
        Reservoir parameters (m may be complex; the branch must have been
        solved at the matching phase).
    branch : TransformationBranch

    Returns
    -------
    list of EigenMode in the component order of BASIS_LABELS.  The
    eigenvalues are

        beta(s, s') = -gamma { [(N+1) alpha_plus + 1/2](s+s')/2
                               - M eta_plus (s-s')/2 + (2N+1)/2 }

    and exactly one of them (the population zero mode) vanishes.
    """
    BathPoint(gamma, n, complex(m))  # refuses an unphysical point
    residuals = condition_residuals(branch, n, m)
    if max(residuals) > 1e-9 * max(1.0, n + 1.0, abs(m)):
        raise InvalidInputError(
            "branch does not satisfy the steady conditions for N=%r, M=%r: "
            "residuals %r" % (n, m, residuals)
        )
    u, u_inv_dag = _transformation(branch)
    ap, ep = branch.alpha_plus, branch.eta_plus
    m = complex(m)
    modes = []
    for i, (s, sp) in enumerate(BASIS_LABELS):
        beta = -gamma * (
            ((n + 1.0) * ap + 0.5) * (s + sp) / 2.0
            - m * ep * (s - sp) / 2.0
            + (2.0 * n + 1.0) / 2.0
        )
        modes.append(
            EigenMode(
                beta=complex(beta),
                mode=unvectorize(u[:, i]),
                dual=unvectorize(u_inv_dag[:, i]),
            )
        )
    return modes


def asymptotic_state(schedule: BathSchedule) -> tuple[float, np.ndarray]:
    """The limiting photon number N and steady state of a schedule.

    N is the reservoir formula's (bath._squeezed) at r's limit, nbar +
    (2 nbar + 1) sinh(r)^2, which is nbar where r tends to 0 (the CLI's
    schedule.mode=thermal), and gamma must converge to a positive value.
    The state is diag(N/(2N+1), (N+1)/(2N+1)) whatever theta does: the
    coherences have no source and decay at rates of at least
    gamma (N + 1/2 - |M|), where |M| = (2 nbar + 1) sinh(r) cosh(r) stays
    below N + 1/2 = (2 nbar + 1) cosh(2r) / 2.

    Raises
    ------
    InvalidInputError
        For a gamma or r that does not converge (e.g. a sinusoid), a gamma
        limit that is not > 0, or an r limit whose N is past the float range.
    """
    g_inf = schedule.gamma.limit
    if g_inf is None:
        raise InvalidInputError("gamma control does not converge")
    if g_inf <= 0.0:
        raise InvalidInputError("gamma limit must be > 0, got %r" % (g_inf,))
    r_inf = schedule.r.limit
    if r_inf is None:
        raise InvalidInputError("r control does not converge")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        n = bath_params(r_inf, 0.0, schedule.nbar)[0]
    if not n < math.inf:
        raise InvalidInputError("r limit %r gives N = sinh(r)^2 past the float range"
                                % (r_inf,))
    return n, steady_populations(n)
