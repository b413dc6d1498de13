"""Steady transformation branches, eigenmode decomposition, and long-time limits.

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
from dataclasses import dataclass

import numpy as np

from .algebra import BASIS_LABELS, composite_generators, unvectorize
from .bath import BathSchedule, _validate_bath_point, _wrap_phase, bath_params
from .errors import InvalidInputError, UnsupportedScheduleError
from .states import steady_populations

__all__ = [
    "TransformationBranch",
    "EigenMode",
    "AsymptoticLimits",
    "solve_transformation_conditions",
    "condition_residuals",
    "eigen_modes",
    "asymptotic_gauge_limits",
]

_GEN = composite_generators()
_I4 = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class TransformationBranch:
    """One root set of the steady transformation conditions.

    kind is "stable" or "unstable"; eta_sign is the sign in
    eta_plus = eta_sign * exp(i theta).
    """

    kind: str
    eta_sign: int
    alpha_plus: complex
    alpha_minus: complex
    eta_plus: complex
    eta_minus: complex


@dataclass(frozen=True)
class EigenMode:
    """Eigenvalue beta and right/left eigenvectors for one component label.

    mode is the right eigenvector of the rate operator reshaped to 2x2;
    dual is the corresponding eigenvector of the adjoint operator, so that
    the Hilbert-Schmidt pairings <dual_i, mode_j> are exactly diagonal.
    """

    beta: complex
    s: int
    s_prime: int
    mode: np.ndarray
    dual: np.ndarray


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
        eta_minus = -1/(2 eta_plus).
    """
    if not (math.isfinite(n) and n >= 0.0):
        raise InvalidInputError("N must be finite and >= 0, got %r" % (n,))
    if not math.isfinite(theta):
        raise InvalidInputError("theta must be finite, got %r" % (theta,))
    phase = cmath.exp(1j * float(_wrap_phase(theta)))
    branches = []
    for kind, ap, eta_sign in (
        ("stable", n / (n + 1.0), -1),
        ("unstable", -1.0, +1),
    ):
        am = -(n + 1.0) / (2.0 * (n + 1.0) * ap + 1.0)
        ep = eta_sign * phase
        em = -1.0 / (2.0 * ep)
        branch = TransformationBranch(
            kind=kind,
            eta_sign=eta_sign,
            alpha_plus=complex(ap),
            alpha_minus=complex(am),
            eta_plus=ep,
            eta_minus=em,
        )
        residuals = condition_residuals(branch, n, phase.conjugate())
        if max(residuals) > 1e-12 * max(1.0, n + 1.0):
            raise InvalidInputError(
                "constructed branch fails its own conditions: residuals %r" % (residuals,)
            )
        branches.append(branch)
    return branches[0], branches[1]


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
    _validate_bath_point(gamma, n, complex(m))
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
                s=s,
                s_prime=sp,
                mode=unvectorize(u[:, i]),
                dual=unvectorize(u_inv_dag[:, i]),
            )
        )
    return modes


@dataclass(frozen=True)
class AsymptoticLimits:
    """Long-time limits of a converging schedule and its gauge flow.

    eta_plus is None when the limit is indeterminate (ideal squeezing that
    switches off, M -> 0: the eta flow freezes wherever it was).
    """

    gamma: float
    n_param: float
    m_param: float
    alpha_plus: float
    eta_plus: float | None
    steady: np.ndarray


def asymptotic_gauge_limits(schedule: BathSchedule) -> AsymptoticLimits:
    """Where the gauge flow must settle for a schedule with constant limits.

    Requires every control to converge as t grows (gamma to a positive
    value, r and theta to constants with a real nonnegative limiting M, or a
    thermal override).  The alpha_plus limit is N/(N+1); the eta_plus limit
    is -1 when the limiting M is positive, 0 under a thermal override, and
    indeterminate (None, frozen at its last value) when ideal squeezing dies
    out.  The limiting steady state has populations N/(2N+1), (N+1)/(2N+1).

    Raises
    ------
    UnsupportedScheduleError
        For non-convergent controls (e.g. a sinusoid) or a finite horizon.
    """
    if math.isfinite(schedule.horizon):
        raise UnsupportedScheduleError(
            "long-time limits need an unbounded horizon, got %r" % (schedule.horizon,)
        )
    g_inf = schedule.gamma.limit
    if g_inf is None:
        raise UnsupportedScheduleError("gamma control does not converge")
    if g_inf <= 0.0:
        raise UnsupportedScheduleError("gamma limit must be > 0, got %r" % (g_inf,))
    if schedule.thermal:
        n_inf = float(schedule.nbar)
        m_inf = 0.0
        eta_limit: float | None = 0.0
    else:
        r_inf = schedule.r.limit
        if r_inf is None:
            raise UnsupportedScheduleError("r control does not converge")
        if r_inf == 0.0:
            n_inf, m_inf = 0.0, 0.0
        else:
            theta_inf = schedule.theta.limit
            if theta_inf is None:
                raise UnsupportedScheduleError("theta control does not converge")
            n_inf, m_c = bath_params(r_inf, theta_inf)
            if abs(m_c.imag) > 1e-12 * max(1.0, abs(m_c)) or m_c.real < 0.0:
                raise UnsupportedScheduleError(
                    "limiting M must be real and >= 0, got %r" % (m_c,)
                )
            m_inf = m_c.real
        eta_limit = -1.0 if m_inf > 0.0 else None
    return AsymptoticLimits(
        gamma=float(g_inf),
        n_param=n_inf,
        m_param=m_inf,
        alpha_plus=n_inf / (n_inf + 1.0),
        eta_plus=eta_limit,
        steady=steady_populations(n_inf),
    )
