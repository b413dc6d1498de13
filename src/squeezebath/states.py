"""Small helpers for 2x2 density matrices stored as plain complex arrays.

check_density validates the initial state, or (k, 2, 2) stack of initial
states, that both solution routes take.  The diagnostics (pauli_expectations,
trace_error, hermiticity_defect, min_eigenvalue, trace_distance) take one 2x2
matrix or a (..., 2, 2) stack, such as a trajectory, and return one value per
matrix.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "check_density",
    "pure_state",
    "excited_state",
    "steady_populations",
    "pauli_expectations",
    "trace_error",
    "hermiticity_defect",
    "min_eigenvalue",
    "trace_distance",
]

_NORM_TOL = 1e-9


def pure_state(mu: complex, nu: complex) -> np.ndarray:
    """Density matrix of the superposition mu |upper> + nu |lower>.

    Requires |mu|^2 + |nu|^2 = 1 within 1e-9.
    """
    mu = complex(mu)
    nu = complex(nu)
    norm = abs(mu) ** 2 + abs(nu) ** 2
    if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
        raise InvalidInputError(
            "|mu|^2 + |nu|^2 = %r, expected 1 within %g" % (norm, _NORM_TOL)
        )
    return np.array(
        [
            [abs(mu) ** 2, mu * nu.conjugate()],
            [mu.conjugate() * nu, abs(nu) ** 2],
        ],
        dtype=complex,
    )


def amplitudes_from_polar(abs2: float, phase: float) -> complex:
    """Complex amplitude with |amplitude|^2 = abs2 and the given phase."""
    if not (math.isfinite(abs2) and 0.0 <= abs2 <= 1.0 + _NORM_TOL):
        raise InvalidInputError("squared amplitude must lie in [0, 1], got %r" % (abs2,))
    return math.sqrt(max(abs2, 0.0)) * cmath.exp(1j * phase)


def excited_state() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def steady_populations(n: float) -> np.ndarray:
    """The steady state diag(N/(2N+1), (N+1)/(2N+1)) at photon number N.

    Divided through by 2 as N/(N+1/2) / 2 and (N+1)/(N+1/2) / 2: bitwise the
    same wherever 2N+1 is finite, and diag(1/2, 1/2) where it overflows."""
    return np.diag([0.5 * (n / (n + 0.5)), 0.5 * ((n + 1) / (n + 0.5))]).astype(complex)


def _dagger(rho: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(rho, -1, -2))


def pauli_expectations(rho: np.ndarray) -> np.ndarray:
    """Traces of rho against sigma_x, sigma_y, sigma_z, along the last axis.

    In components: <sigma_x> = rho_eg + rho_ge, <sigma_y> = i(rho_eg -
    rho_ge), <sigma_z> = rho_ee - rho_gg.  Real parts are returned; for
    Hermitian input the imaginary parts vanish identically.
    """
    rho = np.asarray(rho)
    sx = rho[..., 0, 1] + rho[..., 1, 0]
    sy = 1j * (rho[..., 0, 1] - rho[..., 1, 0])
    sz = rho[..., 0, 0] - rho[..., 1, 1]
    return np.stack([sx.real, sy.real, sz.real], axis=-1)


def trace_error(rho: np.ndarray):
    """|tr(rho) - 1|."""
    rho = np.asarray(rho)
    return np.abs(rho[..., 0, 0] + rho[..., 1, 1] - 1.0)


def hermiticity_defect(rho: np.ndarray):
    """Largest entrywise deviation of rho from its conjugate transpose."""
    rho = np.asarray(rho)
    return np.max(np.abs(rho - _dagger(rho)), axis=(-2, -1))


def _mean_and_spread(x: np.ndarray):
    # (m, s) of the eigenvalues m -+ s of the Hermitian part [[a, b],
    # [conj b, d]] of each 2x2 matrix, in closed form: m = (a + d)/2 and
    # s = hypot((a - d)/2, |b|)
    x = np.asarray(x)
    a, d = x[..., 0, 0].real, x[..., 1, 1].real
    b = 0.5 * (x[..., 0, 1] + np.conj(x[..., 1, 0]))
    return 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(b))


def min_eigenvalue(rho: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of rho."""
    mean, spread = _mean_and_spread(rho)
    return mean - spread


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Half the trace norm of a - b (difference Hermitized first).

    With the eigenvalues m -+ s of the difference, s >= 0, half the sum of
    their magnitudes is max(|m|, s).
    """
    mean, spread = _mean_and_spread(np.asarray(a) - np.asarray(b))
    return np.maximum(np.abs(mean), spread)


def check_density(rho: np.ndarray, stack: bool = True) -> np.ndarray:
    """rho as a complex array, if it holds physical density matrices.

    rho is one 2x2 matrix or, unless stack is False, a (k, 2, 2) stack.
    Raises InvalidInputError, naming the worst value over the stack, unless
    every matrix is finite, has trace one and is Hermitian (both within
    1e-9), and has no eigenvalue below -1e-8.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2) or rho.ndim not in (2, 3) or not rho.size:
        raise InvalidInputError("rho0 must be 2x2 or (k, 2, 2), got shape %r" % (rho.shape,))
    if not np.all(np.isfinite(rho)):
        raise InvalidInputError("rho0 must be finite")
    worst = np.max(trace_error(rho))
    if worst > 1e-9:
        raise InvalidInputError("rho0 trace differs from 1 by %g" % worst)
    worst = np.max(hermiticity_defect(rho))
    if worst > 1e-9:
        raise InvalidInputError("rho0 is not Hermitian (defect %g)" % worst)
    worst = np.min(min_eigenvalue(rho))
    if worst < -1e-8:
        raise InvalidInputError("rho0 has negative eigenvalue %g" % worst)
    if not stack and rho.ndim != 2:
        raise InvalidInputError("rho0 must be one 2x2 state, got shape %r" % (rho.shape,))
    return rho
