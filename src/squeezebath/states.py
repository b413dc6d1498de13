"""Small helpers for 2x2 density matrices stored as plain complex arrays.

The diagnostics (pauli_expectations, trace_error, hermiticity_defect,
min_eigenvalue, trace_distance) take one 2x2 matrix or a (..., 2, 2) stack,
such as a trajectory, and return one value per matrix.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidInputError

__all__ = [
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
    """The steady state diag(N/(2N+1), (N+1)/(2N+1)) at photon number N."""
    return np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)]).astype(complex)


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


def min_eigenvalue(rho: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of rho."""
    rho = np.asarray(rho)
    return np.min(np.linalg.eigvalsh(0.5 * (rho + _dagger(rho))), axis=-1)


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Half the trace norm of a - b (difference Hermitized first)."""
    diff = np.asarray(a) - np.asarray(b)
    diff = 0.5 * (diff + _dagger(diff))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
