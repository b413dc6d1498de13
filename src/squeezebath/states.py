"""Small helpers for 2x2 density matrices stored as plain complex arrays."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "pure_state",
    "excited_state",
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


def pauli_expectations(rho: np.ndarray) -> tuple[float, float, float]:
    """Traces of rho against sigma_x, sigma_y, sigma_z.

    In components: <sigma_x> = rho_eg + rho_ge, <sigma_y> = i(rho_eg -
    rho_ge), <sigma_z> = rho_ee - rho_gg.  Real parts are returned; for
    Hermitian input the imaginary parts vanish identically.
    """
    rho = np.asarray(rho)
    sx = rho[0, 1] + rho[1, 0]
    sy = 1j * (rho[0, 1] - rho[1, 0])
    sz = rho[0, 0] - rho[1, 1]
    return (float(sx.real), float(sy.real), float(sz.real))


def trace_error(rho: np.ndarray) -> float:
    """|tr(rho) - 1|."""
    return abs(complex(np.trace(rho)) - 1.0)


def hermiticity_defect(rho: np.ndarray) -> float:
    """Largest entrywise deviation of rho from its conjugate transpose."""
    return float(np.max(np.abs(rho - rho.conj().T)))


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of rho."""
    herm = 0.5 * (rho + rho.conj().T)
    return float(np.linalg.eigvalsh(herm)[0])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b (difference Hermitized first)."""
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
