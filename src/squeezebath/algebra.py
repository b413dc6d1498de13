"""Operator algebra for two-level density matrices flattened to length-4 vectors.

A 2x2 density matrix is stored as the component vector

    (rho_ee, rho_gg, rho_eg, rho_ge)

where index e labels the upper level (sigma_z eigenvalue +1) and g the lower
level (eigenvalue -1).  Left and right multiplication by a fixed 2x2 operator
are then 4x4 matrices acting on that vector.  Left multiplication lifts to an
ordinary matrix representation, right multiplication to an anti-homomorphism
(the order of products reverses).

The module also builds the six two-sided generators used by the relaxation
operator: a population ladder (j_plus, j_minus, j0) that moves weight between
the two diagonal components, and a coherence ladder (k_plus, k_minus, k0) that
couples the two off-diagonal components.  Both triples obey the standard
ladder commutation relations, commute with each other, and the four raising
and lowering generators are nilpotent (their squares vanish), so exponentials
of them truncate after the linear term.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "SZ",
    "SP",
    "SM",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "BASIS_LABELS",
    "GeneratorSet",
    "vectorize",
    "unvectorize",
    "basis_matrix",
    "lift_left",
    "lift_right",
    "composite_generators",
    "commutator",
]

# sigma_z, sigma_+ = |e><g| and sigma_- = |g><e| as exact integer matrices,
# and the complex copies of the ladder pair
SZ = np.array([[1, 0], [0, -1]])
SP = np.array([[0, 1], [0, 0]])
SM = np.array([[0, 0], [1, 0]])
SIGMA_PLUS = SP.astype(complex)
SIGMA_MINUS = SM.astype(complex)

# Component order of the flattened density matrix.  Entry i of a vector is
# rho[_COMPONENT_INDEX[i]].  BASIS_LABELS gives the (s, s') level pair of each
# component: |s><s'| with s = +1 the upper level and s = -1 the lower level.
_COMPONENT_INDEX = ((0, 0), (1, 1), (0, 1), (1, 0))
BASIS_LABELS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
# Position of each component in the row-major flattened matrix, and the
# inverse permutation.
_TO_VECTOR = np.array([2 * r + c for r, c in _COMPONENT_INDEX])
_TO_MATRIX = np.argsort(_TO_VECTOR)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Flatten a 2x2 matrix, or a (..., 2, 2) stack, to component vectors
    (ee, gg, eg, ge) along the last axis."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices, got shape %r" % (rho.shape,))
    return rho.reshape(rho.shape[:-2] + (4,))[..., _TO_VECTOR]


def unvectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of vectorize: rebuild the 2x2 matrices from (..., 4) component vectors."""
    vec = np.asarray(vec)
    if vec.shape[-1:] != (4,):
        raise ValueError("expected length-4 vectors, got shape %r" % (vec.shape,))
    return vec[..., _TO_MATRIX].reshape(vec.shape[:-1] + (2, 2))


def basis_matrix(s: int, s_prime: int) -> np.ndarray:
    """Return |s><s'| as a 2x2 integer matrix, with s, s' in {+1, -1}."""
    if s not in (1, -1) or s_prime not in (1, -1):
        raise ValueError("level labels must be +1 or -1")
    out = np.zeros((2, 2), dtype=int)
    out[(1 - s) // 2, (1 - s_prime) // 2] = 1
    return out


def lift_left(op: np.ndarray) -> np.ndarray:
    """Lift a 2x2 operator A to the 4x4 matrix of rho -> A rho.

    Parameters
    ----------
    op : ndarray, shape (2, 2)
        The operator acting from the left.

    Returns
    -------
    ndarray, shape (4, 4)
        Matrix L with L vectorize(rho) = vectorize(op @ rho) for every rho.
        The dtype follows the input, so integer operators give exact integer
        matrices.

    Notes
    -----
    The lift is a homomorphism: lift_left(A) @ lift_left(B) equals
    lift_left(A @ B).  It commutes with every lift_right(B).
    """
    return _lift(op, left=True)


def lift_right(op: np.ndarray) -> np.ndarray:
    """Lift a 2x2 operator A to the 4x4 matrix of rho -> rho A.

    Same conventions as lift_left.  Because the operator multiplies from the
    right, the lift reverses products: lift_right(A) @ lift_right(B) equals
    lift_right(B @ A).
    """
    return _lift(op, left=False)


def _lift(op: np.ndarray, left: bool) -> np.ndarray:
    op = np.asarray(op)
    if op.shape != (2, 2):
        raise ValueError("expected a 2x2 operator, got shape %r" % (op.shape,))
    out = np.zeros((4, 4), dtype=op.dtype)
    for j, (r, c) in enumerate(_COMPONENT_INDEX):
        basis = np.zeros((2, 2), dtype=op.dtype)
        basis[r, c] = 1
        prod = op @ basis if left else basis @ op
        out[:, j] = vectorize(prod)
    return out


class GeneratorSet(NamedTuple):
    """The six two-sided generators as exact 4x4 integer matrices.

    j_plus, j_minus and j0 act on the population components (indices 0, 1):
    j_plus moves the lower-level population to the upper level, j_minus the
    reverse, and j0 weights the two populations with signs +1 and -1.

    k_plus, k_minus and k0 act on the coherence components (indices 2, 3) in
    the same pattern.

    Both triples satisfy [x0, x+-] = +-2 x+- and [x+, x-] = x0, every j
    commutes with every k, and the squares of j_plus, j_minus, k_plus and
    k_minus vanish.
    """

    j0: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    k0: np.ndarray
    k_plus: np.ndarray
    k_minus: np.ndarray

    def items(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Named generators in field order, for iteration in checks."""
        return tuple(zip(self._fields, self))


def composite_generators() -> GeneratorSet:
    """Build the two-sided generators from the integer SZ, SP and SM.

    Returns
    -------
    GeneratorSet
        All six matrices have integer dtype, so commutation relations can be
        checked in exact arithmetic.
    """
    zl = lift_left(SZ)
    zr = lift_right(SZ)
    return GeneratorSet(
        j0=(zl + zr) // 2,
        j_plus=lift_left(SP) @ lift_right(SM),
        j_minus=lift_left(SM) @ lift_right(SP),
        k0=(zl - zr) // 2,
        k_plus=lift_left(SP) @ lift_right(SP),
        k_minus=lift_left(SM) @ lift_right(SM),
    )


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator a @ b - b @ a."""
    return a @ b - b @ a
