import numpy as np

from squeezebath.algebra import (
    BASIS_LABELS,
    basis_matrix,
    commutator,
    composite_generators,
    lift_left,
    lift_right,
    unvectorize,
    vectorize,
)
from squeezebath.verify import (
    check_adjoint_pairings,
    check_basis_actions,
    check_commutators,
)

SP = np.array([[0, 1], [0, 0]])
SM = np.array([[0, 0], [1, 0]])

GEN = composite_generators()


def _random_pair(rng):
    return (
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
    )


def test_vectorize_component_order():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vectorize(rho), np.array([1.0, 4.0, 2.0, 3.0]))


def test_unvectorize_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(unvectorize(vectorize(rho)), rho)


def test_basis_matrices_map_to_unit_vectors():
    for k, (s, s_prime) in enumerate(BASIS_LABELS):
        v = vectorize(basis_matrix(s, s_prime))
        want = np.zeros(4, dtype=int)
        want[k] = 1
        assert np.array_equal(v, want)


def test_lift_left_multiplies_from_the_left():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, rho = _random_pair(rng)
        got = unvectorize(lift_left(a) @ vectorize(rho))
        assert np.allclose(got, a @ rho, rtol=0, atol=1e-13)


def test_lift_right_multiplies_from_the_right():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a, rho = _random_pair(rng)
        got = unvectorize(lift_right(a) @ vectorize(rho))
        assert np.allclose(got, rho @ a, rtol=0, atol=1e-13)


def test_lift_left_preserves_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = _random_pair(rng)
        assert np.allclose(lift_left(a) @ lift_left(b), lift_left(a @ b), atol=1e-12)


def test_lift_right_reverses_products():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = _random_pair(rng)
        assert np.allclose(lift_right(a) @ lift_right(b), lift_right(b @ a), atol=1e-12)


def test_left_and_right_lifts_commute():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = _random_pair(rng)
        assert np.allclose(commutator(lift_left(a), lift_right(b)), 0.0, atol=1e-12)


def test_lift_preserves_integer_dtype():
    assert lift_left(SP).dtype == SP.dtype
    assert np.array_equal(lift_left(np.eye(2, dtype=int)), np.eye(4, dtype=int))


def test_right_action_on_raising_coherence():
    # |+1><-1| is annihilated by sigma_+ from the right and mapped to
    # |+1><+1| by sigma_-; the lifts must reproduce both products exactly.
    coh = basis_matrix(1, -1)
    assert np.array_equal(coh @ SP, np.zeros((2, 2), dtype=int))
    assert np.array_equal(
        unvectorize(lift_right(SP) @ vectorize(coh)), np.zeros((2, 2), dtype=int)
    )
    assert np.array_equal(
        unvectorize(lift_right(SM) @ vectorize(coh)), basis_matrix(1, 1)
    )
    assert np.array_equal(
        unvectorize(lift_left(SP) @ vectorize(basis_matrix(-1, -1))),
        basis_matrix(1, -1),
    )


def test_generator_actions_on_all_basis_matrices():
    res = check_basis_actions()
    assert res.status == "PASS", res
    assert res.detail.startswith("24 ")


def test_su2_commutators_exact():
    assert check_commutators().status == "PASS"


def test_adjoint_pairings():
    assert check_adjoint_pairings().status == "PASS"


def test_ladder_generators_are_nilpotent():
    zero = np.zeros((4, 4), dtype=int)
    for g in (GEN.j_plus, GEN.j_minus, GEN.k_plus, GEN.k_minus):
        assert np.array_equal(g @ g, zero)
