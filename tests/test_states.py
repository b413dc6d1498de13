import numpy as np

from squeezebath.bath import BathSchedule, Constant, ExpDecay
from squeezebath.integrate import uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import (
    excited_state,
    hermiticity_defect,
    min_eigenvalue,
    pauli_expectations,
    trace_distance,
    trace_error,
)


def test_helpers_on_a_stack_equal_the_per_matrix_results():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    b = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    for helper in (pauli_expectations, trace_error, hermiticity_defect, min_eigenvalue):
        assert np.array_equal(helper(a), np.array([helper(x) for x in a])), helper
    assert np.array_equal(trace_distance(a, b), [trace_distance(x, y) for x, y in zip(a, b)])

    grid = uniform_grid(1.0, 0.25)
    states = integrate_reference(BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1)),
                                 excited_state(), grid)
    assert states.shape == (len(grid), 2, 2)
