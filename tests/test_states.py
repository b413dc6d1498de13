import numpy as np
import pytest

from squeezebath.bath import BathSchedule, Constant, ExpDecay
from squeezebath.errors import InvalidInputError
from squeezebath.gaugeflow import assemble_density, autonomous_expectations, evolve_gauge
from squeezebath.integrate import uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import (
    check_density,
    excited_state,
    hermiticity_defect,
    min_eigenvalue,
    pauli_expectations,
    pure_state,
    trace_distance,
    trace_error,
)
from squeezebath.verify import run_checks


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


@pytest.mark.parametrize(
    "rho0",
    [
        np.diag([0.7, 0.7]),  # trace 1.4
        np.array([[0.5, 0.2], [0.3, 0.5]]),  # not Hermitian
        np.diag([1.2, -0.2]),  # trace 1, negative eigenvalue
    ],
    ids=["trace", "hermiticity", "positivity"],
)
def test_both_routes_refuse_the_same_unphysical_states(rho0):
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    grid = uniform_grid(0.5, 0.25)
    with pytest.raises(InvalidInputError):
        check_density(rho0)
    with pytest.raises(InvalidInputError):
        integrate_reference(sched, rho0, grid)
    with pytest.raises(InvalidInputError):
        assemble_density(rho0, evolve_gauge(sched, grid))
    with pytest.raises(InvalidInputError):
        autonomous_expectations(rho0, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(InvalidInputError):
        run_checks(sched, rho0, 0.5, 0.25, 0.001, {})


def test_unnormalized_amplitudes_are_refused():
    with pytest.raises(InvalidInputError):
        pure_state(1.0, 1.0)
