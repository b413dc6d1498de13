import cmath
import math
import re

import numpy as np
import pytest

from squeezebath.bath import BathSchedule, Constant, ExpDecay, Ramp, Sinusoid
from squeezebath.errors import InvalidInputError
from squeezebath.gaugeflow import assemble_density, autonomous_expectations, evolve_gauge
from squeezebath.integrate import uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import (
    amplitudes_from_polar,
    check_density,
    excited_state,
    hermiticity_defect,
    min_eigenvalue,
    pauli_expectations,
    pure_state,
    steady_populations,
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


def test_closed_form_eigenvalues_match_eigvalsh():
    # min_eigenvalue and trace_distance take the eigenvalues of the
    # Hermitian part in closed form.  On general, degenerate (b = 0, a = d,
    # zero included), pure and 1e-15-scale matrices they stay within
    # 8 eps of the largest eigenvalue magnitude of eigvalsh's values
    # (measured 3.3 eps, on a pure state's zero eigenvalue)
    rng = np.random.default_rng(17)

    def noise(k):
        return rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))

    def hermitian_part(x):
        return 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))

    degenerate = np.append(rng.normal(size=50), 0.0)[:, None, None] * np.eye(2)
    angles = rng.uniform(0.0, 2.0 * math.pi, (100, 3))
    pure = np.array([pure_state(math.cos(a) * cmath.exp(1j * p), math.sin(a) * cmath.exp(1j * q))
                     for a, p, q in angles])
    tiny = 1e-15 * noise(100)
    stack = np.concatenate([noise(200), degenerate, pure, tiny])
    eps = np.finfo(float).eps

    def check(got, eigs, want):
        assert np.all(np.abs(got - want) <= 8.0 * eps * np.max(np.abs(eigs), axis=-1))

    eigs = np.linalg.eigvalsh(hermitian_part(stack))
    check(min_eigenvalue(stack), eigs, eigs[:, 0])
    check(trace_distance(stack, np.zeros_like(stack)), eigs, 0.5 * np.sum(np.abs(eigs), axis=-1))
    # nearby states, whose difference is on the 1e-15 scale
    near = pure + tiny
    eigs = np.linalg.eigvalsh(hermitian_part(near - pure))
    check(trace_distance(near, pure), eigs, 0.5 * np.sum(np.abs(eigs), axis=-1))
    # the degenerate matrices, and the zero matrix among them, come out exact
    assert np.array_equal(min_eigenvalue(degenerate), degenerate[:, 0, 0])
    assert np.array_equal(trace_distance(degenerate, 0.0 * degenerate), np.abs(degenerate[:, 0, 0]))


_TRACE = np.diag([0.7, 0.7])  # trace 1.4
_HERMITICITY = np.array([[0.5, 0.2], [0.3, 0.5]])  # not Hermitian
_POSITIVITY = np.diag([1.2, -0.2])  # trace 1, negative eigenvalue


@pytest.mark.parametrize(
    "rho0, bad",
    [
        (_TRACE, _TRACE),
        (_HERMITICITY, _HERMITICITY),
        (_POSITIVITY, _POSITIVITY),
        # a stack is refused whole, with the message of its bad state
        (np.stack([excited_state(), _POSITIVITY]), _POSITIVITY),
        # and names the worst value over the stack
        (np.stack([np.diag([0.6, 0.5]), _TRACE]), _TRACE),
    ],
    ids=["trace", "hermiticity", "positivity", "stack", "stack-worst"],
)
def test_both_routes_refuse_the_same_unphysical_states(rho0, bad):
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    grid = uniform_grid(0.5, 0.25)
    with pytest.raises(InvalidInputError) as solo:
        check_density(bad)
    message = "^%s$" % re.escape(str(solo.value))
    with pytest.raises(InvalidInputError, match=message):
        check_density(rho0)
    with pytest.raises(InvalidInputError, match=message):
        integrate_reference(sched, rho0, grid)
    with pytest.raises(InvalidInputError, match=message):
        assemble_density(rho0, evolve_gauge(sched, grid))
    with pytest.raises(InvalidInputError, match=message):
        autonomous_expectations(rho0, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(InvalidInputError, match=message):
        run_checks(sched, rho0, 0.5, 0.25, 0.001, {})


# three physical states: complex coherence, excited, mixed
_STACK = np.stack([
    pure_state(math.sqrt(0.2) * cmath.exp(1j * math.pi / 3.0), math.sqrt(0.8)),
    excited_state(),
    np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]]),
])


@pytest.mark.parametrize(
    "sched",
    [
        BathSchedule(gamma=Sinusoid(1.0, 0.3, 2.0), r=Sinusoid(0.3, 0.1, 1.0, 0.5),
                     theta=Ramp(0.4, 0.2)),
        BathSchedule(gamma=Constant(1.0), nbar=0.7),
    ],
    ids=["sin-r-ramp-theta", "thermal"],
)
def test_both_routes_on_a_stack_equal_solo_runs(sched):
    # non-uniform grid: 1 to 100 substeps per interval
    grid = np.array([0.0, 0.013, 0.05, 0.45, 0.46, 0.6])
    step = 0.004
    ref = integrate_reference(sched, _STACK, grid, step)
    flow = evolve_gauge(sched, grid, step)
    states = assemble_density(_STACK, flow)
    assert ref.shape == states.shape == (len(grid), 3, 2, 2)
    assert assemble_density(_STACK, flow[-1]).shape == (3, 2, 2)
    for j, rho0 in enumerate(_STACK):
        assert np.array_equal(ref[:, j], integrate_reference(sched, rho0, grid, step))
        assert np.array_equal(states[:, j], assemble_density(rho0, flow))


def test_single_state_consumers_refuse_a_stack():
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    with pytest.raises(InvalidInputError, match="one 2x2 state"):
        autonomous_expectations(_STACK, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(InvalidInputError, match="one 2x2 state"):
        run_checks(sched, _STACK, 0.5, 0.25, 0.001, {})
    # the one check both make
    with pytest.raises(InvalidInputError, match=r"^rho0 must be one 2x2 state, got shape \(3, 2, 2\)$"):
        check_density(_STACK, stack=False)
    assert check_density(_STACK[0], stack=False).shape == (2, 2)
    with pytest.raises(InvalidInputError, match="2x2 or \\(k, 2, 2\\)"):
        check_density(np.eye(3) / 3.0)


def test_unnormalized_amplitudes_are_refused():
    with pytest.raises(InvalidInputError):
        pure_state(1.0, 1.0)


def test_amplitude_and_density_refusals():
    with pytest.raises(InvalidInputError, match=r"^squared amplitude must lie in \[0, 1\], got 1.5$"):
        amplitudes_from_polar(1.5, 0.0)
    with pytest.raises(InvalidInputError, match=r"^rho0 must be finite$"):
        check_density(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_steady_populations_are_those_of_2n_plus_1_wherever_it_is_finite():
    # seeded N from 0 to just below where 2N+1 overflows, subnormals included
    rng = np.random.default_rng(3)
    ns = np.concatenate([
        [0.0, 5e-324, 1e-310, 0.5, 1.0, 8.98846567431157e307],
        rng.uniform(0.0, 8.98e307, 500),
        np.exp(rng.uniform(-744.0, 709.0, 500)),
        rng.uniform(0.0, 10.0, 500),
    ])
    for n in map(float, ns):
        assert math.isfinite(2 * n + 1)
        want = [n / (2 * n + 1), (n + 1) / (2 * n + 1)]
        rho = steady_populations(n)
        assert [rho[0, 0].real, rho[1, 1].real] == want, n
        assert rho.dtype == complex and rho[0, 1] == rho[1, 0] == 0


@pytest.mark.parametrize("n", [8.99e307, 1e308, np.finfo(float).max])
def test_steady_populations_are_one_half_where_2n_plus_1_overflows(n):
    # N/(2N+1) and (N+1)/(2N+1) read 0 and 0 there: a state of trace 0
    assert np.array_equal(steady_populations(n), np.diag([0.5, 0.5]).astype(complex))
