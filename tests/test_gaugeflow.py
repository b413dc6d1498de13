import cmath
import math

import numpy as np
import pytest

from squeezebath.bath import BathSchedule, Constant, ExpDecay, bath_params
from squeezebath.errors import InvalidInputError, NumericalFailureError
from squeezebath.gaugeflow import (
    assemble_density,
    autonomous_expectations,
    autonomous_gauge,
    evolve_gauge,
    gauge_derivatives,
)
from squeezebath.integrate import uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import (
    pauli_expectations,
    pure_state,
    steady_populations,
    trace_distance,
)
from squeezebath.verify import check_gauge_trace_identities, check_oracle_agreement

FIG1 = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))

ODD_RHO0 = pure_state(math.sqrt(0.2) * cmath.exp(1j * math.pi / 3.0), math.sqrt(0.8))
IDENTITY = np.zeros(8, dtype=complex)


def test_derivatives_at_identity():
    n, m = bath_params(0.6, 0.4)
    sched = BathSchedule(gamma=Constant(1.3), r=Constant(0.6), theta=Constant(0.4))
    d = gauge_derivatives(0.0, IDENTITY, sched)
    assert d.shape == (8,)
    assert d[0] == pytest.approx(1.3 * n, rel=1e-14)
    assert d[1] == pytest.approx(1.3 * (n + 1.0), rel=1e-14)
    assert d[2] == pytest.approx(-1.3 * m.conjugate(), rel=1e-14)
    assert d[3] == pytest.approx(-1.3 * m, rel=1e-14)
    # log-factor drifts: -gamma(N+1), -gamma N, -gamma(N+1/2) twice
    assert d[4] == pytest.approx(-1.3 * (n + 1.0), rel=1e-14)
    assert d[5] == pytest.approx(-1.3 * n, rel=1e-14)
    assert d[6] == pytest.approx(-1.3 * (n + 0.5), rel=1e-14)
    assert d[7] == pytest.approx(-1.3 * (n + 0.5), rel=1e-14)


def test_alpha_plus_fixed_points():
    n, m = bath_params(0.6, 0.0)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    stable = IDENTITY.copy()
    stable[0] = n / (n + 1.0)
    assert abs(gauge_derivatives(0.0, stable, sched)[0]) <= 1e-15
    repelling = IDENTITY.copy()
    repelling[0] = -1.0
    assert abs(gauge_derivatives(0.0, repelling, sched)[0]) <= 1e-15


def test_autonomous_alpha_plus_closed_form():
    # (1 - e^-3) / (2 + e^-3) at gamma = 1, N = 1, t = 1
    g = autonomous_gauge(1.0, 1.0, math.sqrt(2.0), 1.0)
    assert g[0] == pytest.approx(0.46356665348110515, rel=1e-14)


def test_autonomous_vacuum():
    g = autonomous_gauge(1.0, 0.0, 0.0, 1.0)
    assert g[0] == 0.0
    assert g[1] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert g[2] == 0.0
    assert g[3] == 0.0
    assert g[4] == pytest.approx(-1.0, rel=1e-14)
    assert g[5] == 0.0


def test_autonomous_eta_is_minus_tanh():
    n, m = bath_params(0.6, 0.0)
    t = 0.5 / m.real  # gamma M t = 1/2
    g = autonomous_gauge(1.0, n, m.real, t)
    assert g[2] == pytest.approx(-0.46211715726000974, rel=1e-13)
    assert g[3] == pytest.approx(-math.sinh(0.5) * math.cosh(0.5), rel=1e-13)


def test_autonomous_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        autonomous_gauge(1.0, 1.0, math.sqrt(2.0), -0.5)
    with pytest.raises(InvalidInputError):
        autonomous_gauge(-1.0, 1.0, math.sqrt(2.0), 0.5)


def test_evolve_matches_closed_form():
    n, m = bath_params(0.6, 0.0)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    grid = uniform_grid(2.0, 0.1)
    flow = evolve_gauge(sched, grid)
    for i, t in enumerate(grid):
        want = autonomous_gauge(1.0, n, m.real, float(t))
        got = flow[i]
        assert abs(got[0] - want[0]) <= 1e-9
        assert abs(got[1] - want[1]) <= 1e-9 * max(1.0, abs(want[1]))
        assert abs(got[2] - want[2]) <= 1e-9
        assert abs(got[3] - want[3]) <= 1e-9
        for k in range(4, 8):
            assert abs(got[k] - want[k]) <= 1e-9


def test_evolve_starts_at_identity():
    assert np.array_equal(evolve_gauge(FIG1, [0.0]), np.zeros((1, 8)))


def test_evolve_step_must_fit_grid():
    grid = uniform_grid(1.0, 0.1)
    with pytest.raises(InvalidInputError):
        evolve_gauge(FIG1, grid, step=0.2)


def test_thermal_schedule_keeps_eta_inert():
    sched = BathSchedule(gamma=Constant(1.0), nbar=0.7)
    grid = uniform_grid(2.0, 0.5)
    flow = evolve_gauge(sched, grid)
    assert np.all(flow[:, 2] == 0.0)
    assert np.all(flow[:, 3] == 0.0)
    assert flow[-1, 0] != 0.0


def test_trace_identities_along_flow():
    flow = evolve_gauge(FIG1, uniform_grid(5.0, 0.1))
    assert check_gauge_trace_identities(flow, 1e-9).status == "PASS"


def test_gauge_blowup_is_reported():
    sched = BathSchedule(gamma=Constant(1e80), r=Constant(0.1))
    with pytest.raises(NumericalFailureError, match="t = "):
        evolve_gauge(sched, np.array([0.0, 1.0]), step=1.0)


def test_flow_is_an_array_assembled_in_one_call():
    grid = uniform_grid(2.0, 0.1)
    flow = evolve_gauge(FIG1, grid)
    assert flow.shape == (len(grid), 8)
    assert flow.dtype == complex
    states = assemble_density(ODD_RHO0, flow)
    assert np.array_equal(states, np.array([assemble_density(ODD_RHO0, y) for y in flow]))
    assert autonomous_gauge(1.0, 0.5, 0.5, 1.0).shape == (8,)


def test_initial_decomposition_from_density_roundtrip():
    # A mixed state: its four matrix elements are the initial coefficients
    # of the expansion, and the identity gauge hands them back unchanged.
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    assert np.array_equal(assemble_density(rho, IDENTITY), rho)


def test_assemble_at_identity_returns_initial_state():
    rho = assemble_density(ODD_RHO0, IDENTITY)
    assert np.allclose(rho, ODD_RHO0, rtol=0, atol=1e-16)


def test_assemble_reaches_steady_state():
    n, m = bath_params(0.6, 0.0)
    g = autonomous_gauge(1.0, n, m.real, 200.0)
    rho = assemble_density(ODD_RHO0, g)
    assert trace_distance(rho, steady_populations(n)) <= 1e-12


def test_assembled_states_stay_physical():
    grid = uniform_grid(10.0, 0.1)
    for rho in assemble_density(ODD_RHO0, evolve_gauge(FIG1, grid)):
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
        assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) >= -1e-8


def test_flow_agrees_with_reference_integrator():
    grid = uniform_grid(1.0, 0.05)
    states = assemble_density(ODD_RHO0, evolve_gauge(FIG1, grid))
    ref = integrate_reference(FIG1, ODD_RHO0, grid)
    assert check_oracle_agreement(states, ref, 1e-8).status == "PASS"


def test_pauli_expectations_values():
    assert np.array_equal(pauli_expectations(np.eye(2, dtype=complex) / 2.0), np.zeros(3))
    sx, sy, sz = pauli_expectations(steady_populations(1.0))
    assert (sx, sy) == (0.0, 0.0)
    assert sz == pytest.approx(-1.0 / 3.0, rel=1e-15)
    sx, sy, sz = pauli_expectations(assemble_density(ODD_RHO0, IDENTITY))
    assert sx == pytest.approx(0.4, rel=1e-13)
    assert sy == pytest.approx(-0.6928203230275508, rel=1e-13)
    assert sz == pytest.approx(-0.6, rel=1e-13)


def test_autonomous_expectations_initial_point():
    sx, sy, sz = autonomous_expectations(ODD_RHO0, 1.0, 1.0, math.sqrt(2.0), 0.0)
    assert sx == pytest.approx(0.4, rel=1e-13)
    assert sy == pytest.approx(-0.6928203230275508, rel=1e-13)
    assert sz == pytest.approx(-0.6, rel=1e-13)


def test_autonomous_expectations_vacuum_inversion():
    for t in (0.0, 0.3, 1.0, 2.5):
        _, _, sz = autonomous_expectations(pure_state(1.0, 0.0), 1.0, 0.0, 0.0, t)
        assert sz == pytest.approx(2.0 * math.exp(-t) - 1.0, rel=1e-13)


def test_autonomous_expectations_coherence_rates():
    n, m = bath_params(0.6, 0.0)
    mu, nu = math.sqrt(0.2), math.sqrt(0.8)
    sx0 = 2.0 * mu * nu
    sx, sy, _ = autonomous_expectations(pure_state(mu, nu), 1.0, n, m.real, 1.0)
    assert sx == pytest.approx(sx0 * math.exp(-1.6600584613682734), rel=1e-12)
    assert sy == 0.0  # real initial coherence stays on the x quadrature
