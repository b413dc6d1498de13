import cmath
import math

import numpy as np
import pytest

from squeezebath.algebra import unvectorize
from squeezebath.bath import BathSchedule, Constant, ExpDecay, bath_params
from squeezebath.errors import InvalidInputError, NumericalFailureError
from squeezebath.gaugeflow import (
    GaugeState,
    InitialDecomposition,
    assemble_density,
    autonomous_expectations,
    autonomous_gauge,
    evolve_gauge,
    gauge_derivatives,
    identity_gauge,
)
from squeezebath.integrate import uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import pauli_expectations, steady_populations, trace_distance
from squeezebath.verify import check_gauge_trace_identities, check_oracle_agreement

FIG1 = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))

ODD_INIT = InitialDecomposition.from_amplitudes(
    math.sqrt(0.2) * cmath.exp(1j * math.pi / 3.0), math.sqrt(0.8)
)
EVEN_INIT = InitialDecomposition.from_amplitudes(math.sqrt(0.2), math.sqrt(0.8))


def test_derivatives_at_identity():
    n, m = bath_params(0.6, 0.4)
    sched = BathSchedule(gamma=Constant(1.3), r=Constant(0.6), theta=Constant(0.4))
    d = gauge_derivatives(0.0, identity_gauge(), sched)
    assert d.alpha_plus == pytest.approx(1.3 * n, rel=1e-14)
    assert d.alpha_minus == pytest.approx(1.3 * (n + 1.0), rel=1e-14)
    assert d.eta_plus == pytest.approx(-1.3 * m.conjugate(), rel=1e-14)
    assert d.eta_minus == pytest.approx(-1.3 * m, rel=1e-14)
    # log-factor drifts: -gamma(N+1), -gamma N, -gamma(N+1/2) twice
    assert d.log_factors[0] == pytest.approx(-1.3 * (n + 1.0), rel=1e-14)
    assert d.log_factors[1] == pytest.approx(-1.3 * n, rel=1e-14)
    assert d.log_factors[2] == pytest.approx(-1.3 * (n + 0.5), rel=1e-14)
    assert d.log_factors[3] == pytest.approx(-1.3 * (n + 0.5), rel=1e-14)


def test_alpha_plus_fixed_points():
    n, m = bath_params(0.6, 0.0)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    stable = GaugeState(
        alpha_plus=n / (n + 1.0),
        alpha_minus=0.0,
        eta_plus=0.0,
        eta_minus=0.0,
        log_factors=(0.0, 0.0, 0.0, 0.0),
    )
    d = gauge_derivatives(0.0, stable, sched)
    assert abs(d.alpha_plus) <= 1e-15
    repelling = GaugeState(
        alpha_plus=-1.0,
        alpha_minus=0.0,
        eta_plus=0.0,
        eta_minus=0.0,
        log_factors=(0.0, 0.0, 0.0, 0.0),
    )
    assert abs(gauge_derivatives(0.0, repelling, sched).alpha_plus) <= 1e-15


def test_autonomous_alpha_plus_closed_form():
    # (1 - e^-3) / (2 + e^-3) at gamma = 1, N = 1, t = 1
    g = autonomous_gauge(1.0, 1.0, math.sqrt(2.0), 1.0)
    assert g.alpha_plus == pytest.approx(0.46356665348110515, rel=1e-14)


def test_autonomous_vacuum():
    g = autonomous_gauge(1.0, 0.0, 0.0, 1.0)
    assert g.alpha_plus == 0.0
    assert g.alpha_minus == pytest.approx(math.e - 1.0, rel=1e-12)
    assert g.eta_plus == 0.0
    assert g.eta_minus == 0.0
    assert g.log_factors[0] == pytest.approx(-1.0, rel=1e-14)
    assert g.log_factors[1] == 0.0


def test_autonomous_eta_is_minus_tanh():
    n, m = bath_params(0.6, 0.0)
    t = 0.5 / m.real  # gamma M t = 1/2
    g = autonomous_gauge(1.0, n, m.real, t)
    assert g.eta_plus == pytest.approx(-0.46211715726000974, rel=1e-13)
    assert g.eta_minus == pytest.approx(-math.sinh(0.5) * math.cosh(0.5), rel=1e-13)


def test_autonomous_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        autonomous_gauge(1.0, 1.0, math.sqrt(2.0), -0.5)
    with pytest.raises(InvalidInputError):
        autonomous_gauge(-1.0, 1.0, math.sqrt(2.0), 0.5)


def test_evolve_matches_closed_form():
    n, m = bath_params(0.6, 0.0)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    grid = uniform_grid(2.0, 0.1)
    gauges = evolve_gauge(sched, grid)
    for i, t in enumerate(grid):
        want = autonomous_gauge(1.0, n, m.real, float(t))
        got = gauges[i]
        assert abs(got.alpha_plus - want.alpha_plus) <= 1e-9
        assert abs(got.alpha_minus - want.alpha_minus) <= 1e-9 * max(1.0, abs(want.alpha_minus))
        assert abs(got.eta_plus - want.eta_plus) <= 1e-9
        assert abs(got.eta_minus - want.eta_minus) <= 1e-9
        for k in range(4):
            assert abs(got.log_factors[k] - want.log_factors[k]) <= 1e-9


def test_evolve_starts_at_identity():
    gauges = evolve_gauge(FIG1, np.array([0.0]))
    assert gauges == [identity_gauge()]


def test_evolve_step_must_fit_grid():
    grid = uniform_grid(1.0, 0.1)
    with pytest.raises(InvalidInputError):
        evolve_gauge(FIG1, grid, step=0.2)


def test_thermal_schedule_keeps_eta_inert():
    sched = BathSchedule(gamma=Constant(1.0), nbar=0.7)
    grid = uniform_grid(2.0, 0.5)
    for g in evolve_gauge(sched, grid):
        assert g.eta_plus == 0.0
        assert g.eta_minus == 0.0
    assert evolve_gauge(sched, grid)[-1].alpha_plus != 0.0


def test_trace_identities_along_flow():
    gauges = evolve_gauge(FIG1, uniform_grid(5.0, 0.1))
    assert check_gauge_trace_identities(gauges, 1e-9).status == "PASS"


def test_gauge_blowup_is_reported():
    sched = BathSchedule(gamma=Constant(1e80), r=Constant(0.1))
    with pytest.raises(NumericalFailureError, match="t = "):
        evolve_gauge(sched, np.array([0.0, 1.0]), step=1.0)


def test_initial_decomposition_validation():
    with pytest.raises(InvalidInputError):
        InitialDecomposition.from_amplitudes(1.0, 1.0)  # norm 2
    with pytest.raises(InvalidInputError):
        InitialDecomposition(lambdas=(0.5, 0.5, 0.2, 0.3))  # not conjugate
    with pytest.raises(InvalidInputError):
        InitialDecomposition(lambdas=(0.7, 0.7, 0.0, 0.0))  # trace 1.4


def test_initial_decomposition_from_density_roundtrip():
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    init = InitialDecomposition.from_density(rho)
    assert np.array_equal(unvectorize(np.array(init.lambdas)), rho)


def test_assemble_at_identity_returns_initial_state():
    rho = assemble_density(ODD_INIT, identity_gauge())
    want = unvectorize(np.array(ODD_INIT.lambdas))
    assert np.allclose(rho, want, rtol=0, atol=1e-16)


def test_assemble_reaches_steady_state():
    n, m = bath_params(0.6, 0.0)
    g = autonomous_gauge(1.0, n, m.real, 200.0)
    rho = assemble_density(ODD_INIT, g)
    assert trace_distance(rho, steady_populations(n)) <= 1e-12


def test_assembled_states_stay_physical():
    grid = uniform_grid(10.0, 0.1)
    for g in evolve_gauge(FIG1, grid):
        rho = assemble_density(ODD_INIT, g)
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
        assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) >= -1e-8


def test_flow_agrees_with_reference_integrator():
    grid = uniform_grid(1.0, 0.05)
    gauges = evolve_gauge(FIG1, grid)
    states = [assemble_density(ODD_INIT, g) for g in gauges]
    ref = integrate_reference(FIG1, unvectorize(np.array(ODD_INIT.lambdas)), grid)
    assert check_oracle_agreement(states, ref, 1e-8).status == "PASS"


def test_pauli_expectations_values():
    assert np.array_equal(pauli_expectations(np.eye(2, dtype=complex) / 2.0), np.zeros(3))
    sx, sy, sz = pauli_expectations(steady_populations(1.0))
    assert (sx, sy) == (0.0, 0.0)
    assert sz == pytest.approx(-1.0 / 3.0, rel=1e-15)
    rho = assemble_density(ODD_INIT, identity_gauge())
    sx, sy, sz = pauli_expectations(rho)
    assert sx == pytest.approx(0.4, rel=1e-13)
    assert sy == pytest.approx(-0.6928203230275508, rel=1e-13)
    assert sz == pytest.approx(-0.6, rel=1e-13)


def test_autonomous_expectations_initial_point():
    mu = math.sqrt(0.2) * cmath.exp(1j * math.pi / 3.0)
    nu = math.sqrt(0.8)
    sx, sy, sz = autonomous_expectations(mu, nu, 1.0, 1.0, math.sqrt(2.0), 0.0)
    assert sx == pytest.approx(0.4, rel=1e-13)
    assert sy == pytest.approx(-0.6928203230275508, rel=1e-13)
    assert sz == pytest.approx(-0.6, rel=1e-13)


def test_autonomous_expectations_vacuum_inversion():
    for t in (0.0, 0.3, 1.0, 2.5):
        _, _, sz = autonomous_expectations(1.0, 0.0, 1.0, 0.0, 0.0, t)
        assert sz == pytest.approx(2.0 * math.exp(-t) - 1.0, rel=1e-13)


def test_autonomous_expectations_coherence_rates():
    n, m = bath_params(0.6, 0.0)
    mu, nu = math.sqrt(0.2), math.sqrt(0.8)
    sx0 = 2.0 * mu * nu
    sx, sy, _ = autonomous_expectations(mu, nu, 1.0, n, m.real, 1.0)
    assert sx == pytest.approx(sx0 * math.exp(-1.6600584613682734), rel=1e-12)
    assert sy == 0.0  # real initial coherence stays on the x quadrature


def test_autonomous_expectations_rejects_unnormalized():
    with pytest.raises(InvalidInputError):
        autonomous_expectations(1.0, 1.0, 1.0, 0.0, 0.0, 0.5)
