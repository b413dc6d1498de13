import math

import numpy as np
import pytest

from squeezebath.bath import (
    BathSchedule,
    Constant,
    ExpDecay,
    Ramp,
    Sinusoid,
    bath_params,
)
from squeezebath.errors import InvalidInputError, UnsupportedScheduleError
from squeezebath.gaugeflow import evolve_gauge
from squeezebath.integrate import uniform_grid
from squeezebath.spectral import (
    asymptotic_gauge_limits,
    eigen_modes,
    solve_transformation_conditions,
)
from squeezebath.verify import check_branch_conditions, check_eigenmode_consistency


def test_branch_values_at_n_one():
    stable, unstable = solve_transformation_conditions(1.0, 0.0)
    assert stable.alpha_plus == pytest.approx(0.5, rel=1e-15)
    assert stable.alpha_minus == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert stable.eta_plus == pytest.approx(-1.0, rel=1e-15)
    assert stable.eta_minus == pytest.approx(0.5, rel=1e-15)
    assert unstable.alpha_plus == pytest.approx(-1.0, rel=1e-15)
    assert unstable.alpha_minus == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert unstable.eta_plus == pytest.approx(1.0, rel=1e-15)
    assert unstable.eta_minus == pytest.approx(-0.5, rel=1e-15)


def test_branch_phase_rotation():
    stable, unstable = solve_transformation_conditions(1.0, math.pi / 2.0)
    assert stable.eta_plus == pytest.approx(-1j, rel=1e-15)
    assert unstable.eta_plus == pytest.approx(1j, rel=1e-15)


def test_vacuum_branch_roots():
    stable, unstable = solve_transformation_conditions(0.0, 0.0)
    assert stable.alpha_plus == 0.0
    assert unstable.alpha_plus == -1.0


def test_branch_conditions_residuals():
    res = check_branch_conditions((0.0, 0.01, 0.4, 1.0, 5.0), (0.0, 0.7, math.pi), 1e-12)
    assert res.status == "PASS"


def test_quadratic_root_adjudication():
    # (N+1) x^2 + x - N has root x = N/(N+1); the ratio N/(2N+1) leaves a
    # residual of 4/9 at N = 1 and is not a solution.
    n = 1.0
    good = n / (n + 1.0)
    bad = n / (2.0 * n + 1.0)
    assert abs((n + 1.0) * good**2 + good - n) <= 1e-15
    assert abs((n + 1.0) * bad**2 + bad - n) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_modes_diagonalize_rate_operator():
    for theta in (0.0, 0.7):
        consistency, _ = check_eigenmode_consistency(1.0, 0.5, theta, 1e-10)
        assert consistency.status == "PASS"


def test_mode_eigenvalues_cover_spectrum():
    consistency, _ = check_eigenmode_consistency(2.0, 0.9, 0.0, 1e-10)
    assert consistency.status == "PASS"


def test_duals_are_biorthogonal():
    _, biorthogonality = check_eigenmode_consistency(1.0, 0.5, 0.7, 1e-10)
    assert biorthogonality.status == "PASS"


def test_zero_mode_is_the_steady_state():
    n, m = bath_params(0.5, 0.0)
    gamma = 1.0
    for branch in solve_transformation_conditions(n, 0.0):
        modes = eigen_modes(gamma, n, m, branch)
        zeros = [md for md in modes if abs(md.beta) <= 1e-12 * gamma * (2 * n + 1)]
        assert len(zeros) == 1
        rho = zeros[0].mode / np.trace(zeros[0].mode)
        want = np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)])
        assert np.max(np.abs(rho - want)) <= 1e-12


def test_mode_rates_are_nonpositive():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n, m = bath_params(float(rng.uniform(0.0, 1.5)), 0.0)
        branch = solve_transformation_conditions(n, 0.0)[0]
        for md in eigen_modes(1.0, n, m, branch):
            assert md.beta.real <= 1e-12
            assert abs(md.beta.imag) <= 1e-12


def test_eigen_modes_rejects_mismatched_branch():
    n, m = bath_params(0.5, 0.0)
    other_n, other_m = bath_params(1.2, 0.0)
    branch = solve_transformation_conditions(n, 0.0)[0]
    with pytest.raises(InvalidInputError):
        eigen_modes(1.0, other_n, other_m, branch)


def test_asymptotics_decaying_squeeze():
    limits = asymptotic_gauge_limits(
        BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    )
    assert limits.n_param == 0.0
    assert limits.alpha_plus == 0.0
    assert limits.eta_plus is None  # no squeezing survives, eta has no pull
    assert np.allclose(limits.steady, np.diag([0.0, 1.0]))


def test_asymptotics_constant_squeeze():
    limits = asymptotic_gauge_limits(
        BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    )
    n, _ = bath_params(0.6, 0.0)
    assert limits.n_param == pytest.approx(n, rel=1e-15)
    assert limits.alpha_plus == pytest.approx(0.2884222374127771, rel=1e-14)
    assert limits.eta_plus == pytest.approx(-1.0, rel=1e-15)
    want = np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)])
    assert np.allclose(limits.steady, want, atol=1e-15)


def test_asymptotics_thermal():
    limits = asymptotic_gauge_limits(BathSchedule(gamma=Constant(1.0), nbar=0.7))
    assert limits.n_param == 0.7
    assert limits.m_param == 0.0
    assert limits.eta_plus == 0.0


def test_asymptotics_unsupported_schedules():
    with pytest.raises(UnsupportedScheduleError):
        asymptotic_gauge_limits(
            BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.3, 0.2, 1.0, 0.0))
        )
    with pytest.raises(UnsupportedScheduleError):
        asymptotic_gauge_limits(BathSchedule(gamma=Ramp(1.0, 0.5)))
    with pytest.raises(UnsupportedScheduleError):
        asymptotic_gauge_limits(BathSchedule(gamma=ExpDecay(1.0, 0.1)))
    with pytest.raises(UnsupportedScheduleError):
        asymptotic_gauge_limits(BathSchedule(gamma=Constant(1.0), horizon=10.0))


def test_flow_approaches_stable_branch():
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    n, _ = bath_params(0.6, 0.0)
    stable = solve_transformation_conditions(n, 0.0)[0]
    tail = evolve_gauge(sched, uniform_grid(8.0, 0.5))[-1]
    assert abs(tail.alpha_plus - stable.alpha_plus) <= 1e-5
    assert abs(tail.eta_plus - stable.eta_plus) <= 1e-4
