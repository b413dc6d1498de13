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
from squeezebath.errors import InvalidInputError
from squeezebath.gaugeflow import evolve_gauge
from squeezebath.integrate import uniform_grid
from squeezebath.spectral import (
    asymptotic_state,
    closed_form_spectrum,
    eigen_modes,
    solve_transformation_conditions,
)
from squeezebath.verify import (
    check_alpha_root_adjudication,
    check_branch_conditions,
    check_eigenmode_consistency,
    check_zero_mode,
)


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
    assert check_alpha_root_adjudication().status == "PASS"
    n = 1.0
    bad = n / (2.0 * n + 1.0)
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
    assert check_zero_mode(1.0, 0.5, 1e-12).status == "PASS"
    # the check covers the stable branch; the unstable one has the same zero mode
    n, m = bath_params(0.5, 0.0)
    gamma = 1.0
    unstable = solve_transformation_conditions(n, 0.0)[1]
    modes = eigen_modes(gamma, n, m, unstable)
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
    n, rho = asymptotic_state(BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1)))
    assert n == 0.0
    assert np.array_equal(rho, np.diag([0.0, 1.0]))


def test_asymptotics_constant_squeeze():
    n, rho = asymptotic_state(BathSchedule(gamma=Constant(1.0), r=Constant(0.6)))
    assert n == pytest.approx(math.sinh(0.6) ** 2, rel=1e-15)
    want = np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)])
    assert np.allclose(rho, want, rtol=0.0, atol=1e-15)


def test_asymptotics_thermal():
    n, rho = asymptotic_state(BathSchedule(gamma=Constant(1.0), nbar=0.7))
    assert n == 0.7
    assert np.allclose(rho, np.diag([0.7 / 2.4, 1.7 / 2.4]), rtol=0.0, atol=1e-15)


def test_asymptotics_unsupported_schedules():
    with pytest.raises(InvalidInputError, match=r"^r control does not converge$"):
        asymptotic_state(BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.3, 0.2, 1.0, 0.0)))
    with pytest.raises(InvalidInputError, match=r"^gamma control does not converge$"):
        asymptotic_state(BathSchedule(gamma=Ramp(1.0, 0.5)))
    with pytest.raises(InvalidInputError, match=r"^gamma limit must be > 0, got 0.0$"):
        asymptotic_state(BathSchedule(gamma=ExpDecay(1.0, 0.1)))


def test_flow_approaches_stable_branch():
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    n, _ = bath_params(0.6, 0.0)
    stable = solve_transformation_conditions(n, 0.0)[0]
    tail = evolve_gauge(sched, uniform_grid(8.0, 0.5))[-1]
    assert abs(tail[0] - stable.alpha_plus) <= 1e-5
    assert abs(tail[2] - stable.eta_plus) <= 1e-4


def test_branch_inputs_are_refused():
    with pytest.raises(InvalidInputError, match=r"^N must be finite and >= 0, got -1.0$"):
        solve_transformation_conditions(-1.0, 0.0)
    with pytest.raises(InvalidInputError, match=r"^theta must be finite, got inf$"):
        solve_transformation_conditions(0.5, math.inf)


def test_state_needs_neither_a_converging_phase_nor_a_real_limiting_m():
    # the coherences decay whatever theta does, so the state is theta = 0's
    n, rho = asymptotic_state(BathSchedule(gamma=Constant(1.0), r=Constant(0.5)))
    for theta in (Sinusoid(0.0, 1.0, 1.0), Constant(0.7), Constant(3.14159), Ramp(0.0, 0.3)):
        got_n, got = asymptotic_state(BathSchedule(gamma=Constant(1.0), r=Constant(0.5), theta=theta))
        assert got_n == n
        assert got.tobytes() == rho.tobytes()


def test_closed_form_spectrum_of_arrays_is_that_of_each_point():
    rng = np.random.default_rng(29)
    g = rng.uniform(0.0, 3.0, (3, 5))
    n = rng.uniform(0.0, 4.0, (3, 5))
    m = np.sqrt(n * (n + 1.0)) * np.exp(1j * rng.uniform(0.0, 7.0, (3, 5)))
    # gamma = 0 gives -0.0 rates, which the spectrum table prints as -0
    g[0, :2], m[1, :2] = 0.0, 0.0
    got = closed_form_spectrum(g, n, m)
    assert got.shape == (3, 5, 4)
    for i in np.ndindex(3, 5):
        want = closed_form_spectrum(float(g[i]), float(n[i]), complex(m[i]))
        assert want.shape == (4,)
        assert got[i].tobytes() == want.tobytes()
    assert np.signbit(got[0, 0, 1:]).all()
    # a scalar broadcasts against arrays
    broadcast = closed_form_spectrum(1.5, n, m)
    assert broadcast.tobytes() == closed_form_spectrum(np.full_like(n, 1.5), n, m).tobytes()
