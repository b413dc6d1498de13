"""The master equation's symmetries as seeded metamorphic tests.

Each test runs the program twice, on an input and on its image under a
symmetry of the master equation, and checks that the outputs are related
as the symmetry says (metamorphic testing: Chen, Cheung and Yiu, 1998).

- Time scaling: the equation depends on time only through gamma t and the
  controls' rates times t.  Multiplying gamma, every control rate and
  omega by c and dividing the grid by c gives the same problem, so the run
  plans the same substeps and gives the same Pauli columns.
- Phase covariance: theta -> theta - 2 phi together with rho_eg -> exp(-i
  phi) rho_eg turns <sx> - i <sy> by exp(-i phi) and leaves <sz> as it is,
  on both routes.
"""

import cmath
import math
import random

import numpy as np
import pytest

from squeezebath.bath import BathSchedule, Constant, ExpDecay, Ramp, Sinusoid
from squeezebath.cli import compute_frame, main
from squeezebath.integrate import default_step, plan_substeps, uniform_grid
from squeezebath.states import pure_state

T_MAX, DT_OUT = 10.0, 0.5
# sx, sy, sz of the gauge route, then of the reference
PAULI = slice(7, 13)


def _draw(rng, kind, lo, hi, rate):
    # a control of the kind that starts in [lo, hi] and stays there on
    # [0, T_MAX] (an exp control decays from there towards 0), varying at
    # rates up to rate
    start = rng.uniform(lo, hi)
    if kind == "const":
        return Constant(start)
    if kind == "exp":
        return ExpDecay(start, rng.uniform(0.0, rate))
    if kind == "ramp":
        return Ramp(start, (rng.uniform(lo, hi) - start) / T_MAX)
    half = 0.5 * (hi - lo)
    return Sinusoid(lo + half, rng.uniform(-half, half), rng.uniform(0.1, 1.0) * rate,
                    rng.uniform(-math.pi, math.pi))


def _in_units(control, c, scale=1.0):
    """scale times the control read at time c t': every rate times c."""
    if isinstance(control, Constant):
        return Constant(scale * control.value)
    if isinstance(control, ExpDecay):
        return ExpDecay(scale * control.amplitude, c * control.rate)
    if isinstance(control, Ramp):
        return Ramp(scale * control.offset, scale * c * control.slope)
    return Sinusoid(scale * control.offset, scale * control.amplitude, c * control.omega,
                    control.phase)


def _schedule(rng, kind):
    # gamma, r and theta all of the kind; the thermal case draws the kind
    # of its gamma
    if kind == "thermal":
        gamma = _draw(rng, rng.choice(["const", "exp", "ramp", "sin"]), 0.2, 1.5, 1.0)
        return BathSchedule(gamma=gamma, nbar=rng.uniform(0.0, 2.0))
    return BathSchedule(gamma=_draw(rng, kind, 0.2, 1.5, 1.0), r=_draw(rng, kind, 0.0, 1.2, 1.0),
                        theta=_draw(rng, kind, -2.0, 2.0, 1.0))


def _rho0(rng):
    p = rng.uniform(0.0, 1.0)
    return pure_state(math.sqrt(p) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                      math.sqrt(1.0 - p))


def _substep_counts(schedule, grid):
    return plan_substeps(grid, default_step(schedule, grid)).counts


@pytest.mark.parametrize("kind", ["const", "exp", "ramp", "sin", "thermal"])
def test_a_run_in_other_time_units_plans_the_same_substeps_and_gives_the_same_states(kind):
    rng = random.Random("time units " + kind)
    schedule, rho0 = _schedule(rng, kind), _rho0(rng)
    grid = uniform_grid(T_MAX, DT_OUT)
    counts = _substep_counts(schedule, grid)
    [table] = compute_frame(schedule, rho0[None], T_MAX, DT_OUT, None)
    for c in (1e-6, 1e-3, 1e3):
        scaled = BathSchedule(gamma=_in_units(schedule.gamma, c, c), r=_in_units(schedule.r, c),
                              theta=_in_units(schedule.theta, c), nbar=schedule.nbar)
        assert np.array_equal(_substep_counts(scaled, uniform_grid(T_MAX / c, DT_OUT / c)),
                              counts), c
        [other] = compute_frame(scaled, rho0[None], T_MAX / c, DT_OUT / c, None)
        assert np.max(np.abs(other[:, PAULI] - table[:, PAULI])) <= 1e-12, c


def _shifted(theta, shift):
    if isinstance(theta, Constant):
        return Constant(theta.value + shift)
    return Sinusoid(theta.offset + shift, theta.amplitude, theta.omega, theta.phase)


@pytest.mark.parametrize("kind", ["const", "sin"])
def test_a_turned_squeeze_phase_turns_the_coherence_on_both_routes(kind):
    rng = random.Random("squeeze phase " + kind)
    for _ in range(3):
        schedule = BathSchedule(gamma=_draw(rng, "const", 0.2, 1.5, 1.0),
                                r=_draw(rng, rng.choice(["const", "exp"]), 0.1, 1.2, 1.0),
                                theta=_draw(rng, kind, -2.0, 2.0, 3.0))
        rho0, phi = _rho0(rng), rng.uniform(-math.pi, math.pi)
        turned = BathSchedule(gamma=schedule.gamma, r=schedule.r,
                              theta=_shifted(schedule.theta, -2.0 * phi))
        turned_rho0 = rho0.copy()
        turned_rho0[0, 1] *= cmath.exp(-1j * phi)
        turned_rho0[1, 0] = np.conj(turned_rho0[0, 1])
        [table] = compute_frame(schedule, rho0[None], T_MAX, DT_OUT, None)
        [other] = compute_frame(turned, turned_rho0[None], T_MAX, DT_OUT, None)
        for x in (7, 10):  # sx of the gauge route, of the reference
            coherence = table[:, x] - 1j * table[:, x + 1]
            turned_coherence = other[:, x] - 1j * other[:, x + 1]
            assert np.max(np.abs(turned_coherence - cmath.exp(-1j * phi) * coherence)) <= 1e-14
            assert np.max(np.abs(other[:, x + 2] - table[:, x + 2])) <= 1e-14


def test_the_default_run_in_units_a_million_times_longer_gives_its_states(tmp_path, capsys):
    # edge command 18: the default run with every rate divided by 1e6 plans
    # its 6 substeps per interval of 5e4; a step of 1e-2 over a rate floored
    # at 1 would plan 5e6 there, past the limit of 4e5
    slow = ["--schedule.gamma.value=1e-6", "--schedule.r.c2=1e-7",
            "--grid.t_max=3e7", "--grid.dt_out=5e4"]
    assert main(["trajectory", "--out", str(tmp_path / "slow")] + slow) == 0
    assert main(["trajectory", "--out", str(tmp_path / "default"), "--grid.dt_out=0.05"]) == 0
    assert capsys.readouterr().err == ""
    rows = [np.loadtxt(tmp_path / run / "trajectory.csv", delimiter=",", skiprows=1)
            for run in ("slow", "default")]
    # row k of each is the state at the same gamma t
    assert rows[0].shape == rows[1].shape == (601, 16)
    assert np.max(np.abs(rows[0][:, PAULI] - rows[1][:, PAULI])) <= 1e-12
