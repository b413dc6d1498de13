import math
import tracemalloc

import numpy as np
import pytest

from squeezebath import gaugeflow, integrate, liouvillian
from squeezebath.algebra import unvectorize, vectorize
from squeezebath.bath import BathSchedule, Constant, ExpDecay, Ramp, Sinusoid
from squeezebath.errors import InvalidInputError
from squeezebath.gaugeflow import assemble_density, autonomous_expectations, evolve_gauge
from squeezebath.integrate import (
    CHUNK_SUBSTEPS,
    check_grid,
    default_step,
    pairwise_products,
    plan_integration,
    plan_substeps,
    prefix_products,
    uniform_grid,
)
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import excited_state, pauli_expectations, pure_state


def test_uniform_grid_endpoints():
    grid = uniform_grid(30.0, 0.05)
    assert grid.size == 601
    assert grid[0] == 0.0
    assert grid[-1] == 30.0
    assert np.all(np.diff(grid) > 0)


def test_uniform_grid_requires_divisible_step():
    with pytest.raises(InvalidInputError):
        uniform_grid(1.0, 0.3)
    # the multiple is checked within a relative 1e-9 at any t_max, also below 1
    for t_max, dt in ((1e-9, 3e-10), (1e-6, 3e-7), (0.5, 0.3 + 1e-6), (1e-3, 3e-4)):
        with pytest.raises(InvalidInputError, match=r"is not an integer multiple of dt"):
            uniform_grid(t_max, dt)
    assert uniform_grid(1e-9, 2.5e-10).size == 5
    assert uniform_grid(0.3, 0.1).size == 4
    with pytest.raises(InvalidInputError):
        uniform_grid(-1.0, 0.1)
    with pytest.raises(InvalidInputError):
        uniform_grid(1.0, 0.0)


def test_uniform_grid_refuses_more_rows_than_the_limit(monkeypatch):
    monkeypatch.setattr(integrate, "MAX_ROWS", 100)
    assert uniform_grid(9.9, 0.1).size == 100
    with pytest.raises(InvalidInputError, match=r"^grid of 101 rows exceeds the limit of 100 rows$"):
        uniform_grid(10.0, 0.1)


def test_grid_sizes_past_any_int_are_refused():
    # t_max / dt overflows to inf: compared as a float, never cast
    with pytest.raises(InvalidInputError, match=r"^grid of inf rows exceeds the limit of 800000 rows$"):
        uniform_grid(1e300, 1e-10)
    with pytest.raises(InvalidInputError, match=r"^grid of 1e\+20 rows exceeds"):
        uniform_grid(1e10, 1e-10)


def test_substeps_per_interval_are_limited(monkeypatch):
    sched = BathSchedule(gamma=Constant(1.0))
    for grid, step, count in (([0.0, 1.0], 1e-300, "1e+300"), ([0.0, 0.5, 1.0], 1e-19, "5e+18"),
                              ([0.0, 1.0], 1e-12, "1000000000000")):
        message = r"^an interval of %s substeps exceeds the limit of 400000 substeps per interval$"
        with pytest.raises(InvalidInputError, match=message % count.replace("+", r"\+")):
            plan_integration(sched, np.array(grid), step)
        with pytest.raises(InvalidInputError, match=message % count.replace("+", r"\+")):
            plan_substeps(np.array(grid), step)
    # the limit itself is allowed, one more substep is not
    monkeypatch.setattr(integrate, "MAX_INTERVAL_SUBSTEPS", 10)
    grid = np.array([0.0, 0.5, 1.5])
    assert plan_substeps(grid, 0.1).counts.tolist() == [5, 10]
    with pytest.raises(InvalidInputError, match="an interval of 11 substeps"):
        plan_integration(sched, grid, 1.0 / 11.0)


def test_check_grid_rejects_bad_grids():
    check_grid(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(InvalidInputError):
        check_grid(np.array([0.1, 0.5]))  # must start at 0
    with pytest.raises(InvalidInputError):
        check_grid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    with pytest.raises(InvalidInputError):
        check_grid(np.array([[0.0, 1.0]]))  # 1-D only
    with pytest.raises(InvalidInputError, match=r"^grid times must be finite$"):
        check_grid([0.0, math.nan, 1.0])


def test_plan_substeps_covers_intervals():
    grid = np.array([0.0, 0.3, 0.5])
    plan = plan_substeps(grid, 0.2)
    # ceil(0.3/0.2) = 2 and ceil(0.2/0.2) = 1 midpoint-doubled intervals
    assert tuple(plan.counts) == (2, 1)
    assert plan.nodes[0] == 0.0
    assert plan.nodes[-1] == 0.5
    # S substeps need 2S + 1 nodes: neighbouring substeps, in one interval or
    # across a grid time, share their boundary node
    assert plan.nodes.size == 2 * (2 + 1) + 1
    one = plan_substeps(np.array([0.0]), 0.2)
    assert np.array_equal(one.nodes, [0.0])
    assert one.counts.size == one.widths.size == 0


def test_plan_substeps_exact_division_is_not_inflated():
    grid = uniform_grid(1.0, 0.5)
    plan = plan_substeps(grid, 0.5)
    assert tuple(plan.counts) == (1, 1)


def test_plan_substeps_nodes_are_linspace_per_interval():
    rng = np.random.default_rng(8)
    grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.7, 50))))
    plan = plan_substeps(grid, 0.013)
    # c substeps come before interval i, so its nodes are nodes[2c : 2c + 2m + 1]
    before = np.cumsum(plan.counts) - plan.counts
    for i, (t0, t1) in enumerate(zip(grid[:-1], grid[1:])):
        size = 2 * plan.counts[i] + 1
        got = plan.nodes[2 * before[i] : 2 * before[i] + size]
        assert np.array_equal(got, np.linspace(t0, t1, size))
    assert plan.nodes.size == 2 * np.sum(plan.counts) + 1
    assert np.array_equal(plan.nodes[2 * np.cumsum(plan.counts)], grid[1:])


def test_default_step_is_one_hundredth_over_the_fastest_rate():
    # 1e-2 / fastest rate, at most the spacing
    grid = np.array([0.0, 1.0, 2.0])
    assert default_step(BathSchedule(gamma=Ramp(2.0, -0.75)), grid) == 5e-3
    # r = 2 gives 2N + 1 = cosh 4 and nbar = 20 gives 41
    squeezed = BathSchedule(gamma=Constant(1.0), r=Constant(2.0))
    n = squeezed.at(0.0).n_param
    r2 = default_step(squeezed, grid)
    assert r2 == 1e-2 / (2.0 * n + 1.0) == pytest.approx(1e-2 / math.cosh(4.0), rel=1e-15)
    assert default_step(BathSchedule(gamma=Constant(1.0), nbar=20.0), grid) == 1e-2 / 41.0
    # the rate is peak gamma times 2N + 1 at peak r, even where the two
    # peaks fall at different times: gamma 2 -> 0.1 while r 0 -> 2 on [0, 1]
    apart = BathSchedule(gamma=Ramp(2.0, -1.9), r=Ramp(0.0, 2.0))
    assert default_step(apart, grid[:2]) == 1e-2 / (2.0 * (2.0 * n + 1.0))
    # one term for any gamma and nbar: no crossover at 2N + 1 = 10
    for gamma in (1.0, 4.0):
        steps = [default_step(BathSchedule(gamma=Constant(gamma), nbar=nbar), grid)
                 for nbar in (4.4, 4.5, 4.6)]
        assert steps == [1e-2 / (gamma * (2.0 * nbar + 1.0)) for nbar in (4.4, 4.5, 4.6)]
    # a rate below 1 is not floored: a weak coupling gets a step wider than
    # 1e-2, in its own time unit
    assert default_step(BathSchedule(gamma=Constant(0.2)), grid) == 1e-2 / 0.2 > 0.049
    assert default_step(BathSchedule(gamma=Constant(0.5), nbar=0.7), grid) == 1e-2 / 1.2
    slow = BathSchedule(gamma=Constant(1e-3), r=Constant(0.0))
    assert default_step(slow, uniform_grid(3e4, 50.0)) == 1e-2 / 1e-3 > 9.99
    # never wider than the smallest spacing: gamma = 0.2 on a 0.001 grid
    fine = uniform_grid(1.0, 0.001)
    assert default_step(BathSchedule(gamma=Constant(0.2)), fine) == np.min(np.diff(fine)) < 1e-3
    # a coupling that is 0 everywhere is not refused: nothing moves, so the
    # step is the spacing, or inf on a one-point grid
    off = BathSchedule(gamma=Constant(0.0), r=Constant(1.0))
    assert default_step(off, grid) == 1.0
    assert default_step(off, np.array([0.0])) == math.inf
    assert np.array_equal(evolve_gauge(off, grid)[-1], [0, 0, 0, 0, 1, 1, 1, 1])
    assert np.array_equal(evolve_gauge(off, np.array([0.0])), [[0, 0, 0, 0, 1, 1, 1, 1]])


def test_control_peaks_bound_every_value_up_to_the_end():
    # each kind's closed-form peak over [0, t_end]: a constant's value, the
    # larger end of a monotone exp or ramp control (the ramp's clip at 0
    # included), and for a sin control offset + |amplitude| where its phase
    # passes a crest (pi/2, or -pi/2 for a negative amplitude, modulo 2 pi)
    # before t_end, else its larger end
    t_end = 3.0
    times = np.linspace(0.0, t_end, 3001)
    cases = [(Constant(0.7), 0.7), (ExpDecay(2.0, 0.5), 2.0),
             (ExpDecay(2.0, -0.5), 2.0 * math.exp(1.5)), (Ramp(1.0, 0.5), 2.5),
             (Ramp(1.0, -0.5), 1.0), (Ramp(-4.0, 1.0), 0.0), (Sinusoid(1.0, -0.3, 7.0), 1.3),
             (Sinusoid(1.0, 0.3, -7.0, 2.0), 1.3), (Sinusoid(0.0, 3.0, 0.01), 3.0 * math.sin(0.03)),
             (Sinusoid(0.0, 2.0, -0.5, 1.0), 2.0 * math.sin(1.0)),
             (Sinusoid(0.5, -2.0, 0.2, 2.0), 0.5 - 2.0 * math.sin(2.6)),
             (Sinusoid(1.0, 0.5, 0.0, 0.2), 1.0 + 0.5 * math.sin(0.2))]
    for control, peak in cases:
        assert control.peak(t_end) == pytest.approx(peak, rel=1e-15), control
        assert np.max(control(times)) <= control.peak(t_end), control
    assert ExpDecay(2.0, -0.5).peak(t_end) == float(ExpDecay(2.0, -0.5)(t_end))
    # each kind's closed-form speed, the largest |f'| on [0, t_end], bounds
    # the differences of its values: 0, |slope|, |amplitude omega| and
    # |rate f| at the larger end
    speeds = [(Constant(0.7), 0.0), (ExpDecay(2.0, 0.5), 1.0), (ExpDecay(-2.0, -0.5), math.exp(1.5)),
              (Ramp(1.0, -0.5), 0.5), (Ramp(-4.0, 1.0), 1.0), (Sinusoid(1.0, -0.3, 7.0), 2.1)]
    for control, speed in speeds:
        assert control.speed(t_end) == pytest.approx(speed, rel=1e-15), control
        slopes = np.abs(np.diff(control(times))) / np.diff(times)
        assert np.max(slopes) <= control.speed(t_end) * (1.0 + 1e-9), control
    assert Ramp(1.0, 0.5).peak(0.0) == 1.0
    # a slow sin control far from its crest gets the step of its largest
    # value, r = 3 sin 0.3 at t = 30, not of its crest r = 3
    slow = BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.0, 3.0, 0.01))
    sh = np.sinh(3.0 * math.sin(0.3))
    assert default_step(slow, uniform_grid(30.0, 0.05)) == 1e-2 / (2.0 * (sh * sh) + 1.0)


def test_default_step_resolves_the_fastest_control():
    # 1e-2 over a control's variation_rate where it is the fastest rate:
    # omega of a sin control, rate of an exp control; a ramp sets no rate
    # of its own
    grid = uniform_grid(5.0, 0.05)
    fast = Sinusoid(1.0, 0.9, 100.0)
    assert default_step(BathSchedule(gamma=Constant(0.3), r=fast), grid) == 1e-4
    assert default_step(BathSchedule(gamma=Constant(1.0), theta=Sinusoid(0.0, 1.0, -40.0)),
                        grid) == 1e-2 / 40.0
    assert default_step(BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.5, 20.0)), grid) == 5e-4
    assert default_step(BathSchedule(gamma=Constant(1.0), theta=Ramp(0.0, 50.0)), grid) == 1e-2
    # the phase of M turns at theta's peak speed |theta'|, weighed by
    # min(1, sinh 2r) at peak r, which is 1 at r = 0.8: 1e-2 over it, where
    # it is the fastest rate (exit 2 at a step of 1e-3 on these r = 0.8 runs)
    squeezed = {"r": Constant(0.8), "gamma": Constant(1.0)}
    for theta, t_max, step in ((Ramp(0.0, 1000.0), 1.0, 1e-5),
                               (Sinusoid(0.0, 300.0, 10.0, 0.0), 1.0, 1e-2 / 3000.0),
                               (ExpDecay(0.001, -3.0), 5.0, 1e-2 / (3.0 * (0.001 * math.exp(15.0))))):
        assert default_step(BathSchedule(theta=theta, **squeezed), uniform_grid(t_max, 0.05)) == step
    # at r = 0.01 a turn moves M by 2|M| = sinh 0.02 per radian: 5e-4, not 1e-5
    weak = BathSchedule(gamma=Constant(1.0), r=Constant(0.01), theta=Ramp(0.0, 1000.0))
    assert default_step(weak, uniform_grid(1.0, 0.05)) == 1e-2 / (1000.0 * np.sinh(0.02))
    # but not at r = 0, where M = 0 at any nbar: there only gamma (2 nbar + 1) counts
    assert default_step(BathSchedule(gamma=Constant(1.0), r=Ramp(0.0, 0.0),
                                     theta=Ramp(0.0, 1000.0)), grid) == 1e-2
    assert default_step(BathSchedule(gamma=Constant(1.0), nbar=0.5, theta=Ramp(0.0, 1000.0)),
                        grid) == 5e-3
    assert default_step(BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.5, 0.1, 10.0)),
                        grid) == 1e-3
    # at nbar > 0 r and theta count as at nbar = 0, with N = nbar + (2 nbar + 1)
    # sinh(r)^2 and 2|M| = (2 nbar + 1) sinh 2r: r's omega, the relaxation rate
    # and the turn, each where it is the fastest rate
    assert default_step(BathSchedule(gamma=Constant(1.0), r=fast, nbar=0.5), grid) == 1e-4
    sh = np.sinh(1.0)
    assert default_step(BathSchedule(gamma=Constant(1.0), r=Constant(1.0), nbar=0.5),
                        grid) == 1e-2 / (2.0 * (0.5 + (2.0 * sh) * sh) + 1.0)
    weak_occupied = BathSchedule(gamma=Constant(1.0), r=Constant(0.01), theta=Ramp(0.0, 1000.0),
                                 nbar=0.5)
    assert default_step(weak_occupied, uniform_grid(1.0, 0.05)) == 1e-2 / (
        1000.0 * (2.0 * np.sinh(0.02)))
    # gamma at 2pi/0.05 is 0 at every output time and up to 10 between them:
    # the step resolves its oscillation, not the samples
    aliased = BathSchedule(gamma=Sinusoid(5.0, 5.0, 2.0 * np.pi / 0.05, -np.pi / 2.0))
    assert np.max(aliased.params_on(grid)[0]) < 1e-12
    assert default_step(aliased, grid) == 1e-2 / (2.0 * np.pi / 0.05)


def test_default_step_sees_a_rate_reached_only_between_grid_times():
    # gamma = 5 - 5 cos(4 pi t) is 0 at every output time of dt_out = 0.5
    # and reaches 10 between them; at r = 3, gamma (2N + 1) reaches about
    # 2017 there.  Read at the grid times the rule would give 1e-2 / (4 pi)
    # and the run would exit 2 (trace error 5.3e-9 at t = 0.5); the peaks
    # give 1e-2 / (10 (2N + 1)) and the run passes every tolerance.
    schedule = BathSchedule(gamma=Sinusoid(5.0, 5.0, 4.0 * math.pi, -math.pi / 2.0),
                            r=Constant(3.0))
    grid = uniform_grid(5.0, 0.5)
    assert np.max(schedule.params_on(grid)[0]) < 1e-12
    n = schedule.at(0.0).n_param
    assert default_step(schedule, grid) == 1e-2 / (10.0 * (2.0 * n + 1.0))


# Both routes at the auto step keep every Pauli expectation within 1e-10
# of the exact solution, 10x below perfbench's pinned values' 1e-9.
ERROR_TARGET = 1e-10
STATES = np.stack([excited_state(), pure_state(math.sqrt(0.2) * np.exp(1j * math.pi / 3.0),
                                               math.sqrt(0.8))])


def _both_routes(schedule, grid, step):
    # (route, grid time, state, sx/sy/sz) Pauli expectations of both routes
    return np.stack([pauli_expectations(assemble_density(STATES, evolve_gauge(schedule, grid, step))),
                     pauli_expectations(integrate_reference(schedule, STATES, grid, step))])


def test_auto_step_keeps_constant_schedules_within_the_error_target():
    # measured at most 6.2e-11, on both routes at gamma = 1, r = 0 from the
    # excited state, where the step is 1e-2 and the rate gamma (2N + 1) is 1
    grid = uniform_grid(30.0, 0.05)
    for gamma in (0.3, 1.0):
        for r in (0.0, 0.1, 0.3, 0.6, 1.0, 2.0):
            schedule = BathSchedule(gamma=Constant(gamma), r=Constant(r))
            point = schedule.at(0.0)
            exact = np.stack([autonomous_expectations(rho0, gamma, point.n_param,
                                                      point.m_param.real, grid)
                              for rho0 in STATES], axis=1)
            got = _both_routes(schedule, grid, default_step(schedule, grid))
            assert np.max(np.abs(got - exact)) <= ERROR_TARGET, (gamma, r)


def test_auto_step_keeps_a_long_horizon_within_the_error_target():
    # each route's error estimated by halving the step, |y_h - y_h/2| 16/15
    # for RK4: measured 5.3e-11 on the gauge route and 2.6e-11 on the
    # reference at the long_horizon workload's step, 6.83e-3, within 2% of
    # their distance from a run at 1e-3
    schedule = BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.33, 0.135, 0.91, 2.17),
                            theta=Ramp(1.5, 0.0095))
    grid = uniform_grid(300.0, 0.05)
    step = default_step(schedule, grid)
    estimate = np.abs(_both_routes(schedule, grid, step)
                      - _both_routes(schedule, grid, step / 2.0)) * 16.0 / 15.0
    worst = np.max(estimate, axis=(1, 2, 3))
    assert np.all(worst <= ERROR_TARGET), worst


def _labels(shape):
    # distinct string labels, folded with concatenation, "first, then then"
    return np.array(["%d," % k for k in range(math.prod(shape))], dtype=object).reshape(shape)


def _concat(calls):
    # the composition law of labels, counting its calls
    def combine(first, then):
        calls.append(first.shape)
        return first + then
    return combine


# both routes reduce a chunk's steps as one (..., K, m) stack, K intervals by
# m steps: pairing along the last axis, then, with that axis dropped,
# scanning the products along K.  The routes differ only in their leading
# axes: the reference's coherence block (2, 2) and the gauge route's
# components, two of its four to keep the labels small
_LAYOUTS = {"reference": (2, 2), "gauge": (2,)}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 12, 50])
def test_pairwise_products_fold_each_row_in_order(layout, m):
    # each of 3 intervals' m steps must come out as its labels in order, in
    # ceil(log2(m)) levels, with no step paired across intervals
    lead = _LAYOUTS[layout]
    steps = _labels(lead + (3, m))
    calls = []
    got = pairwise_products(steps, _concat(calls))
    want = np.add.reduce(steps, -1)  # object addition: concatenation in order
    assert got.shape == lead + (3, min(m, 1))
    assert m == 0 or np.array_equal(got[..., 0], want)
    assert len(calls) == (math.ceil(math.log2(m)) if m else 0)
    # a run of one is carried up untouched, as the very same object
    if m == 1:
        assert got is steps


def _bracket(first, then):
    # a law that shows the pairing tree: "(first then)"
    return "(" + first + " " + then + ")"


@pytest.mark.parametrize("m", [1, 3, 4, 7, 12, 50])
def test_pairwise_products_stop_at_runs_of_a_block(m):
    # with block 4, entry j of each of 3 rows is the product of steps
    # 4j .. 4j + 3, the last run shorter, paired exactly as that run alone
    steps = _labels((3, m))
    calls = []
    got = pairwise_products(steps, _concat(calls), block=4)
    assert got.shape == (3, -(-m // 4))
    assert len(calls) == min(2, math.ceil(math.log2(m)))
    for row, blocks in zip(steps, got):
        runs = [row[j : j + 4] for j in range(0, m, 4)]
        assert blocks.tolist() == [np.add.reduce(run) for run in runs]
    trees = pairwise_products(steps, np.vectorize(_bracket, otypes=[object]), block=4)
    for row, blocks in zip(steps, trees):
        alone = [pairwise_products(row[j : j + 4], np.vectorize(_bracket, otypes=[object]))[0]
                 for j in range(0, m, 4)]
        assert blocks.tolist() == alone
    # a block of at least m steps is the plain product
    assert np.array_equal(pairwise_products(steps, _concat([]), block=64),
                          pairwise_products(steps, _concat([])))


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 12, 2048])
def test_prefix_products_give_every_prefix_in_order(layout, size):
    # entry i must come out as labels 0 .. i in order, in place, after one
    # level at each offset 1, 2, 4, ... below size; like each route, the
    # scan runs on the pairing's result with the paired axis dropped
    steps = _labels(_LAYOUTS[layout] + (size, 1))[..., 0]
    before = steps.copy()
    calls = []
    assert prefix_products(steps, _concat(calls)) is steps
    prefixes = np.cumsum(before, axis=-1)  # object addition: concatenation in order
    assert np.array_equal(steps, prefixes)
    offsets = [size - first[-1] for first in calls]
    assert offsets == [1 << k for k in range(max(size - 1, 0).bit_length())]
    assert len(offsets) == (math.ceil(math.log2(size)) if size else 0)
    # the first entry is carried up untouched, as the very same object
    assert size == 0 or all(a is b for a, b in zip(steps[..., 0].flat, before[..., 0].flat))


def _uneven_grid():
    # spans of 1 to 7 substeps of 0.01, then one span of 30 substeps
    spans = 0.01 * (1.0 + (0.37 * np.arange(40)) % 6.0)
    return np.concatenate([[0.0], np.cumsum(np.append(spans, 0.3))])


@pytest.mark.parametrize("limit", [1, 5, 12, CHUNK_SUBSTEPS])
def test_chunks_are_slices_of_the_whole_grid_plan(monkeypatch, limit):
    monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", limit)
    sched = BathSchedule(gamma=Sinusoid(1.0, 0.5, 2.0), r=Ramp(0.2, 0.1))
    grid = _uneven_grid()
    whole = plan_substeps(grid, 0.01)
    g_whole, n_whole, m_whole = sched.params_on(whole.nodes)
    checked, chunks = plan_integration(sched, grid, 0.01)
    assert np.array_equal(checked, grid)
    i_next, starts = 0, set()
    for i0, plan, (g, n, m) in chunks:
        # chunks are consecutive runs of whole intervals of one count
        assert i0 == i_next
        i_next = i0 + plan.counts.size
        starts.add(i0)
        assert plan.counts.sum() <= limit or plan.counts.size == 1
        assert np.all(plan.counts == plan.counts[0])
        # their nodes, and the controls there, are bitwise those of the whole grid
        k0 = 2 * int(whole.counts[:i0].sum())
        nodes = slice(k0, k0 + plan.nodes.size)
        assert np.array_equal(plan.nodes, whole.nodes[nodes])
        assert np.array_equal(plan.counts, whole.counts[i0:i_next])
        assert np.array_equal(plan.widths, whole.widths[i0:i_next])
        for got, want in ((g, g_whole), (n, n_whole), (m, m_whole)):
            assert np.array_equal(got, want[nodes])
    assert i_next == grid.size - 1
    # a chunk starts at every change of the count, of which there are many
    changes = set(np.flatnonzero(np.diff(whole.counts)) + 1)
    assert len(changes) == 16 and changes <= starts


def _by_hand(first, chunk, block, schedule, grid, step):
    # the chunk walk written out: each chunk of plan_integration fed to
    # chunk, and the elements of the run of chunks that first reaches
    # CHUNK_SUBSTEPS intervals, or the grid's end, joined and fed to block
    # with the last row before them, carried over
    _, chunks = plan_integration(schedule, grid, step)
    rows, pending = [first], []
    for i0, plan, controls in chunks:
        i1 = i0 + plan.counts.size
        _, elements = chunk(controls, np.repeat(plan.widths, plan.counts),
                            plan.counts.max(initial=1))
        pending.append(elements)
        size = sum(parts[0].shape[-1] for parts in pending)
        if size >= integrate.CHUNK_SUBSTEPS or i1 == grid.size - 1:
            out = np.empty((size,) + first.shape, dtype=first.dtype)
            block(rows[-1], [np.concatenate(parts, -1) for parts in zip(*pending)], out)
            rows += list(out)
            pending = []
    return np.array(rows)


@pytest.mark.parametrize("limit", [12, CHUNK_SUBSTEPS])
def test_each_route_is_its_chunk_stepper_walked(monkeypatch, limit):
    # bit for bit, for one state and a (k, 2, 2) stack, over chunks of
    # several substep counts, joined in row blocks of several chunks
    monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", limit)
    sched = BathSchedule(gamma=Sinusoid(1.0, 0.5, 2.0), r=Ramp(0.2, 0.1), theta=Ramp(0.3, 0.2))
    grid = _uneven_grid()
    identity = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=complex)
    flow = _by_hand(identity, gaugeflow.gauge_chunk, gaugeflow.gauge_rows, sched, grid, 0.01)
    assert np.array_equal(flow, evolve_gauge(sched, grid, 0.01))
    for rho0 in (STATES[1], STATES):
        bloch = (liouvillian._TO_BLOCH @ vectorize(rho0)[..., None])[..., 0]
        rows = _by_hand(bloch, liouvillian.reference_chunk, liouvillian.reference_rows,
                        sched, grid, 0.01)
        want = integrate_reference(sched, rho0, grid, 0.01)
        assert np.array_equal(unvectorize(rows @ liouvillian._FROM_BLOCH.T), want)


def test_each_route_is_walked_in_row_blocks_past_the_float_range():
    # as above, on gamma = 100 and a vacuum reservoir at one substep of 0.01
    # per interval: the first row block, CHUNK_SUBSTEPS intervals, spans
    # t = 20.48, over which the coherence weights fall by e^-1024, and each
    # route's rows stay finite.  The gauge route's rows went non-finite
    # here when its joins kept no exponent
    sched = BathSchedule(gamma=Constant(100.0), r=Constant(0.0))
    grid = uniform_grid(30.0, 0.01)
    identity = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=complex)
    flow = _by_hand(identity, gaugeflow.gauge_chunk, gaugeflow.gauge_rows, sched, grid, 0.01)
    assert np.all(np.isfinite(flow)) and np.array_equal(flow, evolve_gauge(sched, grid, 0.01))
    bloch = (liouvillian._TO_BLOCH @ vectorize(STATES)[..., None])[..., 0]
    rows = _by_hand(bloch, liouvillian.reference_chunk, liouvillian.reference_rows,
                    sched, grid, 0.01)
    want = integrate_reference(sched, STATES, grid, 0.01)
    assert np.array_equal(unvectorize(rows @ liouvillian._FROM_BLOCH.T), want)


def _counted(monkeypatch, module, name, size, sizes):
    # wrap module.name so that each call appends size(*args) to sizes
    fn = getattr(module, name)

    def counted(*args):
        sizes.append(size(*args))
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("route", ["gauge", "reference"])
def test_row_blocks_reach_the_chunk_limit_in_intervals(monkeypatch, route):
    # at 12 substeps per chunk, 5 substeps per interval make chunks of 2
    # intervals and row blocks of 6 chunks, the last block what is left;
    # at one substep per interval a chunk already holds 12 intervals, so
    # each row block is exactly one chunk
    monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", 12)
    module = gaugeflow if route == "gauge" else liouvillian
    chunks, blocks = [], []
    _counted(monkeypatch, module, route + "_chunk", lambda controls, h, m: h.size // m, chunks)
    _counted(monkeypatch, module, route + "_rows", lambda start, elements, rows: len(rows), blocks)
    sched = BathSchedule(gamma=Constant(1.0), r=Ramp(0.2, 0.1))
    run = {"gauge": lambda grid: evolve_gauge(sched, grid, 0.01),
           "reference": lambda grid: integrate_reference(sched, STATES, grid, 0.01)}[route]
    run(uniform_grid(1.0, 0.05))
    assert chunks == [2] * 10 and blocks == [12, 8]
    chunks.clear()
    blocks.clear()
    run(uniform_grid(1.0, 0.01))
    assert chunks == blocks == [12] * 8 + [4]


@pytest.mark.parametrize("route", ["gauge", "reference"])
def test_row_blocks_span_any_decay(monkeypatch, route):
    # gamma = 100 on a vacuum reservoir: 500 substeps per interval of 0.05,
    # so chunks of 4 intervals, and one row block of all 400 intervals, over
    # which the coherences decay by e^-1000.  Both routes stay within 1e-10
    # of the closed form.  Row blocks also ended at a decay of 256 before
    # the gauge route's joins kept an exponent (here [52] * 7 + [36])
    module = gaugeflow if route == "gauge" else liouvillian
    sched = BathSchedule(gamma=Constant(100.0), r=Constant(0.0))
    grid = uniform_grid(20.0, 0.05)
    blocks = []
    _counted(monkeypatch, module, route + "_rows", lambda start, elements, rows: len(rows), blocks)
    if route == "gauge":
        states = assemble_density(STATES, evolve_gauge(sched, grid))
    else:
        states = integrate_reference(sched, STATES, grid)
    assert blocks == [400]
    for k, rho0 in enumerate(STATES):
        want = autonomous_expectations(rho0, 100.0, 0.0, 0.0, grid)
        assert np.max(np.abs(pauli_expectations(states[:, k]) - want)) <= 1e-10


def test_fastest_rate_is_refused_past_the_float_range():
    # the largest gamma (2N + 1) at the nodes; nan at gamma = 0 with 2N + 1
    # = inf is refused too, as BathPoint and default_step refuse it
    gamma, n = np.array([1.0, 2.0, 0.5]), np.array([3.0, 1.0, 10.0])
    assert integrate.fastest_rate((gamma, n, n)) == 10.5
    for gamma, n in ((1.0, 1e308), (0.0, 1e308)):
        controls = (np.array([1.0, gamma]), np.array([0.0, n]), np.zeros(2))
        with pytest.raises(InvalidInputError, match=r"^relaxation rate gamma \(2N \+ 1\) "
                                                    r"exceeds the float range$"):
            integrate.fastest_rate(controls)


def test_uniform_grids_plan_a_single_count():
    # so their chunks are those of the substep limit alone: the
    # long_horizon, dense_output and r = 2 grids at the auto step
    long_horizon = BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.33, 0.135, 0.91, 2.17),
                                theta=Ramp(1.5, 0.0095))
    dense = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.2, 0.1), theta=Constant(0.7))
    r2 = BathSchedule(gamma=Constant(1.0), r=Constant(2.0))
    for sched, grid, count in ((long_horizon, uniform_grid(300.0, 0.05), 8),
                               (dense, uniform_grid(10.0, 0.001), 1),
                               (r2, uniform_grid(30.0, 0.05), 137)):
        step = default_step(sched, grid)
        assert np.unique(plan_substeps(grid, step).counts).tolist() == [count]
        _, chunks = plan_integration(sched, grid, step)
        starts = [i0 for i0, _, _ in chunks]
        assert starts == list(range(0, grid.size - 1, max(CHUNK_SUBSTEPS // count, 1)))


def test_one_point_grid_is_one_chunk_of_its_node():
    _, chunks = plan_integration(BathSchedule(gamma=Constant(1.0)), np.array([0.0]), None)
    [(i0, plan, (g, _, _))] = list(chunks)
    assert i0 == 0 and np.array_equal(plan.nodes, [0.0]) and np.array_equal(g, [1.0])
    with pytest.raises(InvalidInputError, match=r"gamma\(t\) < 0 at t = 0\.0$"):
        next(plan_integration(BathSchedule(gamma=Constant(-1.0)), np.array([0.0]), None)[1])


def test_negative_control_is_refused_at_its_first_node_time(monkeypatch):
    # 0.5 + sin(t) turns negative after 7 pi / 6 = 3.66519..., between grid
    # times 3.65 and 3.7; the first node time past it is 3.6655.  The chunks
    # are planned lazily, so each route refuses it when it reaches the chunk
    # holding that node, in interval 73 of 50 substeps each: a later chunk
    # than the first at the default chunk size and at 5 substeps, the first
    # chunk when one chunk holds the whole grid.
    sched = BathSchedule(gamma=Sinusoid(0.5, 1.0, 1.0, 0.0))
    grid = uniform_grid(30.0, 0.05)
    message = r"gamma\(t\) < 0 at t = 3\.6655$"
    for limit in (5, CHUNK_SUBSTEPS, 10**9):
        monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", limit)
        _, chunks = plan_integration(sched, grid, 0.001)
        if limit < 10**9:
            assert next(chunks)[1].nodes[-1] < 3.6655
        with pytest.raises(InvalidInputError, match=message):
            evolve_gauge(sched, grid, 0.001)
        with pytest.raises(InvalidInputError, match=message):
            integrate_reference(sched, excited_state(), grid, 0.001)


def _peak_traced_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_route_memory_does_not_grow_with_the_horizon():
    # 10 000 and 40 000 substeps at dt_out = 1, so the output rows are
    # negligible: with the node parameters of the whole grid held at once,
    # each peak would grow fourfold
    sched = BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.3, 0.1, 0.6, 1.1), theta=Ramp(1.2, 0.01))
    gauge, reference = [], []
    for t_max in (10.0, 40.0):
        grid = uniform_grid(t_max, 1.0)
        gauge.append(_peak_traced_bytes(lambda: evolve_gauge(sched, grid, 0.001)))
        reference.append(_peak_traced_bytes(
            lambda: integrate_reference(sched, excited_state(), grid, 0.001)))
    assert gauge[1] <= 1.5 * gauge[0], gauge
    assert reference[1] <= 1.5 * reference[0], reference


def test_reference_memory_per_substep_and_on_a_long_horizon_chunk():
    # inside one interval of 40 000 substeps every substep's rate-operator
    # blocks and RK4 stages are held at once, measured at 440 B per substep
    sched = BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.3, 0.1, 0.6, 1.1), theta=Ramp(1.2, 0.01))
    one_interval = np.array([0.0, 40.0])
    peak = _peak_traced_bytes(lambda: integrate_reference(sched, excited_state(), one_interval, 0.001))
    assert peak / 40_000 <= 600, peak / 40_000
    # a long_horizon-shaped run to t = 30: 601 rows of 50 substeps each
    sched = BathSchedule(gamma=Constant(1.0), r=Sinusoid(0.33, 0.135, 0.91, 2.17), theta=Ramp(1.5, 0.0095))
    grid = uniform_grid(30.0, 0.05)
    peak = _peak_traced_bytes(lambda: integrate_reference(sched, excited_state(), grid, 0.001))
    assert peak <= 3.0e6, peak


def test_a_zero_step_is_refused():
    with pytest.raises(InvalidInputError, match=r"^step must be > 0, got 0.0$"):
        plan_substeps(np.array([0.0, 1.0]), 0.0)
