import numpy as np
import pytest

from squeezebath.bath import BathSchedule, Sinusoid
from squeezebath.errors import InvalidInputError
from squeezebath.integrate import (
    check_grid,
    default_step,
    plan_integration,
    plan_substeps,
    uniform_grid,
)


def test_uniform_grid_endpoints():
    grid = uniform_grid(30.0, 0.05)
    assert grid.size == 601
    assert grid[0] == 0.0
    assert grid[-1] == 30.0
    assert np.all(np.diff(grid) > 0)


def test_uniform_grid_requires_divisible_step():
    with pytest.raises(InvalidInputError):
        uniform_grid(1.0, 0.3)
    with pytest.raises(InvalidInputError):
        uniform_grid(-1.0, 0.1)
    with pytest.raises(InvalidInputError):
        uniform_grid(1.0, 0.0)


def test_check_grid_rejects_bad_grids():
    check_grid(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(InvalidInputError):
        check_grid(np.array([0.1, 0.5]))  # must start at 0
    with pytest.raises(InvalidInputError):
        check_grid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    with pytest.raises(InvalidInputError):
        check_grid(np.array([[0.0, 1.0]]))  # 1-D only


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


def test_default_step_scales_with_gamma():
    assert default_step(np.array([1.0, 2.0, 0.5])) == pytest.approx(5e-4)
    assert default_step(np.array([0.0])) == np.inf


def test_negative_control_is_refused_at_its_first_node_time():
    # 0.5 + sin(t) turns negative after 7 pi / 6 = 3.66519..., between grid
    # times 3.65 and 3.7; the first node time past it is 3.6655
    sched = BathSchedule(gamma=Sinusoid(0.5, 1.0, 1.0, 0.0))
    with pytest.raises(InvalidInputError, match=r"gamma\(t\) < 0 at t = 3\.6655$"):
        plan_integration(sched, uniform_grid(30.0, 0.05), 0.001)
