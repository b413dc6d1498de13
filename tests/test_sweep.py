"""Seeded draws over the physical input domain, run through the CLI.

Physically valid inputs must give results: every draw of the physical
domain exits 0.  Grids from tiny to absurd either run or are refused with
exit code 1 and one `error:` line; a numerical failure (exit 2) or an
uncaught exception fails the test.  A draw that fails is a defect of the
program, so the seeds and ranges below stay as they are.
"""

import math
import random
import re

import numpy as np
import pytest

from squeezebath.cli import main


def _control(rng, prefix, lo, hi, t_max):
    # a control of any kind whose values on [0, t_max] stay within [lo, hi];
    # a sin control has omega in [0, 100]
    kind = rng.choice(["const", "exp", "ramp", "sin"])
    start, end = rng.uniform(lo, hi), rng.uniform(lo, hi)
    if kind == "const":
        params = {"value": start}
    elif kind == "exp":
        # start * exp(-c2 t) runs from start to an end of the same sign
        params = {"c1": start, "c2": math.log(start / math.copysign(end, start)) / t_max}
    elif kind == "ramp":
        params = {"a": start, "b": (end - start) / t_max}
    else:
        params = {"a": (start + end) / 2.0, "b": (end - start) / 2.0,
                  "omega": rng.uniform(0.0, 100.0), "phase": rng.uniform(-math.pi, math.pi)}
    return ["--%s.kind=%s" % (prefix, kind)] + [
        "--%s.%s=%r" % (prefix, name, value) for name, value in params.items()
    ]


def _physical_draw(rng):
    # gamma within [0.2, 5]; r within [0, 2] and theta within [-pi, pi], or
    # for about a quarter of the draws the thermal override with nbar in [0, 20]
    args = ["--grid.t_max=5"] + _control(rng, "schedule.gamma", 0.2, 5.0, 5.0)
    if rng.random() < 0.25:
        return args + ["--schedule.mode=thermal", "--schedule.nbar=%r" % rng.uniform(0.0, 20.0)]
    return (args + _control(rng, "schedule.r", 0.0, 2.0, 5.0)
            + _control(rng, "schedule.theta", -math.pi, math.pi, 5.0))


# found by hand: squeezing that oscillates faster than the relaxation rate,
# which fails tol.trace unless the step also resolves the control's omega
_FAST_SQUEEZING = ["--grid.t_max=5", "--schedule.gamma.value=0.3", "--schedule.r.kind=sin",
                   "--schedule.r.a=1", "--schedule.r.b=0.9", "--schedule.r.omega=100",
                   "--schedule.r.phase=0"]
# found by hand: a squeeze phase that turns faster than the relaxation rate,
# which fails tol.oracle unless the step also resolves theta's speed
_FAST_PHASE = [["--grid.t_max=1", "--schedule.r.kind=const", "--schedule.r.value=0.8"] + theta
               for theta in (["--schedule.theta.kind=ramp", "--schedule.theta.a=0",
                              "--schedule.theta.b=1000"],
                             ["--schedule.theta.kind=sin", "--schedule.theta.a=0",
                              "--schedule.theta.b=300", "--schedule.theta.omega=10",
                              "--schedule.theta.phase=0"])]
# found by hand: the same turn under weak squeezing, where the step weighs
# theta's speed by sinh 2r = 2|M| (5e-4, not 1e-5) and must still pass tol.oracle
_WEAK_FAST_PHASE = ["--grid.t_max=1", "--schedule.r.kind=const", "--schedule.r.value=0.01",
                    "--schedule.theta.kind=ramp", "--schedule.theta.a=0",
                    "--schedule.theta.b=1000"]


def _grid_draw(rng):
    # default schedule, auto step; the absurd grids need more rows than
    # MAX_ROWS or more substeps per interval than MAX_INTERVAL_SUBSTEPS, so
    # none of them is a long run that the program accepts
    kind = rng.choice(["wide", "rows", "interval", "multiple", "sign"])
    if kind == "wide":
        t_max = 10.0 ** rng.uniform(-6.0, 1.5)
        dt_out = t_max / rng.randint(1, 200)
    elif kind == "rows":
        t_max = 10.0 ** rng.uniform(3.0, 300.0)
        dt_out = t_max / 10.0 ** rng.uniform(6.0, 300.0)
    elif kind == "interval":
        dt_out = 10.0 ** rng.uniform(3.0, 300.0)
        t_max = dt_out * rng.randint(1, 5)
    elif kind == "multiple":
        t_max = rng.uniform(0.1, 10.0)
        dt_out = t_max / (rng.randint(1, 50) + 0.5)
    else:
        t_max, dt_out = rng.choice([(-1.0, 0.05), (0.0, 0.05), (1.0, -0.05), (1.0, 0.0)])
    return ["--grid.t_max=%r" % t_max, "--grid.dt_out=%r" % dt_out]


@pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
def test_physical_draws_give_results_and_grids_run_or_are_refused(tmp_path, capsys):
    # _FAST_SQUEEZING, the two _FAST_PHASE runs, _WEAK_FAST_PHASE and 60
    # physical draws at t_max = 5 (the slowest, where gamma (2N + 1) is near
    # 200, plan about 100 000 substeps in 0.3 s), and 60 grid draws: about
    # 6 s in all on a 2-core host.  At a fixed step of 0.001, 18 of the 64
    # physical runs fail with a trace or oracle error
    rng = random.Random(20051)
    physical = ([_FAST_SQUEEZING] + _FAST_PHASE + [_WEAK_FAST_PHASE]
                + [_physical_draw(rng) for _ in range(60)])
    failed = []
    for k, draw in enumerate(physical):
        args = ["trajectory", "--out", str(tmp_path / ("p%d" % k))] + draw
        code = main(args)
        err = capsys.readouterr().err
        if code != 0:
            failed.append((args[3:], code, err))
    for k in range(60):
        args = ["trajectory", "--out", str(tmp_path / ("g%d" % k))] + _grid_draw(rng)
        code = main(args)
        err = capsys.readouterr().err
        if not (code == 0 and err == "" or code == 1 and err.startswith("error: ")
                and err.count("\n") == 1):
            failed.append((args[3:], code, err))
    assert not failed, failed


@pytest.mark.filterwarnings("error")
def test_a_rate_reached_only_between_grid_times_gives_results(tmp_path, capsys):
    # gamma = 5 - 5 cos(4 pi t) is 0 at every output time of dt_out = 0.5
    # and up to 10 between them, so at r = 3 gamma (2N + 1) reaches about
    # 2017 only between grid times.  A step read from the controls at the
    # grid times exits 2 (trace error 5.3e-9 at t = 0.5); the controls'
    # peaks give a step of about 5e-6, about a million substeps (3 s)
    args = ["trajectory", "--out", str(tmp_path), "--schedule.gamma.kind=sin",
            "--schedule.gamma.a=5", "--schedule.gamma.b=5",
            "--schedule.gamma.omega=%r" % (4.0 * math.pi),
            "--schedule.gamma.phase=%r" % (-math.pi / 2.0),
            "--schedule.r.kind=const", "--schedule.r.value=3",
            "--grid.t_max=5", "--grid.dt_out=0.5"]
    assert main(args) == 0, capsys.readouterr().err
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape == (11, 16)
    assert np.max(rows[:, 13]) <= 1e-10  # trace_dist_ref, the oracle distance


def _edge_draw(rng):
    # constant controls whose fastest rate gamma (2N + 1) is log-uniform over
    # [1e-3, 1e4], thermal (nbar log-uniform over [0.01, 1000]) or squeezed
    # (r in [0, 2.5]), run until span times that rate reaches a draw from
    # [750, 1200], or for as long as 1.2e5 substeps of 1e-2 / max(rate, 1)
    # allow, which caps the slow draws; over one output interval or over 20
    # to 200
    rate = 10.0 ** rng.uniform(-3.0, 4.0)
    if rng.random() < 0.5:
        nbar = 10.0 ** rng.uniform(-2.0, 3.0)
        args = ["--schedule.mode=thermal", "--schedule.nbar=%r" % nbar]
        n = nbar
    else:
        r = rng.uniform(0.0, 2.5)
        args = ["--schedule.r.kind=const", "--schedule.r.value=%r" % r]
        n = math.sinh(r) ** 2
    t_max = min(rng.uniform(750.0, 1200.0) / rate, 1.2e5 * 1e-2 / max(rate, 1.0))
    intervals = rng.choice([1, rng.randint(20, 200)])
    args += ["--schedule.gamma.value=%r" % (rate / (2.0 * n + 1.0)),
             "--grid.t_max=%r" % t_max, "--grid.dt_out=%r" % (t_max / intervals)]
    return args


def _interior_draw(rng):
    # _edge_draw's rates, spans and grids inside the reservoir: occupation
    # (nbar log-uniform over [0.01, 100]) and squeezing (r in [0.05, 2.5]) at once
    rate = 10.0 ** rng.uniform(-3.0, 4.0)
    nbar = 10.0 ** rng.uniform(-2.0, 2.0)
    r = rng.uniform(0.05, 2.5)
    n = nbar + (2.0 * nbar + 1.0) * math.sinh(r) ** 2
    t_max = min(rng.uniform(750.0, 1200.0) / rate, 1.2e5 * 1e-2 / max(rate, 1.0))
    intervals = rng.choice([1, rng.randint(20, 200)])
    return ["--schedule.nbar=%r" % nbar, "--schedule.r.kind=const", "--schedule.r.value=%r" % r,
            "--schedule.gamma.value=%r" % (rate / (2.0 * n + 1.0)),
            "--grid.t_max=%r" % t_max, "--grid.dt_out=%r" % (t_max / intervals)]


def _failed_draws(draws, tmp_path, capsys):
    # trajectory exits 0 within 1e-10 of the reference, and verify exits 0
    # and skips no check
    failed = []
    for k, draw in enumerate(draws):
        for command in ("trajectory", "verify"):
            out_dir = tmp_path / ("e%d" % k)
            code = main([command, "--out", str(out_dir)] + draw)
            out, err = capsys.readouterr()
            if command == "trajectory":
                found = re.search(r"max oracle distance (\S+)\)", out)
                ok = found is not None and float(found.group(1)) <= 1e-10
            else:
                ok = re.search(r"^  \[SKIP\] ", out, re.M) is None
            if code != 0 or not ok:
                failed.append((command, draw, code, err))
    return failed


@pytest.mark.filterwarnings("error")
def test_edge_draws_whose_weights_decay_past_the_float_range_give_results(tmp_path, capsys):
    # 24 draws of _edge_draw, about 5 s on a 2-core host: span times rate
    # passes 708 in every draw whose rate is above about 0.59, inside one
    # interval or across many, and the gauge route's joins multiply weights
    # that decay at up to that rate, past the float range.  trajectory exits 0
    # within 1e-10 of the reference on every draw, and verify passes every
    # check on every draw, thermal or squeezed, and skips none: its four
    # fixed-schedule checks read neither the draw's grid nor its step
    rng = random.Random(20052)
    draws = [_edge_draw(rng) for _ in range(24)]
    failed = _failed_draws(draws, tmp_path, capsys)
    assert not failed, failed


@pytest.mark.filterwarnings("error")
def test_interior_draws_occupied_and_squeezed_give_results(tmp_path, capsys):
    # 12 draws of _interior_draw, where |M|^2 < N (N + 1): the same
    # outcome as the edge draws, on the formula's inside rather than its edges
    rng = random.Random(20053)
    draws = [_interior_draw(rng) for _ in range(12)]
    failed = _failed_draws(draws, tmp_path, capsys)
    assert not failed, failed
