import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import squeezebath
from squeezebath import cli, csvformat, integrate, verify
from squeezebath.bath import BathSchedule, Constant, ExpDecay
from squeezebath.cli import (
    DEFAULTS,
    TRAJECTORY_HEADER,
    figure_initial,
    figure_schedule,
    main,
    resolve_config,
)
from squeezebath.errors import InvalidInputError, NumericalFailureError
from squeezebath.liouvillian import build_rate_operator, spectrum, steady_state
from squeezebath.spectral import closed_form_spectrum
from squeezebath.states import pure_state


# what --help prints
_USAGE = "usage: squeezebath <command> [--config FILE] [--out DIR] [key=value ...]\n"


# name -> status and tolerance of each line of the default verify report, in order
VERIFY_LINES = {
    "commutators": "PASS (exact)",
    "basis-actions": "PASS (exact)",
    "adjoint-pairings": "PASS (exact)",
    "construction-equality": "PASS tolerance 1.000e-14",
    "spectrum-formulas": "PASS tolerance 1.000e-10",
    "steady-state": "PASS tolerance 1.000e-12",
    "branch-conditions": "PASS tolerance 1.000e-12",
    "alpha-root-adjudication": "PASS tolerance 1.000e-15",
    "eigenmode-consistency": "PASS tolerance 1.000e-10",
    "biorthogonality": "PASS tolerance 1.000e-10",
    "zero-mode": "PASS tolerance 1.000e-12",
    "oracle-agreement": "PASS tolerance 1.000e-07",
    "gauge-trace-identities": "PASS tolerance 1.000e-09",
    "conservation-positivity": "PASS tolerance 1.000e-09",
    "coherence-symmetry": "PASS tolerance 1.000e-09",
    "autonomous-consistency": "PASS tolerance 1.000e-08",
    "steady-approach": "PASS tolerance 1.000e-06",
    "inversion-decay": "PASS tolerance 1.000e-03",
    "decay-asymmetry": "PASS",
}


def _read(path):
    return path.read_text(encoding="utf-8")


def _report_lines(report):
    """(name, status and tolerance) of each check line of a verify report."""
    lines = []
    for status, name, body in re.findall(r"^  \[(\w+)\] (\S+) +(.*?)(?: \| .*)?$", report, re.M):
        tol = re.findall(r"\(exact\)|tolerance \S+|skipped: .*|raised \w+", body)
        lines.append((name, " ".join([status] + tol)))
    return lines


def _verify_lines(changed):
    return list({**VERIFY_LINES, **changed}.items())


# the four checks that evolve fixed schedules on fixed inputs
_FIXED_CHECKS = ("autonomous-consistency", "steady-approach", "inversion-decay", "decay-asymmetry")


def _fixed_lines(report, names=_FIXED_CHECKS):
    """The report lines of the named checks, by default the four fixed-input
    ones, in full."""
    return [line for line in report.splitlines()
            if re.match(r"  \[\w+\] (%s) " % "|".join(names), line)]


def _column(text, name):
    lines = text.strip().splitlines()
    idx = lines[0].split(",").index(name)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def test_defaults_resolve():
    rc = resolve_config({}, ".")
    assert rc.t_max == 30.0
    assert rc.dt_out == 0.05
    assert DEFAULTS["grid.dt_int"] == "auto" and rc.dt_int is None
    assert resolve_config({"grid.dt_int": "0.002"}, ".").dt_int == 0.002
    assert rc.figure_ids == (1, 2, 3, 4, 5, 6)
    assert rc.mode == "ideal" and rc.schedule.nbar == 0.0
    thermal = resolve_config({"schedule.mode": "thermal", "schedule.nbar": "0.7"}, ".")
    assert (thermal.mode, thermal.schedule) == ("thermal", BathSchedule(
        Constant(1.0), Constant(0.0), Constant(0.0), 0.7))
    occupied = resolve_config({"schedule.nbar": "0.7"}, ".")
    assert (occupied.mode, occupied.schedule) == ("ideal", BathSchedule(
        Constant(1.0), ExpDecay(0.1, 0.1), Constant(0.0), 0.7))
    mu = math.sqrt(0.2) * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    assert np.allclose(rc.rho0, pure_state(mu, math.sqrt(0.8)), rtol=1e-12, atol=0)


def test_overrides_change_schedule_kind():
    rc = resolve_config(
        {"schedule.r.kind": "const", "schedule.r.value": "0.6"}, "."
    )
    point = rc.schedule.at(0.0)
    assert point.n_param == pytest.approx(math.sinh(0.6) ** 2, rel=1e-14)


def test_unknown_key_is_rejected():
    with pytest.raises(InvalidInputError):
        resolve_config({"grid.bogus": "1"}, ".")
    with pytest.raises(InvalidInputError):
        resolve_config({"schedule.r.omega": "1"}, ".")  # exp kind has no omega


def test_missing_kind_parameter_is_rejected():
    with pytest.raises(InvalidInputError):
        resolve_config({"schedule.r.kind": "sin", "schedule.r.a": "0.1"}, ".")


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngrid.t_max = 2\ngrid.dt_out=0.1\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        ["trajectory", "--config", str(cfg), "--out", str(out), "--grid.t_max=1"]
    )
    assert rc == 0
    text = _read(out / "trajectory.csv")
    lines = text.strip().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 1 + 11  # t_max 1 (override wins), dt_out 0.1
    assert lines[1].startswith("0,1,0.1,0,")


def test_trajectory_output_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["trajectory", "--grid.t_max=1", "--grid.dt_out=0.25"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _read(out_a / "trajectory.csv") == _read(out_b / "trajectory.csv")
    # at gamma = 0.2 the auto step, 1e-2 (a fastest rate below 1 counts as
    # 1), is capped at the grid spacing (a rounding below 0.001): the run is
    # that of an explicit grid.dt_int = dt_out
    args = ["trajectory", "--schedule.gamma.value=0.2", "--grid.t_max=1", "--grid.dt_out=0.001"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b), "--grid.dt_int=0.001"]) == 0
    assert _read(out_a / "trajectory.csv") == _read(out_b / "trajectory.csv")


def test_vacuum_trajectory_matches_decay_law(tmp_path):
    out = tmp_path / "vac"
    rc = main(
        [
            "trajectory",
            "--out", str(out),
            "--schedule.r.kind=const", "--schedule.r.value=0",
            "--initial.mu_abs2=1", "--initial.mu_phase=0",
            "--initial.nu_abs2=0", "--initial.nu_phase=0",
            "--grid.t_max=5", "--grid.dt_out=0.25",
        ]
    )
    assert rc == 0
    text = _read(out / "trajectory.csv")
    ts = _column(text, "t")
    sz = _column(text, "sz")
    assert np.max(np.abs(sz - (2.0 * np.exp(-ts) - 1.0))) <= 1e-8


def test_trajectory_rows_within_tolerances(tmp_path):
    out = tmp_path / "tol"
    assert main(["trajectory", "--out", str(out), "--grid.t_max=10"]) == 0
    text = _read(out / "trajectory.csv")
    assert np.max(np.abs(_column(text, "trace_err"))) <= 1e-9
    assert np.min(_column(text, "min_eig")) >= -1e-8
    assert np.max(_column(text, "trace_dist_ref")) <= 1e-7


def test_figures_subset_with_charts(tmp_path):
    out = tmp_path / "figs"
    rc = main(
        [
            "figures",
            "--out", str(out),
            "--figures.ids=2,5",
            "--figures.plot=true",
            "--grid.t_max=4", "--grid.dt_out=0.1",
        ]
    )
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fig2.csv", "fig2.svg", "fig5.csv", "fig5.svg"]
    svg = _read(out / "fig5.svg")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_figures_solve_each_schedule_once(tmp_path, capsys, monkeypatch):
    # figures 2k-1 and 2k share a schedule, so six figures need three solves per route
    calls = {"evolve_gauge": 0, "integrate_reference": 0}
    for name in calls:
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    grid = ["--grid.t_max=2", "--grid.dt_out=0.1"]
    out = tmp_path / "all"
    assert main(["figures", "--out", str(out), "--figures.ids=4,1,6,3,2,5", *grid]) == 0
    assert calls == {"evolve_gauge": 3, "integrate_reference": 3}
    # files are written and reported in figures.ids order
    assert re.findall(r"fig(\d)\.csv", capsys.readouterr().out) == list("416325")
    for fid in range(1, 7):
        solo = tmp_path / ("solo%d" % fid)
        assert main(["figures", "--out", str(solo), "--figures.ids=%d" % fid, *grid]) == 0
        name = "fig%d.csv" % fid
        assert _read(out / name) == _read(solo / name)


def test_figures_stop_at_the_first_failing_figure(tmp_path, capsys):
    # with tol.oracle between the distances of the two figures on one
    # schedule, the passing figure listed first is written before the run fails
    grid = ["--grid.t_max=2", "--grid.dt_out=0.1"]
    dist = {}
    for fid in (5, 6):
        solo = tmp_path / ("solo%d" % fid)
        assert main(["figures", "--out", str(solo), "--figures.ids=%d" % fid, *grid]) == 0
        dist[fid] = np.max(_column(_read(solo / ("fig%d.csv" % fid)), "trace_dist_ref"))
    good, bad = sorted(dist, key=dist.get)
    assert dist[good] < dist[bad]
    tol = "--tol.oracle=%r" % float((dist[good] + dist[bad]) / 2.0)
    out = tmp_path / "pair"
    assert main(["figures", "--out", str(out), "--figures.ids=%d,%d" % (good, bad), tol, *grid]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["fig%d.csv" % good]
    assert "exceeds tol.oracle" in capsys.readouterr().err


def test_even_figure_sy_is_flat_zero(tmp_path):
    out = tmp_path / "even"
    rc = main(
        ["figures", "--out", str(out), "--figures.ids=2",
         "--grid.t_max=6", "--grid.dt_out=0.05"]
    )
    assert rc == 0
    text = _read(out / "fig2.csv")
    assert np.max(np.abs(_column(text, "sy"))) <= 1e-9
    assert np.max(np.abs(_column(text, "sy_ref"))) <= 1e-9


def test_figure_definitions():
    assert figure_schedule(3).r(0.0) == pytest.approx(0.3)
    assert figure_schedule(5).r(10.0) == pytest.approx(0.6 * math.exp(-1.0), rel=1e-14)
    odd = figure_initial(1)
    even = figure_initial(2)
    assert odd[0, 1].imag > 0.0
    assert even[0, 1].imag == 0.0
    assert odd[0, 0] == pytest.approx(even[0, 0], rel=1e-15)
    # one id check for both
    for make in (figure_schedule, figure_initial):
        with pytest.raises(InvalidInputError, match=r"^figure id must be in 1..6, got 7$"):
            make(7)


def test_invalid_inputs_exit_one(tmp_path, capsys):
    assert main(["trajectory", "--out", str(tmp_path), "--grid.t_max=-3"]) == 1
    assert main(["trajectory", "--out", str(tmp_path), "--nonsense"]) == 1
    assert main(["waltz"]) == 1
    assert main(["trajectory", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main([]) == 1
    assert main(["trajectory", "--out"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert err.endswith("error: no command given (choose from figures, spectrum, steady, "
                        "trajectory, verify)\nerror: --out needs a value\n")
    assert main(["trajectory", "-h"]) == 0
    assert capsys.readouterr().out == _USAGE


@pytest.mark.parametrize("command", ["trajectory", "figures", "verify"])
def test_oversized_grid_is_refused_up_front(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(integrate, "MAX_ROWS", 100)
    args = [command, "--out", str(tmp_path), "--grid.t_max=10", "--grid.dt_out=0.05"]
    assert main(args) == 1
    assert "grid of 201 rows exceeds the limit of 100 rows" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("overrides, message", [
    # substeps per interval past any int, or past memory: refused before the cast
    ("grid.t_max=1 grid.dt_out=1 grid.dt_int=1e-300", "an interval of 1e+300 substeps exceeds"),
    ("grid.t_max=1 grid.dt_out=0.5 grid.dt_int=1e-19", "an interval of 5e+18 substeps exceeds"),
    ("grid.t_max=1 grid.dt_out=1 grid.dt_int=1e-12", "an interval of 1000000000000 substeps"),
    ("grid.t_max=1e10 grid.dt_out=1e10 grid.dt_int=1e-300", "an interval of inf substeps exceeds"),
    ("grid.t_max=1e300 grid.dt_out=1e-10", "grid of inf rows exceeds the limit of 800000 rows"),
    # controls that overflow are the input's fault, not the numerics'
    ("schedule.r.kind=exp schedule.r.c1=1 schedule.r.c2=-1000 grid.t_max=1", "not finite at t = "),
    ("schedule.gamma.kind=exp schedule.gamma.c1=1 schedule.gamma.c2=-1000 grid.t_max=1",
     "not finite at t = "),
    ("schedule.gamma.value=1e10 schedule.r.kind=const schedule.r.value=350 grid.t_max=1",
     "relaxation rate gamma (2N + 1) exceeds the float range"),
    # gamma = 0.5 + 0.6 sin(40 pi t) is 0.5 at every output time and dips
    # below 0 between them: refused by the integration that meets it
    ("schedule.gamma.kind=sin schedule.gamma.a=0.5 schedule.gamma.b=0.6 "
     "schedule.gamma.omega=125.66370614359172 schedule.gamma.phase=0 grid.t_max=1",
     "gamma(t) < 0 at t = 0.032869634340222574\n"),
])
@pytest.mark.filterwarnings("error")
def test_sizes_and_controls_past_float_range_exit_one(tmp_path, capsys, overrides, message):
    # verify refuses them as trajectory does, with the same error line, and
    # writes no report; a warning on the way (an overflow) fails the test
    for command in ("trajectory", "verify"):
        out = tmp_path / command
        assert main([command, "--out", str(out)] + overrides.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert list(out.iterdir()) == []


_SIN_GAMMA = ("schedule.gamma.kind=sin schedule.gamma.a=0.5 schedule.gamma.b=1 "
              "schedule.gamma.omega=1 schedule.gamma.phase=0 grid.t_max=10")
_EXP_GAMMA = "schedule.gamma.kind=exp schedule.gamma.c1=1 schedule.gamma.c2=-1000"


@pytest.mark.parametrize("overrides, message", [
    ("grid.dt_int=0.5", "internal step 0.5 exceeds smallest grid spacing 0.04999999999999716"),
    ("schedule.r.kind=const schedule.r.value=6 grid.t_max=0.1",
     "an interval of 406887 substeps exceeds the limit of 400000 substeps per interval"),
    # at an explicit step the walks meet gamma < 0 at a substep node before
    # any grid time; at the auto step default_step meets it at a grid time
    (_SIN_GAMMA + " grid.dt_int=0.01", "gamma(t) < 0 at t = 3.6700000000000004"),
    (_SIN_GAMMA, "gamma(t) < 0 at t = 3.7"),
    (_EXP_GAMMA + " grid.dt_int=0.01", "gamma, N or M not finite at t = 0.7100000000000001 "),
    (_EXP_GAMMA, "gamma, N or M not finite at t = 0.75 "),
    # an explicit step meets 2N + 1 = inf at the first chunk's nodes, as the
    # auto step meets it in default_step, not as a gauge flow gone non-finite
    ("schedule.mode=thermal schedule.nbar=1e308 grid.dt_int=0.01 grid.t_max=1",
     "relaxation rate gamma (2N + 1) exceeds the float range\n"),
])
@pytest.mark.filterwarnings("error")
def test_verify_refuses_an_input_as_trajectory_does(tmp_path, capsys, overrides, message):
    # one place refuses the step, the substep counts and the controls: the
    # walk of the run's integrations, so both commands give the same line
    errs = []
    for command in ("trajectory", "verify"):
        out = tmp_path / command
        assert main([command, "--out", str(out)] + overrides.split()) == 1
        errs.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: " + message), errs[0]


@pytest.mark.parametrize("dt_int", ["auto", "0.01"])
@pytest.mark.filterwarnings("error")
def test_one_output_interval_of_t_100_runs(tmp_path, capsys, dt_int):
    # over one interval to t = 100 the coherence weight f_ge falls below the
    # rounding of 1: composed in difference form across the whole interval,
    # 1 + delta was 0 and the run exited 2 ("gauge parameters non-finite")
    out = tmp_path / dt_int
    args = ["trajectory", "--out", str(out), "--grid.t_max=100", "--grid.dt_out=100",
            "--grid.dt_int=" + dt_int]
    assert main(args) == 0
    lines = _read(out / "trajectory.csv").splitlines()
    assert len(lines) == 3
    distance = float(re.search(r"max oracle distance (\S+)\)", capsys.readouterr().out).group(1))
    assert distance <= 1e-11


@pytest.mark.parametrize("overrides", [
    "schedule.gamma.value=100 schedule.r.kind=const schedule.r.value=0 grid.t_max=15",
    "schedule.mode=thermal schedule.nbar=1000 grid.t_max=1",
    "schedule.mode=thermal schedule.nbar=300 grid.t_max=5",
    "schedule.gamma.value=100 schedule.r.kind=const schedule.r.value=0 grid.t_max=15 "
    "grid.dt_out=0.001 grid.dt_int=0.001",
])
@pytest.mark.filterwarnings("error")
def test_fast_decay_across_many_intervals_runs(tmp_path, capsys, overrides):
    # the coherence weight decays past the float range over a row block of
    # CHUNK_SUBSTEPS intervals, and the gauge route's joins divided by it:
    # the first three exited 2 ("gauge parameters non-finite at t = 14.2",
    # 0.75, 2.4) before its joins kept a power-of-two exponent.  In the last,
    # f_ge = e^-50t is subnormal from t = 14.17, inside the row block from
    # t = 12.288, and the row block from t = 14.336 starts at a subnormal
    # row; it exited 2 at t = 14.196 while a join took the whole exponent of
    # a subnormal |f_ge|, below -1022, for which 2^-k overflowed
    assert main(["trajectory", "--out", str(tmp_path)] + ["--" + o for o in overrides.split()]) == 0
    distance = float(re.search(r"max oracle distance (\S+)\)", capsys.readouterr().out).group(1))
    assert distance <= 1e-10


@pytest.mark.parametrize("overrides", [
    "grid.t_max=2000 grid.dt_out=2000 grid.dt_int=0.025",
    "schedule.gamma.value=100 schedule.r.kind=const schedule.r.value=0 grid.t_max=20 "
    "grid.dt_out=20 grid.dt_int=0.001",
    "schedule.mode=thermal schedule.nbar=300 grid.t_max=3 grid.dt_out=3 grid.dt_int=0.00005",
])
@pytest.mark.filterwarnings("error")
def test_fast_decay_inside_one_interval_runs(tmp_path, capsys, overrides):
    # one output interval over which the coherence weight decays by about
    # e^-1000, e^-1000 and e^-900, at a tenth to two fifths of the auto
    # step's substeps: the gauge route joins the interval's blocks with plain
    # weights, and these exited 2 ("gauge parameters non-finite at t =
    # 2000.0", 20.0, 3.0) before its joins kept a power-of-two exponent
    assert main(["trajectory", "--out", str(tmp_path)] + ["--" + o for o in overrides.split()]) == 0
    distance = float(re.search(r"max oracle distance (\S+)\)", capsys.readouterr().out).group(1))
    assert distance <= 1e-10


def test_verify_passes_on_a_strongly_coupled_vacuum_reservoir(tmp_path, capsys):
    # oracle-agreement, gauge-trace-identities and coherence-symmetry raised
    # NumericalFailureError here before the gauge route's joins kept a
    # power-of-two exponent
    args = ["verify", "--out", str(tmp_path), "--schedule.gamma.value=100",
            "--schedule.r.kind=const", "--schedule.r.value=0"]
    assert main(args) == 0
    assert "summary: 19 passed, 0 failed, 0 skipped" in capsys.readouterr().out


def test_a_coarse_explicit_step_names_its_trace_error(tmp_path, capsys):
    # h gamma (2N + 1) = 0.41 at nbar = 20 and dt_int = 0.01, so the gauge
    # route composes in difference form over blocks of 8 substeps, not 512,
    # over which f_ge fell by e^-105 and 1 + delta rounded to 0: the run to
    # t = 10 names the step's trace error, as the run to t = 2 does, and not
    # "gauge parameters non-finite"
    for t_max in ("2", "10"):
        args = ["trajectory", "--out", str(tmp_path), "--schedule.mode=thermal",
                "--schedule.nbar=20", "--grid.t_max=" + t_max, "--grid.dt_out=" + t_max,
                "--grid.dt_int=0.01"]
        assert main(args) == 2
        assert capsys.readouterr().err == ("numerical failure: trace error 5.161e-06 exceeds "
                                           "tol.trace=1e-09 at t = %s\n" % t_max)


def test_unusable_output_path_exits_one(tmp_path, capsys):
    # an --out that is a regular file or lies under one, and an output file
    # that is a directory: one error line naming the path, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for command, output in (("trajectory", "trajectory.csv"), ("verify", "verify_report.txt")):
        taken = tmp_path / command
        (taken / output).mkdir(parents=True)
        for out in (blocker, blocker / "sub", taken):
            assert main([command, "--out", str(out), "--grid.t_max=1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(out) in err and "Traceback" not in err


def test_bad_config_line_exits_one(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n", encoding="utf-8")
    assert main(["trajectory", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "broken.cfg:1" in capsys.readouterr().err


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec"
    rc = main(
        ["spectrum", "--out", str(out),
         "--schedule.r.kind=const", "--schedule.r.value=0.1"]
    )
    assert rc == 0
    text = _read(out / "spectrum.csv")
    assert np.max(_column(text, "abs_diff")) <= 1e-12
    eigs = _column(text, "eig_re")
    want = [0.0, -0.40936537653899097, -0.6107013790800849, -1.020066755619076]
    assert np.allclose(eigs, want, atol=1e-12)


def test_steady_command_asymptotic(tmp_path):
    out = tmp_path / "steady"
    rc = main(
        ["steady", "--out", str(out),
         "--schedule.r.kind=const", "--schedule.r.value=0.6"]
    )
    assert rc == 0
    text = _read(out / "steady.csv")
    n = math.sinh(0.6) ** 2
    assert _column(text, "rho_ee")[0] == pytest.approx(n / (2 * n + 1), rel=1e-12)
    assert _column(text, "sz")[0] == pytest.approx(-1.0 / (2 * n + 1), rel=1e-12)


def test_steady_command_rejects_diverging_schedule(tmp_path, capsys):
    rc = main(
        ["steady", "--out", str(tmp_path),
         "--schedule.r.kind=sin", "--schedule.r.a=0.3", "--schedule.r.b=0.2",
         "--schedule.r.omega=1", "--schedule.r.phase=0"]
    )
    assert rc == 1  # no asymptotic limit to report
    assert capsys.readouterr().err == "error: r control does not converge\n"


@pytest.mark.parametrize("args, message", [
    # the rate operator vanishes at gamma = 0, so every state is steady: an
    # input problem, which exited 2 as a degenerate null space at a time
    (["--steady.at=5"], "gamma at t = 5 must be > 0, got 0.0"),
    ([], "gamma limit must be > 0, got 0.0"),
])
def test_steady_at_gamma_zero_is_refused(tmp_path, capsys, args, message):
    out = tmp_path / "refused"
    assert main(["steady", "--out", str(out), "--schedule.gamma.value=0"] + args) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert list(out.iterdir()) == []


def test_spectrum_at_gamma_zero_has_rates_plus_zero(tmp_path, capsys):
    # the closed forms negated a zero product and printed -0
    assert main(["spectrum", "--out", str(tmp_path), "--schedule.gamma.value=0"]) == 0
    assert capsys.readouterr().out.count("(formula 0)\n") == 4
    rows = _read(tmp_path / "spectrum.csv").splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0"] * 4


@pytest.mark.parametrize("theta", [
    ["--schedule.theta.value=3.14159"],
    ["--schedule.theta.kind=ramp", "--schedule.theta.a=0", "--schedule.theta.b=0.3"],
])
def test_steady_limit_needs_no_converging_phase(tmp_path, capsys, theta):
    # the coherences have no source and decay whatever theta does, so the
    # limit is theta = 0's: diag(N/(2N+1), (N+1)/(2N+1)) at r = 0.5
    args = ["steady", "--schedule.r.kind=const", "--schedule.r.value=0.5"]
    assert main(args + ["--out", str(tmp_path / "turned")] + theta) == 0
    assert main(args + ["--out", str(tmp_path / "still")]) == 0
    assert capsys.readouterr().err == ""
    text = _read(tmp_path / "turned" / "steady.csv")
    assert text == _read(tmp_path / "still" / "steady.csv")
    n = math.sinh(0.5) ** 2
    assert _column(text, "rho_ee")[0] == pytest.approx(n / (2 * n + 1), rel=1e-12)
    assert _column(text, "rho_gg")[0] == pytest.approx((n + 1) / (2 * n + 1), rel=1e-12)
    assert _column(text, "rho_eg_re")[0] == _column(text, "rho_eg_im")[0] == 0.0


@pytest.mark.filterwarnings("error")
def test_steady_limit_past_the_float_range_has_populations_one_half(tmp_path):
    # 2N+1 overflows at N = 1e308; the limit is diag(1/2, 1/2), not a trace-0 state
    args = ["steady", "--out", str(tmp_path), "--schedule.mode=thermal", "--schedule.nbar=1e308"]
    assert main(args) == 0
    assert (tmp_path / "steady.csv").read_text() == "rho_ee,rho_gg,rho_eg_re,rho_eg_im,sz\n0.5,0.5,0,0,0\n"


@pytest.mark.filterwarnings("error")
def test_steady_limit_whose_n_is_past_the_float_range_is_refused(tmp_path, capsys):
    # N = sinh(800)^2 is inf: this wrote nan,nan,0,0,nan with three numpy
    # warnings and exited 0; r = 354 keeps its finite N and populations 1/2
    def run(r, out):
        return main(["steady", "--out", str(out), "--schedule.r.kind=const",
                     "--schedule.r.value=" + r])

    assert run("800", tmp_path / "refused") == 1
    err = capsys.readouterr().err
    assert err == "error: r limit 800.0 gives N = sinh(r)^2 past the float range\n"
    assert list((tmp_path / "refused").iterdir()) == []
    assert run("354", tmp_path / "run") == 0
    assert capsys.readouterr().err == ""
    assert _read(tmp_path / "run" / "steady.csv").splitlines()[1].startswith("0.5,0.5,0,0,")


@pytest.mark.parametrize("command", [["spectrum"], ["steady", "--steady.at=0"]])
@pytest.mark.filterwarnings("error")
def test_point_whose_rate_is_past_the_float_range_is_refused(tmp_path, capsys, command):
    # refused with trajectory's message, before a table or a warning; 2N+1 = 1e308 runs
    def run(nbar, out):
        return main(command + ["--out", str(out), "--schedule.mode=thermal", "--schedule.nbar=" + nbar])

    assert run("1e308", tmp_path / "refused") == 1
    err = capsys.readouterr().err
    assert err == "error: relaxation rate gamma (2N + 1) exceeds the float range\n"
    assert list((tmp_path / "refused").iterdir()) == []
    assert run("5e307", tmp_path / "run") == 0
    assert capsys.readouterr().err == ""


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = main(["verify", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    report = _read(out / "verify_report.txt")
    assert _report_lines(report) == _verify_lines({})
    assert "residual[N/(N+1)]" in report and "residual[N/(2N+1)]" in report
    assert "summary:" in captured.out
    # 1e-2 over gamma cosh 2r at the default schedule's peak r = 0.1
    assert "(t_max=30, dt_out=0.05, dt_int=0.009803279976447253, ideal" in report
    # a decoupled run (gamma = 0) moves nothing and gets the smallest
    # spacing: the fixed checks' gamma = 1 schedules run on their own step
    out = tmp_path / "decoupled"
    assert main(["verify", "--out", str(out), "--schedule.gamma.value=0"]) == 0
    decoupled = _read(out / "verify_report.txt")
    spacing = float(np.min(np.diff(integrate.uniform_grid(30.0, 0.05))))
    assert 0.04 < spacing < 0.05
    assert "dt_int=%r," % spacing in decoupled
    assert _report_lines(decoupled) == _verify_lines({})
    assert _fixed_lines(decoupled) == _fixed_lines(report)


def _measured(report, name):
    return float(re.search(r"\] %s +measured (\S+)," % name, report).group(1))


def test_verify_passes_under_strong_squeezing(tmp_path, monkeypatch):
    # constant r = 2 drives alpha_minus up like exp(27 t); the flow's columns stay bounded
    flows, evolve_gauge = [], verify.evolve_gauge

    def recorded(schedule, grid, step=None):
        flows.append((schedule, grid, step, evolve_gauge(schedule, grid, step)))
        return flows[-1][-1]

    monkeypatch.setattr(verify, "evolve_gauge", recorded)
    r2 = ["verify", "--schedule.r.kind=const", "--schedule.r.value=2"]
    assert main(r2 + ["--out", str(tmp_path / "auto")]) == 0
    report = _read(tmp_path / "auto" / "verify_report.txt")
    assert _report_lines(report) == _verify_lines({})
    assert _measured(report, "gauge-trace-identities") <= 1e-10  # 6.5e-11 at dt_int 0.001
    # the routes get the auto step as a number: the Python API's default
    schedule, grid, step, flow = flows[0]
    assert type(step) is float and step == integrate.default_step(schedule, grid) < 1e-3
    assert np.array_equal(flow, evolve_gauge(schedule, grid))
    # the header prints it at repr precision, so passing it back reproduces the run
    assert "dt_int=%r," % step in report
    again = tmp_path / "again"
    assert main(r2 + ["--out", str(again), "--grid.dt_int=%r" % step]) == 0
    assert _read(again / "verify_report.txt") == report
    # an explicit step is used as given: at dt_int 0.001, the step before it
    # followed the relaxation rate, both truncation errors are larger
    fixed = tmp_path / "fixed"
    assert main(r2 + ["--out", str(fixed), "--grid.dt_int=0.001"]) == 0
    fixed_report = _read(fixed / "verify_report.txt")
    assert "dt_int=0.001," in fixed_report
    names = ("oracle-agreement", "gauge-trace-identities")
    measured = [_measured(fixed_report, name) for name in names]
    assert measured == pytest.approx([5.408e-10, 6.508e-11], rel=1e-2)
    assert all(m > _measured(report, name) for m, name in zip(measured, names))


def test_verify_reports_a_failed_gauge_flow_as_failed_checks(tmp_path, capsys, monkeypatch):
    # the run's flow raises: every check that reads it fails with the error;
    # flows of the other schedules still run
    evolve_gauge = verify.evolve_gauge

    def failing(schedule, grid, step=None):
        if schedule.r == Constant(2.0):
            raise NumericalFailureError("gauge parameters non-finite at t = 1.0")
        return evolve_gauge(schedule, grid, step)

    monkeypatch.setattr(verify, "evolve_gauge", failing)
    out = tmp_path / "r2"
    rc = main(["verify", "--out", str(out), "--schedule.r.kind=const", "--schedule.r.value=2"])
    assert rc == 2
    raised = "FAIL raised NumericalFailureError"
    assert _report_lines(_read(out / "verify_report.txt")) == _verify_lines({
        "oracle-agreement": raised,
        "gauge-trace-identities": raised,
        "conservation-positivity": raised,
        "coherence-symmetry": raised,
    })
    assert "oracle-agreement" in capsys.readouterr().err


def test_verify_reports_a_failed_reference_run_as_failed_checks(tmp_path, capsys, monkeypatch):
    # the run's reference raises: the checks that read it fail with the error,
    # the gauge flow's own check still passes
    integrate_reference = verify.integrate_reference

    def failing(schedule, rho0, grid, step=None):
        if schedule.r == Constant(2.0):
            raise NumericalFailureError("reference state non-finite at t = 1.0")
        return integrate_reference(schedule, rho0, grid, step)

    monkeypatch.setattr(verify, "integrate_reference", failing)
    out = tmp_path / "r2"
    rc = main(["verify", "--out", str(out), "--schedule.r.kind=const", "--schedule.r.value=2"])
    assert rc == 2
    raised = "FAIL raised NumericalFailureError"
    assert _report_lines(_read(out / "verify_report.txt")) == _verify_lines({
        "oracle-agreement": raised,
        "conservation-positivity": raised,
        "coherence-symmetry": raised,
    })
    assert "oracle-agreement" in capsys.readouterr().err


def test_verify_coarse_step_fails_oracle(tmp_path, capsys):
    out = tmp_path / "coarse"
    rc = main(["verify", "--out", str(out), "--grid.dt_int=0.5", "--grid.dt_out=0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    report = _read(out / "verify_report.txt")
    assert "[FAIL] oracle-agreement" in report
    assert "oracle-agreement" in captured.err
    # the run's step fails the run's own checks; the fixed-input checks run
    # on their own grids at the default run's step, as in the default report
    assert _report_lines(report) == _verify_lines({
        "oracle-agreement": "FAIL tolerance 1.000e-07",
        "gauge-trace-identities": "FAIL tolerance 1.000e-09",
        "conservation-positivity": "FAIL tolerance 1.000e-09",
    })
    assert main(["verify", "--out", str(tmp_path / "default")]) == 0
    assert len(_fixed_lines(report)) == 4
    assert _fixed_lines(report) == _fixed_lines(_read(tmp_path / "default" / "verify_report.txt"))


def test_modes_are_the_edges_of_one_reservoir_formula(tmp_path, capsys):
    # thermal mode is the formula's r = theta = 0 edge whatever the r and
    # theta keys say: N = nbar, and the r, theta, M_re and M_im columns are
    # 0, never -0.  ideal mode reads schedule.nbar: N = nbar + (2 nbar + 1)
    # sinh(r)^2 and M = (2 nbar + 1) sinh(r) cosh(r).  verify's header names the mode
    squeeze = ["--schedule.r.kind=const", "--schedule.r.value=1", "--schedule.theta.value=0.5"]
    for mode in ("thermal", "ideal"):
        args = ["--schedule.mode=" + mode, "--schedule.nbar=0.5", "--grid.t_max=1"] + squeeze
        assert main(["trajectory", "--out", str(tmp_path / mode)] + args) == 0
        assert main(["verify", "--out", str(tmp_path / mode)] + args) == 0
    lines = _read(tmp_path / "thermal" / "trajectory.csv").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 21
    assert {(row["r"], row["theta"], row["N"], row["M_re"], row["M_im"]) for row in rows} == {
        ("0", "0", "0.5", "0", "0")}
    text = _read(tmp_path / "ideal" / "trajectory.csv")
    assert np.all(_column(text, "N") == pytest.approx(0.5 + 2.0 * math.sinh(1.0) ** 2, rel=1e-14))
    m = 2.0 * math.sinh(1.0) * math.cosh(1.0) * complex(math.cos(0.5), -math.sin(0.5))
    assert np.all(_column(text, "M_re") == pytest.approx(m.real, rel=1e-14))
    assert np.all(_column(text, "M_im") == pytest.approx(m.imag, rel=1e-14))
    for mode, label in (("thermal", "thermal override"), ("ideal", "ideal squeezed reservoir")):
        report = _read(tmp_path / mode / "verify_report.txt")
        assert report.splitlines()[0].endswith(", %s)" % label)


def test_verify_thermal_runs_every_check(tmp_path):
    # the thermal override picks N and M and nothing else: spectrum-formulas
    # and the four fixed-input checks read no input of the run, so their
    # lines are the default report's, byte for byte
    out = tmp_path / "thermal"
    rc = main(
        ["verify", "--out", str(out),
         "--schedule.mode=thermal", "--schedule.nbar=0.7"]
    )
    assert rc == 0
    report = _read(out / "verify_report.txt")
    assert _report_lines(report) == _verify_lines({})
    assert "summary: 19 passed, 0 failed, 0 skipped" in report
    assert main(["verify", "--out", str(tmp_path / "default")]) == 0
    default = _read(tmp_path / "default" / "verify_report.txt")
    names = ("spectrum-formulas",) + _FIXED_CHECKS
    assert len(_fixed_lines(report, names)) == 5
    assert _fixed_lines(report, names) == _fixed_lines(default, names)


@pytest.mark.parametrize("override", [
    "grid.t_max=5", "grid.t_max=7", "grid.t_max=8", "grid.t_max=10", "grid.t_max=15",
    "grid.dt_out=2.5", "grid.dt_out=5", "grid.t_max=10 grid.dt_out=10", "grid.t_max=150",
    "grid.dt_int=0.04",
])
def test_verify_skips_a_check_that_the_grid_cannot_hold(tmp_path, override):
    # no grid or step of the run reaches the four fixed-input checks, so on
    # each of these every check runs and passes, and those four print the
    # default report's lines: the grids end before the state at t = 30
    # settles, hold fewer than 3 times in [0, 4] to fit a decay rate to, or
    # end where the fig-1 flow is 8e-13 below sz = -1 (t = 150), and the
    # step 0.04 takes autonomous-consistency to 1.204e-8, past its 1e-8
    args = ["--" + o for o in override.split()]
    assert main(["verify", "--out", str(tmp_path / "run")] + args) == 0
    report = _read(tmp_path / "run" / "verify_report.txt")
    assert _report_lines(report) == _verify_lines({})
    assert "summary: 19 passed, 0 failed, 0 skipped" in report
    assert main(["verify", "--out", str(tmp_path / "default")]) == 0
    assert _fixed_lines(report) == _fixed_lines(_read(tmp_path / "default" / "verify_report.txt"))


def test_verify_passes_at_t_20(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--grid.t_max=20"]) == 0
    assert _report_lines(_read(tmp_path / "verify_report.txt")) == _verify_lines({})


def test_verify_skips_coherence_symmetry_at_a_squeeze_phase(tmp_path):
    out = tmp_path / "theta"
    assert main(["verify", "--out", str(out), "--schedule.theta.value=0.7"]) == 0
    assert _report_lines(_read(out / "verify_report.txt")) == _verify_lines({
        "coherence-symmetry": "SKIP skipped: squeeze phase is not 0 on this schedule",
    })


def _peak_traced_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# signed zeros, the smallest subnormal, huge and tiny magnitudes, both
# sides of 1e-4 and of 1e15, where %g switches between fixed and exponent
# form, values that round up across them, and a tie at the 15th digit
_CSV_VALUES = [0.0, -0.0, 5e-324, 1e-300, -1e300, 1.0, 1e14, 1e15,
               1e-5, 1e-4, 1e16, 9.9999999999999995e-5, 9.999999999999995e14,
               123456789012345.5]


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 601])
def test_csv_writer_matches_one_row_at_a_time(tmp_path, monkeypatch, rows, block):
    if block is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
    rng = np.random.default_rng(rows)
    values = _CSV_VALUES + (rng.standard_normal(8) * 10.0 ** rng.integers(-20, 20, 8)).tolist()
    table = rng.choice(values, size=(rows, 16))
    path = tmp_path / "t.csv"
    cli.write_trajectory_csv(str(path), table)
    want = "".join(
        [TRAJECTORY_HEADER + "\n"] + [",".join("%.15g" % v for v in row) + "\n" for row in table]
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_csv_writer_memory_does_not_grow_with_the_rows(tmp_path):
    # the writer holds one block of rows at a time; the whole table as
    # Python floats would take about 700 B per row
    peaks = []
    for rows in (5_001, 20_001):
        table = np.linspace(-1.0, 1.0, rows * 16).reshape(rows, 16)
        peaks.append(_peak_traced_bytes(
            lambda: cli.write_trajectory_csv(str(tmp_path / "t.csv"), table)))
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_csv_writer_peak_memory_is_capped(tmp_path):
    # one block's slots and the formatter's lookup tables, built inside
    # the measured call, stay below 1 MiB
    csvformat._tables.cache_clear()
    table = np.linspace(-1.0, 1.0, 20_001 * 16).reshape(20_001, 16)
    peak = _peak_traced_bytes(lambda: cli.write_trajectory_csv(str(tmp_path / "t.csv"), table))
    assert peak <= 1 << 20, peak


def test_trajectory_memory_per_row(tmp_path, capsys):
    # 20 001 rows of one substep each peak near 400 B per row, in
    # compute_frame, with the writer holding one block of rows at a time;
    # a writer holding the whole table as Python floats takes the run to
    # about 840 B
    args = ["trajectory", "--out", str(tmp_path), "--grid.t_max=20", "--grid.dt_out=0.001"]
    peak = _peak_traced_bytes(lambda: main(args))
    assert "(20001 rows," in capsys.readouterr().out
    assert peak / 20_001 <= 600, peak / 20_001


def test_defaults_cover_every_documented_key():
    # kind-specific control parameters resolve against their default kinds
    for key in DEFAULTS:
        rc = resolve_config({key: DEFAULTS[key]}, ".")
        assert rc is not None


@pytest.mark.parametrize(
    "args, code",
    [
        (["squeezebath.cli", "spectrum"], 0),
        (["squeezebath.cli", "spectrum", "--grid.bogus=1"], 1),
        (["squeezebath", "spectrum"], 0),
    ],
)
def test_python_dash_m_runs_the_cli(tmp_path, args, code):
    src = os.path.dirname(os.path.dirname(squeezebath.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", *args, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "spectrum.csv").exists() == (code == 0)


@pytest.mark.parametrize(
    "argv, code, wrote",
    [
        ("", 1, None),
        ("bogus", 1, None),
        ("trajectory --out", 1, None),
        ("--out {D} trajectory", 0, "D"),
        ("trajectory --out {A} --out={B}", 0, "B"),
        ("trajectory --out {D} grid.t_max=1 extra", 1, None),
        ("trajectory --ou {D}", 1, None),  # no abbreviations
        ("--help", 0, None),
    ],
)
def test_the_argv_grammar_through_python_dash_m(tmp_path, argv, code, wrote):
    # squeezebath <command> [--config FILE] [--out DIR] [key=value ...], run
    # from an empty directory, so that a stray output shows there
    src = os.path.dirname(os.path.dirname(squeezebath.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = argv.format(**{name: str(tmp_path / name) for name in "ABD"}).split()
    proc = subprocess.run(
        [sys.executable, "-m", "squeezebath", *args], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    if wrote is None:
        assert written == []
    else:
        assert written == [wrote, os.path.join(wrote, "trajectory.csv")]
    if code:
        assert proc.stdout == "" and re.fullmatch(r"error: [^\n]+\n", proc.stderr), proc.stderr
    elif argv == "--help":
        assert proc.stdout == _USAGE and proc.stderr == ""


_TOL = {"oracle": 1e-7, "trace": 1e-9, "herm": 1e-9, "min_eig": 1e-8, "identity": 1e-9}


def _gated_table(trace_err=(), min_eig=(), dist=()):
    # four rows at t = 0, 0.5, 1, 1.5, every row within the default bounds
    # unless a (row, value) pair sets its column
    table = np.zeros((4, 16))
    columns = TRAJECTORY_HEADER.split(",")
    for name, values, entries in (
        ("t", [0.0, 0.5, 1.0, 1.5], ()),
        ("trace_err", 0.0, trace_err),
        ("min_eig", 0.25, min_eig),
        ("trace_dist_ref", [1e-9, 3e-8, 2e-8, 5e-9], dist),
    ):
        table[:, columns.index(name)] = values
        for row, value in entries:
            table[row, columns.index(name)] = value
    return table


TRACE_MESSAGE = "trace error -2.000e-09 exceeds tol.trace=1e-09 at t = 0.5"
MIN_EIG_MESSAGE = "smallest eigenvalue -3.000e-08 violates tol.min_eig=1e-08 at t = 1"
ORACLE_MESSAGE = "trace distance to reference 4.000e-07 exceeds tol.oracle=1e-07 at t = 1.5"
TRACE_BAD = [(1, -2e-9), (2, 5e-9)]  # the first row past the bound is reported
MIN_EIG_BAD = [(2, -3e-8), (3, -5e-8)]
ORACLE_BAD = [(1, 2e-7), (3, 4e-7)]  # the largest distance is reported


@pytest.mark.parametrize("broken, message", [
    (dict(trace_err=TRACE_BAD), TRACE_MESSAGE),
    (dict(min_eig=MIN_EIG_BAD), MIN_EIG_MESSAGE),
    (dict(dist=ORACLE_BAD), ORACLE_MESSAGE),
    (dict(trace_err=TRACE_BAD, min_eig=MIN_EIG_BAD, dist=ORACLE_BAD), TRACE_MESSAGE),
    (dict(trace_err=TRACE_BAD, dist=ORACLE_BAD), TRACE_MESSAGE),
    (dict(min_eig=MIN_EIG_BAD, dist=ORACLE_BAD), MIN_EIG_MESSAGE),
    # of two rows at the largest distance, the earlier one is reported
    (dict(dist=[(1, 4e-7), (3, 4e-7)]),
     "trace distance to reference 4.000e-07 exceeds tol.oracle=1e-07 at t = 0.5"),
])
def test_row_gate_checks_its_three_bounds_in_order(broken, message):
    with pytest.raises(NumericalFailureError, match="^%s$" % re.escape(message)):
        cli._enforce_row_tolerances(_gated_table(**broken), _TOL)


def test_row_gate_passes_rows_on_their_bounds_and_returns_the_largest_distance():
    table = _gated_table(trace_err=[(1, -1e-9), (2, 1e-9)], min_eig=[(3, -1e-8)],
                         dist=[(0, 1e-7)])
    assert cli._enforce_row_tolerances(table, _TOL) == 1e-7


def test_spectrum_and_steady_tables_byte_for_byte(tmp_path):
    # the values come from the API, each written at %.15g
    def row(values):
        return ",".join(format(float(v), ".15g") for v in values) + "\n"

    schedule = resolve_config({}, ".").schedule
    point = schedule.at(3.0)
    eigs = spectrum(build_rate_operator(point))
    want = closed_form_spectrum(point.gamma, point.n_param, point.m_param)
    assert main(["spectrum", "--out", str(tmp_path), "--spectrum.at=3"]) == 0
    assert (tmp_path / "spectrum.csv").read_bytes() == (
        "k,eig_re,eig_im,rate_formula,abs_diff\n"
        + "".join(row((k, e.real, e.imag, w, abs(e - w))) for k, (e, w) in enumerate(zip(eigs, want)))
    ).encode("utf-8")

    rho = steady_state(build_rate_operator(schedule.at(2.0)))
    assert main(["steady", "--out", str(tmp_path), "--steady.at=2"]) == 0
    assert (tmp_path / "steady.csv").read_bytes() == (
        "rho_ee,rho_gg,rho_eg_re,rho_eg_im,sz\n"
        + row((rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag,
               (rho[0, 0] - rho[1, 1]).real))
    ).encode("utf-8")


@pytest.mark.parametrize("overrides, message", [
    ("grid.t_max=abc", "config value grid.t_max='abc' is not a number"),
    ("grid.dt_out=nan", "config value grid.dt_out='nan' is not finite"),
    ("schedule.gamma.value=inf", "config value schedule.gamma.value='inf' is not finite"),
    ("figures.plot=maybe", "config value figures.plot='maybe' is not a boolean"),
    ("schedule.r.kind=cubic", "schedule.r.kind='cubic' is not one of const, exp, ramp, sin"),
    ("figures.ids=1,x", "figures.ids entry 'x' is not an integer"),
    ("figures.ids=7", "figures.ids entry 7 is outside 1..6"),
    ("figures.ids=0", "figures.ids entry 0 is outside 1..6"),
    ("figures.ids=2,3,2", "figures.ids lists 2 twice"),
    ("figures.ids=,", "figures.ids is empty"),
    ("schedule.mode=quantum", "schedule.mode='quantum' is not ideal or thermal"),
    ("schedule.mode=thermal schedule.nbar=-0.5", "schedule.nbar must be >= 0, got -0.5"),
    # every key is checked in either mode, with the other mode's error line
    ("schedule.mode=thermal schedule.r.kind=bogus",
     "schedule.r.kind='bogus' is not one of const, exp, ramp, sin"),
    ("schedule.mode=thermal schedule.r.c1=abc", "config value schedule.r.c1='abc' is not a number"),
    ("schedule.mode=thermal schedule.theta.kind=sin", "schedule.theta.a is required for kind=sin"),
    ("schedule.nbar=-1", "schedule.nbar must be >= 0, got -1"),
    ("schedule.nbar=abc", "config value schedule.nbar='abc' is not a number"),
    # a negative tolerance no result could meet: refused as input, where it
    # used to fail the run as numerical (tol.oracle=-1: exit 2) or pass
    # unread (tol.herm=-1 in trajectory: exit 0)
    ("tol.oracle=-1", "tol.oracle must be >= 0, got -1"),
    ("tol.trace=-1e-9", "tol.trace must be >= 0, got -1e-09"),
    ("tol.herm=-1", "tol.herm must be >= 0, got -1"),
    ("tol.min_eig=-0.5", "tol.min_eig must be >= 0, got -0.5"),
    ("tol.identity=-1", "tol.identity must be >= 0, got -1"),
])
def test_config_refusals_exit_one_with_their_error_line(tmp_path, capsys, overrides, message):
    for command in ("trajectory", "figures", "verify"):
        out = tmp_path / command
        assert main([command, "--out", str(out), "grid.t_max=1"] + overrides.split()) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()


def test_a_zero_tolerance_asks_for_an_exact_result(tmp_path, capsys):
    # 0 is valid input: met exactly by the smallest eigenvalue, which is
    # never negative at the defaults, and not by the oracle distance
    args = ["trajectory", "--out", str(tmp_path), "grid.t_max=1"]
    assert main(args + ["tol.min_eig=0"]) == 0
    assert main(args + ["tol.oracle=0"]) == 2
    assert "numerical failure: trace distance to reference" in capsys.readouterr().err
