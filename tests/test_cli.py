import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import squeezebath
from squeezebath import cli, verify
from squeezebath.bath import Constant
from squeezebath.cli import (
    DEFAULTS,
    TRAJECTORY_HEADER,
    figure_initial,
    figure_schedule,
    main,
    resolve_config,
)
from squeezebath.errors import InvalidInputError, NumericalFailureError
from squeezebath.states import pure_state


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


def _column(text, name):
    lines = text.strip().splitlines()
    idx = lines[0].split(",").index(name)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def test_defaults_resolve():
    rc = resolve_config({}, ".")
    assert rc.t_max == 30.0
    assert rc.dt_out == 0.05
    assert rc.dt_int == 0.001
    assert rc.figure_ids == (1, 2, 3, 4, 5, 6)
    assert not rc.schedule.thermal
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
    with pytest.raises(InvalidInputError):
        figure_schedule(7)


def test_invalid_inputs_exit_one(tmp_path, capsys):
    assert main(["trajectory", "--out", str(tmp_path), "--grid.t_max=-3"]) == 1
    assert main(["trajectory", "--out", str(tmp_path), "--nonsense"]) == 1
    assert main(["waltz"]) == 1
    assert main(["trajectory", "--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


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


def test_steady_command_rejects_diverging_schedule(tmp_path):
    rc = main(
        ["steady", "--out", str(tmp_path),
         "--schedule.r.kind=sin", "--schedule.r.a=0.3", "--schedule.r.b=0.2",
         "--schedule.r.omega=1", "--schedule.r.phase=0"]
    )
    assert rc == 1  # no asymptotic limit to report


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = main(["verify", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    report = _read(out / "verify_report.txt")
    assert _report_lines(report) == _verify_lines({})
    assert "residual[N/(N+1)]" in report and "residual[N/(2N+1)]" in report
    assert "summary:" in captured.out


def test_verify_passes_under_strong_squeezing(tmp_path):
    # constant r = 2 drives alpha_minus up like exp(27 t); the flow's columns stay bounded
    out = tmp_path / "r2"
    rc = main(["verify", "--out", str(out), "--schedule.r.kind=const", "--schedule.r.value=2"])
    assert rc == 0
    assert _report_lines(_read(out / "verify_report.txt")) == _verify_lines({})


def test_verify_reports_a_failed_gauge_flow_as_failed_checks(tmp_path, capsys, monkeypatch):
    # the run's flow raises: every check that reads it fails with the error,
    # and the oracle run is missing; flows of the other schedules still run
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
        "conservation-positivity": "SKIP skipped: oracle run unavailable",
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
        "conservation-positivity": "SKIP skipped: oracle run unavailable",
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


def test_verify_thermal_skips_squeezing_checks(tmp_path):
    out = tmp_path / "thermal"
    rc = main(
        ["verify", "--out", str(out),
         "--schedule.mode=thermal", "--schedule.nbar=0.7"]
    )
    assert rc == 0
    thermal = "SKIP skipped: thermal override"
    skipped = ("spectrum-formulas", "autonomous-consistency", "steady-approach",
               "inversion-decay", "decay-asymmetry")
    assert _report_lines(_read(out / "verify_report.txt")) == _verify_lines(
        dict.fromkeys(skipped, thermal)
    )


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
