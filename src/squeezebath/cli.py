"""Command-line front end.

Subcommands: trajectory, figures, spectrum, steady, verify.  Configuration
is a flat dotted-key file (``key=value`` lines, ``#`` comments) merged with
``--key=value`` overrides; unknown or malformed keys abort with exit code 1,
numerical failures with exit code 2.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .bath import BathSchedule, Constant, ExpDecay, Ramp, Sinusoid, _Record
from .csvformat import format_rows
from .errors import InvalidInputError, NumericalFailureError
from .gaugeflow import assemble_density, evolve_gauge
from .integrate import default_step, uniform_grid
from .liouvillian import build_rate_operator, integrate_reference, spectrum, steady_state
from .spectral import asymptotic_state, closed_form_spectrum
from .states import (
    amplitudes_from_polar,
    min_eigenvalue,
    pauli_expectations,
    pure_state,
    trace_distance,
    trace_error,
)
from .verify import _FIGURES, figure_initial, figure_schedule

__all__ = ["main", "entrypoint", "RunConfig", "DEFAULTS", "TRAJECTORY_HEADER",
           "figure_schedule", "figure_initial", "compute_frame"]

TRAJECTORY_HEADER = (
    "t,gamma,r,theta,N,M_re,M_im,sx,sy,sz,"
    "sx_ref,sy_ref,sz_ref,trace_dist_ref,trace_err,min_eig"
)

DEFAULTS = {
    "schedule.mode": "ideal",
    "schedule.nbar": "0",
    "schedule.gamma.kind": "const",
    "schedule.gamma.value": "1",
    "schedule.r.kind": "exp",
    "schedule.r.c1": "0.1",
    "schedule.r.c2": "0.1",
    "schedule.theta.kind": "const",
    "schedule.theta.value": "0",
    "initial.mu_abs2": "0.2",
    "initial.mu_phase": "1.0471975511965976",
    "initial.nu_abs2": "0.8",
    "initial.nu_phase": "0",
    "grid.t_max": "30",
    "grid.dt_out": "0.05",
    "grid.dt_int": "auto",
    "figures.ids": "1,2,3,4,5,6",
    "figures.plot": "false",
    "spectrum.at": "0",
    "steady.at": "",
    "tol.oracle": "1e-7",
    "tol.trace": "1e-9",
    "tol.herm": "1e-9",
    "tol.min_eig": "1e-8",
    "tol.identity": "1e-9",
}

_CONTROL_PREFIXES = ("schedule.gamma", "schedule.r", "schedule.theta")
# control kind -> (class, its config parameters in constructor order)
_KINDS = {
    "const": (Constant, ("value",)),
    "exp": (ExpDecay, ("c1", "c2")),
    "ramp": (Ramp, ("a", "b")),
    "sin": (Sinusoid, ("a", "b", "omega", "phase")),
}
_BASE_KEYS = frozenset(
    k for k in DEFAULTS
    if not any(k.startswith(p + ".") for p in _CONTROL_PREFIXES)
)


class RunConfig(_Record):
    __slots__ = _fields = ("schedule", "rho0", "t_max", "dt_out", "dt_int", "out_dir",
                           "figure_ids", "plot", "spectrum_at", "steady_at", "tol")

    def __init__(self, schedule: BathSchedule, rho0: np.ndarray, t_max: float, dt_out: float,
                 dt_int: float | None, out_dir: str, figure_ids: tuple[int, ...], plot: bool,
                 spectrum_at: float, steady_at: float | None, tol: dict[str, float]):
        # dt_int None is auto, resolved per schedule (verify: per run)
        self._set(schedule, rho0, t_max, dt_out, dt_int, out_dir, figure_ids, plot,
                  spectrum_at, steady_at, tol)


# ---------------------------------------------------------------------------
# config parsing


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError("cannot read config file %r: %s" % (path, exc)) from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(
                "%s:%d: expected key=value, got %r" % (path, lineno, raw.strip())
            )
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    entries: dict[str, str] = {}
    for token in tokens:
        body = token[2:] if token.startswith("--") else token
        if "=" not in body:
            raise InvalidInputError("override %r is not of the form key=value" % token)
        key, value = body.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _known_key(key: str, merged: dict[str, str]) -> bool:
    if key in _BASE_KEYS:
        return True
    for prefix in _CONTROL_PREFIXES:
        if key == prefix + ".kind":
            return True
        if key.startswith(prefix + "."):
            kind = merged.get(prefix + ".kind", "")
            return kind in _KINDS and key[len(prefix) + 1:] in _KINDS[kind][1]
    return False


def _as_float(merged: dict[str, str], key: str) -> float:
    raw = merged[key]
    try:
        value = float(raw)
    except ValueError as exc:
        raise InvalidInputError("config value %s=%r is not a number" % (key, raw)) from exc
    if not math.isfinite(value):
        raise InvalidInputError("config value %s=%r is not finite" % (key, raw))
    return value


def _as_nonnegative(merged: dict[str, str], key: str) -> float:
    value = _as_float(merged, key)
    if value < 0:
        raise InvalidInputError("%s must be >= 0, got %g" % (key, value))
    return value


def _as_bool(merged: dict[str, str], key: str) -> bool:
    raw = merged[key].lower()
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise InvalidInputError("config value %s=%r is not a boolean" % (key, merged[key]))


def _control_from(merged: dict[str, str], user: dict[str, str], prefix: str):
    kind = merged[prefix + ".kind"]
    if kind not in _KINDS:
        raise InvalidInputError(
            "%s.kind=%r is not one of %s" % (prefix, kind, ", ".join(_KINDS))
        )
    control, params = _KINDS[kind]
    values = []
    for param in params:
        key = prefix + "." + param
        if key in user:
            values.append(_as_float(user, key))
        elif key in DEFAULTS and DEFAULTS[prefix + ".kind"] == kind:
            values.append(_as_float(DEFAULTS, key))
        else:
            raise InvalidInputError("%s is required for kind=%s" % (key, kind))
    return control(*values)


def _parse_figure_ids(raw: str) -> tuple[int, ...]:
    ids = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            fid = int(piece)
        except ValueError as exc:
            raise InvalidInputError("figures.ids entry %r is not an integer" % piece) from exc
        if fid not in _FIGURES:
            raise InvalidInputError("figures.ids entry %d is outside 1..6" % fid)
        if fid in ids:
            raise InvalidInputError("figures.ids lists %d twice" % fid)
        ids.append(fid)
    if not ids:
        raise InvalidInputError("figures.ids is empty")
    return tuple(ids)


def resolve_config(user: dict[str, str], out_dir: str) -> RunConfig:
    merged = dict(DEFAULTS)
    merged.update(user)
    for key in user:
        if not _known_key(key, merged):
            raise InvalidInputError("unknown config key %r" % key)

    mode = merged["schedule.mode"]
    if mode not in ("ideal", "thermal"):
        raise InvalidInputError("schedule.mode=%r is not ideal or thermal" % mode)
    # every key is checked in either mode; the mode picks where N and M come from
    gamma, r, theta = (_control_from(merged, user, prefix) for prefix in _CONTROL_PREFIXES)
    nbar = _as_nonnegative(merged, "schedule.nbar")
    if mode == "thermal":
        schedule = BathSchedule(gamma=gamma, nbar=nbar)
    else:
        schedule = BathSchedule(gamma=gamma, r=r, theta=theta)

    mu = amplitudes_from_polar(
        _as_float(merged, "initial.mu_abs2"), _as_float(merged, "initial.mu_phase")
    )
    nu = amplitudes_from_polar(
        _as_float(merged, "initial.nu_abs2"), _as_float(merged, "initial.nu_phase")
    )
    rho0 = pure_state(mu, nu)

    steady_raw = merged["steady.at"]
    steady_at = None if steady_raw == "" else float(_as_float(merged, "steady.at"))
    # 0 asks for an exact result; below 0 no result could pass
    tol = {
        name: _as_nonnegative(merged, "tol." + name)
        for name in ("oracle", "trace", "herm", "min_eig", "identity")
    }
    return RunConfig(
        schedule=schedule,
        rho0=rho0,
        t_max=_as_float(merged, "grid.t_max"),
        dt_out=_as_float(merged, "grid.dt_out"),
        dt_int=None if merged["grid.dt_int"] == "auto" else _as_float(merged, "grid.dt_int"),
        out_dir=out_dir,
        figure_ids=_parse_figure_ids(merged["figures.ids"]),
        plot=_as_bool(merged, "figures.plot"),
        spectrum_at=_as_float(merged, "spectrum.at"),
        steady_at=steady_at,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# trajectory table


def compute_frame(
    schedule: BathSchedule,
    rho0: np.ndarray,
    t_max: float,
    dt_out: float,
    dt_int: float | None,
) -> list[np.ndarray]:
    """Run both pipelines on a uniform grid: one trajectory table per state
    of the (k, 2, 2) stack rho0, with each route solving the schedule once.

    A table is a (rows, 16) float64 array, one row per grid time, whose
    columns are those of TRAJECTORY_HEADER: the time and the controls
    gamma, r, theta, N, Re M, Im M (shared by every state; r and theta are 0
    under the thermal override), then the algebraic route's sx, sy, sz, the
    reference's, the trace distance between the two states, and the
    algebraic state's trace error and smallest eigenvalue.  The caller
    checks each table's row tolerances just before writing it.  dt_int None
    is the step of default_step, resolved once for both routes."""
    grid = uniform_grid(t_max, dt_out)
    step = default_step(schedule, grid) if dt_int is None else dt_int
    states = assemble_density(rho0, evolve_gauge(schedule, grid, step))
    ref = integrate_reference(schedule, rho0, grid, step)

    gamma, n, m = schedule.params_on(grid)
    # squeeze controls are inert under the thermal override
    r, theta = (0.0, 0.0) if schedule.thermal else (schedule.r(grid), schedule.theta(grid))
    controls = np.column_stack(np.broadcast_arrays(grid, gamma, r, theta, n, m.real, m.imag))
    del gamma, n, m, r, theta  # not held beside their copies while the tables are built
    return [
        np.column_stack((
            controls, pauli_expectations(rho), pauli_expectations(rho_ref),
            trace_distance(rho, rho_ref), trace_error(rho), min_eigenvalue(rho),
        ))
        for rho, rho_ref in zip(states.swapaxes(0, 1), ref.swapaxes(0, 1))
    ]


def _column(table: np.ndarray, name: str) -> np.ndarray:
    return table[:, TRAJECTORY_HEADER.split(",").index(name)]


def _enforce_row_tolerances(table: np.ndarray, tol: dict[str, float]) -> float:
    """Raise NumericalFailureError at the first row past tol.trace, else at
    the first past tol.min_eig, else at the row of the largest oracle
    distance if it is past tol.oracle; return that largest distance."""
    times, trace_err, min_eig, dist = (
        _column(table, name) for name in ("t", "trace_err", "min_eig", "trace_dist_ref")
    )
    worst = dist == np.max(dist)
    for what, values, key, bad in (
        ("trace error %.3e exceeds", trace_err, "trace", np.abs(trace_err) > tol["trace"]),
        ("smallest eigenvalue %.3e violates", min_eig, "min_eig", min_eig < -tol["min_eig"]),
        ("trace distance to reference %.3e exceeds", dist, "oracle", worst & (dist > tol["oracle"])),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalFailureError(
                "%s tol.%s=%g at t = %g" % (what % values[i], key, tol[key], times[i])
            )
    return float(np.max(dist))


def _fmt(value: float) -> str:
    return format(float(value), ".15g")


_CSV_BLOCK_ROWS = 256


def _write_csv(path: str, header: str, rows) -> None:
    # every value as %.15g writes it, formatted and written _CSV_BLOCK_ROWS
    # rows at a time, so that one block's text is held at a time
    rows = np.asarray(rows, dtype=float)
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, len(rows), _CSV_BLOCK_ROWS):
            fh.write(format_rows(rows[i : i + _CSV_BLOCK_ROWS]))


def write_trajectory_csv(path: str, table: np.ndarray) -> None:
    _write_csv(path, TRAJECTORY_HEADER, table)


def _check_and_write(path: str, table: np.ndarray, tol: dict[str, float]) -> float:
    """Gate a trajectory table on its row tolerances, then write it; return
    its largest oracle distance.  A table that fails leaves no file."""
    dist = _enforce_row_tolerances(table, tol)
    write_trajectory_csv(path, table)
    return dist


# ---------------------------------------------------------------------------
# chart output (pure formatting, no numeric logic)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c")


def write_line_chart(path: str, times: np.ndarray, series, title: str) -> None:
    width, height = 720.0, 440.0
    left, right, top, bottom = 64.0, 18.0, 34.0, 46.0
    x0, x1 = float(times[0]), float(times[-1])
    stacked = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    y0, y1 = float(np.min(stacked)), float(np.max(stacked))
    pad = 0.5 if y1 - y0 < 1e-12 else 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(t):
        return left + (t - x0) / (x1 - x0) * (width - left - right)

    def py(v):
        return top + (y1 - v) / (y1 - y0) * (height - top - bottom)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]

    def line(xa, ya, xb, yb, stroke, attrs=""):
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s"%s/>'
            % (xa, ya, xb, yb, stroke, attrs)
        )

    def text(x, y, size, body, attrs=""):
        # y comes formatted: the title's is "20", the others' "%.2f"
        parts.append(
            '<text x="%.2f" y="%s" font-family="sans-serif" font-size="%d"%s>%s</text>'
            % (x, y, size, attrs, body)
        )

    text(left, "20", 14, title)
    for tick in np.linspace(x0, x1, 7):
        x = px(tick)
        line(x, top, x, height - bottom, "#ddd")
        text(x, "%.2f" % (height - bottom + 16), 11, "%g" % round(tick, 6),
             ' text-anchor="middle"')
    for tick in np.linspace(y0, y1, 6):
        y = py(tick)
        line(left, y, width - right, y, "#ddd")
        text(left - 6, "%.2f" % (y + 4), 11, "%.3g" % tick, ' text-anchor="end"')
    parts.append(
        '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" stroke="#333"/>'
        % (left, top, width - left - right, height - top - bottom)
    )
    for k, (label, values) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(
            "%.2f,%.2f" % (px(t), py(v)) for t, v in zip(times, values)
        )
        parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
            % (color, points)
        )
        lx = width - right - 90.0
        ly = top + 16.0 + 16.0 * k
        line(lx, ly - 4, lx + 22, ly - 4, color, ' stroke-width="2"')
        text(lx + 28, "%.2f" % ly, 12, label)
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def run_trajectory(rc: RunConfig) -> int:
    [table] = compute_frame(rc.schedule, rc.rho0[None], rc.t_max, rc.dt_out, rc.dt_int)
    path = os.path.join(rc.out_dir, "trajectory.csv")
    dist = _check_and_write(path, table, rc.tol)
    print("wrote %s (%d rows, max oracle distance %.3e)" % (path, len(table), dist))
    return 0


def run_figures(rc: RunConfig) -> int:
    # The figures on one schedule (same c1) are solved together, when the
    # first of them is reached; files and lines still follow figures.ids.
    tables: dict[int, np.ndarray] = {}
    for fid in rc.figure_ids:
        if fid not in tables:
            group = [g for g in rc.figure_ids if _FIGURES[g][0] == _FIGURES[fid][0]]
            tables.update(zip(group, compute_frame(
                figure_schedule(fid), np.stack([figure_initial(g) for g in group]),
                rc.t_max, rc.dt_out, rc.dt_int,
            )))
        table = tables.pop(fid)
        path = os.path.join(rc.out_dir, "fig%d.csv" % fid)
        dist = _check_and_write(path, table, rc.tol)
        message = "wrote %s (max oracle distance %.3e)" % (path, dist)
        if rc.plot:
            chart = os.path.join(rc.out_dir, "fig%d.svg" % fid)
            c1, complex_phase = _FIGURES[fid]
            title = "fig %d: r = %g exp(-0.1 t), %s initial coherence" % (
                fid, c1, "complex" if complex_phase else "real",
            )
            write_line_chart(
                chart,
                _column(table, "t"),
                [(name, _column(table, name)) for name in ("sx", "sy", "sz")],
                title,
            )
            message += ", chart %s" % chart
        print(message)
    return 0


def run_spectrum(rc: RunConfig) -> int:
    point = rc.schedule.at(rc.spectrum_at)
    eigs = spectrum(build_rate_operator(point))
    g, n, m = point.gamma, point.n_param, point.m_param
    formulas = closed_form_spectrum(g, n, m)
    path = os.path.join(rc.out_dir, "spectrum.csv")
    _write_csv(path, "k,eig_re,eig_im,rate_formula,abs_diff", [
        (k, eig.real, eig.imag, want, abs(eig - want))
        for k, (eig, want) in enumerate(zip(eigs, formulas))
    ])
    print("rate operator at t = %g (gamma=%g, N=%g, |M|=%g):" % (rc.spectrum_at, g, n, abs(m)))
    for eig, want in zip(eigs, formulas):
        print("  %s   (formula %s)" % (_fmt(eig.real), _fmt(want)))
    print("wrote %s" % path)
    return 0


def run_steady(rc: RunConfig) -> int:
    if rc.steady_at is None:
        n, rho = asymptotic_state(rc.schedule)
        label = "asymptotic limit (N=%g)" % n
    else:
        point = rc.schedule.at(rc.steady_at)
        # at gamma = 0 the rate operator vanishes and every state is steady
        if point.gamma <= 0.0:
            raise InvalidInputError("gamma at t = %g must be > 0, got %r"
                                    % (rc.steady_at, point.gamma))
        rho = steady_state(build_rate_operator(point))
        label = "nullspace at t = %g" % rc.steady_at
    sz = float((rho[0, 0] - rho[1, 1]).real)
    path = os.path.join(rc.out_dir, "steady.csv")
    _write_csv(path, "rho_ee,rho_gg,rho_eg_re,rho_eg_im,sz",
               [(rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag, sz)])
    print("steady state, %s:" % label)
    print("  rho_ee = %s, rho_gg = %s, sz = %s" % (_fmt(rho[0, 0].real), _fmt(rho[1, 1].real), _fmt(sz)))
    print("wrote %s" % path)
    return 0


def run_verify(rc: RunConfig) -> int:
    step = rc.dt_int
    if step is None:
        step = default_step(rc.schedule, uniform_grid(rc.t_max, rc.dt_out))
    results = verify_mod.run_checks(rc.schedule, rc.rho0, rc.t_max, rc.dt_out, step, rc.tol)
    # the step at repr precision: passed back as grid.dt_int, it reproduces the run
    header = "verification report (t_max=%g, dt_out=%g, dt_int=%r, %s)" % (
        rc.t_max, rc.dt_out, step,
        "thermal override" if rc.schedule.thermal else "ideal squeezed reservoir",
    )
    text = verify_mod.format_report(results, header)
    path = os.path.join(rc.out_dir, "verify_report.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(text, end="")
    for result in results:
        if result.status == "FAIL":
            print("verify: FAILED at check %r" % result.name, file=sys.stderr)
            return 2
    return 0


_COMMANDS = {
    "trajectory": run_trajectory,
    "figures": run_figures,
    "spectrum": run_spectrum,
    "steady": run_steady,
    "verify": run_verify,
}


_USAGE = "usage: squeezebath <command> [--config FILE] [--out DIR] [key=value ...]"


def _read_argv(argv: list[str]) -> tuple[str, str | None, str, list[str]]:
    """The command, --config FILE, --out DIR and the other tokens of argv.

    --config and --out may come before or after the command, as --opt VALUE
    or --opt=VALUE, and the last one given wins; --out defaults to ".".
    The first token that starts with no "-" is the command.  Every other
    token is left for _parse_overrides."""
    command = None
    options = {"--config": None, "--out": "."}
    extra = []
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name in options:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise InvalidInputError("%s needs a value" % name)
            options[name] = value
        elif command is None and not token.startswith("-"):
            if token not in _COMMANDS:
                raise InvalidInputError("unknown command %r (choose from %s)"
                                        % (token, ", ".join(sorted(_COMMANDS))))
            command = token
        else:
            extra.append(token)
    if command is None:
        raise InvalidInputError("no command given (choose from %s)" % ", ".join(sorted(_COMMANDS)))
    return command, options["--config"], options["--out"], extra


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    try:
        command, config, out_dir, extra = _read_argv(argv)
        user = {} if config is None else _read_config_file(config)
        user.update(_parse_overrides(extra))
        rc = resolve_config(user, out_dir)
        os.makedirs(rc.out_dir, exist_ok=True)
        return _COMMANDS[command](rc)
    except (InvalidInputError, OSError) as exc:
        # an OSError here comes from creating or writing an output, and
        # os.makedirs and open name the path in its message
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
