"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured numbers.  Criteria 1-9 call the `verify` check functions with their
own, larger samples.  Every tolerance is asserted, and the stated runtime
budgets are enforced with wall-clock checks.
"""

import cmath
import itertools
import math
import time

import numpy as np
import pytest

from squeezebath.bath import BathSchedule, Constant
from squeezebath.cli import figure_initial, figure_schedule
from squeezebath.gaugeflow import assemble_density, evolve_gauge
from squeezebath.integrate import uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import pauli_expectations, pure_state
from squeezebath.verify import (
    check_autonomous_consistency,
    check_basis_actions,
    check_coherence_symmetry,
    check_commutators,
    check_conservation_positivity,
    check_construction_equality,
    check_decay_asymmetry,
    check_gauge_trace_identities,
    check_inversion_decay,
    check_oracle_agreement,
    check_spectrum_formulas,
    check_steady_approach,
    check_steady_state,
    fitted_decay_rate,
    format_report,
    run_checks,
)

FIGURE_IDS = (1, 2, 3, 4, 5, 6)
# figure ids that share a schedule (the same squeeze amplitude c1)
FIGURE_PAIRS = ((1, 2), (3, 4), (5, 6))


def _report(num: int, ok: bool, detail: str) -> None:
    print("criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _passed(results) -> bool:
    return all(r.status == "PASS" for r in results)


def _flows(pair, grid, step=None):
    """Gauge flow, assembled states and reference trajectories of the figure
    runs on one schedule, both initial states in one call per route; states
    and ref have one column per figure id of pair."""
    sched = figure_schedule(pair[0])
    rho0 = np.stack([figure_initial(fid) for fid in pair])
    flow = evolve_gauge(sched, grid, step)
    return flow, assemble_density(rho0, flow), integrate_reference(sched, rho0, grid, step)


@pytest.fixture(scope="module")
def figure_bundle():
    """Default-step runs of all six figures, shared by criteria 6-9."""
    bundle = {}
    start = time.perf_counter()
    grid = uniform_grid(30.0, 0.05)
    for pair in FIGURE_PAIRS:
        flow, states, ref = _flows(pair, grid)
        for j, fid in enumerate(pair):
            bundle[fid] = {
                "times": grid,
                "flow": flow,
                "states": states[:, j],
                "ref": ref[:, j],
                "exps": pauli_expectations(states[:, j]),
            }
    bundle["elapsed"] = time.perf_counter() - start
    return bundle


def test_criterion_1_algebra_exactness():
    start = time.perf_counter()
    results = (check_commutators(), check_basis_actions())
    count = int(results[1].detail.split()[0])
    elapsed = time.perf_counter() - start
    ok = _passed(results) and count == 24 and elapsed < 1.0
    _report(
        1, ok,
        "commutators and %d basis actions exact (max residual %d), %.3f s"
        % (count, max(r.measured for r in results), elapsed),
    )


def test_criterion_2_construction_equivalence():
    start = time.perf_counter()
    points = itertools.product(
        np.linspace(0.1, 3.0, 10),
        np.linspace(0.0, 1.5, 10),
        np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
    )
    res = check_construction_equality(points, 1e-14)
    elapsed = time.perf_counter() - start
    ok = res.status == "PASS" and elapsed < 1.0
    _report(
        2, ok,
        "sandwich-term operator vs generator form over 10x10x8 grid: max %.3e (tol 1e-14), %.3f s"
        % (res.measured, elapsed),
    )


def test_criterion_3_spectrum_rates():
    start = time.perf_counter()
    res = check_spectrum_formulas(101, 50, 1e-10)
    elapsed = time.perf_counter() - start
    ok = res.status == "PASS" and elapsed < 1.0
    _report(
        3, ok,
        "50 random (gamma, r): max relative deviation %.3e (tol 1e-10), %.3f s"
        % (res.measured, elapsed),
    )


def test_criterion_4_steady_state():
    start = time.perf_counter()
    res = check_steady_state(1.0, (0.0, 0.01, 0.4, 1.0, 5.0), 1e-12)
    elapsed = time.perf_counter() - start
    ok = res.status == "PASS" and elapsed < 1.0
    _report(
        4, ok,
        "nullspace vs populations N/(2N+1), (N+1)/(2N+1): max %.3e (tol 1e-12), %.3f s"
        % (res.measured, elapsed),
    )


def test_criterion_5_autonomous_agreement():
    start = time.perf_counter()
    rho0 = pure_state(math.sqrt(0.2) * cmath.exp(1j * math.pi / 3.0), math.sqrt(0.8))
    res = check_autonomous_consistency(rho0, uniform_grid(10.0, 0.1), None, 1e-8)
    elapsed = time.perf_counter() - start
    ok = res.status == "PASS" and elapsed < 5.0
    _report(
        5, ok,
        "closed form / gauge flow / reference, r in {0.1, 0.6}: max %.3e (tol 1e-8), %.3f s"
        % (res.measured, elapsed),
    )


def test_criterion_6_oracle_agreement(figure_bundle):
    start = time.perf_counter()
    results = [
        check_oracle_agreement(figure_bundle[fid]["states"], figure_bundle[fid]["ref"], 1e-7)
        for fid in FIGURE_IDS
    ]

    # 4th-order check: truncation error at default steps sits at the roundoff
    # floor, so the ~16x improvement is measured where truncation dominates,
    # halving both the output and internal steps from 0.05 to 0.025.
    errs = {fid: [] for fid in FIGURE_IDS}
    for pair in FIGURE_PAIRS:
        for step in (0.05, 0.025):
            _, states, ref = _flows(pair, uniform_grid(30.0, step), step)
            for j, fid in enumerate(pair):
                errs[fid].append(check_oracle_agreement(states[:, j], ref[:, j], 1e-7).measured)
    ratios = {fid: errs[fid][0] / errs[fid][1] for fid in FIGURE_IDS}
    elapsed = time.perf_counter() - start + figure_bundle["elapsed"]
    ratios_ok = all(10.0 <= v <= 24.0 for v in ratios.values())
    ok = _passed(results) and ratios_ok and elapsed < 10.0
    _report(
        6, ok,
        "six figures: sup distance %.3e (tol 1e-7); halving ratios %s (~16x); %.2f s total"
        % (
            max(r.measured for r in results),
            {k: round(v, 1) for k, v in ratios.items()},
            elapsed,
        ),
    )


def test_criterion_7_conservation_and_identities(figure_bundle):
    conservation = []
    identities = []
    for fid in FIGURE_IDS:
        data = figure_bundle[fid]
        conservation.append(
            check_conservation_positivity(data["states"], data["ref"], 1e-9, 1e-9, 1e-8)
        )
        identities.append(check_gauge_trace_identities(data["flow"], 1e-9))
    ok = _passed(conservation + identities)
    worst = max(conservation, key=lambda r: r.measured)
    _report(
        7, ok,
        "%s; trace identities %.3e"
        % (worst.detail, max(r.measured for r in identities)),
    )


def test_criterion_8_asymptotics(figure_bundle):
    approach = check_steady_approach(uniform_grid(30.0, 0.5), None, 1e-6)
    inversion = check_inversion_decay(
        figure_initial(1), figure_bundle[1]["times"], figure_bundle[1]["flow"]
    )
    ok = _passed((approach, inversion))
    _report(
        8, ok,
        "constant r=0.6 distance to steady at t=30: %.3e (tol 1e-6); "
        "fig 1 sz(30) = %.7f in [-1, -0.999]" % (approach.measured, inversion.measured),
    )


def test_criterion_9_figure_properties(figure_bundle):
    slower = []
    ratio = []
    for fid in (1, 3, 5):
        data = figure_bundle[fid]
        slower.append(check_decay_asymmetry(figure_initial(fid), data["times"], data["flow"]))
        exps = data["exps"]
        ratio.append(
            fitted_decay_rate(data["times"], exps[:, 0])
            / fitted_decay_rate(data["times"], exps[:, 1])
        )
    monotone_ok = ratio[0] < ratio[1] < ratio[2]

    flat = [
        check_coherence_symmetry(
            figure_initial(fid), figure_bundle[fid]["flow"], figure_bundle[fid]["ref"], 1e-9
        )
        for fid in (2, 4, 6)
    ]

    ok = _passed(slower + flat) and monotone_ok
    _report(
        9, ok,
        "sy decays slower than sx for figs 1/3/5; rate ratios %s increase with c1; "
        "even-figure max |sy| = %.3e (tol 1e-9)"
        % ([round(v, 3) for v in ratio], max(r.measured for r in flat)),
    )


def test_criterion_10_root_adjudication():
    start = time.perf_counter()
    n = 1.0
    printed = n / (2.0 * n + 1.0)
    correct = n / (n + 1.0)
    res_printed = abs((n + 1.0) * printed**2 + printed - n)
    res_correct = abs((n + 1.0) * correct**2 + correct - n)
    # closed form of the bad residual: N(3N+1)/(2N+1)^2 = 4/9 at N = 1
    formula = n * (3.0 * n + 1.0) / (2.0 * n + 1.0) ** 2

    results = run_checks(
        BathSchedule(gamma=Constant(1.0), r=Constant(0.3)),
        pure_state(math.sqrt(0.2), math.sqrt(0.8)),
        t_max=2.0,
        dt_out=0.1,
        dt_int=0.001,
        tol={"oracle": 1e-7, "trace": 1e-9, "herm": 1e-9, "min_eig": 1e-8},
    )
    report = format_report(results)
    adjudication = [r for r in results if r.name == "alpha-root-adjudication"]
    elapsed = time.perf_counter() - start

    ok = (
        res_printed == pytest.approx(formula, rel=1e-12)
        and res_printed > 0.1
        and res_correct <= 1e-15
        and len(adjudication) == 1
        and adjudication[0].status == "PASS"
        and "residual[N/(N+1)]" in report
        and "residual[N/(2N+1)]" in report
    )
    _report(
        10, ok,
        "N/(2N+1) residual %.4f > 0.1, N/(N+1) residual %.1e <= 1e-15; "
        "verify report prints both (%.2f s)" % (res_printed, res_correct, elapsed),
    )
