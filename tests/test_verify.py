import itertools
import math
import random

import numpy as np
import pytest

from squeezebath import verify
from squeezebath.algebra import composite_generators
from squeezebath.bath import BathPoint, BathSchedule, Constant, bath_params
from squeezebath.errors import NumericalFailureError
from squeezebath.liouvillian import build_rate_operator, rate_matrix_batch, spectrum, steady_state
from squeezebath.spectral import closed_form_spectrum
from squeezebath.states import pure_state


def _swapped_generators():
    gen = composite_generators()
    return gen._replace(j_plus=gen.j_minus, j_minus=gen.j_plus)


# The acceptance gate and the unit tests call the same check functions as
# `verify`, so each check must still fail when the code it checks is wrong.
@pytest.mark.parametrize(
    "attr, broken, check",
    [
        ("composite_generators", _swapped_generators, "commutators"),
        ("steady_state", lambda rate: steady_state(rate)[::-1, ::-1], "steady-state"),
        ("rate_matrix_batch", lambda g, n, m: rate_matrix_batch(g, n, m) + 1e-12,
         "construction-equality"),
    ],
)
def test_run_checks_fails_the_check_of_a_broken_dependency(monkeypatch, attr, broken, check):
    monkeypatch.setattr(verify, attr, broken)
    # the short run of acceptance criterion 10
    results = verify.run_checks(
        BathSchedule(gamma=Constant(1.0), r=Constant(0.3)),
        pure_state(math.sqrt(0.2), math.sqrt(0.8)),
        t_max=2.0,
        dt_out=0.1,
        dt_int=0.001,
        tol={"oracle": 1e-7, "trace": 1e-9, "herm": 1e-9, "min_eig": 1e-8, "identity": 1e-9},
    )
    assert [r.status for r in results if r.name == check] == ["FAIL"]


def test_a_rate_needs_three_points_above_the_noise_floor():
    with pytest.raises(NumericalFailureError,
                       match=r"^too few points above the noise floor to fit a rate$"):
        verify.fitted_decay_rate([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 1e-13, 0.0])


# The point sets of construction-equality in run_checks and in acceptance
# criterion 2, and the (seed, samples) of spectrum-formulas in run_checks,
# in acceptance criterion 3 and in tests/test_liouvillian.py.
_POINTS = {
    "run_checks": (np.linspace(0.2, 2.0, 6), np.linspace(0.0, 1.2, 6),
                   np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)),
    "acceptance": (np.linspace(0.1, 3.0, 10), np.linspace(0.0, 1.5, 10),
                   np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)),
}
_SPECTRUM_SAMPLES = ((7, 25), (101, 50), (17, 50))


def _k_swapped_generators():
    gen = composite_generators()
    return gen._replace(k_plus=gen.k_minus, k_minus=gen.k_plus)


def _construction_loop(points, gen):
    # construction-equality written point by point, one rate operator each
    worst = 0.0
    for g, r, th in points:
        n, m = bath_params(r, th)
        want = g * (
            (n + 1.0) * gen.j_minus
            + n * gen.j_plus
            - 0.5 * gen.j0
            - m * gen.k_minus
            - np.conj(m) * gen.k_plus
            - 0.5 * (2.0 * n + 1.0) * np.eye(4)
        )
        rate = build_rate_operator(BathPoint(float(g), n, m))
        worst = max(worst, float(np.max(np.abs(rate - want))))
    return worst


def _spectrum_loop(seed, samples, r_first=False):
    # spectrum-formulas written sample by sample, two scalar draws each from
    # the standard library's generator: gamma then r, or r then gamma
    draw = random.Random(seed).uniform
    worst = 0.0
    for _ in range(samples):
        if r_first:
            r = draw(0.0, 1.5)
            g = draw(0.1, 3.0)
        else:
            g = draw(0.1, 3.0)
            r = draw(0.0, 1.5)
        n, m = bath_params(r, 0.0)
        eigs = spectrum(build_rate_operator(BathPoint(g, n, m)))
        want = closed_form_spectrum(g, n, m)
        worst = max(worst, float(np.max(np.abs(eigs - want))) / (g * (2 * n + 1)))
    return worst


@pytest.mark.parametrize("points", sorted(_POINTS))
@pytest.mark.parametrize("generators, status", [
    (composite_generators, "PASS"),
    # k_plus and k_minus swapped: the generator form is wrong wherever M is not real
    (_k_swapped_generators, "FAIL"),
])
def test_construction_equality_measures_what_a_point_loop_measures(
        monkeypatch, points, generators, status):
    monkeypatch.setattr(verify, "composite_generators", generators)
    res = verify.check_construction_equality(itertools.product(*_POINTS[points]), 1e-14)
    assert res.status == status
    assert res.measured == _construction_loop(itertools.product(*_POINTS[points]), generators())


@pytest.mark.parametrize("seed, samples", _SPECTRUM_SAMPLES)
def test_spectrum_formulas_measure_what_a_sample_loop_measures(seed, samples):
    res = verify.check_spectrum_formulas(seed, samples, 1e-10)
    assert res.status == "PASS"
    assert res.measured == _spectrum_loop(seed, samples)
    # the same stream drawn r first gives other samples: the order is pinned
    assert res.measured != _spectrum_loop(seed, samples, r_first=True)


def test_no_samples_pass_with_nothing_measured():
    assert verify.check_construction_equality([], 1e-14) == verify.CheckResult(
        "construction-equality", "PASS", 0.0, 1e-14)
    assert verify.check_spectrum_formulas(7, 0, 1e-10) == verify.CheckResult(
        "spectrum-formulas", "PASS", 0.0, 1e-10, "0 random (gamma, r)")
