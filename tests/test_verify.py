import dataclasses
import math

import pytest

from squeezebath import verify
from squeezebath.algebra import composite_generators
from squeezebath.bath import BathSchedule, Constant
from squeezebath.errors import NumericalFailureError
from squeezebath.liouvillian import rate_matrix_batch, steady_state
from squeezebath.states import pure_state


def _swapped_generators():
    gen = composite_generators()
    return dataclasses.replace(gen, j_plus=gen.j_minus, j_minus=gen.j_plus)


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
