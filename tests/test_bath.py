import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from squeezebath.bath import (
    BathPoint,
    BathSchedule,
    Constant,
    ExpDecay,
    Ramp,
    Sinusoid,
    _squeezed,
    _wrap_phase,
    bath_params,
)
from squeezebath.errors import InvalidInputError
from squeezebath.verify import figure_schedule


def test_vacuum_params():
    n, m = bath_params(0.0, 0.0)
    assert n == 0.0
    assert m == 0.0


def test_params_at_r_point_one():
    n, m = bath_params(0.1, 0.0)
    assert n == pytest.approx(0.010033377809537924, rel=1e-15)
    assert m.real == pytest.approx(0.10066800127054698, rel=1e-15)
    assert m.imag == 0.0


def test_params_at_r_point_six():
    n, m = bath_params(0.6, 0.0)
    assert n == pytest.approx(0.4053277836621873, rel=1e-15)
    assert m.real == pytest.approx(0.7547306777060862, rel=1e-15)


def test_quarter_turn_phase_rotates_m():
    n, m = bath_params(0.6, math.pi / 2)
    assert abs(m.real) < 1e-15
    assert m.imag == pytest.approx(-0.7547306777060862, rel=1e-14)
    assert n == pytest.approx(0.4053277836621873, rel=1e-15)


def test_ideal_relation_holds_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = float(rng.uniform(0.0, 3.0))
        theta = float(rng.uniform(-10.0, 10.0))
        n, m = bath_params(r, theta)
        assert abs(abs(m) ** 2 - n * (n + 1.0)) <= 1e-12 * max(1.0, n * (n + 1.0))


def test_full_turn_phase_is_exact():
    assert bath_params(0.3, 2.0 * math.pi) == bath_params(0.3, 0.0)
    assert bath_params(0.3, -2.0 * math.pi) == bath_params(0.3, 0.0)


def test_phase_wrap_property():
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = float(rng.uniform(0.1, 1.5))
        theta = float(rng.uniform(-3.0, 3.0))
        _, m0 = bath_params(r, theta)
        _, m1 = bath_params(r, theta + 2.0 * math.pi)
        assert abs(m1 - m0) <= 5e-15 * abs(m0)


def test_negative_amplitude_rejected():
    with pytest.raises(InvalidInputError):
        bath_params(-0.1, 0.0)


def test_nonfinite_inputs_rejected():
    with pytest.raises(InvalidInputError):
        bath_params(math.inf, 0.0)
    with pytest.raises(InvalidInputError):
        bath_params(0.1, math.nan)


def test_bath_point_validation():
    BathPoint(1.0, 0.5, 0.0)  # thermal-style point, below the ideal bound
    with pytest.raises(InvalidInputError):
        BathPoint(1.0, 1.0, 2.0)  # |M|^2 > N(N+1)
    with pytest.raises(InvalidInputError):
        BathPoint(-1.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        BathPoint(1.0, -0.3, 0.0)
    with pytest.raises(InvalidInputError, match=r"^squeeze correlation M must be finite, got \(nan\+0j\)$"):
        BathPoint(1.0, 1.0, complex(math.nan, 0.0))


@pytest.mark.parametrize("gamma, n", [(1.0, 1e308), (1e300, 1e10), (0.0, 1e308)])
def test_bath_point_refuses_a_relaxation_rate_past_the_float_range(gamma, n):
    # gamma (2N + 1) is inf, or nan at gamma = 0: refused as default_step refuses it
    with pytest.raises(InvalidInputError, match=r"^relaxation rate gamma \(2N \+ 1\) exceeds the float range$"):
        BathPoint(gamma, n, 0.0)
    BathPoint(1.0, 5e307, 0.0)  # 2N+1 = 1e308 is finite


def test_controls_evaluate():
    assert Constant(0.7)(3.0) == 0.7
    decay = ExpDecay(0.1, 0.1)
    assert decay(0.0) == 0.1
    assert decay(10.0) == pytest.approx(0.1 * math.exp(-1.0), rel=1e-15)
    ramp = Ramp(1.0, -0.5)
    assert ramp(0.0) == 1.0
    assert ramp(4.0) == 0.0
    assert ramp(10.0) == 0.0
    wave = Sinusoid(0.5, 0.2, 2.0, 0.3)
    assert wave(1.3) == pytest.approx(0.5 + 0.2 * math.sin(2.0 * 1.3 + 0.3), rel=1e-15)


@pytest.mark.parametrize("kind, values", [
    (Constant, (0.7,)), (ExpDecay, (0.1, 0.1)), (Ramp, (1.0, -0.5)), (Sinusoid, (0.5, 0.2, 2.0, 0.3)),
])
def test_controls_refuse_a_nonfinite_parameter(kind, values):
    # every field of every kind, each by one message naming the kind
    for k in range(len(values)):
        for bad in (math.nan, math.inf, -math.inf):
            args = values[:k] + (bad,) + values[k + 1:]
            with pytest.raises(InvalidInputError, match=r"^%s parameters must be finite, got %r$"
                               % (kind.__name__, bad)):
                kind(*args)
    assert repr(kind(*values)) == "%s(%s)" % (kind.__name__, ", ".join(
        "%s=%r" % (name, v) for name, v in zip(kind._fields, values)))
    assert kind(*values) == kind(*values) != Constant(-1.0)


_VALUES = [
    lambda: Constant(0.7),
    lambda: ExpDecay(0.1, 0.1),
    lambda: Ramp(0.1, 0.1),
    lambda: Sinusoid(0.5, 0.2, 2.0, 0.3),
    lambda: BathPoint(1.0, 0.5, 0.5j),
    lambda: BathSchedule(Constant(1.0), Ramp(0.1, 0.1), Constant(0.2)),
    lambda: BathSchedule(Constant(1.0), nbar=0.7),
]


@pytest.mark.parametrize("make", _VALUES)
def test_values_are_equal_by_fields_hash_alike_and_refuse_assignment(make):
    a, b = make(), make()
    assert a == b and a is not b and hash(a) == hash(b)
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))
    for name in (*type(a)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_equality_never_crosses_classes():
    assert ExpDecay(0.1, 0.1) != Ramp(0.1, 0.1)
    assert Constant(0.7) != Sinusoid(0.7, 0.0, 0.0) and Constant(0.7) != (0.7,)
    assert BathSchedule(gamma=Constant(1.0), r=Ramp(0.1, 0.1)) != figure_schedule(1)
    assert BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1)) == figure_schedule(1)
    assert len({ExpDecay(0.1, 0.1), Ramp(0.1, 0.1), ExpDecay(0.1, 0.1)}) == 2
    # perfbench's tracer keys a flow on this text
    assert repr(figure_schedule(1)) == (
        "BathSchedule(gamma=Constant(value=1.0), r=ExpDecay(amplitude=0.1, rate=0.1), "
        "theta=Constant(value=0.0), nbar=0.0)")


def test_defaults_and_keyword_construction():
    assert Sinusoid(0.5, 0.2, 2.0).phase == 0.0
    assert Sinusoid(omega=2.0, amplitude=0.2, offset=0.5) == Sinusoid(0.5, 0.2, 2.0, 0.0)
    schedule = BathSchedule(Constant(1.0))
    assert (schedule.r, schedule.theta, schedule.nbar) == (Constant(0.0), Constant(0.0), 0.0)
    assert type(schedule.nbar) is float
    assert BathSchedule(nbar=0.7, gamma=Constant(1.0)) == BathSchedule(
        Constant(1.0), Constant(0.0), Constant(0.0), 0.7)
    assert BathPoint(m_param=0j, gamma=1.0, n_param=0.0) == BathPoint(1.0, 0.0, 0j)
    with pytest.raises(TypeError):
        Ramp(0.1)
    with pytest.raises(TypeError):
        Constant(0.1, 0.2)


def test_controls_accept_arrays():
    ts = np.linspace(0.0, 5.0, 11)
    out = ExpDecay(0.3, 0.1)(ts)
    assert out.shape == ts.shape
    assert np.allclose(out, 0.3 * np.exp(-0.1 * ts), rtol=1e-15, atol=0)


def test_schedule_eval_matches_vectorized_params():
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    ts = np.linspace(0.0, 10.0, 7)
    gs, ns, ms = sched.params_on(ts)
    for i, t in enumerate(ts):
        point = sched.at(float(t))
        assert point.gamma == gs[i]
        assert point.n_param == ns[i]
        assert point.m_param == ms[i]


def test_schedule_tracks_decaying_amplitude():
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    point = sched.at(0.0)
    n0, m0 = bath_params(0.1, 0.0)
    assert point.n_param == n0
    assert point.m_param == m0
    late = sched.at(200.0)
    assert late.n_param < 1e-18


def test_occupation_without_squeezing_is_a_plain_thermal_reservoir():
    # the reservoir formula's r = theta = 0 edge: N = nbar and M = 0
    sched = BathSchedule(gamma=Constant(2.0), nbar=0.7)
    assert not hasattr(sched, "thermal")
    point = sched.at(3.0)
    assert point.gamma == 2.0
    assert point.n_param == 0.7
    assert point.m_param == 0.0
    assert repr(BathSchedule(gamma=Constant(1.0), nbar=0).nbar) == "0.0"
    with pytest.raises(InvalidInputError, match=r"^nbar must be finite and >= 0, got -1$"):
        BathSchedule(gamma=Constant(1.0), nbar=-1)
    with pytest.raises(InvalidInputError, match=r"^nbar must be finite and >= 0, got nan$"):
        bath_params(0.1, 0.0, math.nan)


def _bits(x):
    # the bytes of a float or complex array: equal only where every bit is, signed zeros included
    return np.ascontiguousarray(x).tobytes()


def test_the_formula_at_zero_occupation_is_the_squeezed_vacuum_bit_for_bit():
    # at nbar = 0 the one formula adds 0.0 and multiplies by (0 + 1/2) 2 = 1
    # exactly: sinh(r)^2 and sinh(r) cosh(r) exp(-i theta) as before nbar
    # entered it, on r from -0.0 up to 5 and theta over several turns
    rng = np.random.default_rng(36)
    r = np.concatenate([[0.0, -0.0, 5.0], rng.uniform(0.0, 5.0, 2000), rng.uniform(0.0, 1e-3, 200)])
    theta = np.concatenate([[0.0, 0.0, -20.0], rng.uniform(-20.0, 20.0, r.size - 3)])
    sh = np.sinh(r)
    want_n = sh * sh
    want_m = sh * np.cosh(r) * np.exp(-1j * _wrap_phase(theta))
    n, m = _squeezed(r, theta, 0.0)
    assert _bits(n) == _bits(want_n) and _bits(m) == _bits(want_m)
    assert _bits(_squeezed(r, theta)[1]) == _bits(want_m)  # nbar defaults to 0
    for k in (0, 1, 5, 2100):  # scalars too, -0.0 among them
        n_k, m_k = _squeezed(float(r[k]), float(theta[k]), 0.0)
        assert _bits(n_k) == _bits(want_n[k]) and _bits(m_k) == _bits(want_m[k])


@pytest.mark.parametrize("nbar", [0.0, 0.01, 0.7, 20.0, 5e307, 1e308, 1.7976931348623157e308])
def test_the_formula_without_squeezing_is_the_occupation_with_no_signed_zero(nbar):
    # at r = theta = 0 (the CLI's thermal mode) N = nbar exactly and M = +0+0j,
    # up to the largest float, where 2 nbar + 1 itself would overflow
    zeros = np.zeros(7)
    n, m = _squeezed(zeros, zeros, nbar)
    assert np.all(n == nbar)
    assert _bits(m) == _bits(np.zeros(7, dtype=complex))
    n, m = bath_params(0.0, 0.0, nbar)
    assert n == nbar and _bits(m) == _bits(0j)
    point = BathSchedule(gamma=Constant(0.0), nbar=min(nbar, 5e307)).at(1.0)
    assert _bits(point.m_param) == _bits(0j)


def test_occupation_and_squeezing_together_follow_the_one_formula():
    # nbar no longer overrides r and theta: both count, with N = nbar +
    # (2 nbar + 1) sinh(r)^2 and M = (2 nbar + 1) sinh(r) cosh(r) exp(-i theta)
    sched = BathSchedule(gamma=Constant(2.0), r=ExpDecay(0.5, 0.1), theta=Constant(0.4), nbar=0.7)
    point = sched.at(3.0)
    r = 0.5 * math.exp(-0.3)
    assert point.n_param == pytest.approx(0.7 + 2.4 * math.sinh(r) ** 2, rel=1e-15)
    assert point.m_param == pytest.approx(2.4 * math.sinh(r) * math.cosh(r) * cmath.exp(-0.4j),
                                          rel=1e-15)
    assert (point.n_param, point.m_param) == bath_params(r, 0.4, 0.7)
    # strictly inside the physical bound, by nbar (nbar + 1)
    bound = point.n_param * (point.n_param + 1.0) - abs(point.m_param) ** 2
    assert bound == pytest.approx(0.7 * 1.7, rel=1e-12)


def test_negative_time_is_refused():
    sched = BathSchedule(gamma=Constant(1.0))
    sched.at(-1e-10)  # within the 1e-9 slack
    sched.at(1e6)
    with pytest.raises(InvalidInputError, match="outside schedule window"):
        sched.at(-0.5)
    with pytest.raises(InvalidInputError, match="-2e-09"):
        sched.params_on(np.array([0.0, -2e-9, 1.0]))
    with pytest.raises(InvalidInputError, match=r"^time must be finite, got inf$"):
        sched.at(math.inf)


def test_negative_controls_rejected_at_evaluation():
    sched = BathSchedule(gamma=Constant(-1.0))
    with pytest.raises(InvalidInputError):
        sched.at(0.0)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(-0.2))
    with pytest.raises(InvalidInputError):
        sched.at(1.0)


def test_overflowing_controls_are_refused_at_their_first_time():
    # under the suite's error::RuntimeWarning filter: the overflow warns nothing.
    # r = exp(1000 t) makes N = sinh(r)^2 overflow once r > 355, first at t = 0.006;
    # gamma = exp(1000 t) itself overflows past t = 0.7098, first at t = 0.71
    times = np.arange(101) * 1e-3
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(1.0, -1000.0))
    with pytest.raises(InvalidInputError, match=r"^gamma, N or M not finite at t = 0\.006 "):
        sched.params_on(times)
    for sched in (BathSchedule(gamma=ExpDecay(1.0, -1000.0), r=Constant(0.1)),
                  BathSchedule(gamma=ExpDecay(1.0, -1000.0), nbar=0.5)):
        with pytest.raises(InvalidInputError, match=r"not finite at t = 0\.71 \(gamma = inf,"):
            sched.params_on(np.arange(101) * 1e-2)


def test_schedule_eval_helper_and_determinism():
    sched = BathSchedule(gamma=ExpDecay(2.0, 0.3), r=Sinusoid(0.4, 0.2, 1.0, 0.0))
    a = sched.at(1.7)
    b = sched.at(1.7)
    assert a == b


def test_bath_params_is_the_schedule_at_one_time_bit_for_bit():
    # both build N and M with one formula; math.sinh and math.cosh in
    # bath_params differed from numpy's in the last bits on 363 of these 900
    for r in np.linspace(0.01, 3.0, 300):
        for theta in (0.0, 0.7, 2.0):
            schedule = BathSchedule(gamma=Constant(1.0), r=Constant(float(r)),
                                    theta=Constant(theta))
            point = schedule.at(0.5)
            assert bath_params(float(r), theta) == (point.n_param, point.m_param), (r, theta)


def test_control_limits_in_every_case():
    assert ExpDecay(2.0, 0.5).limit == 0.0
    assert ExpDecay(2.0, 0.0).limit == 2.0
    assert ExpDecay(2.0, -0.5).limit is None
    assert Ramp(0.3, -1.0).limit == 0.0
    assert Ramp(0.3, 0.0).limit == 0.3
    assert Ramp(-0.3, 0.0).limit == 0.0
    assert Ramp(0.3, 1.0).limit is None
    assert Sinusoid(0.4, 0.0, 2.0).limit == 0.4
    assert Sinusoid(0.4, 0.2, 0.0, 0.5).limit == 0.4 + 0.2 * math.sin(0.5)
    assert Sinusoid(0.4, 0.2, 2.0).limit is None
