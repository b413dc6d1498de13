"""Time-dependent reservoir parameters for a two-level atom.

A reservoir is a squeezed field of occupation nbar, described by three
control functions of time, a coupling rate gamma(t), a squeeze amplitude r(t)
and a squeeze phase theta(t), and the constant nbar >= 0.  At each instant
they determine the effective photon number N = nbar + (2 nbar + 1) sinh(r)^2
and the squeeze correlation M = (2 nbar + 1) sinh(r) cosh(r) exp(-i theta),
which satisfy |M|^2 = N (N + 1) - nbar (nbar + 1).  This one formula has two
edges: the paper's squeezed vacuum at nbar = 0, where |M|^2 = N (N + 1), and
an unsqueezed reservoir at r = theta = 0, where N = nbar and M = 0 (the CLI's
schedule.mode=thermal).

Each control is one of four kinds, Constant, ExpDecay, Ramp and Sinusoid:
immutable value classes on one base that refuses a non-finite parameter.  Beside
its values, each kind gives in closed form its peak and its speed (largest
|f'|) over [0, t_end] and its own rate of variation, from which
integrate.default_step picks the integrator step.

The controls, BathPoint and BathSchedule are _Record classes: plain classes
with __slots__, equal only within their own class, hashable, immutable and
shown as Name(field=value, ...).  The package's other records (SubstepPlan,
TransformationBranch, EigenMode, CheckResult, RunConfig) share that base.  No
record is a dataclass, whose decoration would generate code at every import.

All evaluation is pure floating-point arithmetic with no hidden state, so
repeated calls with the same arguments give bit-identical results.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Constant",
    "ExpDecay",
    "Ramp",
    "Sinusoid",
    "ControlFunction",
    "BathPoint",
    "BathSchedule",
    "bath_params",
]

_TAU = 2.0 * np.pi


def _wrap_phase(theta):
    """Reduce a phase to (-pi, pi] so that theta and theta + 2 pi coincide.

    Exact when the caller's phase is an exact multiple of 2 pi away; otherwise
    the residual is set by the rounding of the caller's own addition (about
    one ulp of 2 pi).
    """
    return theta - np.round(theta / _TAU) * _TAU


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))


def _require_nbar(nbar: float) -> None:
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise InvalidInputError("nbar must be finite and >= 0, got %r" % (nbar,))


class _Record:
    """An immutable record of the attributes named in _fields.

    Each subclass names its fields once, as both its __slots__ and its
    _fields, and its __init__ sets them through _set.  A record equals only
    a record of its own class with equal fields, hashes as the tuple of its
    fields, refuses assignment, and shows as Name(field=value, ...).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__, which assignment cannot
        return type(self), self._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class _Control(_Record):
    """What the four control kinds share: finite parameters, and by default
    no time scale of their own and a peak at one end (a monotone control)."""

    __slots__ = ()

    def _set(self, *values) -> None:
        _require_finite("%s parameters" % type(self).__name__, *values)
        super()._set(*values)

    @property
    def variation_rate(self) -> float:
        return 0.0

    def peak(self, t_end: float) -> float:
        """The largest value on [0, t_end], at an end: the control is monotone."""
        return float(max(self(0.0), self(t_end)))


class Constant(_Control):
    """Control function with a fixed value."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        self._set(value)

    def __call__(self, t):
        return self.value + np.zeros_like(np.asarray(t, dtype=float))

    @property
    def limit(self) -> float:
        return self.value

    def speed(self, t_end: float) -> float:
        """The largest |f'| on [0, t_end]."""
        return 0.0


class ExpDecay(_Control):
    """Control function amplitude * exp(-rate * t)."""

    __slots__ = _fields = ("amplitude", "rate")

    def __init__(self, amplitude: float, rate: float):
        self._set(amplitude, rate)

    def __call__(self, t):
        return self.amplitude * np.exp(-self.rate * np.asarray(t, dtype=float))

    @property
    def limit(self) -> float | None:
        if self.amplitude == 0.0 or self.rate > 0.0:
            return 0.0
        if self.rate == 0.0:
            return self.amplitude
        return None

    @property
    def variation_rate(self) -> float:
        return abs(self.rate)

    def speed(self, t_end: float) -> float:
        """The largest |f'| = |rate f| on [0, t_end], at an end: |f| is monotone."""
        return abs(self.rate) * float(max(abs(self(0.0)), abs(self(t_end))))


class Ramp(_Control):
    """Control function max(offset + slope * t, 0)."""

    __slots__ = _fields = ("offset", "slope")

    def __init__(self, offset: float, slope: float):
        self._set(offset, slope)

    def __call__(self, t):
        return np.maximum(self.offset + self.slope * np.asarray(t, dtype=float), 0.0)

    @property
    def limit(self) -> float | None:
        if self.slope < 0.0:
            return 0.0
        if self.slope == 0.0:
            return max(self.offset, 0.0)
        return None

    def speed(self, t_end: float) -> float:
        """The largest |f'| on [0, t_end], at most |slope|."""
        return abs(self.slope)


class Sinusoid(_Control):
    """Control function offset + amplitude * sin(omega * t + phase)."""

    __slots__ = _fields = ("offset", "amplitude", "omega", "phase")

    def __init__(self, offset: float, amplitude: float, omega: float, phase: float = 0.0):
        self._set(offset, amplitude, omega, phase)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.offset + self.amplitude * np.sin(self.omega * t + self.phase)

    @property
    def limit(self) -> float | None:
        if self.amplitude == 0.0:
            return self.offset
        if self.omega == 0.0:
            return self.offset + self.amplitude * math.sin(self.phase)
        return None

    @property
    def variation_rate(self) -> float:
        return abs(self.omega)

    def peak(self, t_end: float) -> float:
        """The largest value on [0, t_end]: offset + |amplitude| where the
        phase omega t + phase passes a crest on the way, else the larger end."""
        lo, hi = sorted((self.phase, self.omega * t_end + self.phase))
        crest = math.copysign(0.5 * math.pi, self.amplitude)
        # the last crest crest + 2 pi k at or below hi, if it is not below lo
        if crest + _TAU * math.floor((hi - crest) / _TAU) >= lo:
            return self.offset + abs(self.amplitude)
        return super().peak(t_end)

    def speed(self, t_end: float) -> float:
        """The largest |f'| on [0, t_end], at most |amplitude omega|."""
        return abs(self.amplitude * self.omega)


ControlFunction = Union[Constant, ExpDecay, Ramp, Sinusoid]


class BathPoint(_Record):
    """Reservoir parameters frozen at one instant.

    n_param is the effective photon number N >= 0 and m_param the squeeze
    correlation M, constrained by |M|^2 <= N (N + 1) (equality for the
    squeezed vacuum, M = 0 without squeezing, strict inequality between).
    A point that breaks this, has a non-finite value or gamma < 0, or whose
    relaxation rate gamma (2N+1) is past the float range, is refused when
    it is made (InvalidInputError), so every BathPoint is physical and
    every rate it yields is finite.
    """

    __slots__ = _fields = ("gamma", "n_param", "m_param")

    def __init__(self, gamma: float, n_param: float, m_param: complex):
        n, m = n_param, m_param
        if not (math.isfinite(gamma) and gamma >= 0.0):
            raise InvalidInputError("coupling gamma must be finite and >= 0, got %r" % (gamma,))
        if not (math.isfinite(n) and n >= 0.0):
            raise InvalidInputError("photon number N must be finite and >= 0, got %r" % (n,))
        if not (math.isfinite(m.real) and math.isfinite(m.imag)):
            raise InvalidInputError("squeeze correlation M must be finite, got %r" % (m,))
        # nan at gamma = 0 and 2N+1 = inf, refused as default_step refuses it
        if not float(gamma) * (2.0 * float(n) + 1.0) < math.inf:
            raise InvalidInputError("relaxation rate gamma (2N + 1) exceeds the float range")
        bound = n * (n + 1.0)
        if abs(m) ** 2 > bound * (1.0 + 1e-9) + 1e-12:
            raise InvalidInputError(
                "|M|^2 = %.6g exceeds N(N+1) = %.6g; not a physical reservoir point"
                % (abs(m) ** 2, bound)
            )
        self._set(gamma, n_param, m_param)


def _squeezed(r, theta, nbar=0.0):
    """N = nbar + (2 nbar + 1) sinh(r)^2 and M = (2 nbar + 1) sinh(r) cosh(r)
    exp(-i theta), elementwise on floats or arrays: the one construction of
    both, theta wrapped first.

    2 nbar + 1 enters as (nbar + 1/2) times 2 sinh(r), which is finite for
    every finite nbar and exactly sinh(r) at nbar = 0, so the squeezed vacuum
    is bitwise sinh(r)^2 and sinh(r) cosh(r) exp(-i theta), and r = theta = 0
    gives N = nbar and M = +0+0j, nbar = 1e308 included.
    """
    sh = np.sinh(r)
    scaled = (nbar + 0.5) * (2.0 * sh)
    return nbar + scaled * sh, scaled * np.cosh(r) * np.exp(-1j * _wrap_phase(theta))


def bath_params(r: float, theta: float, nbar: float = 0.0) -> tuple[float, complex]:
    """Effective photon number and squeeze correlation of a reservoir (_squeezed).

    Parameters
    ----------
    r : float
        Squeeze amplitude, >= 0.
    theta : float
        Squeeze phase in radians.  Wrapped to (-pi, pi] before use, so shifts
        by 2 pi do not change the result.
    nbar : float
        Occupation of the field before squeezing, >= 0; 0 is the squeezed
        vacuum.

    Returns
    -------
    n : float
        N = nbar + (2 nbar + 1) sinh(r)^2.
    m : complex
        M = (2 nbar + 1) sinh(r) cosh(r) exp(-i theta), which satisfies
        |M|^2 = N (N + 1) - nbar (nbar + 1).
    """
    _require_finite("squeeze amplitude r", r)
    _require_finite("squeeze phase theta", theta)
    if r < 0.0:
        raise InvalidInputError("squeeze amplitude r must be >= 0, got %r" % (r,))
    _require_nbar(nbar)
    n, m = _squeezed(r, theta, nbar)
    return float(n), complex(m)


class BathSchedule(_Record):
    """Reservoir controls for times t >= 0.

    Parameters
    ----------
    gamma : ControlFunction
        Coupling rate, must evaluate >= 0.
    r, theta : ControlFunction
        Squeeze amplitude (must evaluate >= 0) and phase.
    nbar : float
        Occupation of the field before squeezing, finite and >= 0.  N and M
        follow _squeezed at every time: nbar = 0 is the squeezed vacuum, and
        r = theta = 0 (the defaults) gives N = nbar and M = 0.
    """

    __slots__ = _fields = ("gamma", "r", "theta", "nbar")

    def __init__(self, gamma: ControlFunction, r: ControlFunction = Constant(0.0),
                 theta: ControlFunction = Constant(0.0), nbar: float = 0.0):
        _require_nbar(nbar)
        self._set(gamma, r, theta, float(nbar))

    def at(self, t: float) -> BathPoint:
        """Evaluate the schedule at time t and return the reservoir point.

        Parameters
        ----------
        t : float
            Must be >= 0 up to a slack of 1e-9.

        Returns
        -------
        BathPoint
            (gamma(t), N(t), M(t)).

        Raises
        ------
        InvalidInputError
            If t < -1e-9, or if gamma(t) or r(t) evaluates negative.
        """
        if not math.isfinite(t):
            raise InvalidInputError("time must be finite, got %r" % (t,))
        gamma, n, m = self.params_on(np.array([float(t)]))
        return BathPoint(float(gamma[0]), float(n[0]), complex(m[0]))

    def params_on(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (gamma, N, M) arrays over an array of times.

        Performs the same range and sign validation as at, then
        evaluates all three controls in one pass.  M has complex dtype.
        Controls that overflow are refused at the first time where gamma,
        N or M is not finite.
        """
        times = np.asarray(times, dtype=float)
        tmin = float(np.min(times))
        if tmin < -1e-9:
            raise InvalidInputError("time %r outside schedule window [0, inf]" % (tmin,))
        # an overflowing control is refused below, at its first non-finite value
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = self.gamma(times)
            if np.any(gamma < 0.0):
                t_bad = float(times[np.argmax(gamma < 0.0)])
                raise InvalidInputError("gamma(t) < 0 at t = %r" % (t_bad,))
            r = self.r(times)
            if np.any(r < 0.0):
                t_bad = float(times[np.argmax(r < 0.0)])
                raise InvalidInputError("r(t) < 0 at t = %r" % (t_bad,))
            n, m = _squeezed(r, self.theta(times), self.nbar)
        bad = ~(np.isfinite(gamma) & np.isfinite(n) & np.isfinite(m))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise InvalidInputError("gamma, N or M not finite at t = %r (gamma = %r, N = %r, M = %r)"
                                    % (float(times[k]), float(gamma[k]), float(n[k]), complex(m[k])))
        return gamma, n, m
