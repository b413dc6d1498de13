"""Time-dependent reservoir parameters for a two-level atom.

A reservoir is described by three control functions of time: a coupling rate
gamma(t), a squeeze amplitude r(t) and a squeeze phase theta(t).  At each
instant they determine the effective photon number N = sinh(r)^2 and the
squeeze correlation M = sinh(r) cosh(r) exp(-i theta), which satisfy
|M|^2 = N (N + 1).

A schedule can instead override the squeezing with a plain thermal occupation
nbar, in which case N = nbar and M = 0 at all times.

Each control is one of four kinds, Constant, ExpDecay, Ramp and Sinusoid:
frozen dataclasses on one base that refuses a non-finite parameter.  Beside
its values, each kind gives in closed form its peak and its speed (largest
|f'|) over [0, t_end] and its own rate of variation, from which
integrate.default_step picks the integrator step.

All evaluation is pure floating-point arithmetic with no hidden state, so
repeated calls with the same arguments give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
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


@dataclass(frozen=True)
class _Control:
    """What the four control kinds share: finite parameters, and by default
    no time scale of their own and a peak at one end (a monotone control)."""

    def __post_init__(self):
        _require_finite("%s parameters" % type(self).__name__, *astuple(self))

    @property
    def variation_rate(self) -> float:
        return 0.0

    def peak(self, t_end: float) -> float:
        """The largest value on [0, t_end], at an end: the control is monotone."""
        return float(max(self(0.0), self(t_end)))


@dataclass(frozen=True)
class Constant(_Control):
    """Control function with a fixed value."""

    value: float

    def __call__(self, t):
        return self.value + np.zeros_like(np.asarray(t, dtype=float))

    @property
    def limit(self) -> float:
        return self.value

    def speed(self, t_end: float) -> float:
        """The largest |f'| on [0, t_end]."""
        return 0.0


@dataclass(frozen=True)
class ExpDecay(_Control):
    """Control function amplitude * exp(-rate * t)."""

    amplitude: float
    rate: float

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


@dataclass(frozen=True)
class Ramp(_Control):
    """Control function max(offset + slope * t, 0)."""

    offset: float
    slope: float

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


@dataclass(frozen=True)
class Sinusoid(_Control):
    """Control function offset + amplitude * sin(omega * t + phase)."""

    offset: float
    amplitude: float
    omega: float
    phase: float = 0.0

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


@dataclass(frozen=True)
class BathPoint:
    """Reservoir parameters frozen at one instant.

    n_param is the effective photon number N >= 0 and m_param the squeeze
    correlation M, constrained by |M|^2 <= N (N + 1) (equality for pure
    squeezing, M = 0 for a thermal reservoir).  A point that breaks this,
    has a non-finite value or gamma < 0, or whose relaxation rate
    gamma (2N+1) is past the float range, is refused when it is made
    (InvalidInputError), so every BathPoint is physical and every rate it
    yields is finite.
    """

    gamma: float
    n_param: float
    m_param: complex

    def __post_init__(self):
        gamma, n, m = self.gamma, self.n_param, self.m_param
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


def _squeezed(r, theta):
    """N = sinh(r)^2 and M = sinh(r) cosh(r) exp(-i theta), elementwise on
    floats or arrays: the one construction of both, theta wrapped first."""
    sh = np.sinh(r)
    return sh * sh, sh * np.cosh(r) * np.exp(-1j * _wrap_phase(theta))


def bath_params(r: float, theta: float) -> tuple[float, complex]:
    """Effective photon number and squeeze correlation of a squeezed reservoir.

    Parameters
    ----------
    r : float
        Squeeze amplitude, >= 0.
    theta : float
        Squeeze phase in radians.  Wrapped to (-pi, pi] before use, so shifts
        by 2 pi do not change the result.

    Returns
    -------
    n : float
        N = sinh(r)^2.
    m : complex
        M = sinh(r) cosh(r) exp(-i theta), which satisfies |M|^2 = N (N + 1).
    """
    _require_finite("squeeze amplitude r", r)
    _require_finite("squeeze phase theta", theta)
    if r < 0.0:
        raise InvalidInputError("squeeze amplitude r must be >= 0, got %r" % (r,))
    n, m = _squeezed(r, theta)
    return float(n), complex(m)


@dataclass(frozen=True)
class BathSchedule:
    """Reservoir controls for times t >= 0.

    Parameters
    ----------
    gamma : ControlFunction
        Coupling rate, must evaluate >= 0.
    r, theta : ControlFunction
        Squeeze amplitude (must evaluate >= 0) and phase.  Ignored when nbar
        is set.
    nbar : float or None
        If not None, override the squeezing: N = nbar and M = 0 at all times.
    """

    gamma: ControlFunction
    r: ControlFunction = field(default_factory=lambda: Constant(0.0))
    theta: ControlFunction = field(default_factory=lambda: Constant(0.0))
    nbar: float | None = None

    def __post_init__(self):
        if self.nbar is not None and not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise InvalidInputError("nbar must be finite and >= 0, got %r" % (self.nbar,))

    @property
    def thermal(self) -> bool:
        return self.nbar is not None

    def at(self, t: float) -> BathPoint:
        """Evaluate the schedule at time t and return the reservoir point.

        Parameters
        ----------
        t : float
            Must be >= 0 up to a slack of 1e-9.

        Returns
        -------
        BathPoint
            (gamma(t), N(t), M(t)).  In thermal-override mode N = nbar and M = 0.

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
            if self.thermal:
                n = np.full(times.shape, float(self.nbar))
                m = np.zeros(times.shape, dtype=complex)
            else:
                r = self.r(times)
                if np.any(r < 0.0):
                    t_bad = float(times[np.argmax(r < 0.0)])
                    raise InvalidInputError("r(t) < 0 at t = %r" % (t_bad,))
                n, m = _squeezed(r, self.theta(times))
        bad = ~(np.isfinite(gamma) & np.isfinite(n) & np.isfinite(m))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise InvalidInputError("gamma, N or M not finite at t = %r (gamma = %r, N = %r, M = %r)"
                                    % (float(times[k]), float(gamma[k]), float(n[k]), complex(m[k])))
        return gamma, n, m
