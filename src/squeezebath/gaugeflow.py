"""Analytic solution of the master equation via time-dependent gauge parameters.

Instead of integrating the 4-component linear master equation directly, the
solution is written as a time-dependent similarity transformation applied to
the initial components.  The transformation is fixed by four scalar gauge
parameters: a Riccati pair (alpha_plus, alpha_minus) acting in the population
sector and a second pair (eta_plus, eta_minus) acting in the coherence
sector, together with four exponential weight factors f_{s,s'}.  All four
parameters start at zero and obey first-order ODEs driven by the reservoir
parameters (gamma, N, M):

    d alpha_plus /dt = -gamma (N+1) alpha_plus^2 - gamma alpha_plus + gamma N
    d alpha_minus/dt =  gamma (N+1) (1 + 2 alpha_plus alpha_minus) + gamma alpha_minus
    d eta_plus   /dt =  gamma (M eta_plus^2 - conj(M))
    d eta_minus  /dt = -gamma M (1 + 2 eta_plus eta_minus)

and the weights obey d(log f_{s,s'})/dt =
-gamma { [(N+1) alpha_plus + 1/2](s+s')/2 - M eta_plus (s-s')/2 + (2N+1)/2 }.

The weights are stored and integrated as complex logarithms: they decay like
exp(-rate * t) while alpha_minus grows like the inverse, and only products of
the two are of order one.  Assembly therefore multiplies each term in
log space.

For a constant reservoir all five quantities have closed forms, implemented
in autonomous_gauge; the time stepping must reproduce them, and both must
match the brute-force reference integrator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import vectorize
from .bath import BathSchedule, schedule_eval
from .errors import InvalidInputError, NumericalFailureError
from .integrate import plan_integration

__all__ = [
    "GaugeState",
    "InitialDecomposition",
    "identity_gauge",
    "gauge_derivatives",
    "evolve_gauge",
    "autonomous_gauge",
    "assemble_density",
    "autonomous_expectations",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class GaugeState:
    """Gauge parameters and log-weights at one instant.

    log_factors holds log f_{s,s'} in the component order of BASIS_LABELS:
    (+1,+1), (-1,-1), (+1,-1), (-1,+1).  At t = 0 every field is zero (the
    transformation starts at the identity).
    """

    alpha_plus: complex
    alpha_minus: complex
    eta_plus: complex
    eta_minus: complex
    log_factors: tuple[complex, complex, complex, complex]

    def as_tuple(self) -> tuple[complex, ...]:
        return (
            self.alpha_plus,
            self.alpha_minus,
            self.eta_plus,
            self.eta_minus,
        ) + tuple(self.log_factors)

    @property
    def factors(self) -> tuple[complex, complex, complex, complex]:
        """The weights f_{s,s'} themselves (exponentials of the stored logs)."""
        return tuple(cmath.exp(f) for f in self.log_factors)


def identity_gauge() -> GaugeState:
    """The t = 0 gauge state: all parameters and log-weights zero."""
    return GaugeState(0j, 0j, 0j, 0j, (0j, 0j, 0j, 0j))


def _from_tuple(y: tuple[complex, ...]) -> GaugeState:
    return GaugeState(y[0], y[1], y[2], y[3], (y[4], y[5], y[6], y[7]))


def _gauge_rhs(gamma: float, n: float, m: complex, y: tuple[complex, ...]):
    ap, am, ep, em = y[0], y[1], y[2], y[3]
    mc = m.conjugate()
    half = n + 0.5
    mep = m * ep
    return (
        gamma * (n - ap - (n + 1.0) * ap * ap),
        gamma * ((n + 1.0) * (1.0 + 2.0 * ap * am) + am),
        gamma * (mep * ep - mc),
        -gamma * (m + 2.0 * mep * em),
        -gamma * (n + 1.0) * (1.0 + ap),
        -gamma * (n - (n + 1.0) * ap),
        -gamma * (half - mep),
        -gamma * (half + mep),
    )


def gauge_derivatives(t: float, g: GaugeState, schedule: BathSchedule) -> GaugeState:
    """Right-hand sides of the gauge ODE system at time t.

    Returns a GaugeState whose fields hold the time derivatives of the
    corresponding fields of g (including the log-weight exponent rates).
    """
    point = schedule_eval(schedule, t)
    y = tuple(complex(v) for v in g.as_tuple())
    return _from_tuple(_gauge_rhs(point.gamma, point.n_param, point.m_param, y))


def evolve_gauge(
    schedule: BathSchedule,
    grid: np.ndarray,
    step: float | None = None,
) -> list[GaugeState]:
    """Integrate the gauge ODEs from the identity with fixed 4th-order steps.

    Parameters
    ----------
    schedule : BathSchedule
    grid : array of times
        Output times starting at 0, strictly increasing.
    step : float, optional
        Internal substep, at most the grid spacing; defaults to 1e-3 over
        the largest gamma on the grid.

    Returns
    -------
    list of GaugeState, one per grid time.

    Raises
    ------
    NumericalFailureError
        On non-finite gauge values (Riccati blow-up), naming the time.
    """
    grid, plan, (g_nodes, n_nodes, m_nodes) = plan_integration(schedule, grid, step)
    out = [identity_gauge()]
    # Plain Python scalars keep the innermost loop an order of magnitude
    # faster than numpy element arithmetic on length-8 arrays.
    gl = [float(v) for v in g_nodes]
    nl = [float(v) for v in n_nodes]
    ml = [complex(v) for v in m_nodes]
    y: tuple[complex, ...] = (0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j)
    for i in range(grid.size - 1):
        m_sub = int(plan.counts[i])
        h = float(plan.widths[i])
        base = int(plan.offsets[i])
        h2 = 0.5 * h
        h6 = h / 6.0
        for k in range(m_sub):
            j = base + 2 * k
            k1 = _gauge_rhs(gl[j], nl[j], ml[j], y)
            k2 = _gauge_rhs(
                gl[j + 1], nl[j + 1], ml[j + 1],
                tuple(a + h2 * b for a, b in zip(y, k1)),
            )
            k3 = _gauge_rhs(
                gl[j + 1], nl[j + 1], ml[j + 1],
                tuple(a + h2 * b for a, b in zip(y, k2)),
            )
            k4 = _gauge_rhs(
                gl[j + 2], nl[j + 2], ml[j + 2],
                tuple(a + h * b for a, b in zip(y, k3)),
            )
            y = tuple(
                a + h6 * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            )
        if not all(cmath.isfinite(v) for v in y):
            raise NumericalFailureError(
                "gauge parameters non-finite at t = %r" % (float(grid[i + 1]),)
            )
        out.append(_from_tuple(y))
    return out


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def autonomous_gauge(gamma: float, n: float, m: float, t: float) -> GaugeState:
    """Closed-form gauge state for a constant reservoir with real M.

    The alpha pair depends on gamma, N and t through E = exp(-gamma(2N+1)t):

        alpha_plus  = N (1 - E) / (N + 1 + N E)
        alpha_minus = (N+1)(N + 1 + N E)(1 - E) / ((2N+1)^2 E)

    (alpha_plus is the standard form of the printed expression multiplied
    through by N, which also resolves its 0/0 limit at N = 0 to 0).  The eta
    pair is hyperbolic in u = gamma M t:

        eta_plus = -tanh(u),  eta_minus = -sinh(u) cosh(u)

    and the log-weights integrate the exponent rates in closed form.
    """
    for name, v in (("gamma", gamma), ("N", n), ("M", m), ("t", t)):
        if not math.isfinite(v):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))
    if t < 0.0:
        raise InvalidInputError("t must be >= 0, got %r" % (t,))
    if gamma < 0.0 or n < 0.0:
        raise InvalidInputError("gamma and N must be >= 0")
    x = gamma * (2.0 * n + 1.0) * t
    e = math.exp(-x)
    den = n + 1.0 + n * e
    ap = n * (1.0 - e) / den
    if e > 0.0:
        am = (n + 1.0) * den * (1.0 - e) / ((2.0 * n + 1.0) ** 2 * e)
    else:
        am = math.inf
    u = gamma * m * t
    ep = -math.tanh(u)
    em = -math.sinh(u) * math.cosh(u) if abs(u) < 350.0 else -math.copysign(math.inf, u)
    lc = _log_cosh(u)
    f_ee = -x + math.log((2.0 * n + 1.0) / den)
    f_gg = math.log(den / (2.0 * n + 1.0))
    f_eg = -gamma * (n + 0.5) * t - lc
    f_ge = -gamma * (n + 0.5) * t + lc
    return GaugeState(
        complex(ap),
        complex(am),
        complex(ep),
        complex(em),
        (complex(f_ee), complex(f_gg), complex(f_eg), complex(f_ge)),
    )


@dataclass(frozen=True)
class InitialDecomposition:
    """Component coefficients lambda_{s,s'} of the initial density matrix.

    lambdas is ordered like BASIS_LABELS: (ee, gg, eg, ge).  A physical
    initial state has lambda_ee + lambda_gg = 1 and lambda_ge equal to the
    conjugate of lambda_eg; both are validated to 1e-9.  mu and nu record the
    generating amplitudes when the state is the pure superposition
    mu |upper> + nu |lower>.
    """

    lambdas: tuple[complex, complex, complex, complex]
    mu: complex | None = None
    nu: complex | None = None

    def __post_init__(self):
        lam = tuple(complex(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        if len(lam) != 4:
            raise InvalidInputError("lambdas must have exactly 4 entries")
        if not all(cmath.isfinite(v) for v in lam):
            raise InvalidInputError("lambdas must be finite")
        tr = lam[0] + lam[1]
        if abs(tr - 1.0) > _NORM_TOL:
            raise InvalidInputError("lambda_ee + lambda_gg = %r, expected 1" % (tr,))
        if abs(lam[3] - lam[2].conjugate()) > _NORM_TOL:
            raise InvalidInputError("lambda_ge must be conj(lambda_eg)")

    @classmethod
    def from_amplitudes(cls, mu: complex, nu: complex) -> "InitialDecomposition":
        mu = complex(mu)
        nu = complex(nu)
        norm = abs(mu) ** 2 + abs(nu) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvalidInputError(
                "|mu|^2 + |nu|^2 = %r, expected 1 within %g" % (norm, _NORM_TOL)
            )
        return cls(
            lambdas=(
                abs(mu) ** 2,
                abs(nu) ** 2,
                mu * nu.conjugate(),
                mu.conjugate() * nu,
            ),
            mu=mu,
            nu=nu,
        )

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "InitialDecomposition":
        vec = vectorize(np.asarray(rho, dtype=complex))
        return cls(lambdas=(vec[0], vec[1], vec[2], vec[3]))


def _term(lam: complex, log_f: complex, coeff: complex) -> complex:
    # lam * exp(log_f) * coeff, multiplied in log space: the weight factor
    # and the coefficient can separately overflow or underflow while their
    # product stays of order one.
    if lam == 0 or coeff == 0:
        return 0j
    return lam * cmath.exp(log_f + cmath.log(coeff))


def assemble_density(init: InitialDecomposition, g: GaugeState) -> np.ndarray:
    """Density matrix at the instant described by a gauge state.

    Implements the component expansion

        rho_ee = l_ee f_ee (1 + a+ a-) + l_gg f_gg a+
        rho_gg = l_ee f_ee a-          + l_gg f_gg
        rho_eg = l_eg f_eg (1 + e+ e-) + l_ge f_ge e+
        rho_ge = l_eg f_eg e-          + l_ge f_ge

    with a+- = alpha_plus/minus, e+- = eta_plus/minus and f the exponential
    weights.  For Hermitian initial data the result is Hermitian with trace 1
    up to integration tolerances.
    """
    lam = init.lambdas
    ap, am, ep, em = g.alpha_plus, g.alpha_minus, g.eta_plus, g.eta_minus
    f_ee, f_gg, f_eg, f_ge = g.log_factors
    if not all(cmath.isfinite(v) for v in (ap, am, ep, em)):
        raise NumericalFailureError("gauge parameters are not finite; cannot assemble")
    rho_ee = _term(lam[0], f_ee, 1.0 + ap * am) + _term(lam[1], f_gg, ap)
    rho_gg = _term(lam[0], f_ee, am) + _term(lam[1], f_gg, 1.0)
    rho_eg = _term(lam[2], f_eg, 1.0 + ep * em) + _term(lam[3], f_ge, ep)
    rho_ge = _term(lam[2], f_eg, em) + _term(lam[3], f_ge, 1.0)
    return np.array([[rho_ee, rho_eg], [rho_ge, rho_gg]], dtype=complex)


def autonomous_expectations(
    mu: complex, nu: complex, gamma: float, n: float, m: float, t: float
) -> tuple[float, float, float]:
    """Closed-form Pauli expectations for a constant reservoir with real M.

    Starting from the pure state mu |upper> + nu |lower>:

        <sigma_x>(t) =  2 Re(mu conj(nu)) exp(-gamma (N + M + 1/2) t)
        <sigma_y>(t) = -2 Im(mu conj(nu)) exp(-gamma (N - M + 1/2) t)
        <sigma_z>(t) = (2 [|mu|^2 (N+1) - |nu|^2 N] exp(-gamma (2N+1) t) - 1)
                       / (2N + 1)

    The two quadratures decay at the split rates gamma (N +- M + 1/2), the
    inversion at gamma (2N+1) toward -1/(2N+1).
    """
    mu = complex(mu)
    nu = complex(nu)
    norm = abs(mu) ** 2 + abs(nu) ** 2
    if abs(norm - 1.0) > _NORM_TOL:
        raise InvalidInputError(
            "|mu|^2 + |nu|^2 = %r, expected 1 within %g" % (norm, _NORM_TOL)
        )
    for name, v in (("gamma", gamma), ("N", n), ("M", m), ("t", t)):
        if not math.isfinite(v):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))
    if t < 0.0:
        raise InvalidInputError("t must be >= 0, got %r" % (t,))
    mn = mu * nu.conjugate()
    sx = 2.0 * mn.real * math.exp(-gamma * (n + m + 0.5) * t)
    sy = -2.0 * mn.imag * math.exp(-gamma * (n - m + 0.5) * t)
    sz = (
        2.0 * (abs(mu) ** 2 * (n + 1.0) - abs(nu) ** 2 * n) * math.exp(-gamma * (2.0 * n + 1.0) * t)
        - 1.0
    ) / (2.0 * n + 1.0)
    return (sx, sy, sz)
