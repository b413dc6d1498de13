"""Analytic solution of the master equation via time-dependent gauge parameters.

Instead of integrating the 4-component linear master equation directly, the
solution is written as a time-dependent similarity transformation applied to
the initial components.  The transformation is fixed by a Riccati pair
(alpha_plus, alpha_minus) acting in the population sector, a second pair
(eta_plus, eta_minus) acting in the coherence sector, and four weight
factors f_{s,s'}.  alpha_minus grows like exp(gamma (2N+1) t) and eta_minus
like sinh(u) cosh(u) with u = gamma M t, but the density only ever uses the
products b = alpha_minus f_ee and e = eta_minus f_eg.  The flow integrates
those products in place of alpha_minus and eta_minus.  With
c = N + 1/2 + M eta_plus, the product rule gives

    d alpha_plus/dt = gamma (N - alpha_plus - (N+1) alpha_plus^2)
    d b/dt          = gamma [(N+1) f_ee + ((N+1) alpha_plus - N) b]
    d eta_plus/dt   = gamma (M eta_plus^2 - conj(M))
    d e/dt          = -gamma (M f_eg + c e)
    d f_ee/dt       = -gamma (N+1) (1 + alpha_plus) f_ee
    d f_gg/dt       = -gamma (N - (N+1) alpha_plus) f_gg
    d f_eg/dt       = -gamma (N + 1/2 - M eta_plus) f_eg
    d f_ge/dt       = -gamma c f_ge

A gauge state is a complex array whose last axis holds the eight columns

    (alpha_plus, b, eta_plus, e, f_ee, f_gg, f_eg, f_ge),

the weights in the component order of BASIS_LABELS.  At t = 0 the
transformation is the identity, (0, 0, 0, 0, 1, 1, 1, 1).  evolve_gauge
returns one row per grid time, the flow, which depends only on the
reservoir; the initial state enters only in assemble_density, so one flow
serves any number of initial states.

Every column stays bounded.  Setting one initial component to 1 in the
expansion of assemble_density shows that b, f_gg, e and f_ge are matrix
elements of the evolved basis operators |e><e|, |g><g|, |e><g| and |g><e|,
which the trace-preserving evolution keeps within 1.  alpha_plus stays in
[0, 1), so the trace identities f_gg (1 + alpha_plus) = 1 and
f_ee + (1 + alpha_plus) b = 1 bound f_ee; eta_plus (-tanh(gamma M t) for a
constant reservoir) and with it f_eg stay of order one.  The right-hand side
and the assembly are therefore polynomials in bounded values, with nothing
to overflow.

The flow is a product of gauge-group elements.  By assemble_density, the
population sector acts on (l_ee, l_gg) through [[f_ee + a b, a f_gg],
[b, f_gg]] with a = alpha_plus, and the coherence sector likewise with
(eta_plus, e, f_eg, f_ge).  These matrices form a group, so evolve_gauge
takes one RK4 step of the ODEs above from the identity for every substep at
once and composes the steps.  A step is an element (a, b, d_ee, d_gg) with
d = f - 1, exactly the RK4 increment of the weight.  With p = d_ee + a b and
delta = d_gg^B + a^A b^B, element A followed by element B is

    d_gg = d_gg^A + delta + d_gg^A delta
    b    = b^B + b^A + b^B p^A + d_gg^B b^A
    a    = (a^A + a^B + p^B a^A + a^B d_gg^B) / (1 + delta)
    d_ee = p^B + p^A + p^B p^A + a^B (1 + d_gg^B) b^A - a b

where 1 + delta is the ratio of f_gg (f_ge in the coherence sector) at
the two end times, never zero where the flow exists.  Every interval of a
chunk has the same m substeps, so each sector's steps form a (4, K, m)
stack, and each interval's steps are composed by
integrate.pairwise_products, which the reference route shares, within the
interval only, so each interval's element does not depend on the
chunking.  A difference from 1 holds a weight only while the weight stays
well above the rounding of 1: f_ge decays like exp(-gamma (N + 1/2 - |M|)
t), so over an interval of t = 100 its d rounds to -1 and 1 + delta to 0
exactly.  So the steps are composed in difference form only within blocks
of at most _BLOCK substeps, fewer where a substep spans more of the fastest
rate, and from there on the elements keep plain weights f = 1 + d, which
stay accurate as they decay (f_ee and f_eg reach 1e-119 at r = 2, t = 10).
With plain weights, element A followed by element B is

    w    = f_gg^B + a^A b^B
    a    = (a^A (f_ee^B + a^B b^B) + a^B f_gg^B) / w
    b    = b^B (f_ee^A + a^A b^A) + f_gg^B b^A
    f_ee = f_ee^A f_ee^B f_gg^B / w
    f_gg = f_gg^A w

where w = 1 + delta, so f_ee comes from the determinant f_ee f_gg and a
decaying weight is only ever multiplied.  pairwise_products joins the
blocks of each interval by this law; an interval of at most _BLOCK
substeps is one block, whose element is composed in difference form
alone.  Per chunk, integrate.prefix_products, which the reference route
shares too, joins the intervals' elements by this law into the product of
each run of them from the chunk's start.  The state at the chunk's start
followed by each prefix is the flow at each of the chunk's grid times.

For a constant reservoir all eight columns have closed forms, implemented
in autonomous_gauge; the time stepping must reproduce them, and both must
match the brute-force reference integrator.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import unvectorize, vectorize
from .bath import BathSchedule
from .errors import InvalidInputError, NumericalFailureError
from .integrate import pairwise_products, prefix_products, walk_chunks
from .states import check_density

__all__ = [
    "evolve_gauge",
    "autonomous_gauge",
    "assemble_density",
    "autonomous_expectations",
]

# the columns of the population and coherence sectors in a gauge state, and
# what turns a (4, K, n) stack of elements in difference form into plain weights
_POP, _COH = [0, 1, 4, 5], [2, 3, 6, 7]
_PLAIN = np.array([0, 0, 1, 1]).reshape(4, 1, 1)

# Most substeps composed in difference form, a power of two.  1 + delta is
# the ratio of f_gg or f_ge over the block, and these decay at most at about
# gamma (2N + 1), of which a default substep spans at most 1e-2: a block of
# 512 keeps 1 + delta above about exp(-5.12).  gauge_chunk keeps that
# margin for a wider explicit step by halving the block.  At gamma = 1 and
# r <= 2 an interval of up to 0.1 (274 substeps at r = 2) is still one block.
_BLOCK = 512


def evolve_gauge(
    schedule: BathSchedule,
    grid: np.ndarray,
    step: float | None = None,
) -> np.ndarray:
    """The gauge flow as a product of per-substep group elements.

    integrate.walk_chunks from the identity, each chunk taken by gauge_chunk
    (see the module docstring).

    Parameters
    ----------
    schedule : BathSchedule
    grid : array of times
        Output times starting at 0, strictly increasing.
    step : float, optional
        Internal substep, at most the grid spacing; defaults to
        integrate.default_step(schedule, grid).

    Returns
    -------
    ndarray, shape (len(grid), 8)
        The gauge state at each grid time; row 0 is the identity
        (0, 0, 0, 0, 1, 1, 1, 1).

    Raises
    ------
    NumericalFailureError
        On non-finite gauge values (Riccati blow-up), naming the time.
    """
    identity = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=complex)
    return walk_chunks(schedule, grid, step, identity, gauge_chunk, "gauge parameters")


def gauge_chunk(start, controls, h, m, rows) -> tuple[np.ndarray, np.ndarray]:
    """evolve_gauge's chunk stepper for integrate.walk_chunks.

    The module docstring's product of the chunk's steps follows the gauge
    state start into rows.  It returns the chunk's RK4 steps for the walk
    to hold: freed before the next chunk's are made, they let the heap
    shrink and regrow every chunk (a first evolve_gauge on long_horizon's
    grid then took 6 587 page faults, not 591, and 47 ms, not 40 ms).
    """
    # blocks in difference form span at most 5.12 of the fastest rate
    # gamma (2N + 1) at the chunk's nodes
    g, n, _ = controls
    span = h.max(initial=0.0) * np.max(g * (2.0 * n + 1.0))
    block = _BLOCK
    while block > 1 and block * span > 5.12:
        block //= 2
    steps = _rk4_steps(controls, h)
    pop, coh = (_interval_elements(s.reshape(4, -1, m), block) for s in steps)
    for s in (pop, coh):
        prefix_products(s, _join)
    rows[:, _POP] = np.transpose(_join(start[_POP].real, pop))
    rows[:, _COH] = np.transpose(_join(start[_COH], coh))
    return steps


def _rk4_steps(controls, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One RK4 step from the identity per substep, from (gamma, N, M) at the
    # 2S+1 nodes and the S widths h: (4, S) arrays of elements, real for the
    # population sector and complex for the coherence sector.
    g, n, m = controls
    # the start (k = 0), midpoint (1) and end (2) node of every substep
    at = [tuple(x[k : x.size - 2 + k : 2] for x in (g, n, n + 1.0, n + 0.5, m, m.conj()))
          for k in range(3)]
    h2, h6 = 0.5 * h, h / 6.0
    zero = (0.0, 0.0, 0.0, 0.0)
    k1 = _derivatives(at[0], zero, zero)
    k2 = _derivatives(at[1], *([h2 * x for x in k] for k in k1))
    k3 = _derivatives(at[1], *([h2 * x for x in k] for k in k2))
    k4 = _derivatives(at[2], *([h * x for x in k] for k in k3))
    return tuple(np.array([h6 * (a + 2.0 * (b + c) + d) for a, b, c, d in zip(*sector)])
                 for sector in zip(k1, k2, k3, k4))


def _derivatives(at, pop, coh):
    # the module docstring's right-hand side, at weights in difference form
    g, n, n1, nh, m, mc = at
    ap, b, d_ee, d_gg = pop
    ep, e, d_eg, d_ge = coh
    mep = m * ep
    c = nh + mep
    return ((g * (n - ap - n1 * ap * ap),
             g * (n1 * (1.0 + d_ee) + (n1 * ap - n) * b),
             -g * n1 * (1.0 + ap) * (1.0 + d_ee),
             -g * (n - n1 * ap) * (1.0 + d_gg)),
            (g * (mep * ep - mc),
             -g * (m * (1.0 + d_eg) + c * e),
             -g * (nh - mep) * (1.0 + d_eg),
             -g * c * (1.0 + d_ge)))


def _compose(first, then):
    # element `first` followed by element `then`, the module docstring's law;
    # scalars or arrays
    a1, b1, d1_ee, d1_gg = first
    a2, b2, d2_ee, d2_gg = then
    p1 = d1_ee + a1 * b1
    p2 = d2_ee + a2 * b2
    delta = d2_gg + a1 * b2
    ap = (a1 + a2 + p2 * a1 + a2 * d2_gg) / (1.0 + delta)
    b = b2 + b1 + b2 * p1 + d2_gg * b1
    d_ee = p2 + p1 + p2 * p1 + a2 * (1.0 + d2_gg) * b1 - ap * b
    return ap, b, d_ee, d1_gg + delta + d1_gg * delta


def _join(first, then):
    # element `first` followed by element `then`, both with plain weights
    # (a, b, f_ee, f_gg); f_ee from the determinant f_ee f_gg; of scalars or
    # arrays, as one array
    a1, b1, f1_ee, f1_gg = first
    a2, b2, f2_ee, f2_gg = then
    w = f2_gg + a1 * b2  # 1 + delta
    return np.array(((a1 * (f2_ee + a2 * b2) + a2 * f2_gg) / w,
                     b2 * (f1_ee + a1 * b1) + f2_gg * b1, f1_ee * f2_ee * f2_gg / w, f1_gg * w))


def _pair(first, then):
    # _compose of (4, K, n) stacks, as one array; on the strided views that
    # pairwise_products passes, a 40-by-50 chunk paired 1.4x slower than on copies
    return np.array(_compose(np.ascontiguousarray(first), np.ascontiguousarray(then)))


def _interval_elements(steps, block):
    # each interval's element, (4, K), with plain weights f = 1 + d, from
    # its (4, K, m) steps: composed in blocks of at most block, then the
    # blocks joined
    blocks = pairwise_products(steps, _pair, block) + _PLAIN
    return pairwise_products(blocks, _join)[..., 0]


def _check_constant_reservoir(gamma, n, m, t) -> None:
    # what both closed forms cover: finite real values, gamma, N and every t >= 0
    for name, v in (("gamma", gamma), ("N", n), ("M", m), ("t", t)):
        if np.iscomplexobj(v):
            raise InvalidInputError("%s must be real, got %r" % (name, v))
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("%s must be finite, got %r" % (name, v))
        if name != "M" and np.any(np.less(v, 0.0)):
            raise InvalidInputError("%s must be >= 0, got %r" % (name, float(np.min(v))))


def autonomous_gauge(gamma: float, n: float, m: float, t: float) -> np.ndarray:
    """Closed-form gauge state, shape (8,), for a constant reservoir with real M.

    With E = exp(-gamma (2N+1) t) and D = N + 1 + N E, the population
    columns are

        alpha_plus = N (1 - E) / D,      b    = (N+1) (1 - E) / (2N+1),
        f_ee       = (2N+1) E / D,       f_gg = D / (2N+1)

    (alpha_plus is the standard form of the printed expression multiplied
    through by N, which also resolves its 0/0 limit at N = 0 to 0).  With
    u = gamma M t, S = exp(-gamma (N + 1/2 - |M|) t) and
    F = exp(-gamma (N + 1/2 + |M|) t), the coherence columns are

        eta_plus = -tanh(u),             e    = -sign(M) (S - F) / 2,
        f_eg     = 2 F / (1 + exp(-2 |u|)),  f_ge = (S + F) / 2.

    Every exponent is non-positive for a physical reservoir
    (|M| <= N + 1/2), so no intermediate value overflows at any t.  A
    complex or non-finite value, or gamma, N or t below 0, raises
    InvalidInputError.
    """
    _check_constant_reservoir(gamma, n, m, t)
    w = 2.0 * n + 1.0
    big_e = math.exp(-gamma * w * t)
    den = n + 1.0 + n * big_e
    u = gamma * m * t
    s = math.exp(-gamma * (n + 0.5 - abs(m)) * t)
    f = math.exp(-gamma * (n + 0.5 + abs(m)) * t)
    return np.array(
        [
            n * (1.0 - big_e) / den,
            (n + 1.0) * (1.0 - big_e) / w,
            -math.tanh(u),
            -math.copysign(0.5 * (s - f), m),
            w * big_e / den,
            den / w,
            2.0 * f / (1.0 + math.exp(-2.0 * abs(u))),
            0.5 * (s + f),
        ],
        dtype=complex,
    )


def assemble_density(rho0: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Density matrices at the instants described by gauge states.

    rho0 is the initial density matrix, or a (k, 2, 2) stack of them (checked
    by check_density); flow is one gauge state of shape (8,) or a (..., 8)
    stack such as evolve_gauge's result.  The result has shape
    flow.shape[:-1] + rho0.shape: every gauge state assembled for every
    initial state.  Implements the component expansion

        rho_ee = l_ee (f_ee + a+ b) + l_gg f_gg a+
        rho_gg = l_ee b             + l_gg f_gg
        rho_eg = l_eg (f_eg + e+ e) + l_ge f_ge e+
        rho_ge = l_eg e             + l_ge f_ge

    with l the components of rho0, a+ = alpha_plus, e+ = eta_plus and
    (b, e, f) the remaining columns of the gauge state.  The result is
    Hermitian with trace 1 up to integration tolerances.
    """
    rho0 = check_density(rho0)
    l_ee, l_gg, l_eg, l_ge = np.moveaxis(vectorize(rho0), -1, 0)
    flow = np.asarray(flow, dtype=complex)
    if not np.all(np.isfinite(flow)):
        raise NumericalFailureError("gauge parameters are not finite; cannot assemble")
    # one trailing axis per stack axis of rho0, so the columns broadcast over it
    columns = np.moveaxis(flow, -1, 0).reshape((8,) + flow.shape[:-1] + (1,) * (rho0.ndim - 2))
    ap, b, ep, e, f_ee, f_gg, f_eg, f_ge = columns
    rho = np.stack(
        [
            l_ee * (f_ee + ap * b) + l_gg * f_gg * ap,
            l_ee * b + l_gg * f_gg,
            l_eg * (f_eg + ep * e) + l_ge * f_ge * ep,
            l_eg * e + l_ge * f_ge,
        ],
        axis=-1,
    )
    return unvectorize(rho)


def autonomous_expectations(
    rho0: np.ndarray, gamma: float, n: float, m: float, t: float | np.ndarray
) -> np.ndarray:
    """Closed-form Pauli expectations for a constant reservoir with real M.

    Starting from the density matrix rho0 (checked by check_density):

        <sigma_x>(t) =  2 Re(rho_eg) exp(-gamma (N + M + 1/2) t)
        <sigma_y>(t) = -2 Im(rho_eg) exp(-gamma (N - M + 1/2) t)
        <sigma_z>(t) = (2 [rho_ee (N+1) - rho_gg N] exp(-gamma (2N+1) t) - 1)
                       / (2N + 1)

    The two quadratures decay at the split rates gamma (N +- M + 1/2), the
    inversion at gamma (2N+1) toward -1/(2N+1).  t is one time or an array
    of times; the result has shape t.shape + (3,) with columns sx, sy, sz,
    like pauli_expectations.  A complex or non-finite value, or gamma, N or
    a time below 0, raises InvalidInputError, as in autonomous_gauge.
    """
    rho0 = check_density(rho0)
    if rho0.ndim != 2:
        raise InvalidInputError("rho0 must be one 2x2 state, got shape %r" % (rho0.shape,))
    _check_constant_reservoir(gamma, n, m, t)
    t = np.asarray(t, dtype=float)
    p_e = float(rho0[0, 0].real)
    p_g = float(rho0[1, 1].real)
    coh = complex(rho0[0, 1])
    sx = 2.0 * coh.real * np.exp(-gamma * (n + m + 0.5) * t)
    sy = -2.0 * coh.imag * np.exp(-gamma * (n - m + 0.5) * t)
    sz = (
        2.0 * (p_e * (n + 1.0) - p_g * n) * np.exp(-gamma * (2.0 * n + 1.0) * t)
        - 1.0
    ) / (2.0 * n + 1.0)
    return np.stack([sx, sy, sz], axis=-1)
