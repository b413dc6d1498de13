"""Analytic solution of the master equation via time-dependent gauge parameters.

Instead of integrating the 4-component linear master equation directly, the
solution is written as a time-dependent similarity transformation applied to
the initial components.  The transformation is fixed by a Riccati pair
(alpha_plus, alpha_minus) acting in the population sector, a second pair
(eta_plus, eta_minus) acting in the coherence sector, and four weight
factors f_{s,s'}.  alpha_minus grows like exp(gamma (2N+1) t) and eta_minus
like sinh(u) cosh(u) with u = gamma M t, but the density only ever uses the
products b = alpha_minus f_ee and e = eta_minus f_eg.  The flow integrates
those products in place of alpha_minus and eta_minus.  The population
triple (j+-, j0) and the coherence triple (k+-, k0) obey the same
commutation relations, so by the product rule both sectors obey one law.
With a sector's columns (a, b, f1, f2) written as the increments
x = (a, b, d1, d2), d = f - 1, from the identity,

    da/dt  = p + q a + r a^2
    db/dt  = -r (1 + d1) - (s + r a) b
    dd1/dt = (r a - u) (1 + d1)
    dd2/dt = -(s + r a) (1 + d2)

with the coefficients, in units of gamma,

    sector      (a, b, f1, f2)               p    q   r        s        u
    population  (alpha_plus, b, f_ee, f_gg)  N    -1  -(N+1)   N        N+1
    coherence   (eta_plus, e, f_eg, f_ge)    -M*  0   M        N+1/2    N+1/2

At the identity the law reads (p, -r, -u, -s).

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
takes one RK4 step of the law above from the identity for every substep at
once and composes the steps.  A step is an element (a, b, d_ee, d_gg) in
difference form, exactly the RK4 increments of the columns.  With
p = d_ee + a b and delta = d_gg^B + a^A b^B, element A followed by element B
is

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
decaying weight is only ever multiplied.  The law is homogeneous: scaling
b, f_ee and f_gg of either element by c scales those of the product by c.
So a joined element carries a fifth entry, a power-of-two exponent k, and
stands for (a, 2^k b, 2^k f_ee, 2^k f_gg): after a join whose |f_gg| has
fallen below _RESCALE, k takes up the exponent of |f_gg|, which leaves
f_gg between 1/2 and 1, so w stays well inside the float range however
far the weights have decayed, and no normal value changes a bit (of a
subnormal |f_gg| k takes up at most 1021, so that 2^-k stays finite).
pairwise_products joins the blocks of each interval, from k = 0, by this
law; an interval of at most _BLOCK substeps is one block, whose element
is composed in difference form alone.  gauge_chunk returns each
interval's element.  Per row block of integrate.walk_chunks, a run of
chunks, gauge_rows joins the intervals' elements by this law, with
integrate.prefix_products, which the reference route shares too, into the
product of each run of them from the block's start.  The state at the
block's start followed by each prefix, scaled back by 2^k, is the flow at
each of the block's grid times.

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
from .integrate import fastest_rate, pairwise_products, prefix_products, walk_chunks
from .states import check_density

__all__ = [
    "evolve_gauge",
    "autonomous_gauge",
    "assemble_density",
    "autonomous_expectations",
]

# the columns of the population and coherence sectors in a gauge state
_POP, _COH = [0, 1, 4, 5], [2, 3, 6, 7]

# |f_gg| below which _join moves a product's scale into its exponent.  The
# operands' |f_gg| are then at least _RESCALE, so a join's w and f_gg stay
# above about _RESCALE^2 = 2^-512, inside the normal float range.
# Rescaling only there makes the joins of weights that do not decay, as on
# dense_output's grid, cheaper: a prefix scan of 2048 elements near the
# identity took 0.54 ms (real) and 0.95 ms (complex) with every product
# rescaled, 0.46 and 0.74 ms so, and 0.36 and 0.61 ms with no exponent
# (best of 200, numpy 2.4, a 2-vCPU Xeon)
_RESCALE = 2.0 ** -256

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
    and each row block by gauge_rows (see the module docstring).

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
    return walk_chunks(schedule, grid, step, identity, gauge_chunk, gauge_rows,
                       "gauge parameters")


def gauge_chunk(controls, h, m) -> tuple[tuple, tuple]:
    """evolve_gauge's per-chunk function for integrate.walk_chunks.

    The chunk's RK4 steps, for the walk to hold, and each of its K
    intervals' elements with plain weights and an exponent (see the module
    docstring), a real (5, K) population and a complex (5, K) coherence
    array.  Held until the next chunk's are made, the steps let the heap
    keep its size from chunk to chunk (freed at each chunk's end, a first
    evolve_gauge on long_horizon's grid took 6 587 page faults, not 591,
    and 47 ms, not 40 ms).
    """
    # blocks in difference form span at most 5.12 of the fastest rate
    # gamma (2N + 1) at the chunk's nodes
    span = h.max(initial=0.0) * fastest_rate(controls)
    block = _BLOCK
    while block > 1 and block * span > 5.12:
        block //= 2
    steps = _rk4_steps(controls, h)
    return steps, tuple(_interval_elements(s.reshape(4, -1, m), block) for s in steps)


def gauge_rows(start, elements, rows) -> None:
    """evolve_gauge's per-row-block function for integrate.walk_chunks.

    The row block's interval elements, joined by integrate.prefix_products
    into the product from the block's start to each of its grid times,
    follow the gauge state start, at exponent 0, into rows.
    """
    pop, coh = (prefix_products(s, _join) for s in elements)
    rows[:, _POP] = _unscaled(_join(np.append(start[_POP].real, 0.0), pop))
    rows[:, _COH] = _unscaled(_join(np.append(start[_COH], 0.0), coh))


def _unscaled(joined):
    # elements (a, b, f_ee, f_gg, k) as rows (a, 2^k b, 2^k f_ee, 2^k f_gg)
    a, b, f_ee, f_gg, k = joined
    scale = np.exp2(k.real)
    return np.transpose((a, b * scale, f_ee * scale, f_gg * scale))


def _rk4_steps(controls, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One RK4 step from the identity per substep, from (gamma, N, M) at the
    # 2S+1 nodes and the S widths h: (4, S) arrays of elements, real for the
    # population sector and complex for the coherence sector.
    h2, h6 = 0.5 * h, h / 6.0
    steps = []
    for law in _sector_laws(controls):
        # the coefficients at the start (k = 0), midpoint (1) and end (2)
        # node of every substep
        start, mid, end = (tuple(c[k : c.size - 2 + k : 2] for c in law) for k in range(3))
        p, _, r, s, u = start
        k1 = (p, -r, -u, -s)  # the law at the identity
        k2 = _derivatives(mid, [h2 * x for x in k1])
        k3 = _derivatives(mid, [h2 * x for x in k2])
        k4 = _derivatives(end, [h * x for x in k3])
        steps.append(np.array([h6 * (a + 2.0 * (b + c) + d)
                               for a, b, c, d in zip(k1, k2, k3, k4)]))
    return tuple(steps)


def _sector_laws(controls):
    # the coefficients (p, q, r, s, u) of the population and the coherence
    # sector's law (module docstring) at the nodes' (gamma, N, M); the
    # population's q is -gamma itself, as s - u rounds at large N
    g, n, m = controls
    gn, gn1, gnh = g * n, g * (n + 1.0), g * (n + 0.5)
    return (gn, -g, -gn1, gn, gn1), (-g * m.conj(), 0.0 * g, g * m, gnh, gnh)


def _derivatives(law, x):
    # a sector's law (module docstring), coefficients (p, q, r, s, u), at its
    # increments x = (a, b, d1, d2) from the identity
    p, q, r, s, u = law
    a, b, d1, d2 = x
    ra = r * a
    c = s + ra
    f1 = 1.0 + d1
    return p + (q + ra) * a, -(r * f1 + c * b), (ra - u) * f1, -c * (1.0 + d2)


def _compose(first, then):
    # element `first` followed by element `then`, the module docstring's
    # composition law; scalars or arrays
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
    # and an exponent, (a, b, f_ee, f_gg, k); f_ee from the determinant
    # f_ee f_gg; of scalars or arrays, as one array.  Where the product's
    # |f_gg| has fallen below _RESCALE, its exponent moves into k, at most
    # 1021 of it at once, so that 2^-k stays finite: a subnormal |f_gg|,
    # as the join of a row block's start row can give, has one down to -1073
    a1, b1, f1_ee, f1_gg, k1 = first
    a2, b2, f2_ee, f2_gg, k2 = then
    w = f2_gg + a1 * b2  # 1 + delta
    joined = np.array(((a1 * (f2_ee + a2 * b2) + a2 * f2_gg) / w,
                       b2 * (f1_ee + a1 * b1) + f2_gg * b1, f1_ee * f2_ee * f2_gg / w,
                       f1_gg * w, k1 + k2))
    size = np.abs(joined[3])
    small = size < _RESCALE
    if np.any(small):
        k = np.where(small, np.maximum(np.frexp(size)[1], -1021), 0)
        joined[1:4] *= np.exp2(-k)
        joined[4] += k
    return joined


def _pair(first, then):
    # _compose of (4, K, n) stacks, as one array; on the strided views that
    # pairwise_products passes, a 40-by-50 chunk paired 1.4x slower than on copies
    return np.array(_compose(np.ascontiguousarray(first), np.ascontiguousarray(then)))


def _interval_elements(steps, block):
    # each interval's element, (5, K), with plain weights f = 1 + d and an
    # exponent, from its (4, K, m) steps: composed in blocks of at most
    # block, then the blocks joined from exponent 0
    a, b, d_ee, d_gg = pairwise_products(steps, _pair, block)
    blocks = np.array((a, b, 1.0 + d_ee, 1.0 + d_gg, np.zeros_like(a)))
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
    rho = np.stack(_act((ap, b, f_ee, f_gg), l_ee, l_gg) + _act((ep, e, f_eg, f_ge), l_eg, l_ge),
                   axis=-1)
    return unvectorize(rho)


def _act(element, l1, l2):
    # a sector's element (a, b, f1, f2) acting on its components (l1, l2), the
    # expansion in assemble_density
    a, b, f1, f2 = element
    return l1 * (f1 + a * b) + l2 * f2 * a, l1 * b + l2 * f2


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
    rho0 = check_density(rho0, stack=False)
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
