import cmath
import math
import re

import numpy as np
import pytest

from squeezebath import gaugeflow, integrate
from squeezebath.bath import BathSchedule, Constant, ExpDecay, Ramp, Sinusoid, bath_params
from squeezebath.errors import InvalidInputError, NumericalFailureError
from squeezebath.gaugeflow import (
    _compose,
    _join,
    assemble_density,
    autonomous_expectations,
    autonomous_gauge,
    evolve_gauge,
)
from squeezebath.integrate import default_step, plan_substeps, uniform_grid
from squeezebath.liouvillian import integrate_reference
from squeezebath.states import (
    pauli_expectations,
    pure_state,
    steady_populations,
    trace_distance,
)
from squeezebath.verify import check_gauge_trace_identities, check_oracle_agreement

FIG1 = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))

ODD_RHO0 = pure_state(math.sqrt(0.2) * cmath.exp(1j * math.pi / 3.0), math.sqrt(0.8))
IDENTITY = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=complex)


def _gauge_rhs(gamma, n, m, y):
    # the module docstring's sector law written out as eight ODEs, once over a
    # tuple of columns
    ap, b, ep, e, f_ee, f_gg, f_eg, f_ge = y
    mep = m * ep
    c = n + 0.5 + mep
    return (
        gamma * (n - ap - (n + 1.0) * ap * ap),
        gamma * ((n + 1.0) * f_ee + ((n + 1.0) * ap - n) * b),
        gamma * (mep * ep - m.conjugate()),
        -gamma * (m * f_eg + c * e),
        -gamma * (n + 1.0) * (1.0 + ap) * f_ee,
        -gamma * (n - (n + 1.0) * ap) * f_gg,
        -gamma * (n + 0.5 - mep) * f_eg,
        -gamma * c * f_ge,
    )


def _plain_rk4_flow(schedule, grid, step=None):
    # the gauge ODEs stepped the plain way: RK4 on the state itself, complex
    # tuples, one _gauge_rhs call per stage, over the nodes of the whole grid
    # planned at once
    if step is None:
        step = default_step(schedule, grid)
    plan = plan_substeps(grid, step)
    g_nodes, n_nodes, m_nodes = schedule.params_on(plan.nodes)
    gl = [float(v) for v in g_nodes]
    nl = [float(v) for v in n_nodes]
    ml = [complex(v) for v in m_nodes]
    out = np.zeros((grid.size, 8), dtype=complex)
    y = tuple(complex(v) for v in IDENTITY)
    out[0] = y
    # substeps are numbered across the whole grid; substep k reads nodes
    # 2k, 2k+1 and 2k+2
    k = 0
    for i in range(grid.size - 1):
        h = float(plan.widths[i])
        h2 = 0.5 * h
        h6 = h / 6.0
        for _ in range(int(plan.counts[i])):
            j = 2 * k
            k += 1
            k1 = _gauge_rhs(gl[j], nl[j], ml[j], y)
            k2 = _gauge_rhs(gl[j + 1], nl[j + 1], ml[j + 1],
                            tuple(a + h2 * d for a, d in zip(y, k1)))
            k3 = _gauge_rhs(gl[j + 1], nl[j + 1], ml[j + 1],
                            tuple(a + h2 * d for a, d in zip(y, k2)))
            k4 = _gauge_rhs(gl[j + 2], nl[j + 2], ml[j + 2],
                            tuple(a + h * d for a, d in zip(y, k3)))
            y = tuple(a + h6 * (d1 + 2.0 * (d2 + d3) + d4)
                      for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4))
        assert all(cmath.isfinite(v) for v in y)
        out[i + 1] = y
    return out


def _uneven_grid(step):
    # spans of 1 to 7 substeps, in a fixed irregular order
    spans = step * (1.0 + (0.37 * np.arange(40)) % 6.0)
    grid = np.concatenate([[0.0], np.cumsum(spans)])
    assert set(plan_substeps(grid, step).counts.tolist()) == set(range(1, 8))
    return grid


FLOW_CASES = {
    "uneven-sin-gamma-sin-r-ramp-theta": (
        BathSchedule(gamma=Sinusoid(1.0, 0.5, 2.0), r=Sinusoid(1.5, 0.3, 1.3, 0.2),
                     theta=Ramp(0.3, 0.7)),
        _uneven_grid(0.01), 0.01,
    ),
    "thermal": (BathSchedule(gamma=Constant(1.0), nbar=0.7), uniform_grid(5.0, 0.05), 1e-3),
    "const-r2": (BathSchedule(gamma=Constant(1.0), r=Constant(2.0)), uniform_grid(10.0, 0.05),
                 None),
    "one-point": (FIG1, np.array([0.0]), None),
}


# Largest |evolve_gauge - _plain_rk4_flow| over the flow, measured: 3.6e-7,
# 7.8e-12 (at the default step of about 3.7e-4; 4.4e-10 at 1e-3), 3.4e-14
# (at 1e-3; 1.0e-11 at the default step of 1e-2 / 2.4) and 0.  Composing
# steps taken from the identity is a different RK4 discretisation of the
# nonlinear Riccati flow than stepping the state, so the two differ at the
# level of their truncation errors (largest where gamma (2N+1) h is about
# 0.5, on the uneven grid).
PLAIN_RK4_GAP = {
    "uneven-sin-gamma-sin-r-ramp-theta": 1e-6,
    "const-r2": 1e-9,
    "thermal": 1e-13,
    "one-point": 0.0,
}


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_flow_agrees_with_plain_rk4(monkeypatch, case):
    # at the default chunk size, with row blocks of many chunks of at most 5
    # substeps, and with one chunk and one row block for the whole grid
    schedule, grid, step = FLOW_CASES[case]
    plain = _plain_rk4_flow(schedule, grid, step)
    for limit in (integrate.CHUNK_SUBSTEPS, 5, 10**9):
        monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", limit)
        gap = np.abs(evolve_gauge(schedule, grid, step) - plain)
        assert np.max(gap) <= PLAIN_RK4_GAP[case], limit


def test_flow_is_the_same_at_any_chunk_size(monkeypatch):
    # chunks of at most 5 substeps put chunk boundaries after nearly every
    # interval of the 1-7 substep grid, and the 12-substep interval in the
    # middle forms a chunk by itself.  Steps are composed only within an
    # interval, so each interval's element does not depend on where the
    # chunks end.  Row blocks of at least 5 intervals end at some of those
    # cuts; a block's end only changes how the prefix scan associates the
    # intervals' elements, which moves the flow by a few ulps (measured
    # 6.3e-16)
    schedule, grid, step = FLOW_CASES["uneven-sin-gamma-sin-r-ramp-theta"]
    grid = np.concatenate([grid[:21], grid[20] + 12 * step + grid[20:] - grid[20]])
    assert 12 in plan_substeps(grid, step).counts
    whole = evolve_gauge(schedule, grid, step)
    monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", 5)
    assert np.max(np.abs(evolve_gauge(schedule, grid, step) - whole)) <= 4e-15


@pytest.mark.parametrize("block", [1, 2, 4, 8])
def test_flow_is_the_same_at_any_block_size(monkeypatch, block):
    # the 1-7 and 12 substep intervals composed in blocks of `block` steps,
    # the blocks joined with plain weights: only the association of the
    # steps changes, which moves the flow by a few ulps (measured 7.2e-16)
    schedule, grid, step = FLOW_CASES["uneven-sin-gamma-sin-r-ramp-theta"]
    grid = np.concatenate([grid[:21], grid[20] + 12 * step + grid[20:] - grid[20]])
    whole = evolve_gauge(schedule, grid, step)
    monkeypatch.setattr(gaugeflow, "_BLOCK", block)
    assert np.max(np.abs(evolve_gauge(schedule, grid, step) - whole)) <= 4e-15


def test_each_sector_obeys_the_one_law():
    # _derivatives with each sector's coefficients is the eight ODEs written
    # out (_gauge_rhs) at seeded random increments, for real, complex
    # and thermal (M = 0) reservoirs with N from 0 to 50, to a few ulps of the
    # largest coefficient (measured 2.6 eps).  Swapping s and u in the
    # population's coefficients fails it: db/dt moves by gamma b.
    rng = np.random.default_rng(7)
    size = 300
    g = rng.uniform(0.1, 2.0, size)
    n = np.concatenate([[0.0, 50.0], rng.uniform(0.0, 50.0, size - 2)])
    real, cplx, thermal = np.split(np.sqrt(n * (n + 1.0)) * rng.uniform(-1.0, 1.0, size), 3)
    m = np.concatenate([real, cplx * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, cplx.size)),
                        np.zeros_like(thermal)]).astype(complex)
    pop = rng.uniform(-0.5, 0.5, (4, size))
    coh = rng.uniform(-0.5, 0.5, (4, size)) + 1j * rng.uniform(-0.5, 0.5, (4, size))
    y = np.concatenate([pop[:2], coh[:2], 1.0 + pop[2:], 1.0 + coh[2:]])
    want = np.array(_gauge_rhs(g, n, m, y))
    scale = g * (n + 1.0 + np.abs(m))
    worst = 0.0
    sectors = zip(gaugeflow._sector_laws((g, n, m)), (pop, coh), ([0, 1, 4, 5], [2, 3, 6, 7]))
    for law, x, columns in sectors:
        got = np.array(gaugeflow._derivatives(law, x))
        worst = max(worst, np.max(np.abs(got - want[columns]) / scale))
        # at zero increments, the first RK4 stage of every step
        p, _, r, s, u = law
        at_identity = gaugeflow._derivatives(law, np.zeros((4, size)))
        assert all(np.array_equal(a, b) for a, b in zip(at_identity, (p, -r, -u, -s)))
    assert worst <= 8 * np.finfo(float).eps


def _sector_matrix(element, plain=False):
    # the 2x2 matrix through which a sector's element acts in assemble_density
    a, b, f1, f2 = element
    if not plain:
        f1, f2 = 1.0 + f1, 1.0 + f2
    return np.array([[f1 + a * b, a * f2], [b, f2]])


@pytest.mark.parametrize("dtype", [float, complex])
def test_composition_law_is_the_sector_matrix_product(dtype):
    rng = np.random.default_rng(11)

    def element():
        x = rng.uniform(-0.3, 0.3, 4)
        if dtype is complex:
            x = x + 1j * rng.uniform(-0.3, 0.3, 4)
        return tuple(x.astype(dtype).tolist())

    def plain(x):
        return (x[0], x[1], 1.0 + x[2], 1.0 + x[3])

    worst = 0.0
    for _ in range(200):
        a, b, c = element(), element(), element()
        ab = _compose(a, b)
        worst = max(worst, np.max(np.abs(_sector_matrix(ab)
                                         - _sector_matrix(b) @ _sector_matrix(a))))
        # associativity
        worst = max(worst, np.max(np.abs(np.subtract(_compose(ab, c),
                                                      _compose(a, _compose(b, c))))))
        # the same law on elements with plain weights, as the prefix scan joins them
        pa, pb, pc = plain(a), plain(b), plain(c)
        pab = _join(pa, pb)
        worst = max(worst, np.max(np.abs(_sector_matrix(pab, plain=True)
                                         - _sector_matrix(b) @ _sector_matrix(a))))
        worst = max(worst, np.max(np.abs(np.subtract(_join(pab, pc), _join(pa, _join(pb, pc))))))
    assert worst <= 5e-15  # measured 1.1e-15, from the plain-weight associativity


def test_decaying_weights_keep_their_relative_precision():
    # r = 2: f_ee and f_eg fall to about 5.5e-119 at t = 10, and each keeps
    # the relative precision of the columns of order one (measured 1.4e-9 at
    # the default step of about 3.7e-4, 7.7e-8 at 1e-3)
    n, m = bath_params(2.0, 0.0)
    grid = uniform_grid(10.0, 0.05)
    flow = evolve_gauge(BathSchedule(gamma=Constant(1.0), r=Constant(2.0)), grid)
    want = np.array([autonomous_gauge(1.0, n, m.real, float(t)) for t in grid[1:]])
    assert np.min(np.abs(want[-1, [4, 6]])) <= 1e-118
    assert np.max(np.abs(flow[1:] - want) / np.abs(want)) <= 1e-6


def test_alpha_plus_fixed_points():
    n, m = bath_params(0.6, 0.0)
    for fixed in (n / (n + 1.0), -1.0):  # stable, repelling
        y = (complex(fixed),) + tuple(IDENTITY[1:])
        assert abs(_gauge_rhs(1.0, n, m, y)[0]) <= 1e-15


def test_autonomous_alpha_plus_closed_form():
    # (1 - e^-3) / (2 + e^-3) at gamma = 1, N = 1, t = 1
    g = autonomous_gauge(1.0, 1.0, math.sqrt(2.0), 1.0)
    assert g[0] == pytest.approx(0.46356665348110515, rel=1e-14)


def test_autonomous_vacuum():
    g = autonomous_gauge(1.0, 0.0, 0.0, 1.0)
    assert g[0] == 0.0
    assert g[1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert g[2] == 0.0
    assert g[3] == 0.0
    assert g[4] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert g[5] == 1.0


def test_autonomous_eta_is_minus_tanh():
    n, m = bath_params(0.6, 0.0)
    t = 0.5 / m.real  # gamma M t = 1/2
    g = autonomous_gauge(1.0, n, m.real, t)
    assert g[2] == pytest.approx(-0.46211715726000974, rel=1e-13)
    # e = eta_minus f_eg = -sinh(u) exp(-gamma (N + 1/2) t)
    assert g[3] == pytest.approx(-math.sinh(0.5) * math.exp(-(n + 0.5) * t), rel=1e-13)


def test_autonomous_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        autonomous_gauge(1.0, 1.0, math.sqrt(2.0), -0.5)
    with pytest.raises(InvalidInputError):
        autonomous_gauge(-1.0, 1.0, math.sqrt(2.0), 0.5)


def test_evolve_matches_closed_form():
    n, m = bath_params(0.6, 0.0)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    grid = uniform_grid(2.0, 0.1)
    flow = evolve_gauge(sched, grid)
    for i, t in enumerate(grid):
        want = autonomous_gauge(1.0, n, m.real, float(t))
        assert np.max(np.abs(flow[i] - want)) <= 1e-9


def test_evolve_starts_at_identity():
    assert np.array_equal(evolve_gauge(FIG1, [0.0]), IDENTITY[None, :])


def test_strong_squeezing_matches_closed_form_at_long_times():
    # r = 2: alpha_minus grows like exp(27 t); the flow's columns stay bounded
    n, m = bath_params(2.0, 0.0)
    grid = uniform_grid(60.0, 0.05)
    flow = evolve_gauge(BathSchedule(gamma=Constant(1.0), r=Constant(2.0)), grid)
    got = pauli_expectations(assemble_density(ODD_RHO0, flow))
    want = autonomous_expectations(ODD_RHO0, 1.0, n, m.real, grid)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_constant_squeezing_reaches_equilibrium():
    # the paper's approach to the equilibrium state, at a long horizon
    n, _ = bath_params(0.6, 0.0)
    flow = evolve_gauge(BathSchedule(gamma=Constant(1.0), r=Constant(0.6)),
                        uniform_grid(1000.0, 1.0), step=0.01)
    assert trace_distance(assemble_density(ODD_RHO0, flow[-1]), steady_populations(n)) <= 1e-10


def test_autonomous_gauge_is_bounded_at_long_times():
    n, m = bath_params(2.0, 0.0)
    g = autonomous_gauge(1.0, n, m.real, 1000.0)
    assert np.all(np.isfinite(g))
    assert np.max(np.abs(g)) <= 1.0
    got = pauli_expectations(assemble_density(ODD_RHO0, g))
    want = autonomous_expectations(ODD_RHO0, 1.0, n, m.real, 1000.0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_evolve_step_must_fit_grid():
    grid = uniform_grid(1.0, 0.1)
    with pytest.raises(InvalidInputError):
        evolve_gauge(FIG1, grid, step=0.2)


def test_thermal_schedule_keeps_eta_inert():
    sched = BathSchedule(gamma=Constant(1.0), nbar=0.7)
    grid = uniform_grid(2.0, 0.5)
    flow = evolve_gauge(sched, grid)
    assert np.all(flow[:, 2] == 0.0)
    assert np.all(flow[:, 3] == 0.0)
    assert flow[-1, 0] != 0.0


def test_trace_identities_along_flow():
    flow = evolve_gauge(FIG1, uniform_grid(5.0, 0.1))
    assert check_gauge_trace_identities(flow, 1e-9).status == "PASS"


@pytest.mark.filterwarnings("error")
def test_gauge_blowup_is_reported():
    sched = BathSchedule(gamma=Constant(1e80), r=Constant(0.1))
    with pytest.raises(NumericalFailureError, match="t = "):
        evolve_gauge(sched, np.array([0.0, 1.0]), step=1.0)


@pytest.mark.filterwarnings("error")
def test_gauge_blowup_names_the_first_nonfinite_time():
    # gamma = max(1e80 (t - 1), 0) is 0 on [0, 1], so row 1 stays the
    # identity and the flow blows up on the second interval only
    sched = BathSchedule(gamma=Ramp(-1e80, 1e80), r=Constant(0.1))
    with pytest.raises(NumericalFailureError, match=r"non-finite at t = 2\.0$"):
        evolve_gauge(sched, np.array([0.0, 1.0, 2.0]), step=1.0)


def test_flow_is_an_array_assembled_in_one_call():
    grid = uniform_grid(2.0, 0.1)
    flow = evolve_gauge(FIG1, grid)
    assert flow.shape == (len(grid), 8)
    assert flow.dtype == complex
    states = assemble_density(ODD_RHO0, flow)
    assert np.array_equal(states, np.array([assemble_density(ODD_RHO0, y) for y in flow]))
    assert autonomous_gauge(1.0, 0.5, 0.5, 1.0).shape == (8,)


def test_initial_decomposition_from_density_roundtrip():
    # A mixed state: its four matrix elements are the initial coefficients
    # of the expansion, and the identity gauge hands them back unchanged.
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    assert np.array_equal(assemble_density(rho, IDENTITY), rho)


def test_assemble_at_identity_returns_initial_state():
    rho = assemble_density(ODD_RHO0, IDENTITY)
    assert np.allclose(rho, ODD_RHO0, rtol=0, atol=1e-16)


def test_assemble_reaches_steady_state():
    n, m = bath_params(0.6, 0.0)
    g = autonomous_gauge(1.0, n, m.real, 200.0)
    rho = assemble_density(ODD_RHO0, g)
    assert trace_distance(rho, steady_populations(n)) <= 1e-12


def test_assembled_states_stay_physical():
    grid = uniform_grid(10.0, 0.1)
    for rho in assemble_density(ODD_RHO0, evolve_gauge(FIG1, grid)):
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
        assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) >= -1e-8


def test_flow_agrees_with_reference_integrator():
    grid = uniform_grid(1.0, 0.05)
    states = assemble_density(ODD_RHO0, evolve_gauge(FIG1, grid))
    ref = integrate_reference(FIG1, ODD_RHO0, grid)
    assert check_oracle_agreement(states, ref, 1e-8).status == "PASS"


def test_pauli_expectations_values():
    assert np.array_equal(pauli_expectations(np.eye(2, dtype=complex) / 2.0), np.zeros(3))
    sx, sy, sz = pauli_expectations(steady_populations(1.0))
    assert (sx, sy) == (0.0, 0.0)
    assert sz == pytest.approx(-1.0 / 3.0, rel=1e-15)
    sx, sy, sz = pauli_expectations(assemble_density(ODD_RHO0, IDENTITY))
    assert sx == pytest.approx(0.4, rel=1e-13)
    assert sy == pytest.approx(-0.6928203230275508, rel=1e-13)
    assert sz == pytest.approx(-0.6, rel=1e-13)


def test_autonomous_expectations_initial_point():
    sx, sy, sz = autonomous_expectations(ODD_RHO0, 1.0, 1.0, math.sqrt(2.0), 0.0)
    assert sx == pytest.approx(0.4, rel=1e-13)
    assert sy == pytest.approx(-0.6928203230275508, rel=1e-13)
    assert sz == pytest.approx(-0.6, rel=1e-13)


def test_autonomous_expectations_vacuum_inversion():
    for t in (0.0, 0.3, 1.0, 2.5):
        _, _, sz = autonomous_expectations(pure_state(1.0, 0.0), 1.0, 0.0, 0.0, t)
        assert sz == pytest.approx(2.0 * math.exp(-t) - 1.0, rel=1e-13)


def test_autonomous_expectations_coherence_rates():
    n, m = bath_params(0.6, 0.0)
    mu, nu = math.sqrt(0.2), math.sqrt(0.8)
    sx0 = 2.0 * mu * nu
    sx, sy, _ = autonomous_expectations(pure_state(mu, nu), 1.0, n, m.real, 1.0)
    assert sx == pytest.approx(sx0 * math.exp(-1.6600584613682734), rel=1e-12)
    assert sy == 0.0  # real initial coherence stays on the x quadrature


@pytest.mark.parametrize("gamma, n, m, t, message", [
    (-1.0, 1.0, math.sqrt(2.0), 0.5, "gamma must be >= 0, got -1.0"),
    (1.0, -0.5, 0.0, 0.5, "N must be >= 0, got -0.5"),
    (1.0, 1.0, complex(math.sqrt(2.0), 0.0), 0.5, "M must be real, got (1.4142135623730951+0j)"),
    (1.0, 1.0, math.sqrt(2.0), -0.5, "t must be >= 0, got -0.5"),
    (1.0, math.nan, 0.0, 0.5, "N must be finite, got nan"),
    (1.0, 1.0, math.inf, 0.5, "M must be finite, got inf"),
])
def test_both_closed_forms_refuse_the_same_inputs(gamma, n, m, t, message):
    # autonomous_expectations used to return values for gamma < 0, -inf for
    # N = -1/2 and complex values for a complex M; autonomous_gauge raised a
    # TypeError on a complex M
    with pytest.raises(InvalidInputError, match="^%s$" % re.escape(message)):
        autonomous_gauge(gamma, n, m, t)
    with pytest.raises(InvalidInputError, match="^%s$" % re.escape(message)):
        autonomous_expectations(ODD_RHO0, gamma, n, m, t)


def test_autonomous_expectations_refuses_any_negative_time():
    with pytest.raises(InvalidInputError, match=r"^t must be >= 0, got -0\.25$"):
        autonomous_expectations(ODD_RHO0, 1.0, 1.0, math.sqrt(2.0), np.array([0.0, -0.25, 1.0]))


def test_a_nonfinite_flow_is_not_assembled():
    flow = evolve_gauge(BathSchedule(gamma=Constant(1.0)), uniform_grid(1.0, 0.5), 0.1)
    flow[1, 2] = complex(math.nan, 0.0)
    with pytest.raises(NumericalFailureError,
                       match=r"^gauge parameters are not finite; cannot assemble$"):
        assemble_density(pure_state(0.6, 0.8), flow)
