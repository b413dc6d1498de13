import ast
import math
import pathlib

import numpy as np
import pytest

import squeezebath.gaugeflow
import squeezebath.liouvillian

from squeezebath import integrate
from squeezebath.algebra import unvectorize, vectorize
from squeezebath.bath import BathPoint, BathSchedule, Constant, ExpDecay, Ramp, Sinusoid, bath_params
from squeezebath.errors import InvalidInputError, NumericalFailureError
from squeezebath.gaugeflow import autonomous_expectations
from squeezebath.integrate import plan_substeps, uniform_grid
from squeezebath.liouvillian import (
    _bloch_blocks,
    _coherence_then,
    _population_then,
    build_rate_operator,
    integrate_reference,
    rate_matrix_batch,
    spectrum,
    steady_state,
)
from squeezebath.states import (
    excited_state,
    hermiticity_defect,
    min_eigenvalue,
    pauli_expectations,
    pure_state,
    trace_distance,
    trace_error,
)
from squeezebath.verify import check_construction_equality, check_spectrum_formulas

ROOT2 = math.sqrt(2.0)
I4 = np.eye(4, dtype=complex)


def _plain_reference(schedule, rho0, grid, step):
    # integrate_reference written the plain way: the rate stack of the whole
    # grid at once, and one one-step matrix applied after the other
    plan = plan_substeps(grid, step)
    rates = rate_matrix_batch(*schedule.params_on(plan.nodes))
    y = vectorize(rho0)[..., None]
    out = [y[..., 0]]
    k = 0  # substep k runs over nodes 2k, 2k+1 and 2k+2
    for m_sub, h in zip(plan.counts, plan.widths):
        for _ in range(m_sub):
            k1, mid, end = rates[2 * k], rates[2 * k + 1], rates[2 * k + 2]
            k2 = mid @ (I4 + (0.5 * h) * k1)
            k3 = mid @ (I4 + (0.5 * h) * k2)
            k4 = end @ (I4 + h * k3)
            y = (I4 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) @ y
            k += 1
        out.append(y[..., 0])
    return unvectorize(np.array(out))


# Bloch coordinates (tr rho, <sz>, <sx>, <sy>) of a component vector (ee, gg, eg, ge)
TO_BLOCH = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1j, -1j]])
FROM_BLOCH = 0.5 * np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, -1j], [0, 0, 1, 1j]])


def _plain_bloch_reference(schedule, rho0, grid, step):
    # the same plain loop on the dense real Bloch-coordinate rate stack, whose
    # blocks integrate_reference integrates, with the state converted in and
    # out once
    plan = plan_substeps(grid, step)
    rates = (TO_BLOCH @ rate_matrix_batch(*schedule.params_on(plan.nodes)) @ FROM_BLOCH).real
    eye = np.eye(4)
    y = TO_BLOCH @ vectorize(rho0)[..., None]
    out = [y[..., 0]]
    k = 0
    for m_sub, h in zip(plan.counts, plan.widths):
        for _ in range(m_sub):
            k1, mid, end = rates[2 * k], rates[2 * k + 1], rates[2 * k + 2]
            k2 = mid @ (eye + (0.5 * h) * k1)
            k3 = mid @ (eye + (0.5 * h) * k2)
            k4 = end @ (eye + h * k3)
            y = (eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) @ y
            k += 1
        out.append(y[..., 0])
    return unvectorize(np.array(out) @ FROM_BLOCH.T)


# sin gamma, sin r and ramped theta on intervals of 1 to 7 substeps of 0.01,
# with one interval of 12 substeps in the middle
CHUNKED_SCHEDULE = BathSchedule(gamma=Sinusoid(1.0, 0.5, 2.0), r=Sinusoid(1.5, 0.3, 1.3, 0.2),
                                theta=Ramp(0.3, 0.7))
CHUNKED_GRID = np.concatenate([[0.0], np.cumsum(
    0.01 * np.insert(1.0 + (0.37 * np.arange(40)) % 6.0, 20, 12.0))])
CHUNKED_RHO0 = np.stack([pure_state(math.sqrt(0.3) * np.exp(0.4j), math.sqrt(0.7)),
                         excited_state(), pure_state(1.0 / ROOT2, 1j / ROOT2)])


def test_vacuum_rate_matrix_is_exact():
    rate = build_rate_operator(BathPoint(1.0, 0.0, 0.0))
    want = np.array(
        [
            [-1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -0.5, 0.0],
            [0.0, 0.0, 0.0, -0.5],
        ],
        dtype=complex,
    )
    assert np.array_equal(rate, want)


def test_population_block_and_cross_coupling():
    rate = build_rate_operator(BathPoint(1.0, 1.0, ROOT2))
    assert np.allclose(rate[:2, :2], [[-2.0, 1.0], [2.0, -1.0]], rtol=0, atol=1e-15)
    assert rate[2, 3] == pytest.approx(-ROOT2, rel=1e-15)
    assert rate[3, 2] == pytest.approx(-ROOT2, rel=1e-15)
    assert rate[2, 2] == pytest.approx(-1.5, rel=1e-15)


def test_cross_couplings_are_conjugate():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, m = bath_params(float(rng.uniform(0.0, 1.5)), float(rng.uniform(-7.0, 7.0)))
        rate = build_rate_operator(BathPoint(1.3, n, m))
        assert rate[2, 3] == np.conj(rate[3, 2])


def test_block_structure():
    n, m = bath_params(0.8, 0.9)
    rate = build_rate_operator(BathPoint(1.7, n, m))
    zero = np.zeros((2, 2))
    assert np.array_equal(rate[:2, 2:], zero)
    assert np.array_equal(rate[2:, :2], zero)
    # population columns sum to zero: the flow is trace preserving
    assert np.allclose(rate[:2, :2].sum(axis=0), 0.0, atol=1e-16)


def test_construction_methods_agree():
    rng = np.random.default_rng(2)
    points = [
        (rng.uniform(0.05, 3.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 7.0))
        for _ in range(100)
    ]
    assert check_construction_equality(points, 1e-14).status == "PASS"


def test_batch_equals_per_point_operators():
    rng = np.random.default_rng(3)
    g = rng.uniform(0.05, 3.0, 40)
    n, m = np.vectorize(bath_params)(rng.uniform(0.0, 1.5, 40), rng.uniform(0.0, 7.0, 40))
    batch = rate_matrix_batch(g, n, m)
    assert batch.shape == (40, 4, 4)
    assert np.array_equal(batch, [build_rate_operator(BathPoint(*p)) for p in zip(g, n, m)])
    assert rate_matrix_batch(1.0, 0.5, 0.2j).shape == (4, 4)


def test_spectrum_vacuum():
    eigs = spectrum(build_rate_operator(BathPoint(1.0, 0.0, 0.0)))
    assert np.allclose(eigs, [0.0, -0.5, -0.5, -1.0], rtol=0, atol=1e-14)


def test_spectrum_frozen_cases():
    eigs = spectrum(build_rate_operator(BathPoint(1.0, 1.0, ROOT2)))
    want = [0.0, -0.08578643762690485, -2.914213562373095, -3.0]
    assert np.allclose(eigs.real, want, rtol=1e-13, atol=1e-13)
    assert np.allclose(eigs.imag, 0.0, atol=1e-13)

    n, m = bath_params(0.1, 0.0)
    eigs = spectrum(build_rate_operator(BathPoint(1.0, n, m)))
    want = [0.0, -0.40936537653899097, -0.6107013790800849, -1.020066755619076]
    assert np.allclose(eigs.real, want, rtol=1e-12, atol=1e-14)


def test_spectrum_matches_rate_formulas():
    assert check_spectrum_formulas(17, 50, 1e-10).status == "PASS"


def test_spectrum_of_a_stack_is_the_spectrum_of_each_matrix():
    rng = np.random.default_rng(29)
    g = rng.uniform(0.0, 3.0, 24)
    n, m = np.vectorize(bath_params)(rng.uniform(0.0, 2.0, 24), rng.uniform(0.0, 7.0, 24))
    # thermal points (M = 0), the vacuum among them: -gamma(N+1/2) is a
    # double eigenvalue, and the tie is broken by the imaginary parts
    g[:6], n[:6], m[:6] = 1.0, [0.0, 0.0, 0.5, 1.0, 3.0, 20.0], 0.0
    stack = rate_matrix_batch(g, n, m)
    eigs = spectrum(stack)
    assert eigs.shape == (24, 4)
    for i in range(24):
        assert np.array_equal(eigs[i], spectrum(stack[i]))
    assert np.array_equal(eigs[:6, 1].real, eigs[:6, 2].real)
    assert np.array_equal(spectrum(stack.reshape(4, 6, 4, 4)), eigs.reshape(4, 6, 4))
    assert spectrum(stack[:0]).shape == (0, 4)


def test_spectrum_real_parts_nonpositive():
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = float(rng.uniform(0.1, 3.0))
        n, m = bath_params(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 7.0)))
        eigs = spectrum(build_rate_operator(BathPoint(g, n, m)))
        assert np.max(eigs.real) <= 1e-12 * g * (2 * n + 1)


def test_steady_state_vacuum_is_ground():
    rho = steady_state(build_rate_operator(BathPoint(1.0, 0.0, 0.0)))
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)


def test_steady_state_populations():
    rho = steady_state(build_rate_operator(BathPoint(1.0, 1.0, ROOT2)))
    assert np.allclose(rho, np.diag([1.0 / 3.0, 2.0 / 3.0]), atol=1e-12)

    n, m = bath_params(0.1, 0.0)
    rho = steady_state(build_rate_operator(BathPoint(0.7, n, m)))
    want = np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)])
    assert np.allclose(rho, want, atol=1e-12)


def test_steady_state_ignores_m():
    with_m = steady_state(build_rate_operator(BathPoint(1.0, 1.0, ROOT2)))
    without = steady_state(build_rate_operator(BathPoint(1.0, 1.0, 0.0)))
    assert np.max(np.abs(with_m - without)) <= 1e-12


def test_steady_state_degenerate_generator():
    with pytest.raises(NumericalFailureError):
        steady_state(build_rate_operator(BathPoint(0.0, 0.0, 0.0)))


def test_reference_vacuum_decay():
    sched = BathSchedule(gamma=Constant(1.0))
    grid = uniform_grid(1.0, 0.25)
    states = integrate_reference(sched, excited_state(), grid)
    assert states[-1][0, 0].real == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert pauli_expectations(states)[-1, 2] == pytest.approx(2.0 * math.exp(-1.0) - 1.0, abs=1e-10)


def test_reference_reaches_steady_state():
    # diagonal initial data: every decaying component is fast at these rates
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(math.asinh(1.0)))
    point = sched.at(0.0)
    assert point.n_param == pytest.approx(1.0, rel=1e-14)
    grid = uniform_grid(30.0, 0.5)
    states = integrate_reference(sched, excited_state(), grid)
    target = steady_state(build_rate_operator(point))
    assert trace_distance(states[-1], target) <= 1e-8


def test_reference_trace_preserved_on_decaying_schedule():
    sched = BathSchedule(gamma=Constant(1.0), r=ExpDecay(0.1, 0.1))
    grid = uniform_grid(30.0, 0.25)
    states = integrate_reference(sched, excited_state(), grid)
    assert float(np.max(trace_error(states))) <= 1e-10
    assert float(np.max(hermiticity_defect(states))) <= 1e-12
    assert float(np.min(min_eigenvalue(states))) >= -1e-10


def test_reference_fourth_order_convergence():
    # dt_out divisible by both steps so halving the step halves the substep
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    n, m = bath_params(0.6, 0.0)
    grid = uniform_grid(2.0, 0.2)
    mu, nu = math.sqrt(0.2), math.sqrt(0.8)
    rho0 = np.array([[mu * mu, mu * nu], [mu * nu, nu * nu]], dtype=complex)

    def sup_error(step):
        states = integrate_reference(sched, rho0, grid, step)
        sx, sy, sz = autonomous_expectations(rho0, 1.0, n, m.real, grid).T
        exact = 0.5 * np.array([[1.0 + sz, sx - 1j * sy], [sx + 1j * sy, 1.0 - sz]])
        return float(np.max(trace_distance(states, np.moveaxis(exact, -1, 0))))

    e_coarse = sup_error(0.1)
    e_fine = sup_error(0.05)
    assert e_coarse / e_fine == pytest.approx(16.0, rel=0.5)


def test_reference_rejects_bad_initial_state():
    sched = BathSchedule(gamma=Constant(1.0))
    grid = uniform_grid(1.0, 0.5)
    with pytest.raises(InvalidInputError):
        integrate_reference(sched, np.diag([0.7, 0.7]).astype(complex), grid)
    with pytest.raises(InvalidInputError):
        integrate_reference(sched, np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex), grid)
    with pytest.raises(InvalidInputError):
        integrate_reference(sched, excited_state(), grid, step=0.75)  # step > spacing


@pytest.mark.filterwarnings("error")
def test_reference_detects_blowup():
    sched = BathSchedule(gamma=Constant(1e80))
    grid = uniform_grid(3.0, 1.0)
    with pytest.raises(NumericalFailureError, match="t = "):
        integrate_reference(sched, excited_state(), grid, step=1.0)
    # gamma h = 5 is outside RK4's stable range: the state grows about 14-fold
    # per substep until a matmul overflows, reported as a time, not a warning
    sched = BathSchedule(gamma=Constant(100.0))
    with pytest.raises(NumericalFailureError, match=r"^reference state non-finite at t = 13\.55$"):
        integrate_reference(sched, excited_state(), uniform_grid(30.0, 0.05), 0.05)


@pytest.mark.filterwarnings("error")
def test_reference_blowup_names_the_first_nonfinite_time():
    # gamma = max(1e120 (t - 1), 0) is 0 on [0, 1], so row 1 stays the initial
    # state; on the second interval one RK4 step grows like (gamma h)^3 and
    # overflows (the linear equation needs a larger gamma than the gauge flow)
    sched = BathSchedule(gamma=Ramp(-1e120, 1e120), r=Constant(0.1))
    with pytest.raises(NumericalFailureError, match=r"non-finite at t = 2\.0$"):
        integrate_reference(sched, excited_state(), np.array([0.0, 1.0, 2.0]), step=1.0)


@pytest.mark.parametrize("limit", [5, integrate.CHUNK_SUBSTEPS, 10**9])
def test_reference_equals_the_plain_sequential_loop(monkeypatch, limit):
    monkeypatch.setattr(integrate, "CHUNK_SUBSTEPS", limit)
    got = integrate_reference(CHUNKED_SCHEDULE, CHUNKED_RHO0, CHUNKED_GRID, 0.01)
    want = _plain_reference(CHUNKED_SCHEDULE, CHUNKED_RHO0, CHUNKED_GRID, 0.01)
    assert float(np.max(np.abs(got - want))) <= 1e-14
    # each state of the stack gets the bits it gets alone
    for k, rho0 in enumerate(CHUNKED_RHO0):
        solo = integrate_reference(CHUNKED_SCHEDULE, rho0, CHUNKED_GRID, 0.01)
        assert np.array_equal(got[:, k], solo)
    # with one substep per interval there is no interval product to form,
    # only the prefix scan over the one-step matrices, which associates the
    # plain loop's products differently: within a few ulps of the plain loop
    # in Bloch coordinates (measured 2.2e-16)
    grid = uniform_grid(1.0, 0.01)
    got = integrate_reference(CHUNKED_SCHEDULE, CHUNKED_RHO0, grid, 0.01)
    want = _plain_bloch_reference(CHUNKED_SCHEDULE, CHUNKED_RHO0, grid, 0.01)
    assert float(np.max(np.abs(got - want))) <= 1e-15


# the six entries of the Bloch-coordinate operator that _bloch_blocks holds
BLOCKS = ([1, 1, 2, 2, 3, 3], [0, 1, 2, 3, 2, 3])


@pytest.mark.parametrize("nbar", [None, 0.7], ids=["squeezed", "thermal"])
def test_bloch_rates_are_the_rate_operator_in_bloch_coordinates(nbar):
    assert np.array_equal(FROM_BLOCH @ TO_BLOCH, np.eye(4))
    rng = np.random.default_rng(5)
    g = rng.uniform(0.0, 3.0, 64)
    if nbar is None:
        n = rng.uniform(0.0, 4.0, 64)
        m = rng.normal(size=64) + 1j * rng.normal(size=64)
    else:
        n, m = np.full(64, nbar), np.zeros(64, dtype=complex)
    blocks = _bloch_blocks(g, n, m)
    assert blocks.dtype == np.float64 and blocks.shape == (6, 64)
    assert blocks.flags.c_contiguous
    # exactly, not only within rounding: the six block entries, and exact
    # zeros everywhere else (the trace row and the entries coupling the blocks)
    bloch = TO_BLOCH @ rate_matrix_batch(g, n, m) @ FROM_BLOCH
    assert np.array_equal(np.moveaxis(bloch[:, BLOCKS[0], BLOCKS[1]], -1, 0), blocks)
    outside = np.ones((4, 4), dtype=bool)
    outside[BLOCKS] = False
    assert np.array_equal(bloch[:, outside], np.zeros((64, 10)))


def _embed(population, coherence):
    # a population row (p, q) and a coherence block's 2x2 entries as the 4x4
    # difference from I in Bloch coordinates (tr, sz, sx, sy)
    d = np.zeros(population[0].shape + (4, 4))
    d[..., 1, 0], d[..., 1, 1] = population
    d[..., 2:, 2:] = np.moveaxis(coherence, (0, 1), (-2, -1))
    return d


def test_block_laws_are_the_dense_law_on_the_embedded_matrices():
    # D followed by D' is D' + D + D' D on the 4x4 matrices; each block's own
    # law must give the same matrix, on 1 000 random pairs
    rng = np.random.default_rng(21)
    pop = rng.uniform(-1.0, 1.0, (2, 2, 1000))
    coh = rng.uniform(-1.0, 1.0, (2, 2, 2, 1000))
    d, d2 = _embed(pop[0], coh[0]), _embed(pop[1], coh[1])
    dense = d2 + d + d2 @ d
    blocks = _embed(_population_then(pop[0], pop[1]), _coherence_then(coh[0], coh[1]))
    assert float(np.max(np.abs(blocks - dense))) <= 1e-15


def test_reference_keeps_the_slow_quadrature_under_strong_squeezing():
    # at constant r = 3 the two coherence rates gamma (N + 1/2 -+ M) are
    # about 1.2e-3 and 202, so <sy> decays about 1.6e5 times slower than
    # <sx>.  Carried through its own four entries, the coherence block keeps
    # <sy> near the closed form (measured 9.4e-16 at t <= 5); carried as the
    # pair (p, q) of z -> p z + q conj(z) on z = <sx> + i<sy>, it forms the
    # slow rate from the two large ones at every step (measured 3.1e-14)
    sched = BathSchedule(gamma=Constant(1.0), r=Constant(3.0))
    rho0 = pure_state(math.sqrt(0.3) * np.exp(0.4j), math.sqrt(0.7))
    grid = uniform_grid(5.0, 0.05)
    g, n, m = (float(np.real(x[0])) for x in sched.params_on(np.array([0.0])))
    got = pauli_expectations(integrate_reference(sched, rho0, grid))
    want = autonomous_expectations(rho0, g, n, m, grid)
    assert float(np.max(np.abs(got[:, 1] - want[:, 1]))) <= 5e-15


def _imported_modules(module):
    source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported += ["%s.%s" % (node.module, a.name) for a in node.names] + [node.module or ""]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    return imported


def test_reference_route_imports_nothing_from_gaugeflow():
    # the reference is the oracle for the gauge flow, so it may share no code with it,
    # nor the generator form of the rate operator that the analytic route rests on:
    # it integrates the master equation's sandwich terms
    imported = _imported_modules(squeezebath.liouvillian)
    forbidden = {"gaugeflow", "spectral", "composite_generators"}
    assert not [m for m in imported if forbidden & set(m.split("."))], imported


def test_gauge_route_imports_nothing_from_liouvillian():
    # the converse: the gauge flow composes its own elements in gauge
    # coordinates and takes nothing from the reference
    imported = _imported_modules(squeezebath.gaugeflow)
    assert not [m for m in imported if "liouvillian" in m.split(".")], imported


def test_shared_integration_module_imports_neither_route():
    # both routes plan their substeps and pair their steps in integrate, so
    # it may take nothing from either route nor from the analytic generators
    imported = _imported_modules(integrate)
    forbidden = {"gaugeflow", "liouvillian", "spectral"}
    assert not [m for m in imported if forbidden & set(m.split("."))], imported


def test_routes_leave_the_chunk_walk_to_integrate():
    # each route is only a chunk stepper that integrate.walk_chunks drives:
    # the planning, the rows and the non-finite check are walk_chunks' alone
    for module in (squeezebath.gaugeflow, squeezebath.liouvillian):
        imported = _imported_modules(module)
        assert not [m for m in imported if "plan_integration" in m.split(".")], imported
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        assert "errstate" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_spectrum_and_steady_state_need_one_4x4_matrix():
    with pytest.raises(InvalidInputError, match=r"^expected a 4x4 rate matrix, got shape \(3, 3\)$"):
        spectrum(np.eye(3))
    with pytest.raises(InvalidInputError, match=r"^expected a 4x4 rate matrix, got shape \(2, 4, 4\)$"):
        steady_state(np.zeros((2, 4, 4)))
