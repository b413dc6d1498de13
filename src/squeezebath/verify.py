"""Self-contained verification suite behind the `verify` CLI command.

Each check recomputes one of the package's defining identities from scratch
(commutation relations, the rate operator against its generator form,
spectrum formulas, steady states, gauge trace identities, oracle agreement,
asymptotics) and reports the measured residual against its tolerance.
Every check runs under either mode of the run; the one skip is
coherence-symmetry where the run's squeeze phase is not 0, and it says so
in the report.  Four checks evolve fixed schedules (autonomous-consistency,
steady-approach, inversion-decay, decay-asymmetry): they run on fixed grids
at the default run's step, which no run's grid or step changes.  The suite
checks no input of the run on its own: the step and the controls are
refused by the run's integrations, in the one place and with the one
message that trajectory's refusal has.

Every check is a module-level function ``check_<name>`` that takes its
samples and tolerance and returns the CheckResult for the report line
``<name>`` (underscores read as dashes); check_eigenmode_consistency also
returns the biorthogonality line.  run_checks calls them with the samples of
the `verify` command, and the acceptance tests call them with larger ones.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from .algebra import (
    BASIS_LABELS,
    SM,
    SP,
    SZ,
    basis_matrix,
    commutator,
    composite_generators,
    lift_left,
    lift_right,
    vectorize,
)
from .bath import BathPoint, BathSchedule, Constant, ExpDecay, _Record, _squeezed, bath_params
from .errors import InvalidInputError, NumericalFailureError
from .gaugeflow import assemble_density, autonomous_expectations, evolve_gauge
from .integrate import default_step, uniform_grid
from .liouvillian import (
    build_rate_operator,
    integrate_reference,
    rate_matrix_batch,
    spectrum,
    steady_state,
)
from .spectral import (
    closed_form_spectrum,
    condition_residuals,
    eigen_modes,
    solve_transformation_conditions,
)
from .states import (
    check_density,
    hermiticity_defect,
    min_eigenvalue,
    pauli_expectations,
    pure_state,
    steady_populations,
    trace_distance,
    trace_error,
)

__all__ = [
    "CheckResult",
    "run_checks",
    "format_report",
    "figure_schedule",
    "figure_initial",
    "fitted_decay_rate",
    "check_commutators",
    "check_basis_actions",
    "check_adjoint_pairings",
    "check_construction_equality",
    "check_spectrum_formulas",
    "check_steady_state",
    "check_branch_conditions",
    "check_alpha_root_adjudication",
    "check_eigenmode_consistency",
    "check_zero_mode",
    "check_oracle_agreement",
    "check_gauge_trace_identities",
    "check_conservation_positivity",
    "check_coherence_symmetry",
    "check_autonomous_consistency",
    "check_steady_approach",
    "check_inversion_decay",
    "check_decay_asymmetry",
]

# Action of each composite generator on a 2x2 component matrix.
_ACTIONS = {
    "j0": lambda e: (SZ @ e + e @ SZ) // 2,
    "j_plus": lambda e: SP @ e @ SM,
    "j_minus": lambda e: SM @ e @ SP,
    "k0": lambda e: (SZ @ e - e @ SZ) // 2,
    "k_plus": lambda e: SP @ e @ SP,
    "k_minus": lambda e: SM @ e @ SM,
}

# Figure id -> (squeeze amplitude c1, complex initial phase on mu).  Each
# figure runs decaying squeezing r = c1 exp(-t/10) from a pure state whose
# coherence has the phase pi/3 (odd ids) or 0 (even ids).
_FIGURES = {
    1: (0.1, True), 2: (0.1, False),
    3: (0.3, True), 4: (0.3, False),
    5: (0.6, True), 6: (0.6, False),
}


def _figure(fig_id: int) -> tuple[float, bool]:
    if fig_id not in _FIGURES:
        raise InvalidInputError("figure id must be in 1..6, got %r" % (fig_id,))
    return _FIGURES[fig_id]


def figure_schedule(fig_id: int) -> BathSchedule:
    c1, _ = _figure(fig_id)
    return BathSchedule(gamma=Constant(1.0), r=ExpDecay(c1, 0.1), theta=Constant(0.0))


def figure_initial(fig_id: int) -> np.ndarray:
    _, complex_phase = _figure(fig_id)
    phase = math.pi / 3.0 if complex_phase else 0.0
    mu = math.sqrt(0.2) * complex(math.cos(phase), math.sin(phase))
    return pure_state(mu, math.sqrt(0.8))


_N_SAMPLES = (0.0, 0.01, 0.4, 1.0, 5.0)


class CheckResult(_Record):
    __slots__ = _fields = ("name", "status", "measured", "tolerance", "detail")

    def __init__(self, name: str, status: str, measured: float | None,
                 tolerance: float | None, detail: str = ""):
        # status is PASS, FAIL or SKIP
        self._set(name, status, measured, tolerance, detail)


def fitted_decay_rate(times, values, window: float = 4.0) -> float:
    """Exponential decay rate of |values| fitted over the early-time window.

    Least-squares slope of log|values| against time, restricted to t <=
    window and |value| > 1e-12 (to stay above the floating-point floor).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times <= window) & (np.abs(values) > 1e-12)
    if int(np.sum(mask)) < 3:
        raise NumericalFailureError("too few points above the noise floor to fit a rate")
    slope = np.polyfit(times[mask], np.log(np.abs(values[mask])), 1)[0]
    return -float(slope)


def _result(name, ok, measured, tolerance, detail="") -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", float(measured), tolerance, detail)


def check_commutators() -> CheckResult:
    """su(2) relations of both ladder triples, j-k commutation, and the sigma
    relations under the left and right lifts, in exact integer arithmetic."""
    gen = composite_generators()
    pairs = [
        (commutator(gen.j0, gen.j_plus), 2 * gen.j_plus),
        (commutator(gen.j0, gen.j_minus), -2 * gen.j_minus),
        (commutator(gen.j_plus, gen.j_minus), gen.j0),
        (commutator(gen.k0, gen.k_plus), 2 * gen.k_plus),
        (commutator(gen.k0, gen.k_minus), -2 * gen.k_minus),
        (commutator(gen.k_plus, gen.k_minus), gen.k0),
    ]
    js = (gen.j0, gen.j_plus, gen.j_minus)
    ks = (gen.k0, gen.k_plus, gen.k_minus)
    pairs += [(commutator(a, b), np.zeros((4, 4), dtype=int)) for a in js for b in ks]
    for s, sign in ((SP, 1), (SM, -1)):
        pairs.append((commutator(lift_left(SZ), lift_left(s)), 2 * sign * lift_left(s)))
        pairs.append((commutator(lift_right(SZ), lift_right(s)), -2 * sign * lift_right(s)))
    worst = max(int(np.max(np.abs(a - b))) for a, b in pairs)
    return _result("commutators", worst == 0, worst, 0.0, "exact integer identities")


def check_basis_actions() -> CheckResult:
    """Each generator maps each basis matrix as its sandwich product does."""
    worst = 0
    count = 0
    for name, matrix in composite_generators().items():
        for s, s_prime in BASIS_LABELS:
            e = basis_matrix(s, s_prime)
            got = matrix @ vectorize(e)
            want = vectorize(_ACTIONS[name](e))
            worst = max(worst, int(np.max(np.abs(got - want))))
            count += 1
    return _result(
        "basis-actions", worst == 0, worst, 0.0,
        "%d generator/basis products, exact" % count,
    )


def check_adjoint_pairings() -> CheckResult:
    """x_plus and x_minus are transposes of each other; x0 is symmetric."""
    gen = composite_generators()
    worst = max(
        int(np.max(np.abs(gen.j_plus.T - gen.j_minus))),
        int(np.max(np.abs(gen.k_plus.T - gen.k_minus))),
        int(np.max(np.abs(gen.j0.T - gen.j0))),
        int(np.max(np.abs(gen.k0.T - gen.k0))),
    )
    return _result("adjoint-pairings", worst == 0, worst, 0.0)


def check_construction_equality(points, tol: float, nbar: float = 0.0) -> CheckResult:
    """The rate operator the reference integrator runs (the master equation's
    sandwich terms) equals the paper's generator combination

        gamma [(N+1) j_minus + N j_plus - j0/2 - M k_minus - conj(M) k_plus
               - (2N+1)/2]

    entrywise at each (gamma, r, theta) of points, with N and M those of the
    occupation nbar (bath._squeezed).  Both sides are built for
    all points at once: rate_matrix_batch's (P, 4, 4) stack, and the
    combination broadcast over a (P, 1, 1) axis.  An empty set of points
    measures 0 and passes."""
    g, r, th = np.array(list(points), dtype=float).reshape(-1, 3).T
    n, m = _squeezed(r, th, nbar)
    rates = rate_matrix_batch(g, n, m)
    g, n, m = (x[:, None, None] for x in (g, n, m))
    gen = composite_generators()
    want = g * (
        (n + 1.0) * gen.j_minus
        + n * gen.j_plus
        - 0.5 * gen.j0
        - m * gen.k_minus
        - np.conj(m) * gen.k_plus
        - 0.5 * (2.0 * n + 1.0) * np.eye(4)
    )
    worst = float(np.max(np.abs(rates - want), initial=0.0))
    return _result("construction-equality", worst <= tol, worst, tol)


def check_spectrum_formulas(seed: int, samples: int, tol: float) -> CheckResult:
    """Eigenvalues match {0, -g(2N+1), -g(N+1/2-|M|), -g(N+1/2+|M|)} relative
    to g(2N+1), at random gamma in [0.1, 3) and r in [0, 1.5).  The samples
    come from the standard library's random.Random(seed), gamma then r for
    each sample: numpy's import has already loaded that module, so the draw
    imports nothing while the command runs.  One rate_matrix_batch stack
    holds all samples; one spectrum call gives their eigenvalues and one
    closed_form_spectrum call their closed forms."""
    draw = random.Random(seed).uniform
    pairs = [(draw(0.1, 3.0), draw(0.0, 1.5)) for _ in range(samples)]
    g, r = np.array(pairs, dtype=float).reshape(samples, 2).T
    n, m = _squeezed(r, 0.0)
    eigs = spectrum(rate_matrix_batch(g, n, m))
    want = closed_form_spectrum(g, n, m)
    scale = g * (2 * n + 1)
    worst = float(np.max(np.max(np.abs(eigs - want), axis=-1) / scale, initial=0.0))
    return _result("spectrum-formulas", worst <= tol, worst, tol, "%d random (gamma, r)" % samples)


def check_steady_state(gamma: float, n_values, tol: float) -> CheckResult:
    """The rate operator's null vector has populations N/(2N+1), (N+1)/(2N+1)
    at M = sqrt(N(N+1)) for each N in n_values."""
    worst = 0.0
    for n in n_values:
        m = math.sqrt(n * (n + 1.0))
        rho = steady_state(build_rate_operator(BathPoint(gamma, n, m)))
        worst = max(worst, float(np.max(np.abs(rho - steady_populations(n)))))
    return _result("steady-state", worst <= tol, worst, tol)


def check_branch_conditions(n_values, thetas, tol: float) -> CheckResult:
    """Both transformation branches solve their four steady conditions."""
    worst = 0.0
    for n in n_values:
        for th in thetas:
            m_unit = complex(math.cos(th), -math.sin(th))
            for branch in solve_transformation_conditions(n, th):
                worst = max(worst, max(condition_residuals(branch, n, m_unit)))
    return _result("branch-conditions", worst <= tol, worst, tol)


def check_alpha_root_adjudication() -> CheckResult:
    """N/(N+1), not the printed N/(2N+1), solves (N+1) x^2 + x - N = 0 at N=1."""
    n = 1.0
    correct = n / (n + 1.0)
    printed = n / (2.0 * n + 1.0)
    res_correct = abs((n + 1.0) * correct**2 + correct - n)
    res_printed = abs((n + 1.0) * printed**2 + printed - n)
    return _result(
        "alpha-root-adjudication",
        res_correct <= 1e-15 and res_printed > 0.1,
        res_correct,
        1e-15,
        "residual[N/(N+1)] = %.3e, residual[N/(2N+1)] = %.3e at N=1"
        % (res_correct, res_printed),
    )


def check_eigenmode_consistency(
    gamma: float, r: float, theta: float, tol: float
) -> tuple[CheckResult, CheckResult]:
    """Eigenmodes of both branches against the rate operator at one point:
    eigenvector residuals and eigenvalues (eigenmode-consistency), and the
    Gram matrix of duals against modes (biorthogonality)."""
    worst_vec = 0.0
    worst_spec = 0.0
    worst_gram = 0.0
    n, m = bath_params(r, theta)
    rate = build_rate_operator(BathPoint(gamma, n, m))
    eigs = spectrum(rate)
    for branch in solve_transformation_conditions(n, theta):
        modes = eigen_modes(gamma, n, m, branch)
        for md in modes:
            v = vectorize(md.mode)
            worst_vec = max(worst_vec, float(np.max(np.abs(rate @ v - md.beta * v))))
        betas = np.array(sorted((md.beta for md in modes), key=lambda z: (-z.real, z.imag)))
        worst_spec = max(worst_spec, float(np.max(np.abs(betas - eigs))))
        gram = np.array(
            [[np.vdot(vectorize(mi.dual), vectorize(mj.mode)) for mj in modes] for mi in modes]
        )
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(4)))))
    return (
        _result(
            "eigenmode-consistency",
            worst_vec <= tol and worst_spec <= tol,
            max(worst_vec, worst_spec),
            tol,
            "eigenvector residual and spectrum match, both branches",
        ),
        _result("biorthogonality", worst_gram <= tol, worst_gram, tol),
    )


def check_zero_mode(gamma: float, r: float, tol: float) -> CheckResult:
    """The stable branch has exactly one zero mode, and it is the steady state."""
    n, m = bath_params(r, 0.0)
    branch = solve_transformation_conditions(n, 0.0)[0]
    modes = eigen_modes(gamma, n, m, branch)
    zeros = [md for md in modes if abs(md.beta) <= 1e-12 * gamma * (2 * n + 1)]
    if len(zeros) != 1:
        return _result("zero-mode", False, len(zeros), 1.0, "expected exactly one zero beta")
    zm = zeros[0].mode / np.trace(zeros[0].mode)
    worst = float(np.max(np.abs(zm - steady_populations(n))))
    return _result("zero-mode", worst <= tol, worst, tol)


def check_oracle_agreement(states, ref, tol: float) -> CheckResult:
    """Sup over the grid of the trace distance between the assembled states
    and the reference states ref of the same run."""
    worst = float(np.max(trace_distance(states, ref)))
    return _result(
        "oracle-agreement", worst <= tol, worst, tol,
        "analytic assembly vs stepwise reference, sup over grid",
    )


def check_gauge_trace_identities(flow, tol: float) -> CheckResult:
    """f_gg (1 + a+) = 1 and f_ee + (1 + a+) b = 1 at every gauge state."""
    ap, b, f_ee, f_gg = flow[:, 0], flow[:, 1], flow[:, 4], flow[:, 5]
    worst = max(
        float(np.max(np.abs(f_gg * (1.0 + ap) - 1.0))),
        float(np.max(np.abs(f_ee + (1.0 + ap) * b - 1.0))),
    )
    return _result("gauge-trace-identities", worst <= tol, worst, tol)


def check_conservation_positivity(
    states, ref, tol_trace: float, tol_herm: float, tol_min_eig: float
) -> CheckResult:
    """Trace, Hermiticity and positivity of the assembled states and of the
    reference states ref; the measured value is the worst trace error."""
    both = np.concatenate([ref, states])
    worst_tr = float(np.max(trace_error(both)))
    worst_h = float(np.max(hermiticity_defect(both)))
    worst_eig = float(np.min(min_eigenvalue(both)))
    return _result(
        "conservation-positivity",
        worst_tr <= tol_trace and worst_h <= tol_herm and worst_eig >= -tol_min_eig,
        worst_tr,
        tol_trace,
        "max trace err %.3e, herm defect %.3e, min eig %.3e" % (worst_tr, worst_h, worst_eig),
    )


def check_coherence_symmetry(rho0, flow, ref, tol: float) -> CheckResult:
    """<sigma_y> stays zero along both routes when M and the coherence of rho0
    are real; ref is the reference states from rho0."""
    both = np.concatenate([ref, assemble_density(rho0, flow)])
    worst = float(np.max(np.abs(pauli_expectations(both)[:, 1])))
    return _result(
        "coherence-symmetry", worst <= tol, worst, tol,
        "sy with real initial coherences, both pipelines",
    )


def check_autonomous_consistency(rho0, grid, step, tol: float) -> CheckResult:
    """Closed form, gauge flow and reference agree for constant r in {0.1, 0.6}.

    run_checks passes its own grid of spacing 0.1 and the default run's
    step, whatever the run's grid and step.
    """
    worst = 0.0
    for r in (0.1, 0.6):
        const = BathSchedule(gamma=Constant(1.0), r=Constant(r))
        n, m = bath_params(r, 0.0)
        closed = autonomous_expectations(rho0, 1.0, n, m.real, grid)
        via_gauge = pauli_expectations(assemble_density(rho0, evolve_gauge(const, grid, step)))
        via_ref = pauli_expectations(integrate_reference(const, rho0, grid, step))
        for a, b in ((closed, via_gauge), (closed, via_ref), (via_gauge, via_ref)):
            worst = max(worst, float(np.max(np.abs(a - b))))
    return _result(
        "autonomous-consistency", worst <= tol, worst, tol,
        "closed form vs gauge flow vs reference, r in {0.1, 0.6}",
    )


def check_steady_approach(grid, step, tol: float) -> CheckResult:
    """Under constant r = 0.6 the state at the last grid time is the steady state.

    The initial coherence is real: every decaying component is then fast,
    whereas a complex phase would excite the slow quadrature
    gamma(N - M + 1/2) ~ 0.15, which has only decayed to ~4e-3 by t = 30.
    """
    const = BathSchedule(gamma=Constant(1.0), r=Constant(0.6))
    n, _ = bath_params(0.6, 0.0)
    even = pure_state(math.sqrt(0.2), math.sqrt(0.8))
    rho_end = assemble_density(even, evolve_gauge(const, grid, step)[-1])
    worst = trace_distance(rho_end, steady_populations(n))
    return _result(
        "steady-approach", worst <= tol, worst, tol,
        "constant r=0.6, real initial coherences, t = %g" % grid[-1],
    )


def check_inversion_decay(rho0, grid, flow) -> CheckResult:
    """<sigma_z> ends within 1e-3 of -1 on a flow of decaying squeezing."""
    sz = pauli_expectations(assemble_density(rho0, flow[-1]))[2]
    return _result(
        "inversion-decay", -1.0 <= sz <= -1.0 + 1e-3, sz, 1e-3,
        "sz(%g) = %.10f, expected in [-1, -1+1e-3]" % (grid[-1], sz),
    )


def check_decay_asymmetry(rho0, grid, flow) -> CheckResult:
    """<sigma_y> decays slower than <sigma_x> from a complex initial coherence."""
    exps = pauli_expectations(assemble_density(rho0, flow))
    rate_x = fitted_decay_rate(grid, exps[:, 0])
    rate_y = fitted_decay_rate(grid, exps[:, 1])
    return _result(
        "decay-asymmetry", rate_y < rate_x, rate_x - rate_y, None,
        "fitted rates: sx %.4f, sy %.4f (sy must decay slower)" % (rate_x, rate_y),
    )


def _report_name(check) -> str:
    return check.__name__[len("check_"):].replace("_", "-")


def _attempt(compute, *args):
    """compute(*args), or the exception that stopped it.  A failed input is
    passed on, so a flow that failed reaches every check that reads it."""
    for arg in args:
        if isinstance(arg, Exception):
            return arg
    try:
        return compute(*args)
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
        return exc


def _run(check, *args) -> list[CheckResult]:
    """The results of check(*args); a check that raises, or whose input
    failed, is reported as one FAIL line naming the exception."""
    out = _attempt(check, *args)
    if isinstance(out, Exception):
        return [CheckResult(_report_name(check), "FAIL", None, None, "raised %r" % (out,))]
    return list(out) if isinstance(out, tuple) else [out]


def run_checks(
    schedule: BathSchedule,
    rho0: np.ndarray,
    t_max: float,
    dt_out: float,
    dt_int: float,
    tol: dict[str, float],
) -> list[CheckResult]:
    """Run the full verification suite and return one result per check.

    rho0 is the run's one initial state; an unphysical one, or a grid that
    uniform_grid refuses, is refused up front.  The step, the substep
    counts and the controls are refused by the run's own two integrations
    where their chunk walks meet them: an InvalidInputError from either is
    raised, with the message trajectory gives for the same input.  The
    controls on the grid are read only after that, as every grid time is
    then a node the walks checked.  The run's schedule and the fig-1
    schedule are each evolved once, the fig-1 schedule on the default run's
    grid and step (once in all when the run is that run); every check that
    reads one of these flows gets it from that evolution.  The
    run's reference is integrated once, for rho0 and its real-coherence twin
    in one stack.  A check whose input failed, one of these runs among
    them, is one FAIL line naming the exception.  Every check runs whatever
    the schedule's mode; coherence-symmetry is skipped where the squeeze
    phase is not 0 on the grid.  tol holds the CLI's five tol.* tolerances,
    by name.
    """
    rho0 = check_density(rho0, stack=False)
    grid = uniform_grid(t_max, dt_out)
    results: list[CheckResult] = []
    results += _run(check_commutators)
    results += _run(check_basis_actions)
    results += _run(check_adjoint_pairings)
    results += _run(
        check_construction_equality,
        itertools.product(
            np.linspace(0.2, 2.0, 6),
            np.linspace(0.0, 1.2, 6),
            np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False),
        ),
        1e-14,
    )
    results += _run(check_spectrum_formulas, 7, 25, 1e-10)
    results += _run(check_steady_state, 0.8, _N_SAMPLES, 1e-12)
    results += _run(check_branch_conditions, _N_SAMPLES, (0.0, 0.7, math.pi), 1e-12)
    results += _run(check_alpha_root_adjudication)
    results += _run(check_eigenmode_consistency, 1.0, 0.5, 0.7, 1e-10)
    results += _run(check_zero_mode, 1.0, 0.5, 1e-12)

    # same populations as rho0, coherence replaced by its modulus
    real_rho0 = rho0.copy()
    real_rho0[0, 1] = real_rho0[1, 0] = abs(real_rho0[0, 1])
    flow = _attempt(evolve_gauge, schedule, grid, dt_int)
    refs = _attempt(integrate_reference, schedule, np.stack([rho0, real_rho0]), grid, dt_int)
    for run in (flow, refs):
        if isinstance(run, InvalidInputError):  # the step, a substep count or a control
            raise run
    # every grid time is a node that the walks checked
    _, _, m_grid = schedule.params_on(grid)
    ref, real_ref = (refs, refs) if isinstance(refs, Exception) else refs.swapaxes(0, 1)
    states = _attempt(assemble_density, rho0, flow)
    results += _run(check_oracle_agreement, states, ref, tol["oracle"])
    results += _run(check_gauge_trace_identities, flow, tol["identity"])
    results += _run(
        check_conservation_positivity, states, ref,
        tol["trace"], tol["herm"], tol["min_eig"],
    )
    if np.any(m_grid.imag):
        results.append(CheckResult("coherence-symmetry", "SKIP", None, None,
                                   "squeeze phase is not 0 on this schedule"))
    else:
        results += _run(check_coherence_symmetry, real_rho0, flow, real_ref, 1e-9)

    # fixed inputs: the default run's grid and step, whatever the run's
    fig1 = figure_schedule(1)
    fixed_grid = uniform_grid(30.0, 0.05)
    fixed_step = default_step(fig1, fixed_grid)
    same_run = schedule == fig1 and dt_int == fixed_step and np.array_equal(grid, fixed_grid)
    fig1_flow = flow if same_run else _attempt(evolve_gauge, fig1, fixed_grid, fixed_step)
    results += _run(check_autonomous_consistency, rho0, uniform_grid(10.0, 0.1),
                    fixed_step, 1e-8)
    results += _run(check_steady_approach, fixed_grid, fixed_step, 1e-6)
    results += _run(check_inversion_decay, rho0, fixed_grid, fig1_flow)
    results += _run(check_decay_asymmetry, figure_initial(1), fixed_grid, fig1_flow)
    return results


def format_report(results: list[CheckResult], header: str = "") -> str:
    lines = []
    if header:
        lines.append(header)
        lines.append("")
    for res in results:
        if res.status == "SKIP":
            body = "skipped: %s" % res.detail
        else:
            if res.measured is None:
                body = res.detail
            elif res.tolerance is None:
                body = "measured %.3e" % res.measured
            elif res.tolerance == 0.0:
                body = "measured %.3e (exact)" % res.measured
            else:
                body = "measured %.3e, tolerance %.3e" % (res.measured, res.tolerance)
            if res.detail and res.measured is not None:
                body += " | " + res.detail
        # fixed-width name column keeps the report grep-friendly
        lines.append("  [%s] %-26s %s" % (res.status, res.name, body))
    passed = sum(r.status == "PASS" for r in results)
    failed = sum(r.status == "FAIL" for r in results)
    skipped = sum(r.status == "SKIP" for r in results)
    lines.append("")
    lines.append("summary: %d passed, %d failed, %d skipped" % (passed, failed, skipped))
    return "\n".join(lines) + "\n"
