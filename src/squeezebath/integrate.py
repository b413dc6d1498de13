"""Grid and substep bookkeeping for the fixed-step classic Runge-Kutta loops.

Both integrators in this package (the linear reference integrator and the
nonlinear gauge-parameter flow) use the classic 4th-order scheme with a fixed
substep.  Unless a caller sets one, the step is default_step's, 1e-2 over
the fastest relaxation rate gamma (2N + 1) the controls can reach up to the
grid's end or how fast they vary, which keeps each route within 1e-10 of
the exact solution in any Pauli expectation; the CLI's grid.dt_int=auto
resolves to that number too.  Each output interval [t_i, t_{i+1}] is cut
into m equal substeps of width h <= step, and the right-hand side is
evaluated on the 2m+1 node times t_i + j*h/2, of which neighbouring
intervals share the boundary node.  Both integrators walk the grid in
chunks of whole intervals holding at most CHUNK_SUBSTEPS substeps and one
substep count m.  A chunk's nodes are planned, and the bath controls
evaluated on them in one vectorized pass, only when the chunk is reached,
so the memory an integration needs beside its output rows does not grow
with the horizon.

walk_chunks is that walk, for both integrators.  Each passes two
functions and reduces by two shared ones in its own composition law.  Its
per-chunk function takes a chunk's RK4 steps at once, as a (..., K, m)
stack of K intervals by m steps, and pairwise_products multiplies each
interval's steps by neighbouring pairs.  The rows are joined a row block
at a time, the run of chunks that first reaches CHUNK_SUBSTEPS intervals
or the grid's end, so the chunks bound the RK4 stacks and the row blocks
the number of scans.  Its per-block function joins the block's interval
products by prefix_products into the product from the block's start to
each of its grid times, and one batched product applies the state at the
block's start to all of them.  Both reductions work on the last axis by strided or contiguous
slices, with no index arrays and nothing cached.
Grids whose row or substep counts would exceed MAX_ROWS or
MAX_INTERVAL_SUBSTEPS are refused before anything is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import _Record, _squeezed
from .errors import InvalidInputError, NumericalFailureError

__all__ = ["SubstepPlan", "uniform_grid", "plan_substeps", "default_step", "check_grid",
           "plan_integration", "walk_chunks", "fastest_rate", "pairwise_products",
           "prefix_products", "CHUNK_SUBSTEPS", "MAX_ROWS", "MAX_INTERVAL_SUBSTEPS"]

# Substeps per chunk of plan_integration, and intervals per row block of
# walk_chunks.  Larger chunks cost fewer numpy calls per substep but hold
# larger RK4 stacks.  On long_horizon's grid at seed 0 (48 000 substeps,
# 8 per interval; a 2-vCPU Xeon, numpy 2.4), each route run once in a fresh
# process per value, the values' order rotating from round to round: over
# 24 rounds 4096 took a median 0.91 of 2048's time (faster in 21) and
# peaked 2.3 MB higher (33.7 against 36.0 MB); over 16 rounds of 2048 /
# 4096 / 8192, 4096 took 0.91 and 8192 0.95 of 2048's time (each faster in
# 12) and they peaked 2.2 and 6.6 MB higher.  Host-speed swings spread the
# single-process times by about 25%.  4096's 2.3 MB is 7% of that peak,
# more than perfbench lets peak memory grow, so 2048 stays.
CHUNK_SUBSTEPS = 2048

# Largest output grid uniform_grid plans.  With the integrations chunked, the
# rows are what grows with the horizon: a trajectory run peaked at 37.8 MB with
# 10 001 rows, 75.7 MB with 100 001 and 116.7 MB with 200 001 (0.43-0.45 kB
# per row over 31 MB at rest), so 800 000 rows stay near 390 MB, under 1 GB.
MAX_ROWS = 800_000

# Most substeps plan_substeps cuts one grid interval into.  An interval is
# never split across chunks.  Inside one the gauge route holds 840 B per
# substep and the reference 440 B, so the gauge route sets the peak, and
# 400 000 substeps stay near 336 MB.
MAX_INTERVAL_SUBSTEPS = 400_000


def uniform_grid(t_max: float, dt: float) -> np.ndarray:
    """Evenly spaced output times 0, dt, 2 dt, ..., t_max.

    The grid may hold at most MAX_ROWS times, and t_max must be an integer
    multiple of dt (within a relative 1e-9).
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise InvalidInputError("t_max must be finite and > 0, got %r" % (t_max,))
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError("dt must be finite and > 0, got %r" % (dt,))
    # compared as a float before any cast: t_max / dt may exceed any int
    rows = np.rint(t_max / dt) + 1.0
    if rows > MAX_ROWS:
        raise InvalidInputError(
            "grid of %.15g rows exceeds the limit of %d rows" % (rows, MAX_ROWS)
        )
    n = int(rows) - 1
    if n < 1 or abs(n * dt - t_max) > 1e-9 * t_max:
        raise InvalidInputError(
            "t_max = %r is not an integer multiple of dt = %r" % (t_max, dt)
        )
    return np.linspace(0.0, t_max, n + 1)


def check_grid(grid: np.ndarray) -> np.ndarray:
    """Validate an output grid: 1-D, starting at 0, strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidInputError("grid must be a non-empty 1-D array of times")
    if not np.all(np.isfinite(grid)):
        raise InvalidInputError("grid times must be finite")
    if grid[0] != 0.0:
        raise InvalidInputError("grid must start at t = 0, got %r" % (grid[0],))
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise InvalidInputError("grid times must be strictly increasing")
    return grid


class SubstepPlan(_Record):
    """Substep layout for one grid.

    Interval i is cut into counts[i] substeps of width widths[i].  Substep k
    of the grid runs from node 2k over the midpoint node 2k+1 to the end node
    2k+2, the start node of substep k+1, so grid time i+1 is exactly node
    2 cumsum(counts)[i] and a one-point grid plans the single node 0.
    """

    __slots__ = _fields = ("nodes", "counts", "widths")

    def __init__(self, nodes: np.ndarray, counts: np.ndarray, widths: np.ndarray):
        self._set(nodes, counts, widths)


def _substep_counts(spans: np.ndarray, step: float) -> np.ndarray:
    if not step > 0.0:
        raise InvalidInputError("step must be > 0, got %r" % (step,))
    # compared as floats before the cast: spans / step may exceed any int,
    # or overflow to inf, which is refused below
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(spans / step - 1e-9))
    if np.any(counts > MAX_INTERVAL_SUBSTEPS):
        raise InvalidInputError(
            "an interval of %.15g substeps exceeds the limit of %d substeps per interval"
            % (np.max(counts), MAX_INTERVAL_SUBSTEPS)
        )
    return counts.astype(int)


def plan_substeps(grid: np.ndarray, step: float) -> SubstepPlan:
    """Cut every grid interval into equal substeps no wider than step."""
    spans = np.diff(grid)
    counts = _substep_counts(spans, step)
    widths = spans / counts
    sizes = 2 * counts
    # node j < 2m of an interval is t0 + j * span / (2m), exactly as in
    # np.linspace(t0, t1, 2m + 1); its node 2m is the next interval's node 0
    j = np.arange(int(np.sum(sizes))) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    nodes = j * np.repeat(spans / sizes, sizes) + np.repeat(grid[:-1], sizes)
    return SubstepPlan(nodes=np.append(nodes, grid[-1]), counts=counts, widths=widths)


def default_step(schedule, grid: np.ndarray) -> float:
    """The integrator substep for a schedule on an output grid.

    1e-2 over the fastest rate, never wider than the smallest grid spacing:
    the spacing where nothing moves, or inf on a one-point grid.  The
    fastest rate is the largest of peak gamma times (2N + 1) at peak r, each
    control's own variation_rate (|rate| of an ExpDecay, |omega| of a
    Sinusoid, 0 otherwise) and theta's speed, at which the phase of M = |M|
    exp(-i theta) turns, weighed by min(1, 2|M|) at peak r.  N and |M| are
    the reservoir formula's (bath._squeezed): N = nbar + (2 nbar + 1)
    sinh(r)^2 and 2|M| = (2 nbar + 1) sinh 2r, which is 0 at r = 0 (the
    CLI's schedule.mode=thermal, where only gamma moves).  Each number
    is the controls' closed-form peak over [0, t_end] (their peak and speed
    methods), so a rate that the controls reach only between grid times
    counts too.

    The solution relaxes at rates up to gamma (2N + 1)
    (closed_form_spectrum), and RK4's error follows the step times that
    rate.  The target is 1e-10 in any Pauli expectation on either route, 10x
    below the 1e-9 to which perfbench pins its outputs.  Measured against
    autonomous_expectations on constant schedules (r in {0, 0.1, 0.3, 0.6,
    1, 2}, gamma in {0.3, 1}, t = 30): at most 6.2e-11, at gamma = 1, r = 0.
    On the long_horizon workload's schedule to t = 300 (step 6.83e-3), step
    halving estimates 5.3e-11 on the gauge route and 2.6e-11 on the
    reference.  The rule reads time in units of the fastest rate, so a run
    with every rate times c on the grid over c plans the same substeps.
    The controls are first evaluated on the grid, which refuses a bad value
    there with params_on's message; a rate past the float range is refused
    too.
    """
    grid = check_grid(grid)
    schedule.params_on(grid)  # refuses a bad control at a grid time, with its message
    t_end = float(grid[-1])
    gamma = schedule.gamma.peak(t_end)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        r = schedule.r.peak(t_end)
        n = _squeezed(r, 0.0, schedule.nbar)[0]
        # the phase moves M at |M| |theta'|, little under weak squeezing;
        # 2|M| as (nbar + 1/2) 2 sinh 2r, finite and exactly sinh 2r at nbar = 0
        turn = schedule.theta.speed(t_end) * min(
            1.0, float((schedule.nbar + 0.5) * (2.0 * np.sinh(2.0 * r))))
        fastest = max(float(gamma * (2.0 * n + 1.0)),
                      *(c.variation_rate for c in (schedule.gamma, schedule.r, schedule.theta)),
                      turn)
    if not fastest < math.inf:
        raise InvalidInputError("relaxation rate gamma (2N + 1) exceeds the float range")
    step = 1e-2 / fastest if fastest > 0.0 else math.inf
    if grid.size > 1:
        step = min(step, float(np.min(np.diff(grid))))
    return step


def fastest_rate(controls) -> float:
    """The largest relaxation rate gamma (2N + 1) among a chunk's controls
    (gamma, N, M), refused past the float range as default_step refuses it."""
    g, n, _ = controls
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        rate = float(np.max(g * (2.0 * n + 1.0)))
    if not rate < math.inf:  # nan at gamma = 0 and 2N+1 = inf too
        raise InvalidInputError("relaxation rate gamma (2N + 1) exceeds the float range")
    return rate


def plan_integration(schedule, grid: np.ndarray, step: float | None):
    """The checked grid and an iterator over its chunks of substeps.

    The preamble of walk_chunks.  step must be > 0 and no wider
    than the smallest grid spacing; None means default_step(schedule, grid).
    Both are checked here, before any chunk is planned.

    The iterator yields (i0, plan, (gamma, N, M)) for each run of whole grid
    intervals i0 .. i1 - 1 of one substep count holding at most
    CHUNK_SUBSTEPS substeps (an interval holding more is a chunk by
    itself): plan is
    plan_substeps(grid[i0 : i1 + 1], step) and (gamma, N, M) the controls at
    its nodes.  Chunk nodes are bitwise the nodes the whole grid would plan,
    and consecutive chunks share their boundary node.  A one-point grid
    yields one chunk of the single node.  An invalid control is refused when
    the chunk holding its first bad node is evaluated.
    """
    grid = check_grid(grid)
    if step is None:
        step = default_step(schedule, grid)
    elif grid.size > 1:
        spacing = float(np.min(np.diff(grid)))
        if step > spacing * (1.0 + 1e-9):
            raise InvalidInputError(
                "internal step %r exceeds smallest grid spacing %r" % (step, spacing)
            )
    return grid, _chunks(schedule, grid, step, _substep_counts(np.diff(grid), step))


def _chunks(schedule, grid: np.ndarray, step: float, counts: np.ndarray):
    done = np.concatenate(([0], np.cumsum(counts)))  # substeps before grid time i
    i0 = 0
    # up to each grid time where the substep count changes, then the last one
    for end in np.append(np.flatnonzero(np.diff(counts)) + 1, grid.size - 1).tolist():
        while True:
            i1 = int(np.searchsorted(done, done[i0] + CHUNK_SUBSTEPS, side="right")) - 1
            i1 = min(max(i1, i0 + 1), end)
            plan = plan_substeps(grid[i0 : i1 + 1], step)
            yield i0, plan, schedule.params_on(plan.nodes)
            i0 = i1
            if i0 == end:
                break


def walk_chunks(schedule, grid, step: float | None, first: np.ndarray, chunk, block, what: str):
    """One row per grid time, row 0 first, the rows written a row block at a time.

    For each chunk of plan_integration(schedule, grid, step), K grid
    intervals of m substeps, chunk(controls, h, m) takes the controls
    (gamma, N, M) at the chunk's nodes and the K m substep widths h and
    returns (held, elements): held is kept until the next chunk's call
    returns, and elements is a tuple of arrays whose last axis holds the
    K intervals' products.  Before that call each chunk's fastest_rate is
    read, which refuses a rate past the float range.  A row block is the
    run of consecutive chunks that first reaches CHUNK_SUBSTEPS intervals
    or the end of the grid: its chunks' elements are joined along the last
    axis, and block(start, elements, rows), which may overwrite elements,
    writes the block's rows after its first grid time i0 into rows from
    start, row i0.  Overflow is not warned about: the rows, of shape
    (len(grid),) + first.shape, are refused by NumericalFailureError("<what>
    non-finite at t = ...") at the first non-finite one, where a blow-up
    began.
    """
    grid, chunks = plan_integration(schedule, grid, step)
    rows = np.empty((grid.size,) + first.shape, dtype=first.dtype)
    rows[0] = first
    # the row block's first grid time and its chunks' elements
    b0, pending = 0, []
    for i0, plan, controls in chunks:
        i1 = i0 + plan.counts.size
        fastest_rate(controls)  # refuses a rate past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            held, elements = chunk(controls, np.repeat(plan.widths, plan.counts),  # noqa: F841
                                   plan.counts.max(initial=1))
            pending.append(elements)
            if i1 - b0 >= CHUNK_SUBSTEPS or i1 == grid.size - 1:
                if len(pending) > 1:
                    elements = [np.concatenate(parts, -1) for parts in zip(*pending)]
                block(rows[b0], elements, rows[b0 + 1 : i1 + 1])
                # nothing of the block is held while the next chunk's steps are made
                b0, pending, elements = i1, [], None
    finite = np.isfinite(rows).reshape(grid.size, -1).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(
            "%s non-finite at t = %r" % (what, float(grid[np.argmin(finite)])))
    return rows


def pairwise_products(x: np.ndarray, combine, block: float = math.inf) -> np.ndarray:
    """The product of the steps on the last axis, by neighbouring pairs, level by level.

    Each level pairs steps 0 and 1, 2 and 3, ... by strided slices into
    combine(x[..., 0::2], x[..., 1::2]), an array, with combine(A, B) the
    product of step A followed by step B, and carries an odd last step up
    unchanged.  So m steps are one after ceil(log2(m)) levels; the last axis
    stays, of length 1 (0 for no steps), and a single step is x itself.
    With a power of two block given, the levels stop at runs of block
    steps: entry j is then the product of steps j block .. (j + 1) block - 1
    (the last run shorter), by the same pairs as the product of that run alone.
    """
    span = 1
    while x.shape[-1] > 1 and span < block:
        m = x.shape[-1]
        paired = combine(x[..., 0 : m - 1 : 2], x[..., 1:m:2])
        x = np.concatenate((paired, x[..., m - 1 :]), -1) if m % 2 else paired
        span *= 2
    return x


def prefix_products(x: np.ndarray, combine) -> np.ndarray:
    """Every prefix product of the steps on the last axis, in place, and x.

    The inclusive scan of Hillis and Steele (Blelloch, "Prefix sums and
    their applications", 1990): at each offset s = 1, 2, 4, ... below the
    length, x[..., s:] = combine(x[..., :-s], x[..., s:]), both operands
    read from the level's input, and the entries below s stay as they are.
    So after ceil(log2(length)) levels entry i is the product of steps
    0 .. i in order, and entry 0 is never touched.
    """
    size = x.shape[-1]
    s = 1
    while s < size:
        x[..., s:] = combine(x[..., : size - s], x[..., s:])
        s *= 2
    return x
