"""One fresh benchmark process: import the package, optionally trace, run one CLI command.

Usage: python3 child.py SPEC_JSON RESULT_JSON

SPEC_JSON names the mode ("setup", "run" or "trace"), the source directory,
the CLI argv and the config overrides.  The result file receives setup_s,
wall_s, peak_rss_mb, the CLI exit code and, in trace mode, the spans.

setup_s is the import of squeezebath.cli plus config resolution.  wall_s is
cli.main(argv) alone.  peak_rss_mb is this process's ru_maxrss.  cal_s holds
speed samples (see SpeedSampler): the first is taken right after setup, and in
run mode the others during cli.main, whose wall_s excludes them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import resource
import signal
import sys
import time
import traceback

# numpy is imported inside the helpers below, never at module level, so that
# its import is timed as part of setup_s like a user's first import.


class SpeedSampler:
    """Samples the host's speed: the time of one repetition of a fixed loop.

    The loop (Python float arithmetic and 4x4 numpy products, about 5-9 ms)
    touches no squeezebath code and never changes, so its time follows only
    the speed the host gives this process at that moment.  Used as a context
    manager, an interval timer adds a sample every PERIOD seconds while the
    body runs; those samples cost about 2% of the body's time.
    """

    PERIOD = 0.25

    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.linspace(0.1, 1.6, 16).reshape(4, 4)
        self.times: list[float] = []

    def sample(self, *_signal_args):
        np, a = self._np, self._matrix
        t0 = time.perf_counter()
        s = 0.0
        for i in range(10000):
            s += i * 0.5
        x = a
        for _ in range(1500):
            x = a @ x
            x /= np.abs(x).max()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _substeps(grid, step) -> tuple[int, int]:
    """(substeps, nodes) that a fixed-step RK4 needs on grid with steps <= step.

    Computed from the arguments with the planning rule documented in
    squeezebath.integrate, so the count does not depend on program internals.
    """
    import numpy as np

    spans = np.diff(np.asarray(grid, dtype=float))
    if step is None or spans.size == 0:
        return 0, 0
    counts = np.maximum(1, np.ceil(spans / step - 1e-9).astype(int))
    return int(counts.sum()), int((2 * counts + 1).sum())


def _flow_key(args: dict) -> str:
    """(schedule, grid, step) identity of one flow evaluation."""
    import numpy as np

    grid = np.ascontiguousarray(args.get("grid"), dtype=float)
    return "%r|%s|%r" % (args.get("schedule"), hashlib.sha1(grid.tobytes()).hexdigest(), args.get("step"))


class Tracer:
    """Records one span per call of each wrapped function, kept in memory.

    A span is [name, start, end, parent index, info]; info holds counts
    computed from the call's arguments after the span has ended.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if probe is not None else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if probe is not None else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = probe(bound.arguments, result, rss0)
            return result

        return functools.wraps(fn)(traced)


def _flow_probe(args, result, rss0):
    substeps, nodes = _substeps(args.get("grid"), args.get("step"))
    return {
        "key": _flow_key(args),
        "substeps": substeps,
        "nodes": nodes,
        "rss_growth_mb": _maxrss_mb() - rss0,
    }


def _plan_probe(args, result, rss0):
    return {"substeps": _substeps(args.get("grid"), args.get("step"))[0]}


def _params_probe(args, result, rss0):
    import numpy as np

    return {"nodes": int(np.size(args.get("times")))}


def _csv_probe(args, result, rss0):
    path = args.get("path")
    with open(path, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    return {"bytes": os.path.getsize(path), "rows": rows}


# (candidate modules in lookup order, function, probe).  A span is named after
# the module that defines the function, so a function that moves between
# modules (pauli_expectations: gaugeflow -> states) keeps being traced.
TARGETS = [
    (("gaugeflow",), "evolve_gauge", _flow_probe),
    (("gaugeflow",), "assemble_density", None),
    (("states", "gaugeflow"), "pauli_expectations", None),
    (("liouvillian",), "integrate_reference", _flow_probe),
    (("liouvillian",), "build_rate_operator", None),
    (("liouvillian",), "spectrum", None),
    (("liouvillian",), "steady_state", None),
    (("states",), "trace_distance", None),
    (("states",), "min_eigenvalue", None),
    (("states",), "trace_error", None),
    (("states",), "hermiticity_defect", None),
    (("integrate",), "plan_substeps", _plan_probe),
    (("cli",), "compute_frame", None),
    (("cli",), "write_trajectory_csv", _csv_probe),
    (("verify",), "run_checks", None),
]
SPECTRAL_MODULE = "spectral"


def install(tracer: Tracer) -> list[str]:
    """Wrap every target where callers look it up; return the targets not found."""
    pkg = "squeezebath"
    modules = {
        name[len(pkg) + 1:]: mod for name, mod in list(sys.modules.items())
        if name.startswith(pkg + ".") and mod is not None
    }
    replacements = {}  # id(original) -> (original, wrapper)
    missing = []
    for candidates, attr, probe in TARGETS:
        home = next((m for m in candidates if hasattr(modules.get(m), attr)), None)
        if home is None:
            missing.append(attr)
            continue
        fn = getattr(modules[home], attr)
        replacements[id(fn)] = (fn, tracer.wrap("%s.%s" % (home, attr), fn, probe))
    spectral = modules.get(SPECTRAL_MODULE)
    for attr in getattr(spectral, "__all__", ()):
        fn = getattr(spectral, attr)
        if inspect.isfunction(fn):
            replacements[id(fn)] = (fn, tracer.wrap("spectral.%s" % attr, fn))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    # params_on is a method: patch it on the class
    bath = modules.get("bath")
    cls = getattr(bath, "BathSchedule", None)
    if cls is None or not hasattr(cls, "params_on"):
        missing.append("params_on")
    else:
        cls.params_on = tracer.wrap("bath.params_on", cls.params_on, _params_probe)
    return missing


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    t_start = time.perf_counter()
    cli = importlib.import_module("squeezebath.cli")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print("squeezebath imported from %s, not %s" % (cli.__file__, src), file=sys.stderr)
        return 3
    cli.resolve_config(dict(spec["overrides"]), spec["out"])
    result = {"setup_s": time.perf_counter() - t_start}
    sampler = SpeedSampler()
    sampler.sample()  # the host's speed right after setup
    if spec["mode"] != "setup":
        tracer = Tracer()
        if spec["mode"] == "trace":
            result["missing"] = install(tracer)
        # traced calls are not sampled, so that no sample lands inside a span
        timer = sampler if spec["mode"] == "run" else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with timer:
                result["exit_code"] = cli.main(spec["argv"])
        except Exception:  # noqa: BLE001 - a crash is a failed invocation, as a CLI exit 1
            traceback.print_exc()
            result["exit_code"] = 1
        result["wall_s"] = time.perf_counter() - t0 - math.fsum(sampler.times[1:])
        result["peak_rss_mb"] = _maxrss_mb()
        result["numpy"] = sys.modules["numpy"].__version__
        result["spans"] = tracer.spans
    result["cal_s"] = sampler.times
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
