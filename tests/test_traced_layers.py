"""Every layer that a perfbench workload requires records a call.

perfbench/run.py --trace 1 wraps the functions that the tracer targets and
fails its coverage guard when a workload's required layer records no call.
This test wraps the same functions the same way, with counting wrappers,
and runs the workloads' three commands on a small grid, so that a call path
that stops reaching a layer fails here and not only in a traced benchmark.
"""

import inspect
import sys

import pytest

from squeezebath import bath, cli, spectral

# Copied from perfbench/workloads.py: _CORE, _FRAME and the verify
# workload's further layers, the `required` lists of its workloads.
_CORE = (
    "gaugeflow.evolve_gauge", "gaugeflow.assemble_density",
    "liouvillian.integrate_reference", "bath.params_on", "integrate.plan_substeps",
    "states.trace_distance", "states.min_eigenvalue", "states.diagnostics",
)
_FRAME = ("cli.compute_frame", "cli.write_trajectory_csv")
REQUIRED = {
    "trajectory": _CORE + _FRAME,
    "figures": _CORE + _FRAME,
    "verify": _CORE + ("verify.run_checks", "spectral", "liouvillian.operator"),
}

# Copied from perfbench/child.py's TARGETS, each with the module that
# defines it, and perfbench/run.py's GROUPS, the layers made of several
# functions; every function in spectral.__all__ is the layer "spectral".
TARGETS = (
    ("gaugeflow", "evolve_gauge"), ("gaugeflow", "assemble_density"),
    ("states", "pauli_expectations"), ("liouvillian", "integrate_reference"),
    ("liouvillian", "build_rate_operator"), ("liouvillian", "spectrum"),
    ("liouvillian", "steady_state"), ("states", "trace_distance"),
    ("states", "min_eigenvalue"), ("states", "trace_error"),
    ("states", "hermiticity_defect"), ("integrate", "plan_substeps"),
    ("cli", "compute_frame"), ("cli", "write_trajectory_csv"), ("verify", "run_checks"),
)
GROUPS = {
    "states.diagnostics": ("pauli_expectations", "trace_distance", "min_eigenvalue",
                           "trace_error", "hermiticity_defect"),
    "liouvillian.operator": ("build_rate_operator", "spectrum", "steady_state"),
}


def _install(monkeypatch, seen):
    # as perfbench/child.py's install: each target replaced wherever a
    # module of the package binds it, and params_on on its class
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("squeezebath.") and m is not None]
    names = {}  # id(function) -> the layers a call of it records
    for home, attr in TARGETS:
        fn = getattr(sys.modules["squeezebath." + home], attr)
        names[id(fn)] = (fn, {"%s.%s" % (home, attr)}
                         | {group for group, funcs in GROUPS.items() if attr in funcs})
    for attr in spectral.__all__:
        fn = getattr(spectral, attr)
        if inspect.isfunction(fn):
            names[id(fn)] = (fn, {"spectral"})

    def counting(fn, layers):
        def counted(*args, **kwargs):
            seen.update(layers)
            return fn(*args, **kwargs)
        return counted

    wrappers = {key: counting(fn, layers) for key, (fn, layers) in names.items()}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = names.get(id(value))
            if hit is not None and hit[0] is value:
                monkeypatch.setattr(mod, attr, wrappers[id(value)])
    monkeypatch.setattr(bath.BathSchedule, "params_on",
                        counting(bath.BathSchedule.params_on, {"bath.params_on"}))


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_every_required_layer_records_a_call(monkeypatch, tmp_path, command):
    seen = set()
    _install(monkeypatch, seen)
    small = [] if command == "verify" else ["--grid.t_max=2"]
    assert cli.main([command, "--out", str(tmp_path)] + small) == 0
    assert sorted(set(REQUIRED[command]) - seen) == []
