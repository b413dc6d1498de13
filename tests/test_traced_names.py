"""The function and parameter names that perfbench's tracer reads.

The tracer finds its spans by function name and reads arguments by
parameter name; a rename would otherwise surface only as a failed coverage
guard in `perfbench/run.py --trace 1`.
"""

import inspect

from squeezebath import cli, gaugeflow, integrate, liouvillian, verify


def _params(func):
    return list(inspect.signature(func).parameters)


def test_traced_signatures_keep_their_parameter_names():
    assert _params(gaugeflow.evolve_gauge) == ["schedule", "grid", "step"]
    assert _params(liouvillian.integrate_reference) == ["schedule", "rho0", "grid", "step"]
    assert _params(integrate.plan_substeps) == ["grid", "step"]
    assert _params(cli.write_trajectory_csv)[0] == "path"


def test_traced_functions_exist():
    for module, name in ((gaugeflow, "assemble_density"), (cli, "compute_frame"),
                         (verify, "run_checks")):
        assert callable(getattr(module, name, None)), name
