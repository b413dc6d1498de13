"""Two-level atom in a time-dependent squeezed vacuum reservoir.

The package solves the atom's master equation two independent ways: an
analytic route that integrates four scalar gauge-parameter ODEs and assembles
the density matrix in closed form, and a brute-force route that steps the
vectorized master equation directly.  The two must agree, and the test suite
and the `squeezebath verify` command hold them to that.

Importing the package imports none of its modules: each exported name is
loaded from the module that defines it on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "GeneratorSet": "algebra",
    "composite_generators": "algebra",
    "lift_left": "algebra",
    "lift_right": "algebra",
    "vectorize": "algebra",
    "unvectorize": "algebra",
    "BathPoint": "bath",
    "BathSchedule": "bath",
    "Constant": "bath",
    "ExpDecay": "bath",
    "Ramp": "bath",
    "Sinusoid": "bath",
    "bath_params": "bath",
    "InvalidInputError": "errors",
    "NumericalFailureError": "errors",
    "evolve_gauge": "gaugeflow",
    "autonomous_gauge": "gaugeflow",
    "assemble_density": "gaugeflow",
    "autonomous_expectations": "gaugeflow",
    "uniform_grid": "integrate",
    "build_rate_operator": "liouvillian",
    "spectrum": "liouvillian",
    "steady_state": "liouvillian",
    "integrate_reference": "liouvillian",
    "TransformationBranch": "spectral",
    "EigenMode": "spectral",
    "solve_transformation_conditions": "spectral",
    "condition_residuals": "spectral",
    "eigen_modes": "spectral",
    "asymptotic_state": "spectral",
    "check_density": "states",
    "pauli_expectations": "states",
    "pure_state": "states",
    "trace_distance": "states",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _EXPORTS[name], __name__)
    globals()[name] = value = getattr(module, name)
    return value
