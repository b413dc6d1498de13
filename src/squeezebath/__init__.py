"""Two-level atom in a time-dependent squeezed vacuum reservoir.

The package solves the atom's master equation two independent ways: an
analytic route that integrates four scalar gauge-parameter ODEs and assembles
the density matrix in closed form, and a brute-force route that steps the
vectorized master equation directly.  The two must agree, and the test suite
and the `squeezebath verify` command hold them to that.
"""

from .algebra import (
    GeneratorSet,
    composite_generators,
    lift_left,
    lift_right,
    unvectorize,
    vectorize,
)
from .bath import (
    BathPoint,
    BathSchedule,
    Constant,
    ExpDecay,
    Ramp,
    Sinusoid,
    bath_params,
)
from .errors import (
    HorizonError,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedScheduleError,
)
from .gaugeflow import (
    assemble_density,
    autonomous_expectations,
    autonomous_gauge,
    evolve_gauge,
)
from .integrate import uniform_grid
from .liouvillian import (
    build_rate_operator,
    integrate_reference,
    spectrum,
    steady_state,
)
from .spectral import (
    AsymptoticLimits,
    EigenMode,
    TransformationBranch,
    asymptotic_gauge_limits,
    condition_residuals,
    eigen_modes,
    solve_transformation_conditions,
)
from .states import check_density, pauli_expectations, pure_state, trace_distance

__version__ = "0.1.0"

__all__ = [
    "GeneratorSet",
    "composite_generators",
    "lift_left",
    "lift_right",
    "vectorize",
    "unvectorize",
    "BathPoint",
    "BathSchedule",
    "Constant",
    "ExpDecay",
    "Ramp",
    "Sinusoid",
    "bath_params",
    "HorizonError",
    "InvalidInputError",
    "NumericalFailureError",
    "UnsupportedScheduleError",
    "evolve_gauge",
    "autonomous_gauge",
    "assemble_density",
    "pauli_expectations",
    "autonomous_expectations",
    "uniform_grid",
    "build_rate_operator",
    "spectrum",
    "steady_state",
    "integrate_reference",
    "TransformationBranch",
    "EigenMode",
    "AsymptoticLimits",
    "solve_transformation_conditions",
    "condition_residuals",
    "eigen_modes",
    "asymptotic_gauge_limits",
    "check_density",
    "pure_state",
    "trace_distance",
    "__version__",
]
