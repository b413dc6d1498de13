"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and validation problems
(InvalidInputError) exit with code 1, runtime numerical problems
(NumericalFailureError) exit with code 2.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """Integration or linear algebra produced values that fail a runtime check.

    The message names the time (or parameter point) at which the failure was
    detected and the check that was violated.
    """
