"""Exception hierarchy shared by all darksol modules.

Every class carries `status`, the outcome a run that raises it is
booked as (a sweep row's status); `_verdict_status` books a finished
run from its report's verdict, so a front run raises only when there
is no front. `EXIT_CODES` is the one table from a status to the
command-line exit code.
"""

EXIT_CODES = {
    "ok": 0,
    "validation_error": 2,
    "nonconvergence": 3,
    "property_violation": 4,
}


def _verdict_status(verified: bool) -> str:
    return "ok" if verified else "property_violation"


class DarksolError(Exception):
    """Base class for every error raised by this package.

    Unless a subclass says otherwise, the run failed to converge.
    """

    status = "nonconvergence"


class ValidationError(DarksolError):
    """Input rejected before any computation started.

    `reason` is a short machine-readable tag so callers can distinguish
    failure modes without parsing the message.
    """

    status = "validation_error"

    def __init__(self, message: str, reason: str = "invalid"):
        super().__init__(message)
        self.reason = reason


class GridMismatchError(ValidationError):
    """Grid spacing or alignment is incommensurate with the coefficient period."""

    def __init__(self, message: str):
        super().__init__(message, reason="incommensurate_grid")


class ExpressionError(ValidationError):
    """Coefficient expression failed to parse or used an unknown name."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message, reason="bad_expression")
        self.position = position


class ConfigError(ValidationError):
    """Run configuration file is missing keys or holds unusable values."""

    def __init__(self, message: str):
        super().__init__(message, reason="bad_config")


class NonConvergence(DarksolError):
    """Iteration budget exhausted before the stopping test was met."""

    def __init__(self, message: str, final_residual: float = float("nan"),
                 iterations: int = 0):
        super().__init__(message)
        self.final_residual = final_residual
        self.iterations = iterations


class SingularLinearization(DarksolError):
    """Linearized system is singular or the Newton correction diverges."""


class NoSignChange(DarksolError):
    """Profile has no sign change, so there is no front position to report."""

    status = "property_violation"


class StepDivergence(DarksolError):
    """Time step produced a non-finite or runaway field."""


class PhaseUndefined(DarksolError):
    """Phase history cannot be fitted (too few samples or vanishing modulus)."""

