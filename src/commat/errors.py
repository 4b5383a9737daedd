"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error objects and map classes to exit codes (validation errors
exit 2, precondition errors exit 3, numerical failures exit 4).
"""

import operator


class CommatError(Exception):
    """Base class for all library errors."""

    code = "error"
    exit_code = 4

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json_dict(self) -> dict:
        return {"code": self.code, "message": str(self), "details": self.details}


class ValidationError(CommatError):
    """Input object violates a structural invariant."""

    code = "validation-error"
    exit_code = 2


def check_tolerance(name: str, value: float):
    """Raise ``ValidationError`` unless ``value`` is finite and non-negative (NaN fails too)."""
    if not 0.0 <= value < float("inf"):
        raise ValidationError(f"{name} must be finite and non-negative, got {value}")


class InvalidDimensionError(ValidationError):
    code = "invalid-dimension"


def check_integer(name: str, value, minimum: int | None) -> int:
    """``value`` as an int of at least ``minimum`` (if not None), else ``ValidationError``.

    The integer rule is ``operator.index``'s, without bools: numpy integers
    pass, and True or a float such as 2.0, 2.5 or NaN does not.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value}")
    return operator.index(value)


def check_dimension(d) -> int:
    """``d`` as an int of at least 2 by ``check_integer``'s rule, else ``InvalidDimensionError``."""
    try:
        return check_integer("dimension", d, 2)
    except ValidationError as err:
        raise InvalidDimensionError(str(err)) from None


class NotAStateError(ValidationError):
    code = "not-a-state"

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message, min_eigenvalue=min_eigenvalue)
        self.min_eigenvalue = min_eigenvalue


class InvalidOperatorError(ValidationError):
    code = "invalid-operator"


class PovmError(ValidationError):
    code = "invalid-povm"


class InvalidChannelError(ValidationError):
    code = "invalid-channel"


class DimensionMismatchError(ValidationError):
    code = "dimension-mismatch"


class ArityError(ValidationError):
    code = "arity-mismatch"


class CommMatrixError(ValidationError):
    code = "invalid-comm-matrix"


class ParseError(ValidationError):
    code = "parse-error"


class PreconditionError(CommatError):
    """A documented precondition of an operation does not hold."""

    code = "precondition-error"
    exit_code = 3


class FrameDeficientError(PreconditionError):
    code = "frame-deficient"


class InsufficientStatesError(PreconditionError):
    code = "insufficient-states"


class NotSelfTestableError(PreconditionError):
    code = "not-self-testable"


class NotInformationallyCompleteError(PreconditionError):
    code = "not-informationally-complete"


class NoWitnessExistsError(PreconditionError):
    code = "no-witness-exists"


class BadReferenceError(PreconditionError):
    code = "bad-reference"


class AmbiguityError(PreconditionError):
    code = "ambiguous-claim"


class DimensionViolationError(PreconditionError):
    code = "dimension-violation"


class InconsistentDimensionClaimError(PreconditionError):
    code = "inconsistent-dimension-claim"


class UnknownFixtureError(PreconditionError):
    code = "unknown-fixture"
