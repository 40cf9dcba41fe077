"""Exception types shared across the package."""


class HalanayError(Exception):
    """Base class for all package-specific errors."""


class MlfDomainError(HalanayError, ValueError):
    """Raised when Mittag-Leffler parameters are outside the supported range."""


class ExprSyntaxError(HalanayError, ValueError):
    """Parse failure in a time-expression string.

    Attributes:
        position: 0-based character offset where parsing failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprEvalError(HalanayError, ArithmeticError):
    """Evaluation failure (domain error, division by zero, overflow).

    Attributes:
        fragment: the source fragment of the subexpression that failed.
    """

    def __init__(self, message, fragment):
        super().__init__(f"{message} in '{fragment}'")
        self.fragment = fragment


class InfeasiblePointError(HalanayError, ValueError):
    """A grid point violates the conditions required by the certificate."""


class StructureError(HalanayError, ValueError):
    """System matrices violate a required sign structure."""


class StepSizeError(HalanayError, ValueError):
    """Solver step size is incompatible with the delay or horizon."""


class ConfigError(HalanayError, ValueError):
    """Invalid run configuration.

    Attributes:
        errors: list of (field_path, message) pairs.
    """

    def __init__(self, errors):
        lines = [f"  {path}: {msg}" for path, msg in errors]
        super().__init__("invalid configuration:\n" + "\n".join(lines))
        self.errors = list(errors)
