"""Exception hierarchy shared across the package."""
import copyreg


class RhlpSegError(Exception):
    """Base class for all package errors. Every one pickles with its type,
    message and attributes, so it can cross a process boundary."""

    def __reduce__(self):
        # rebuilt from args and attributes without calling __init__, whose
        # parameters differ from args in the subclasses that format a message
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NumericalError(RhlpSegError):
    """Numerical failure during fitting (CLI exit code 2)."""


class DataError(RhlpSegError):
    """Invalid user input or data file (CLI exit code 1)."""


class RankDeficientError(NumericalError):
    """Weighted design matrix is singular beyond tolerance."""


class InfeasibleError(NumericalError):
    """No feasible partition exists for the requested (n, K, min length)."""


class EmptyComponentError(NumericalError):
    """A mixture component lost all posterior mass during EM."""

    def __init__(self, component: int, iteration: int):
        self.component = component
        self.iteration = iteration
        super().__init__(
            f"component {component} starved (posterior mass < 1e-10) "
            f"at EM iteration {iteration}"
        )


class LengthMismatchError(DataError):
    """Two label sequences have different lengths."""


class ParseError(DataError):
    """CSV parsing failed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotonicTimeError(DataError):
    """Sample times are not strictly increasing."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"time values not strictly increasing at index {index}")


class NonFiniteValueError(DataError):
    """A NaN or infinity appeared where a finite value is required."""


class SchemaError(DataError):
    """A fit-report JSON file does not match the documented schema."""
