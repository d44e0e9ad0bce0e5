"""Exception hierarchy shared across the toolkit.

Exit codes follow the CLI contract: 2 for configuration problems, 3 for
data/ingestion problems, 4 for numeric failures.
"""

from __future__ import annotations


class EsnKitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(EsnKitError):
    exit_code = 2


class ParameterError(ConfigError):
    """A parameter is outside its admissible range."""


class DimensionError(ConfigError):
    """Array shapes or lengths do not match the operation's contract."""


class DomainError(ConfigError):
    """Input values are outside the operation's domain (NaN, inf, ...)."""


class ConstantSeriesError(DomainError):
    """A series or column has zero variance where variation is required."""


class DataError(EsnKitError):
    exit_code = 3


class IngestionError(DataError):
    """A data file could not be parsed."""

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message)
        self.line = line


class NumericError(EsnKitError):
    exit_code = 4


class ConvergenceError(NumericError):
    """An iterative numeric routine failed to converge."""


class DegenerateSpectrumError(NumericError):
    """The spectrum is identically zero; scaling targets are unreachable."""


class DivergenceError(NumericError):
    """A simulated trajectory blew up."""


class GenerationError(NumericError):
    """Random network generation failed after the allowed retries."""


class SingularDesignError(NumericError):
    """The regression design matrix is rank deficient.

    A ridge too small against the design's scale does not prevent it: the
    rounding of a large Gram matrix can exceed the ridge.
    """
