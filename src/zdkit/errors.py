"""Exception types shared across the package."""


class ZDKitError(Exception):
    """Base class for all package errors."""


class DimensionError(ZDKitError, ValueError):
    """Matrix or vector shapes are incompatible."""


class DomainError(ZDKitError, ValueError):
    """An index or parameter is outside its admissible range."""


class ValidationError(ZDKitError, ValueError):
    """An input value violates a structural constraint (e.g. stochasticity)."""


class AnalysisError(ZDKitError, RuntimeError):
    """A Markov analysis precondition does not hold (e.g. non-primitive chain)."""

