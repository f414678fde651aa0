"""Exception hierarchy shared across the package.

Three branches matter to callers: configuration problems, data problems, and
numeric degeneracies. The CLI maps them to exit codes 2, 3, and 4.
"""

from __future__ import annotations


class PlmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PlmError):
    """Invalid configuration: unknown keys, bad ranges, inconsistent spec."""


class AmbiguousSpec(ConfigError):
    """Declared placebo role contradicts the declared causal edges."""


class UnsupportedCase(ConfigError):
    """A requested analysis this package deliberately does not perform."""


class InvalidRecipe(ConfigError):
    """Simulation recipe references edges or values outside the chosen graph."""


class DataError(PlmError):
    """Problem with input data (files or in-memory tables)."""


class ParseError(DataError):
    """Malformed CSV content; message carries row and column location."""


class NonFiniteValue(DataError):
    """A cell is missing, NaN, or infinite; message carries row and column."""


class DuplicateHeader(DataError):
    """Two CSV columns share a name."""


class UnknownColumn(DataError):
    """A referenced column is not present in the dataset."""


class TooFewRows(DataError):
    """Not enough observations for the requested fit."""


class IoError(DataError):
    """Failed to read or write an input/output file."""


class NumericError(PlmError):
    """Numeric degeneracy that prevents a well-defined answer."""


class RankDeficient(NumericError):
    """Design matrix is collinear up to the rank detection threshold."""


class DegenerateResidual(NumericError):
    """A residual needed in a scale factor has (near) zero variance."""


class DenominatorNearZero(NumericError):
    """A formula denominator vanished; the expression is undefined there."""


class NonpositiveScale(NumericError):
    """A quantity that must be strictly positive (a scale) is not."""


class BootstrapDegenerate(NumericError):
    """Too many bootstrap replicates failed to produce a valid statistic."""


class ScaleConfusionWarning(UserWarning):
    """|k| is implausibly large; the user may have confused m and k scales."""


class MediatorCautionWarning(UserWarning):
    """Mediator-case adjustment requested; results need careful reading."""
