"""Exception types shared across the package.

Each class maps to one CLI exit code (see cli.main): configuration
problems, numeric failures during training, and feedback-pool shortages are
distinguishable by the caller.
"""


class SdalabError(Exception):
    """Base class for all package errors."""


class ConfigError(SdalabError):
    """Invalid, inconsistent, or unknown configuration."""


class ShapeError(SdalabError):
    """Array dimensions do not match what an operation expects."""


class ShortageError(SdalabError):
    """A feedback policy could not find enough eligible samples."""


class NumericError(SdalabError):
    """A non-finite value appeared where the math requires finite ones."""


class MetricError(SdalabError):
    """A metric is undefined for the given inputs (e.g. single-class AUROC)."""
