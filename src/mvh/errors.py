"""Exception taxonomy shared across the package."""


class MvhError(Exception):
    """Base class for all package errors."""


class ShapeError(MvhError):
    """A tensor argument's shape does not fit the operation it is passed to."""


class ValidationError(MvhError):
    """An argument or configuration value is outside what the function accepts."""


class DataError(MvhError):
    """A file cannot be read or written, or its content breaks the PGM or dataset format."""


class CheckpointError(MvhError):
    """A checkpoint is missing, malformed, or architecturally incompatible."""


class TapeError(MvhError):
    """Gradient tape misuse (reuse after backward, nesting, foreign loss)."""


class NumericsError(MvhError):
    """A value that must be finite is not: an op's output or a gradient about to be applied."""
