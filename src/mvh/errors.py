"""Exception taxonomy shared across the package."""


class MvhError(Exception):
    """Base class for all package errors."""


class ShapeError(MvhError):
    """Tensor shapes are inconsistent with an operation's contract."""


class ValidationError(MvhError):
    """An argument value violates a documented precondition."""


class ConfigError(MvhError):
    """A configuration is internally inconsistent or unusable."""


class DataError(MvhError):
    """Input data violates the corpus contracts."""


class TrainingError(MvhError):
    """Training cannot continue (e.g. non-finite gradients)."""


class CheckpointError(MvhError):
    """A checkpoint is missing, malformed, or architecturally incompatible."""


class TapeError(MvhError):
    """Gradient tape misuse (reuse after backward, nesting, foreign loss)."""


class NumericsError(MvhError):
    """An op's output holds a non-finite value."""
