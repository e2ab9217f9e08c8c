"""Exception taxonomy shared across the package, and the shared argument checks that raise it."""

import numpy as np


class MvhError(Exception):
    """Base class for all package errors."""


class ShapeError(MvhError):
    """A tensor argument's shape does not fit the operation it is passed to."""


class ValidationError(MvhError):
    """An argument or configuration value is outside what the function accepts."""


class DataError(MvhError):
    """A file cannot be read or written, or breaks the .npz archive format."""


class CheckpointError(MvhError):
    """A checkpoint is missing, malformed, or architecturally incompatible."""


class TapeError(MvhError):
    """Gradient tape misuse (reuse after backward, nesting, foreign loss)."""


class NumericsError(MvhError):
    """A value that must be finite is not: an op's output or a gradient about to be applied."""


def _index(i, n, what, low=0):
    """i as an int in [low, n), n may be math.inf; bools, floats and other non-integers are rejected."""
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {i!r}")
    if not low <= i < n:
        raise ValidationError(f"{what} {i} out of range {low}..{n - 1}")
    return int(i)


def _shape(shape, what):
    """shape as a tuple of ints >= 0, each checked by _index as a `what`; a lone int is a 1-d shape, as in numpy."""
    return tuple(_index(s, np.inf, what) for s in (shape if np.iterable(shape) else (shape,)))


def _numbers(x):
    """x as an array if it holds only numbers (bool, int or float dtype), else None; no value is parsed."""
    try:
        x = np.asarray(x)
    except ValueError:  # ragged rows
        return None
    return x if x.dtype.kind in "biuf" else None
