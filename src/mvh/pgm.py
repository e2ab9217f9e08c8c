"""The package's file I/O: UTF-8 text, ASCII portable graymaps (P2) written as text, and .npz archives of arrays.

Only this module opens a file, so a failure to open, read or write one is always a DataError naming the
path. An archive is parsed from its bytes with pickles refused, so reading one runs no code it holds.
"""

import io
import zipfile

import numpy as np

from .errors import DataError, ValidationError

_MAXVAL = 255  # write_pgm's maxval: a [0,1] value is kept as one of the levels 0..255


def _write(path, encode):
    """Write the bytes that encode() returns to path; a failure to make or write them is a DataError naming it."""
    try:
        data = encode()
        with open(path, "wb") as fh:
            fh.write(data)
    except (OSError, ValueError, TypeError) as exc:  # such as a missing directory or a lone surrogate
        raise DataError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_text(path, text):
    """Write text to a file as UTF-8, byte for byte: no line end is translated. A text that is not a str raises
    ValidationError and writes nothing."""
    if not isinstance(text, str):
        raise ValidationError(f"text to write must be a str, got {type(text).__name__}")
    _write(path, lambda: text.encode("utf-8"))


def write_pgm(path, values01):
    """Write a [0,1] 2-d array as a P2 graymap with maxval 255, clipping values outside [0,1].

    An empty side, or a NaN or infinite value, raises DataError and writes nothing."""
    arr = np.asarray(values01, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DataError(f"{path}: PGM needs a non-empty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: PGM values must be finite")
    ints = np.clip(np.round(arr * _MAXVAL), 0, _MAXVAL).astype(int)
    h, w = ints.shape
    write_text(path, f"P2\n{w} {h}\n{_MAXVAL}\n" + "".join(" ".join(str(v) for v in row) + "\n" for row in ints))


def write_arrays(path, arrays):
    """Write a {name: array} dict as one uncompressed .npz archive; an array only a pickle could hold, or a
    name that np.savez takes for its own argument ('file', 'allow_pickle'), raises DataError."""
    def encode():
        buf = io.BytesIO()
        np.savez(buf, allow_pickle=False, **arrays)
        return buf.getvalue()
    _write(path, encode)


def read_arrays(path):
    """The {name: array} dict of an .npz archive, byte for byte as write_arrays wrote it. A file that is not
    one (missing, empty, cut short or no zip, such as a bare .npy), or has a bad CRC, a pickled member or a
    member that is no .npy, raises DataError naming the path."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(io.BytesIO(fh.read()), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        if all(isinstance(a, np.ndarray) for a in arrays.values()):  # a member that is no .npy reads as bytes
            return arrays
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    raise DataError(f"cannot read {path}: a member is not an .npy array")
