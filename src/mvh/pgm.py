"""The package's file reads and writes: UTF-8 text, and ASCII portable graymaps (P2) made of it.

`read_text` and `write_text` are the only code that opens a file, so a failure
to open, decode or write one is always a DataError naming the path.
"""

import numpy as np

from .errors import DataError

_MAXVAL = 255  # write_pgm's maxval: a [0,1] value is kept as one of the levels 0..255


def read_text(path):
    """A file's UTF-8 text, with its line ends read as "\\n"."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # such as a missing file, a directory, or bytes that are not UTF-8
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_text(path, text):
    """Write text to a file as UTF-8, byte for byte: no line end is translated."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # such as a missing directory or a lone surrogate
        raise DataError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from None


def write_pgm(path, values01):
    """Write a [0,1] 2-d array as a P2 graymap with maxval 255.

    Values outside [0,1] are clipped. An array `read_pgm` would refuse (an
    empty side, or a NaN or infinite value) raises DataError and writes nothing.
    """
    arr = np.asarray(values01, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DataError(f"{path}: PGM needs a non-empty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: PGM values must be finite")
    ints = np.clip(np.round(arr * _MAXVAL), 0, _MAXVAL).astype(int)
    h, w = ints.shape
    write_text(path, f"P2\n{w} {h}\n{_MAXVAL}\n" + "".join(" ".join(str(v) for v in row) + "\n" for row in ints))


def read_pgm(path):
    """Read a P2 graymap back into a [0,1] float array; a '#' comments out the rest of its line."""
    tokens = []
    for line in read_text(path).split("\n"):
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P2":
        raise DataError(f"{path} is not an ASCII P2 graymap")
    if len(tokens) < 4:
        raise DataError(f"{path}: truncated P2 header")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        pixels = np.array([int(v) for v in tokens[4:]], dtype=np.float64)
    except ValueError:
        raise DataError(f"{path}: non-integer header or pixel value") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: image size {w}x{h} is not positive")
    if not 1 <= maxval <= 65535:
        raise DataError(f"{path}: maxval {maxval} is outside 1..65535")
    if pixels.size != w * h:
        raise DataError(f"{path}: expected {w * h} pixels, found {pixels.size}")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise DataError(f"{path}: pixel values must lie in 0..{maxval}")
    return (pixels / maxval).reshape(h, w)
