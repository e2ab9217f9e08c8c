"""ASCII portable graymap (P2) reading and writing."""

import numpy as np

from .errors import DataError


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
    ints = np.clip(np.round(arr * 255.0), 0, 255).astype(int)
    h, w = ints.shape
    lines = [f"P2\n{w} {h}\n255\n"]
    for row in ints:
        lines.append(" ".join(str(v) for v in row) + "\n")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
    except OSError as exc:  # such as a missing directory or a directory in the way
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def read_pgm(path):
    """Read a P2 graymap back into a [0,1] float array."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = []
            for line in fh:
                hash_pos = line.find("#")
                if hash_pos >= 0:
                    line = line[:hash_pos]
                tokens.extend(line.split())
    except UnicodeDecodeError:  # such as a binary P5 graymap
        raise DataError(f"{path} is not an ASCII P2 graymap (not UTF-8 text)") from None
    except OSError as exc:  # such as a missing file or a directory
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
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
