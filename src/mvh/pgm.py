"""The package's file I/O: the .npz archive of named arrays that a checkpoint is written as.

Only this module opens a file, so a failure to open, read or write one is always a DataError naming the
path. An archive is parsed from its bytes with pickles refused, so reading one runs no code it holds.
"""

import io
import zipfile

import numpy as np

from .errors import DataError


def write_arrays(path, arrays):
    """Write a {name: array} dict as one uncompressed .npz archive; an array only a pickle could hold, or a
    name that np.savez takes for its own argument ('file', 'allow_pickle'), raises DataError. The archive is
    built before the file is opened, so a refused dict writes nothing."""
    try:
        buf = io.BytesIO()
        np.savez(buf, allow_pickle=False, **arrays)
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())
    except (OSError, ValueError, TypeError) as exc:  # a missing directory, an object array, a name savez takes
        raise DataError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from None


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
