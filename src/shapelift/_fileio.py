"""Crash-safe replacement of an output file, and the array payload reader.

The ``.ssm`` and ``.map`` writers, the CSV and text reports and the dataset
manifest go through ``atomic_open``, so a reader never sees one of them
half-written under its final name.  The ``.ssm`` and ``.map`` loaders read
their float64 payload through ``read_f8_arrays``, straight from the file
into the arrays they return.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FileFormatError


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` on success.

    If the body raises, the temp file is removed and ``path`` keeps what it
    held before.  The rename moves no data, so it costs no copy.
    """
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_f8_arrays(fh, shapes, path, order: str = "C") -> list:
    """Read the rest of ``fh`` as little-endian float64 arrays of ``shapes``.

    The bytes left in the file must be exactly what the shapes need: a
    shorter file raises "unexpected end of file" and a longer one "trailing
    data", both before any array is allocated, so a header that claims a
    huge size cannot make the reader ask for that much memory.  Each array
    is then allocated in ``order`` ("C" row-major, "F" column-major) and
    filled by ``readinto`` in that order, with no intermediate ``bytes``
    copy.  The arrays come back native float64, writable and owning their
    memory.
    """
    need = 8 * sum(math.prod(shape) for shape in shapes)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < need:
        raise FileFormatError(f"{path}: unexpected end of file")
    if left > need:
        raise FileFormatError(f"{path}: trailing data")
    arrays = []
    for shape in shapes:
        arr = np.empty(shape, dtype="<f8", order=order)
        if fh.readinto(arr.ravel(order)) != arr.nbytes:
            raise FileFormatError(f"{path}: unexpected end of file")
        arrays.append(arr.astype(np.float64, copy=False))
    return arrays
