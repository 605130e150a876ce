"""Crash-safe replacement of an output file, and the ``.ssm``/``.map`` container.

The ``.ssm`` and ``.map`` writers, the CSV and text reports and the dataset
manifest go through ``atomic_open``, so a reader never sees one of them
half-written under its final name.

``.ssm`` and ``.map`` files are one container, written by
``write_container`` and read by ``read_container``: a JSON object with
sorted keys and a ``format_version`` on the first line, then little-endian
float64 arrays with nothing after them, moved between memory and the file
with no intermediate ``bytes`` copy.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidInputError

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


def write_container(path, header: dict, arrays, order: str = "C"):
    """Write ``header``, then each array in ``order`` ("C" row-major, "F"
    column-major) through ``atomic_open``.  An array already laid out so is
    written as it is; any other is converted by one copy first."""
    with atomic_open(path) as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for arr in arrays:
            fh.write(np.asarray(arr, dtype="<f8", order=order).ravel(order))


def header_int(value) -> int:
    """An integer header field; a float, string, bool or null is rejected."""
    if type(value) is not int:
        raise TypeError("not an integer")
    return value


def read_header(fh, path, what: str) -> dict:
    """Return the JSON object on the next line of ``fh``; anything else is a
    ``FileFormatError`` "bad <what> header"."""
    try:
        header = json.loads(fh.readline().decode("ascii"))
    except (ValueError, RecursionError) as exc:  # deep nesting: RecursionError
        raise FileFormatError(f"{path}: bad {what} header") from exc
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: bad {what} header")
    return header


def read_container(path, what: str, version: int, fields: dict, shapes,
                   order: str = "C"):
    """Read a ``write_container`` file; returns (converted fields, arrays).

    ``fields`` maps each header key to its converter, which raises
    ``ValueError`` or ``TypeError`` on a wrong-typed value; that, or a
    missing field, is "bad <what> header".  ``shapes(converted)`` returns
    the declared array shapes, raising ``InvalidInputError`` on sizes the
    format does not allow.
    """
    with open(path, "rb") as fh:
        header = read_header(fh, path, what)
        try:
            found = header_int(header["format_version"])
            converted = {key: conv(header[key]) for key, conv in fields.items()}
        except (ValueError, KeyError, TypeError) as exc:
            raise FileFormatError(f"{path}: bad {what} header") from exc
        if found != version:
            raise FileFormatError(f"{path}: unsupported format version {found}")
        try:
            sizes = shapes(converted)
        except InvalidInputError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
        return converted, read_f8_arrays(fh, sizes, path, order)


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
