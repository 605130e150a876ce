"""Crash-safe output files, payload length checks, and the ``.ssm``/``.map`` container.

Every file the package writes goes through ``atomic_open`` (whole files
through ``atomic_write``), so a reader never sees it half-written under its
final name.  ``check_length`` is the binary readers' one rule for a payload
of the wrong size.

``.ssm`` and ``.map`` files are one container, written by
``write_container``, checked by ``check_container`` and read by
``read_container``: a JSON object with sorted keys and a ``format_version``
on the first line, then finite little-endian float64 arrays with nothing
after them, moved between memory and the file with no ``bytes`` copy.
Both formats store the rows they keep as float64 indices, checked by
``kept_rows`` in a file and by ``row_indices`` in memory.
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
def atomic_open(path):
    """Open ``<path>.tmp`` for binary writing and rename it over ``path`` on success.

    If the body raises, the temp file is removed and ``path`` keeps what it
    held before.  An ``OSError`` that names the temp file is raised again
    naming ``path``, the file the caller asked for.  The rename moves no
    data, so it costs no copy.
    """
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        tmp.replace(path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def atomic_write(path, data: bytes):
    """Replace ``path`` with ``data`` through ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write(data)


def check_length(path, have: int, need: int, after: str = ""):
    """Reject a payload of ``have`` bytes where the header asks for ``need``:
    fewer is "unexpected end of file", more is "trailing data [after <after>]"."""
    if have < need:
        raise FileFormatError(f"{path}: unexpected end of file")
    if have > need:
        raise FileFormatError(f"{path}: trailing data" + (f" after {after}" if after else ""))


def _finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` is all finite: one sum, and a full check if that overflows."""
    with np.errstate(all="ignore"):
        return np.isfinite(arr.sum()) or np.isfinite(arr).all()


def write_container(path, header: dict, arrays, order: str = "C"):
    """Write ``header``, then each array in ``order`` ("C" row-major, "F"
    column-major) through ``atomic_open``.  An array already laid out so is
    written as it is; any other is converted by one copy first.  A NaN or
    infinity raises ``InvalidInputError``, and ``path`` keeps what it held."""
    with atomic_open(path) as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for arr in arrays:
            flat = np.asarray(arr, dtype="<f8", order=order).ravel(order)
            if not _finite(flat):
                raise InvalidInputError(f"{path}: non-finite value")
            fh.write(flat)


def header_int(value) -> int:
    """An integer header field; a float, string, bool or null is rejected."""
    if type(value) is not int:
        raise TypeError("not an integer")
    return value


def header_str(value) -> str:
    """A string header field; a number, list, bool or null is rejected."""
    if type(value) is not str:
        raise TypeError("not a string")
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


def check_container(fh, path, what: str, formats: dict):
    """Check a ``write_container`` file's header and size; returns (converted
    fields, array shapes), with ``fh`` left at the start of the arrays.

    ``formats`` maps each readable ``format_version`` to its (fields,
    shapes).  ``format_version`` is checked first, as an integer: a version
    not in ``formats`` is "unsupported format version", whatever its other
    fields hold.  ``fields`` maps each header key to its converter, which
    raises ``ValueError`` or ``TypeError`` on a wrong-typed value; that, or
    a missing field, is "bad <what> header".  ``shapes(converted)`` returns
    the declared array shapes, raising ``InvalidInputError`` on sizes the
    format does not allow.  The bytes left in the file must be exactly what
    the shapes need: a shorter file raises "unexpected end of file" and a
    longer one "trailing data".  Nothing is allocated for the arrays, so a
    header that claims a huge size cannot make the reader ask for that much
    memory, and a caller that needs only the header reads nothing more.
    """
    header = read_header(fh, path, what)
    try:
        found = header_int(header["format_version"])
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: bad {what} header") from exc
    if found not in formats:
        raise FileFormatError(f"{path}: unsupported format version {found}")
    fields, shapes = formats[found]
    try:
        converted = {key: conv(header[key]) for key, conv in fields.items()}
    except (ValueError, KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: bad {what} header") from exc
    try:
        sizes = shapes(converted)
    except InvalidInputError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    check_length(path, os.fstat(fh.fileno()).st_size - fh.tell(),
                 8 * sum(math.prod(shape) for shape in sizes))
    return converted, sizes


def read_array(fh, path, shape, order: str = "C") -> np.ndarray:
    """The next float64 array of ``shape`` in ``fh``, allocated in ``order``
    and filled by ``readinto`` with no intermediate ``bytes`` copy; native,
    writable and owning its memory.  A short read is "unexpected end of
    file", a NaN or infinity "non-finite value"."""
    arr = np.empty(shape, dtype="<f8", order=order)
    if fh.readinto(arr.ravel(order)) != arr.nbytes:
        raise FileFormatError(f"{path}: unexpected end of file")
    if not _finite(arr.ravel(order)):
        raise FileFormatError(f"{path}: non-finite value")
    return arr.astype(np.float64, copy=False)


def _increasing_indices(values, dim: int) -> bool:
    """Whether ``values`` are strictly increasing integral values in [0, dim)."""
    v = np.asarray(values)
    return bool(v.ndim == 1 and np.all(v >= 0) and np.all(v < dim)
                and np.all(v == np.floor(v)) and np.all(v[1:] > v[:-1]))


def row_indices(rows, dim: int) -> np.ndarray:
    """``rows`` as an integer array, if they are strictly increasing integers
    in [0, dim) as ``kept_rows`` reads them; else ``InvalidInputError``."""
    rows = np.asarray(rows)
    if not (np.issubdtype(rows.dtype, np.integer) and _increasing_indices(rows, dim)):
        raise InvalidInputError(f"rows must be strictly increasing integers in [0, {dim})")
    return rows


def kept_rows(path, stored: np.ndarray, dim: int):
    """Stored row indices as a model's ``rows``: None when every one of the
    ``dim`` rows is kept.  Anything but strictly increasing integers in
    [0, dim) is a ``FileFormatError``."""
    if not _increasing_indices(stored, dim):
        raise FileFormatError(
            f"{path}: row indices must be strictly increasing integers in [0, {dim})")
    return None if len(stored) == dim else stored.astype(np.intp)


def read_container(path, what: str, formats: dict, order: str = "C"):
    """Read a ``write_container`` file; returns (converted fields, arrays).

    The file passes ``check_container`` first, so loading a file and only
    checking it reject the same files with the same messages.  Each array
    is then read by ``read_array`` in ``order`` ("C" row-major, "F"
    column-major).
    """
    # Path.open, so that atomic_open is this module's one caller of ``open``.
    with Path(path).open("rb") as fh:
        converted, sizes = check_container(fh, path, what, formats)
        return converted, [read_array(fh, path, shape, order) for shape in sizes]
