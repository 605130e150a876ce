"""Crash-safe replacement of an output file.

The ``.ssm`` and ``.map`` writers, the CSV and text reports and the dataset
manifest go through ``atomic_open``, so a reader never sees one of them
half-written under its final name.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


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
