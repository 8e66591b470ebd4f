"""Crash-safe file publication."""

from __future__ import annotations

import os
import pathlib

__all__ = ["atomic_write"]


def atomic_write(
    path: pathlib.Path, data: str | bytes, *, tmp_stem: str | None = None
) -> None:
    """Publish ``data`` at ``path`` so readers see the old file or the new
    one, never a torn one: write a sibling, then ``os.replace`` it in.

    The sibling is ``path`` with its last suffix replaced by
    ``.tmp.<pid>``, or ``<tmp_stem>.tmp.<pid>`` when the call site hides
    or fully qualifies its own.  A process killed between the write and
    the rename leaves it behind, and the audits that find such debris
    (``ResultCache.verify``, the daemon's start-up check) go by that
    name.  ``str`` is written as UTF-8 text, ``bytes`` as is; a missing
    parent directory is created.
    """
    suffix = f".tmp.{os.getpid()}"
    tmp = path.with_name(tmp_stem + suffix) if tmp_stem else path.with_suffix(suffix)
    mode, encoding = ("wb", None) if isinstance(data, bytes) else ("w", "utf-8")
    try:
        fh = open(tmp, mode, encoding=encoding)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, mode, encoding=encoding)
    with fh:
        fh.write(data)
    os.replace(tmp, path)
