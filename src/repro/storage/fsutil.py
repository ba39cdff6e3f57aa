"""Filesystem primitives for the durable storage layer.

Everything in :mod:`repro.storage` that must survive a crash goes
through the two disciplines encoded here (and enforced by the
``STOR-ATOMIC`` lint rule):

* *no in-place durable writes* — new content is written to a ``.tmp``
  sibling, flushed, ``fsync``'d, and only then renamed over the final
  path, so a reader never observes a half-written file;
* *rename is not durable by itself* — after ``os.replace`` the
  containing directory is ``fsync``'d too, so the new directory entry
  survives power loss.
"""

from __future__ import annotations

import os
from typing import Union

__all__ = [
    "atomic_write_bytes",
    "fsync_dir",
    "fsync_fileobj",
    "tmp_sibling",
]

PathLike = Union[str, os.PathLike]


def fsync_fileobj(fileobj) -> None:
    """Flush a buffered file object and fsync its descriptor."""
    fileobj.flush()
    os.fsync(fileobj.fileno())


def fsync_dir(path: PathLike) -> None:
    """Fsync a directory so renames/creations inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def tmp_sibling(path: PathLike) -> str:
    """The ``.tmp`` staging name next to ``path`` (same filesystem, so
    the final ``os.replace`` is atomic)."""
    return os.fspath(path) + ".tmp"


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Durably replace ``path`` with ``data``: tmp file, flush, fsync,
    rename into place, fsync the directory."""
    path = os.fspath(path)
    tmp = tmp_sibling(path)
    with open(tmp, "wb") as fp:
        fp.write(data)
        fsync_fileobj(fp)
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")
