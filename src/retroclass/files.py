"""Reading and writing files.

Every JSON and JSON-lines file the package reads goes through
:func:`read_json` or :func:`read_jsonl`, and every artifact it writes goes
through :func:`replace_atomically`. They map each way such a file can fail
to a package error:

* a path that cannot be read or written raises ``IoError``;
* bad UTF-8, bad JSON, or a value of the wrong shape raises
  ``ValidationError`` for a JSON file a user hands in; a JSON-lines reader
  names its class, a ``CorruptData`` subclass for files the package wrote.

A parse function therefore needs no ``try`` of its own: indexing a missing
key, converting a string that is not a number or calling a method on the
wrong type all surface as such an error, with the file (and line) named. A
parse function that raises a subclass of that class keeps its type.

A bank file and an index file each end in a float32 payload after zero
padding to a multiple of ``PAYLOAD_ALIGN``, so a mapped payload is aligned;
:func:`payload_start` checks that layout for both.

Every full pass over a memory-mapped bank or index reads it through
:func:`windows` or a :class:`PageBudget`, which drop the mapping's
resident pages each time ``_MAP_BYTES`` (64 MiB) of it have been read.
Each block such a pass reads is at most ``_MAP_BYTES`` too (the rows of
:func:`window_rows`), or one unit of the kernel that scores it where the
budget holds fewer rows, so a pass keeps at most twice the budget of the
file resident, whatever the file's size or row width.
"""

from __future__ import annotations

import json
import mmap
import os
import stat
import uuid
from contextlib import contextmanager
from math import prod
from pathlib import Path

import numpy as np

from . import errors

_MAP_BYTES = 64 << 20  # bytes of a mapped file read between page releases
PAYLOAD_ALIGN = 64  # a bank's or index's float32 payload starts here

# what a parse function raises when it meets a value of the wrong shape;
# ValueError also covers bad UTF-8 and bad JSON, RecursionError deep nesting
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, AttributeError,
                 OverflowError, RecursionError, errors.ValidationError)


def read_bytes(path, what: str) -> bytes:
    """The whole file; an unreadable path raises ``IoError``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise errors.IoError(f"cannot read {what} {path}: {exc}") from exc


def _reraise(exc: Exception, error: type, message: str):
    # keep a typed error the parse function raised (EmptyGrid, say)
    cls = type(exc) if isinstance(exc, error) else error
    raise cls(message) from exc


def read_json(path, what: str, parse):
    """``parse`` applied to the one JSON document in a UTF-8 file."""
    data = read_bytes(path, what)
    try:
        return parse(json.loads(data.decode("utf-8")))
    except _SHAPE_ERRORS as exc:
        _reraise(exc, errors.ValidationError,
                 f"{what} {path} is invalid: {exc}")


def read_jsonl(path, what: str, parse_line, error=errors.ValidationError,
               count: int | None = None) -> list:
    """``parse_line(i, obj)`` for each line of a UTF-8 JSON-lines file.

    Lines end at ``\\n`` only, so a string holding U+2028 or another Unicode
    line break stays on its line. With ``count`` set, a file with another
    number of lines raises ``error`` before any line is parsed.
    """
    lines = read_bytes(path, what).split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if count is not None and len(lines) != count:
        raise error(f"{what} {path} has {len(lines)} rows, expected {count}")
    out = []
    for i, line in enumerate(lines):
        try:
            out.append(parse_line(i, json.loads(line.decode("utf-8"))))
        except _SHAPE_ERRORS as exc:
            _reraise(exc, error, f"{what} {path} line {i} is invalid: {exc}")
    return out


@contextmanager
def replace_atomically(path, what: str, mode: str = "w"):
    """Write to a new file beside ``path`` that replaces it once complete.

    A reader that memory-maps the old file keeps the old inode, so saving a
    bank onto the file it was loaded from cannot truncate the pages being
    read, and a failed write leaves the old file as it was. A symlink is
    written through to its target, and the new file keeps the old one's
    permission bits (hard links to the old file keep the old bytes). A path
    that exists but is not a regular file, such as a FIFO or ``/dev/stdout``,
    cannot be replaced and is written directly. There is no fsync: this does
    not make the file durable across a power loss. An ``OSError`` while
    opening, writing or renaming raises ``IoError``.
    """
    encoding = None if "b" in mode else "utf-8"
    try:
        try:
            old = os.stat(path)
        except FileNotFoundError:
            old = None
        if old is not None and not stat.S_ISREG(old.st_mode):
            with open(path, mode, encoding=encoding) as fh:
                yield fh
            return
        target = Path(os.path.realpath(path))
        tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex[:12]}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, mode, encoding=encoding) as fh:
                if old is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
                yield fh
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise errors.IoError(f"cannot write {what} to {path}: {exc}") from exc


def payload_start(fh, size: int, values: int, error: type) -> int:
    """Where the float32 payload of a ``size``-byte file starts: after the
    zero padding that ``fh`` is positioned at, up to a multiple of
    ``PAYLOAD_ALIGN``. Truncated or non-zero padding, or a payload other
    than ``values`` floats to the end of the file, raises ``error`` at the
    first byte that fails."""
    pad = fh.read(-fh.tell() % PAYLOAD_ALIGN)
    start = fh.tell()
    if start % PAYLOAD_ALIGN:
        raise error("truncated padding", byte_offset=start)
    if pad.strip(b"\0"):
        raise error("non-zero padding",
                    byte_offset=start - len(pad.lstrip(b"\0")))
    expected, actual = values * 4, size - start
    if actual != expected:
        kind = ("truncated payload" if actual < expected
                else "trailing bytes after payload")
        raise error(f"{kind}: expected {expected} payload bytes, found {actual}",
                    byte_offset=start + min(actual, expected))
    return start


def _shared_mapping(array):
    """The shared file mapping under ``array``, or ``None``.

    An in-memory array has none, and none is released where ``madvise`` is
    missing. A copy-on-write ``np.memmap`` (mode ``"c"``) is never
    released: dropping its pages would discard its edits. A shared
    mapping's pages stay in the page cache, dirty ones included, so a
    later read faults them back in without disk I/O.
    """
    while isinstance(array, np.ndarray) and not isinstance(array, np.memmap):
        array = array.base
    if (not isinstance(array, np.memmap) or array.mode == "c"
            or not hasattr(mmap, "MADV_DONTNEED")):
        return None
    return getattr(array, "_mmap", None)


def _release(mapping) -> None:
    """Drop a shared mapping's resident pages from this process."""
    mapping.madvise(mmap.MADV_DONTNEED)


def release(array) -> None:
    """Drop the resident pages of the shared file mapping under ``array``,
    if it has one that :class:`PageBudget` would release."""
    mapping = _shared_mapping(array)
    if mapping is not None:
        _release(mapping)


class PageBudget:
    """Counts the bytes a pass reads from ``array``: after each block, once
    ``_MAP_BYTES`` have been read, :meth:`read` drops the pages of the file
    mapping under it, and :meth:`close` drops the rest at the end of a pass
    that has done so, so a pass over more than ``_MAP_BYTES`` leaves none
    resident while a smaller one stays resident for the next. With blocks
    of at most ``_MAP_BYTES`` each, at most twice that many bytes of the
    file are resident. It does nothing for an in-memory array, a
    copy-on-write mapping, or where ``madvise`` is missing."""

    def __init__(self, array):
        self._mapping = _shared_mapping(array)
        self._read = 0
        self._released = False

    def read(self, nbytes: int) -> None:
        if self._mapping is None:
            return
        self._read += nbytes
        if self._read >= _MAP_BYTES:
            _release(self._mapping)
            self._read, self._released = 0, True

    def close(self) -> None:
        if self._released and self._read:
            _release(self._mapping)
            self._read = 0


def window_rows(array) -> int:
    """The rows of ``array`` in ``_MAP_BYTES``, at least one."""
    row_bytes = array.itemsize * prod(array.shape[1:])
    return max(1, _MAP_BYTES // max(1, row_bytes))


def windows(array, rows: int | None = None):
    """``(start, array[start:start + rows])`` over every row of ``array``,
    in order, released through a :class:`PageBudget` once each block has
    been used. ``rows`` defaults to :func:`window_rows`, so that no window
    is larger than ``_MAP_BYTES`` unless it holds one row."""
    if rows is None:
        rows = window_rows(array)
    budget = PageBudget(array)
    for start in range(0, array.shape[0], rows):
        block = array[start:start + rows]
        yield start, block
        budget.read(block.nbytes)
    budget.close()
