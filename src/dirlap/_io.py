"""File helpers: the one rule for numbers read from input, and the one
place that turns values into output text (canonical JSON and CSV).

In graph files, operator files and --omega alike, an id is a JSON
integer and any other value a JSON number: never true/false, a string or
null. An integer beyond the float range reads as an infinity of its
sign, which each reader's finiteness check reports as not finite. (An
operator's kind must be one of operators.KINDS, possibly restricted.)
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import os
import tempfile
from numbers import Integral

import numpy as np

from .errors import InputParseError, InvalidArgumentError

# The exact Python types json.loads gives a JSON integer and a JSON number.
INTEGER = frozenset({int})
NUMBER = frozenset({int, float})


def json_typed(values, types: frozenset) -> bool:
    """Whether every value's exact type is in types, so a bool never is."""
    return set(map(type, values)) <= types


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest float
        return np.inf if value > 0 else -np.inf


def floats(values) -> np.ndarray:
    """A sequence of numbers as a float array, with an integer beyond the
    float range taken as an infinity of its sign."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.asarray([_float(v) for v in values])


def parse_json(text: str, source: str):
    """Parse JSON text. Raises InputParseError naming source when the text
    is not JSON, nests too deep or holds an integer too long to read."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputParseError(f"{source} is not valid JSON: {exc}") from exc


def read_text(path: str) -> str:
    """A file's text. Raises InputParseError on unreadable or undecodable files."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def read_json(path: str):
    """Parse a JSON file. Raises InputParseError on unreadable or invalid files."""
    return parse_json(read_text(path), path)


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised inside as InvalidArgumentError naming path."""
    try:
        yield
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_writable(path: str) -> None:
    """Raise write_text_atomic's InvalidArgumentError now, before any work,
    if path names a directory (an empty path or one ending in a separator
    does too) or no temp file can be made beside it. Leaves nothing behind
    and never creates path itself."""
    with _writing(path):
        if os.path.isdir(path) or not os.path.basename(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(os.path.abspath(path)))
        os.close(fd)
        os.unlink(tmp)


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename.

    Readers never observe a half-written file, and the file gets the mode
    a plain write would give it under the current umask. Raises
    InvalidArgumentError naming path when it cannot be written.
    """
    umask = os.umask(0)
    os.umask(umask)
    with _writing(path):
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(os.path.abspath(path)))
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.
    A dataclass is written as the object of its fields."""
    return json.dumps(obj, indent=2, sort_keys=True, default=dataclasses.asdict) + "\n"


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, Integral):
        return str(int(x))
    return repr(float(x))


def dump_csv(rows) -> str:
    """CSV text, one line per row: a string cell as is, an integer in
    decimal and any other number as its shortest round-trip float."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)
