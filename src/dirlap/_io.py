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


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename.

    Readers never observe a half-written file, and the file gets the mode
    a plain write would give it under the current umask. Raises
    InvalidArgumentError naming path when it cannot be written.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
