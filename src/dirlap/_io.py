"""File helpers: reading, atomic writes, and the one place that turns
values into output text (canonical JSON and CSV)."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from numbers import Integral

from .errors import InputParseError


def read_text(path: str) -> str:
    """A file's text. Raises InputParseError on unreadable or undecodable files."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def read_json(path: str):
    """Parse a JSON file. Raises InputParseError on unreadable or invalid files."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{path} is not valid JSON: {exc}") from exc


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename.

    Readers never observe a half-written file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
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
