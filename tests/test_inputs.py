"""Every malformed input is rejected the same way: the library reader
raises a DirlapError, and the command line exits 2 with an `error:` line
and no traceback.

Each example takes a valid graph JSON, operator JSON, operator CSV or
--omega value and replaces one value in it with true, false, a string,
null, a list or an integer beyond the float range, or drops one key (a
CSV line or cell). The few edits that leave the input valid are named
in STILL_VALID and must then be accepted.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirlap import (
    DirlapError,
    assemble,
    dirichlet,
    gen_random_circulation,
    graph_from_json_obj,
    graph_to_json_obj,
    operator_from_csv_text,
    operator_from_json_obj,
    operator_to_csv_text,
    operator_to_json_obj,
    save_graph,
)
from dirlap.cli import main

HUGE = 10**400
DROP = object()
REPLACEMENTS = [True, False, "1", "x", None, [], [1.0], HUGE, -HUGE]
CSV_REPLACEMENTS = ["true", "x", "", "null", "[]", "nan", str(HUGE), str(-HUGE)]

BASE = gen_random_circulation(4, 2, seed=1)
GRAPH = graph_to_json_obj(BASE)
OPERATOR = operator_to_json_obj(dirichlet(assemble(BASE, "h"), [1, 2, 3]))
CSV_CELLS = [
    line.split(",")
    for line in operator_to_csv_text(dirichlet(assemble(BASE, "delta"), [0, 2, 3])).splitlines()
]

SETTINGS = settings(
    max_examples=150, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _paths(obj, path=()):
    """Every position in a JSON value: the root, and each object key and
    array index below it."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, (*path, key))


def _edit(obj, path, value):
    """A copy of obj with the value at path replaced by value, or its key
    dropped when value is DROP."""
    if not path:
        return value
    head, *rest = path
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    if rest:
        copy[head] = _edit(obj[head], rest, value)
    elif value is DROP:
        del copy[head]
    else:
        copy[head] = value
    return copy


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def json_edits(draw, base):
    path = draw(st.sampled_from(list(_paths(base))))
    droppable = bool(path) and isinstance(_at(base, path[:-1]), dict)
    value = draw(st.sampled_from(REPLACEMENTS + [DROP] * droppable))
    return path, value


@st.composite
def csv_edits(draw):
    """(line, cell, value): cell None drops the whole line."""
    line = draw(st.integers(0, len(CSV_CELLS) - 1))
    cell = draw(st.none() | st.integers(0, len(CSV_CELLS[line]) - 1))
    value = DROP if cell is None else draw(st.sampled_from(CSV_REPLACEMENTS + [DROP]))
    return line, cell, value


def _csv_text(line, cell, value):
    rows = [list(row) for row in CSV_CELLS]
    if cell is None:
        del rows[line]
    elif value is DROP:
        del rows[line][cell]
    else:
        rows[line][cell] = value
    return "".join(",".join(row) + "\n" for row in rows)


# an absent support means the full vertex set, and a support id has no upper bound
STILL_VALID = {
    "operator json": lambda path, value: (
        (path == ("support",) and (value is None or value is DROP))
        or (path[:1] == ("support",) and len(path) == 2 and value == HUGE)
    ),
    "operator csv": lambda line, cell, value: CSV_CELLS[line][0] == "support" and (
        cell is None or (cell > 0 and value == str(HUGE))
    ),
}


def assert_rejected(capsys, read, argv, valid=False):
    """read() raises a DirlapError and main(argv) exits 2 with an error
    line, unless the edit is valid, when both succeed."""
    try:
        read()
    except DirlapError:
        rejected = True
    else:
        rejected = False
    code = main(argv)
    captured = capsys.readouterr()
    if valid:
        assert not rejected and code == 0
        return
    assert rejected
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@SETTINGS
@given(edit=json_edits(GRAPH))
def test_malformed_graph_json(tmp_path, capsys, edit):
    obj = _edit(GRAPH, *edit)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert_rejected(capsys, lambda: graph_from_json_obj(obj), ["check", str(path)])


@SETTINGS
@given(edit=json_edits(OPERATOR))
def test_malformed_operator_json(tmp_path, capsys, edit):
    obj = _edit(OPERATOR, *edit)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(obj))
    assert_rejected(capsys, lambda: operator_from_json_obj(obj), ["spectrum", str(path)],
                    STILL_VALID["operator json"](*edit))


@SETTINGS
@given(edit=csv_edits())
def test_malformed_operator_csv(tmp_path, capsys, edit):
    text = _csv_text(*edit)
    path = tmp_path / "op.csv"
    path.write_text(text)
    assert_rejected(capsys, lambda: operator_from_csv_text(text), ["spectrum", str(path)],
                    STILL_VALID["operator csv"](*edit))


@pytest.mark.parametrize("command", ["cheeger", "spectrum"])
@SETTINGS
@given(edit=json_edits([0, 1]))
def test_malformed_omega(tmp_path, capsys, command, edit):
    graph = tmp_path / "g.json"
    save_graph(BASE, graph)
    omega = json.dumps(_edit([0, 1], *edit))
    code = main([command, str(graph), "--omega", omega])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1

