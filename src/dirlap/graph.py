"""Directed weighted graphs with vertex measures.

A graph here is a finite vertex set {0, ..., n-1} with a strictly positive
measure m(x) per vertex and a set of directed edges (x, y) carrying strictly
positive weights b(x, y). At most one edge per ordered pair, no self loops,
and every vertex must have positive total outgoing weight beta_plus(x) and
positive total incoming weight beta_minus(x).

The Kirchhoff balance condition beta_plus(x) == beta_minus(x) at every
vertex (outflow equals inflow, as for a circulation) is what makes the
formal adjoint of the Laplacian a Laplacian again; `check_kirchhoff`
measures how far a graph is from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

from ._io import INTEGER, NUMBER, floats, json_typed, read_json, write_text_atomic
from .errors import (
    DuplicateEdgeError,
    EmptySubsetError,
    InvalidArgumentError,
    IsolatedDirectionError,
    NonPositiveMeasureError,
    NonPositiveWeightError,
    SchemaViolationError,
    SelfLoopError,
)

# Relative tolerance (against max beta_plus) used when none is given.
KIRCHHOFF_DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Immutable directed weighted graph.

    Attributes:
        n: number of vertices (ids are 0..n-1).
        measure: shape (n,) strictly positive vertex measures m(x).
        edge_from, edge_to: shape (E,) int arrays, one entry per edge.
        edge_weight: shape (E,) strictly positive weights b(x, y).

    Edges are stored sorted by (from, to), so two graphs built from the
    same data have identical arrays. Besides these fields a graph keeps
    only beta_plus and beta_minus, computed on first use; every other view
    of the edges is derived from the edge list where it is needed.
    """

    n: int
    measure: np.ndarray
    edge_from: np.ndarray
    edge_to: np.ndarray
    edge_weight: np.ndarray

    @cached_property
    def beta_plus(self) -> np.ndarray:
        """Total outgoing weight per vertex: sum_y b(x, y)."""
        out = np.bincount(self.edge_from, weights=self.edge_weight, minlength=self.n)
        out.flags.writeable = False
        return out

    @cached_property
    def beta_minus(self) -> np.ndarray:
        """Total incoming weight per vertex: sum_y b(y, x)."""
        out = np.bincount(self.edge_to, weights=self.edge_weight, minlength=self.n)
        out.flags.writeable = False
        return out

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Iterate (from, to, weight) triples in canonical order."""
        for u, v, w in zip(
            self.edge_from.tolist(), self.edge_to.tolist(), self.edge_weight.tolist()
        ):
            yield u, v, w


@dataclass(frozen=True)
class KirchhoffReport:
    """Outcome of a balance check.

    satisfied is True iff max_violation <= tolerance, where
    max_violation = max_x |beta_plus(x) - beta_minus(x)|.
    """

    satisfied: bool
    max_violation: float
    violating_vertices: tuple[int, ...]
    tolerance: float


def build_graph(
    measures: Sequence[float], edges: Iterable[tuple[int, int, float]]
) -> DirectedGraph:
    """Validate and build a DirectedGraph.

    Args:
        measures: one strictly positive measure per vertex; len defines n.
        edges: (from, to, weight) triples; ordered pairs must be unique,
            loops are rejected, weights must be strictly positive, and each
            vertex's outgoing and incoming totals must be finite.

    Vertex ids must be Python or numpy integers and measures and weights
    real numbers, none of them a bool; nothing else is coerced.

    Raises:
        NonPositiveMeasureError, NonPositiveWeightError, SelfLoopError,
        DuplicateEdgeError, IsolatedDirectionError, SchemaViolationError.
    """
    triples = [(u, v, w) for u, v, w in edges]
    tails, heads, weights = zip(*triples) if triples else ((), (), ())
    measures = list(measures)
    _check_types(measures, Real, "measure")
    _check_types(tails + heads, Integral, "vertex id")
    _check_types(weights, Real, "weight")
    return _graph_from_columns(floats(measures), [*map(int, tails)], [*map(int, heads)], weights)


def _check_types(values: Sequence, kind: type, what: str) -> None:
    """Raise SchemaViolationError on the first value that is not an instance
    of kind (Integral or Real) or is a bool (an int to Python), so that
    strings, fractional ids and true/false are rejected, never coerced, as
    in the JSON reader. Each distinct type is checked once."""
    bad = {t for t in set(map(type, values)) if t is bool or not issubclass(t, kind)}
    if bad:
        value = next(v for v in values if type(v) in bad)
        noun = "an integer" if kind is Integral else "a real number"
        raise SchemaViolationError(f"{what} {value!r} is not {noun}")


def _graph_from_columns(
    m: np.ndarray, tails: Sequence[int], heads: Sequence[int], weights: Sequence
) -> DirectedGraph:
    """build_graph on float measures and edges given as three columns.

    The checks run in a fixed order, and each reports the first offender:
    measures in vertex order; then, in input order, the first edge with an
    endpoint out of range, a self loop or a weight that is not > 0 (in that
    order for one edge); then duplicates, weight finiteness and the vertex
    totals in the sorted (from, to) order.
    """
    n = m.size
    if n == 0:
        raise SchemaViolationError("graph needs at least one vertex")
    bad = np.flatnonzero(~(m > 0))
    if bad.size:
        raise NonPositiveMeasureError(
            f"measure of vertex {int(bad[0])} is {float(m[bad[0]])!r}, must be > 0"
        )
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        raise SchemaViolationError(f"measure of vertex {int(bad[0])} is not finite")

    # endpoints are Python ints of any size until they are known to be in
    # range; the edges from the first one out of range on are never converted
    k = len(tails)
    if tails and (min(tails) < 0 or min(heads) < 0 or max(tails) >= n or max(heads) >= n):
        k = next(
            i for i, (u, v) in enumerate(zip(tails, heads)) if not (0 <= u < n and 0 <= v < n)
        )
    ef = np.asarray(tails[:k], dtype=np.int64)
    et = np.asarray(heads[:k], dtype=np.int64)
    ew = floats(weights)
    bad = np.flatnonzero((ef == et) | ~(ew[:k] > 0))
    if bad.size:
        i = int(bad[0])
        u, v = int(ef[i]), int(et[i])
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        raise NonPositiveWeightError(f"edge ({u}, {v}) has weight {float(ew[i])!r}, must be > 0")
    if k < len(tails):
        raise SchemaViolationError(
            f"edge ({tails[k]}, {heads[k]}) endpoint out of range 0..{n - 1}"
        )

    order = np.lexsort((et, ef))
    ef, et, ew = ef[order], et[order], ew[order]
    dup = np.flatnonzero((ef[1:] == ef[:-1]) & (et[1:] == et[:-1]))
    if dup.size:
        i = int(dup[0])
        raise DuplicateEdgeError(f"duplicate edge ({ef[i]}, {et[i]})")
    bad = np.flatnonzero(~np.isfinite(ew))
    if bad.size:
        i = int(bad[0])
        raise SchemaViolationError(f"edge ({ef[i]}, {et[i]}) has a weight that is not finite")
    for arr in (m, ef, et, ew):
        arr.flags.writeable = False
    g = DirectedGraph(n=n, measure=m, edge_from=ef, edge_to=et, edge_weight=ew)

    for totals, direction in ((g.beta_plus, "outgoing"), (g.beta_minus, "incoming")):
        dead = np.flatnonzero(totals <= 0)
        if dead.size:
            raise IsolatedDirectionError(f"vertex {int(dead[0])} has no {direction} weight")
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            raise SchemaViolationError(
                f"total {direction} weight of vertex {int(bad[0])} is not finite"
            )
    return g


def check_kirchhoff(g: DirectedGraph, tol: float | None = None) -> KirchhoffReport:
    """Check beta_plus == beta_minus at every vertex.

    tol is an absolute finite tolerance on |beta_plus - beta_minus|; when
    omitted it defaults to 1e-9 relative to max beta_plus.
    """
    if tol is not None and not 0 <= tol < np.inf:
        raise InvalidArgumentError(f"tol must be finite and >= 0, got {tol}")
    diff = np.abs(g.beta_plus - g.beta_minus)
    effective = tol if tol is not None else KIRCHHOFF_DEFAULT_REL_TOL * float(g.beta_plus.max())
    violating = tuple(int(i) for i in np.flatnonzero(diff > effective))
    max_violation = float(diff.max())
    return KirchhoffReport(
        satisfied=max_violation <= effective,
        max_violation=max_violation,
        violating_vertices=violating,
        tolerance=float(effective),
    )


def _subset_ids(omega: Iterable[int], n: int | None) -> list[int]:
    """The distinct members of a vertex subset, sorted.

    Members are vertex ids as build_graph takes them: Python or numpy
    integers, never a bool. Raises EmptySubsetError on an empty subset and
    SchemaViolationError on any other member or, unless n is None, on a
    member outside 0..n-1.
    """
    members = list(omega)
    _check_types(members, Integral, "subset member")
    ids = sorted({int(v) for v in members})
    if not ids:
        raise EmptySubsetError("vertex subset is empty")
    if n is not None and (ids[0] < 0 or ids[-1] >= n):
        raise SchemaViolationError(f"subset member out of range 0..{n - 1}")
    return ids


def subset_array(g: DirectedGraph, omega: Iterable[int]) -> np.ndarray:
    """Validate a vertex subset and return it as a sorted unique int array."""
    return np.asarray(_subset_ids(omega, g.n), dtype=np.int64)


def boundaries(
    g: DirectedGraph, omega: Iterable[int]
) -> tuple[list[int], list[tuple[int, int, float]]]:
    """Vertex and edge boundary of a subset.

    Returns (vertex_boundary, edge_boundary) where vertex_boundary lists the
    vertices of omega with an undirected neighbor outside it, and
    edge_boundary lists every directed edge (either orientation) with exactly
    one endpoint inside omega.
    """
    idx = subset_array(g, omega)
    inside = np.zeros(g.n, dtype=bool)
    inside[idx] = True
    crossing = inside[g.edge_from] ^ inside[g.edge_to]
    tails, heads = g.edge_from[crossing], g.edge_to[crossing]
    edge_boundary = list(zip(tails.tolist(), heads.tolist(), g.edge_weight[crossing].tolist()))
    touched = np.unique(np.where(inside[tails], tails, heads))
    return touched.tolist(), edge_boundary


def hop_distances(
    g: DirectedGraph, root: int, arcs: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Breadth-first edge counts from root, -1 where root does not reach.

    arcs is a (tails, heads) pair of equal-length vertex arrays, the steps
    tails[i] -> heads[i] that may be walked; by default every edge in both
    directions, which walks the undirected skeleton.
    """
    if arcs is None:
        ends = (g.edge_from, g.edge_to)
        arcs = (np.concatenate(ends), np.concatenate(ends[::-1]))
    tails, heads = arcs
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = dist == 0
    hops = 0
    while frontier.any():
        hops += 1
        reached = np.zeros(g.n, dtype=bool)
        reached[heads[frontier[tails]]] = True
        frontier = reached & (dist < 0)
        dist[frontier] = hops
    return dist


def connectivity(g: DirectedGraph) -> tuple[bool, bool]:
    """Return (connected, strongly_connected).

    connected: the undirected skeleton is connected.
    strongly_connected: every vertex reaches every other along directed
    edges. The second implies the first.
    """
    forward = (g.edge_from, g.edge_to)
    strong = bool(
        np.all(hop_distances(g, 0, forward) >= 0)
        and np.all(hop_distances(g, 0, forward[::-1]) >= 0)
    )
    return strong or bool(np.all(hop_distances(g, 0) >= 0)), strong


def schrodinger_potential(g: DirectedGraph) -> np.ndarray:
    """Per-vertex imbalance potential (beta_plus - beta_minus) / m.

    Identically zero exactly when the graph is Kirchhoff balanced; this is
    the zeroth-order term by which the formal adjoint of the Laplacian
    differs from a plain Laplacian.
    """
    return (g.beta_plus - g.beta_minus) / g.measure


def graph_to_json_obj(g: DirectedGraph) -> dict:
    return {
        "vertices": [{"id": i, "m": float(g.measure[i])} for i in range(g.n)],
        "edges": [{"from": u, "to": v, "b": w} for u, v, w in g.edges()],
    }


def _json_columns(
    items: list, spec: tuple[tuple[str, frozenset], ...]
) -> tuple[list[list], int | None]:
    """The columns [item[key] for item in items], one per (key, types) of
    spec, and the index of the first entry that lacks a key or holds a
    value not of its types (None when there is none); the columns then
    stop before it.

    Whole columns are read and type-checked at once. Only when that fails,
    as then some entry does, are the entries checked one by one.
    """
    try:
        columns = [[item[key] for item in items] for key, _ in spec]
        if all(json_typed(col, types) for col, (_, types) in zip(columns, spec)):
            return columns, None
    except (KeyError, TypeError):
        pass
    for bad, item in enumerate(items):
        try:
            if not all(json_typed((item[key],), types) for key, types in spec):
                break
        except (KeyError, TypeError):
            break
    return [[item[key] for item in items[:bad]] for key, _ in spec], bad


def graph_from_json_obj(obj) -> DirectedGraph:
    """Build a graph from the documented JSON shape.

    {"vertices": [{"id": 0, "m": 1.0}, ...],
     "edges": [{"from": 0, "to": 1, "b": 2.0}, ...]}

    Vertex ids must be exactly 0..n-1 (any order). The first offending
    entry is reported: a malformed vertex entry or an id listed twice,
    then ids other than 0..n-1, then a malformed edge entry, then
    build_graph's checks.
    """
    if not isinstance(obj, dict):
        raise SchemaViolationError("graph JSON must be an object")
    try:
        vertices, edges = obj["vertices"], obj["edges"]
    except KeyError as exc:
        raise SchemaViolationError(f"graph JSON missing key: {exc}") from exc
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise SchemaViolationError("'vertices' and 'edges' must be arrays")

    (ids, measures), bad = _json_columns(vertices, (("id", INTEGER), ("m", NUMBER)))
    if len(set(ids)) < len(ids):
        seen: set[int] = set()
        for vid in ids:
            if vid in seen:
                raise SchemaViolationError(f"vertex id {vid} listed twice")
            seen.add(vid)
    if bad is not None:
        raise SchemaViolationError(f"bad vertex entry {vertices[bad]!r}")
    n = len(ids)
    # n distinct integers are 0..n-1 exactly when they span it
    if ids and (min(ids) != 0 or max(ids) != n - 1):
        raise SchemaViolationError("vertex ids must be exactly 0..n-1")
    m = np.empty(n)
    m[ids] = floats(measures)

    spec = (("from", INTEGER), ("to", INTEGER), ("b", NUMBER))
    (tails, heads, weights), bad = _json_columns(edges, spec)
    if bad is not None:
        raise SchemaViolationError(f"bad edge entry {edges[bad]!r}")
    return _graph_from_columns(m, tails, heads, weights)


def load_graph(path: str) -> DirectedGraph:
    """Read a graph JSON file. Raises InputParseError on unreadable files."""
    return graph_from_json_obj(read_json(path))


_VERTEX = '    {\n      "id": %d,\n      "m": %r\n    }'
_EDGE = '    {\n      "b": %r,\n      "from": %d,\n      "to": %d\n    }'


def _json_array(template: str, count: int) -> str:
    # json.dumps writes an empty list as [] whatever the indent
    return "[\n" + ",\n".join([template] * count) + "\n  ]" if count else "[]"


def save_graph(g: DirectedGraph, path: str) -> None:
    """Write a graph JSON file atomically.

    The text is dump_json(graph_to_json_obj(g)), byte for byte: sorted
    keys, 2-space indent, ints as %d and floats as repr, which is what json
    writes for the finite floats a graph holds. It is formatted in one pass
    straight from the arrays.
    """
    template = (
        '{\n  "edges": ' + _json_array(_EDGE, g.edge_from.size)
        + ',\n  "vertices": ' + _json_array(_VERTEX, g.n) + "\n}\n"
    )
    edges = zip(g.edge_weight.tolist(), g.edge_from.tolist(), g.edge_to.tolist())
    vertices = zip(range(g.n), g.measure.tolist())
    values = (*chain.from_iterable(edges), *chain.from_iterable(vertices))
    write_text_atomic(path, template % values)
