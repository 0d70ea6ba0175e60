"""Laplacian-type operators on a directed weighted graph.

Six kinds are assembled, all dense real matrices paired with the metric
(vertex weights) of the inner product they live in:

    delta                   (1/m)(beta_plus f - B f)            metric m
    delta_prime             (1/m)(beta_plus f - B^T f)          metric m
    h                       delta + delta_prime                 metric m
    normalized_delta        same as delta with m := beta_plus   metric beta_plus
    normalized_delta_prime  likewise                            metric beta_plus
    normalized_h            likewise                            metric beta_plus

delta_prime is the formal adjoint of delta for the metric inner product:
(delta f, h) == (f, delta_prime h) for all vectors. Under Kirchhoff balance
its row sums vanish, i.e. it is again a Laplacian (for the transposed
weights); in general delta_prime 1 equals the imbalance potential.
h is always self-adjoint for its metric.

A Dirichlet restriction keeps the rows and columns of a vertex subset,
which imposes zero boundary values on the complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._io import INTEGER, NUMBER, dump_csv, floats, json_typed, parse_json
from .errors import InvalidArgumentError, KirchhoffViolatedError, SchemaViolationError
from .graph import DirectedGraph, _subset_ids, check_kirchhoff

KINDS = (
    "delta",
    "delta_prime",
    "h",
    "normalized_delta",
    "normalized_delta_prime",
    "normalized_h",
)


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense matrix together with the metric of its inner product.

    support lists the original vertex ids the rows/columns refer to; None
    means the full vertex set in order.
    """

    matrix: np.ndarray
    metric: np.ndarray
    kind: str
    support: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def base_kind(self) -> str:
        """Kind with any dirichlet(...) wrapper removed."""
        return _base_kind(self.kind)


def _base_kind(kind: str) -> str:
    while kind.startswith("dirichlet(") and kind.endswith(")"):
        kind = kind[len("dirichlet(") : -1]
    return kind


def assemble(g: DirectedGraph, kind: str) -> Operator:
    """Assemble one of the six operator kinds for a graph."""
    if kind not in KINDS:
        raise InvalidArgumentError(f"unknown operator kind {kind!r}, expected one of {KINDS}")
    B = g.weight_matrix
    w = g.beta_plus if kind.startswith("normalized_") else g.measure
    diag = np.diag(g.beta_plus / w)
    base = kind.removeprefix("normalized_")
    if base == "delta":
        M = diag - B / w[:, None]
    elif base == "delta_prime":
        M = diag - B.T / w[:, None]
    else:  # h
        M = 2.0 * diag - (B + B.T) / w[:, None]
    M.flags.writeable = False
    return Operator(matrix=M, metric=w, kind=kind)


def dirichlet(op: Operator, omega: Iterable[int]) -> Operator:
    """Restrict an operator to a vertex subset (zero boundary conditions).

    omega is given in original vertex ids; for an already-restricted
    operator it must be a subset of its support.
    """
    if op.support is None:
        positions = ids = _subset_ids(omega, op.size)
    else:
        ids = _subset_ids(omega, None)
        lookup = {v: i for i, v in enumerate(op.support)}
        try:
            positions = [lookup[v] for v in ids]
        except KeyError as exc:
            raise SchemaViolationError(
                f"vertex {exc.args[0]} is not in the operator support"
            ) from exc
    pos = np.asarray(positions, dtype=np.int64)
    M = op.matrix.take(pos, axis=0).take(pos, axis=1)
    M.flags.writeable = False
    return Operator(
        matrix=M,
        metric=op.metric[pos],
        kind=f"dirichlet({op.kind})",
        support=tuple(ids),
    )


def to_euclidean(op: Operator) -> np.ndarray:
    """Conjugate the matrix into the plain inner product: W^1/2 A W^-1/2.

    Spectrum is unchanged; self-adjointness for the metric becomes ordinary
    symmetry, so Euclidean tools (eigh, svd) apply directly.
    """
    s = np.sqrt(op.metric)
    return op.matrix * (s[:, None] / s[None, :])


def metric_inner(metric: np.ndarray, f: np.ndarray, h: np.ndarray) -> complex | np.ndarray:
    """Weighted inner product sum_x metric(x) f(x) conj(h(x)) along the last
    axis: a complex scalar for one vector, a complex array with one value
    per row for stacks of row vectors. The terms are summed in C order, so
    every row rounds as the same vector on its own does."""
    return np.ascontiguousarray(metric * np.asarray(f) * np.conj(h)).sum(axis=-1)


def _matvec(matrix: np.ndarray, f: np.ndarray) -> np.ndarray:
    """matrix @ f per row of f, rounded as for one vector (f @ matrix.T is not)."""
    return (matrix @ f[..., None])[..., 0]


def _green_terms(g: DirectedGraph, delta: np.ndarray, f: np.ndarray, h: np.ndarray) -> tuple:
    """The three terms (delta f, h)_m, conj((delta h, f)_m) and
    sum_edges b(x,y) (f(x)-f(y)) conj(h(x)-h(y)) of summation by parts,
    one value each per row of f and h."""
    x, y = g.edge_from, g.edge_to
    t1 = metric_inner(g.measure, _matvec(delta, f), h)
    t2 = np.conj(metric_inner(g.measure, _matvec(delta, h), f))
    return t1, t2, metric_inner(g.edge_weight, f[..., x] - f[..., y], h[..., x] - h[..., y])


def _green_defect(g: DirectedGraph, f: np.ndarray, h: np.ndarray) -> tuple:
    """Per row of f and h: the residual |t1 + t2 - t3| of the three terms and
    its scale max(1, |t1|, |t2|, |t3|). Raises KirchhoffViolatedError if the
    graph is not balanced."""
    report = check_kirchhoff(g)
    if not report.satisfied:
        raise KirchhoffViolatedError(
            f"graph violates flow balance by {report.max_violation:g}"
        )
    f = np.asarray(f, dtype=complex)
    h = np.asarray(h, dtype=complex)
    t1, t2, t3 = _green_terms(g, assemble(g, "delta").matrix, f, h)
    z = np.stack([t1 + t2 - t3, t1, t2, t3])
    # hypot rounds as abs() of a Python complex does; np.abs on complex arrays may not
    modulus = np.hypot(z.real, z.imag)
    return modulus[0], np.max(modulus[1:], axis=0, initial=1.0)


def greens_residual(g: DirectedGraph, f: np.ndarray, h: np.ndarray) -> float | np.ndarray:
    """Defect of the summation-by-parts identity on a balanced graph.

    Computes |(delta f, h)_m + conj((delta h, f)_m)
              - sum_edges b(x,y) (f(x)-f(y)) conj(h(x)-h(y))|,
    which is zero in exact arithmetic whenever outflow == inflow holds.
    Takes one pair of vectors, or two stacks of row vectors, and then
    returns one residual per row.

    Raises KirchhoffViolatedError if the graph is not balanced.
    """
    return _green_defect(g, f, h)[0]


def quadratic_form(op: Operator, f: np.ndarray) -> float | np.ndarray:
    """Energy 2 Re (A f, f)_metric of a delta-type operator, one value per
    row for a stack of row vectors.

    Only meaningful for kind delta / normalized_delta (possibly Dirichlet
    restricted); on a balanced graph it equals
    sum_edges b(x,y) |f(x)-f(y)|^2, hence is nonnegative.
    """
    if op.base_kind() not in ("delta", "normalized_delta"):
        raise InvalidArgumentError(f"quadratic_form expects a delta kind, got {op.kind!r}")
    f = np.asarray(f, dtype=complex)
    return 2.0 * metric_inner(op.metric, _matvec(op.matrix, f), f).real


def operator_to_json_obj(op: Operator) -> dict:
    return {
        "kind": op.kind,
        "metric": [float(x) for x in op.metric],
        "matrix": [[float(x) for x in row] for row in op.matrix],
        "support": None if op.support is None else list(op.support),
    }


def operator_from_json_obj(obj) -> Operator:
    """Read operator_to_json_obj's shape; the kind is one of KINDS, possibly
    in dirichlet(...), and every number follows the _io input rule."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SchemaViolationError("operator JSON must be an object with a 'matrix' key")
    matrix, metric, kind, support = map(obj.get, ("matrix", "metric", "kind", "support"))
    if type(kind) is not str or _base_kind(kind) not in KINDS:
        raise SchemaViolationError(f"unknown operator kind {kind!r}, expected one of {KINDS}")
    n = len(matrix) if isinstance(matrix, list) else 0
    if not n or not all(isinstance(row, list) and len(row) == n for row in matrix):
        raise SchemaViolationError("operator matrix must be square")
    if not isinstance(metric, list) or len(metric) != n:
        raise SchemaViolationError("metric length must match the matrix")
    entries = [x for row in matrix for x in row]
    if not (json_typed(entries, NUMBER) and json_typed(metric, NUMBER)):
        raise SchemaViolationError("operator matrix and metric must hold JSON numbers")
    matrix, metric = floats(entries).reshape(n, n), floats(metric)
    if not np.all(metric > 0):
        raise SchemaViolationError("metric entries must be > 0")
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(metric))):
        raise SchemaViolationError("operator matrix and metric must be finite")
    if support is not None and not (
        isinstance(support, list)
        and json_typed(support, INTEGER)
        and all(v >= 0 for v in support)
        and len(set(support)) == len(support) == n
    ):
        raise SchemaViolationError("support must be null or one distinct vertex id >= 0 per row")
    matrix.flags.writeable = False
    metric.flags.writeable = False
    return Operator(matrix, metric, kind, None if support is None else tuple(support))


def operator_to_csv_text(op: Operator) -> str:
    """Row-major CSV after the header lines kind, metric and, for a
    restriction only, support."""
    support = [] if op.support is None else [("support", *op.support)]
    return dump_csv([("kind", op.kind), ("metric", *op.metric), *support, *op.matrix.tolist()])


def _cells(line: str) -> list:
    return parse_json(f"[{line}]", "an operator CSV line read as a JSON array")


def operator_from_csv_text(text: str) -> Operator:
    """Read operator_to_csv_text's layout; each line's cells parse as one JSON array."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("kind,") or not lines[1].startswith("metric,"):
        raise SchemaViolationError("operator CSV needs 'kind,...' and 'metric,...' header lines")
    kind = lines[0].split(",", 1)[1]
    support = _cells(lines.pop(2).split(",", 1)[1]) if lines[2].startswith("support,") else None
    metric = _cells(lines[1].split(",", 1)[1])
    matrix = [_cells(ln) for ln in lines[2:]]
    return operator_from_json_obj(dict(kind=kind, metric=metric, matrix=matrix, support=support))
