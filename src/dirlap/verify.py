"""Checks that the spectral inequalities hold on concrete instances.

Every check returns a TheoremReport: an inequality chain evaluated on one
instance, with lhs[i] <= rhs[i] expected entrywise, margin = min(rhs - lhs),
and passed <=> margin >= -tolerance. Equalities are encoded as the two
opposite inequalities. Randomized checks draw from a fixed-seed splitmix64
stream, so outputs are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyComplementError, InvalidArgumentError
from .generators import SplitMix64, _draw, corpus
from .graph import DirectedGraph, boundaries, connectivity, subset_array
from .isoperimetric import (
    Filtration,
    InfinityProfile,
    _profile,
    _subset,
    build_filtration,
    infinity_profile,
)
from .operators import (
    Operator,
    _green_defect,
    assemble,
    dirichlet,
    metric_inner,
    quadratic_form,
    to_euclidean,
)
from .spectral import _hermitian_eigh, _hermitian_extremes, _kernel_count, eig, operator_norm

DEFAULT_ABS_TOL = 1e-8
DEFAULT_REL_TOL = 1e-8

# strictness floor for "strictly positive" spectral gaps (see the Dirichlet
# bounds): asserted as >= -STRICT_FLOOR rather than > 0, which is the best a
# floating point check can honestly do
STRICT_FLOOR = 1e-12

_GREEN_SEED = 0x6772E55
_FUJIWARA_SEED = 0xF731A4A
_GREEN_PAIRS = 100
_FUJIWARA_VECTORS = 100

_EXHAUSTIVE_LIMIT = 9
_SANDWICH_SIZE_CAP = 8


@dataclass(frozen=True)
class TheoremReport:
    """One verified inequality chain on one instance."""

    theorem_id: str
    instance: str
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    margin: float
    passed: bool
    tolerance: float


def _default_tolerance(values: Iterable[float]) -> float:
    scale = max((abs(v) for v in values), default=0.0)
    return DEFAULT_ABS_TOL + DEFAULT_REL_TOL * scale


def _report(
    theorem_id: str,
    instance: str,
    pairs: Sequence[tuple[float, float]],
    tolerance: float | None = None,
) -> TheoremReport:
    lhs = tuple(float(a) for a, _ in pairs)
    rhs = tuple(float(b) for _, b in pairs)
    if tolerance is None:
        tolerance = _default_tolerance(lhs + rhs)
    margin = min(b - a for a, b in zip(lhs, rhs))
    return TheoremReport(
        theorem_id=theorem_id,
        instance=instance,
        lhs=lhs,
        rhs=rhs,
        margin=float(margin),
        passed=bool(margin >= -tolerance),
        tolerance=float(tolerance),
    )


def _omega_tag(omega: Iterable[int]) -> str:
    return "{" + ",".join(str(int(v)) for v in sorted(set(omega))) + "}"


def _operators(g: DirectedGraph) -> tuple[Operator, Operator]:
    """The two operators the subset checks restrict: delta and normalized_delta."""
    return assemble(g, "delta"), assemble(g, "normalized_delta")


def verify_green(g: DirectedGraph, instance: str = "graph") -> TheoremReport:
    """Summation-by-parts identity on 100 random complex vector pairs.

    The residual is compared against 1e-9 * scale per pair, scale being the
    magnitude of the three terms involved (at least 1). Raises
    KirchhoffViolatedError on unbalanced graphs.
    """
    draws = _draw(SplitMix64(_GREEN_SEED), 2 * _GREEN_PAIRS, g.n)
    resid, scale = _green_defect(g, draws[0::2], draws[1::2])
    worst = np.max(resid / scale, initial=0.0)
    return _report(
        "greens_formula",
        f"{instance}|pairs={_GREEN_PAIRS}",
        [(worst, 1e-9)],
        tolerance=0.0,
    )


def verify_bounded(g: DirectedGraph, instance: str = "graph") -> TheoremReport:
    """Normalized operator A: norm <= 2, numerical range in the unit-radius
    disc centered at 1, and (connected case) a simple zero eigenvalue.

    The disc is certified by ||I - A|| <= 1, not sampled: under flow
    balance, beta_plus is stationary for the random walk I - A, so the Schur
    test bounds its norm in the beta_plus metric by 1.
    """
    op = assemble(g, "normalized_delta")
    return _bounded(op, eig(to_euclidean(op)), connectivity(g)[0], instance)


def _bounded(op: Operator, lam: np.ndarray, connected: bool, instance: str) -> TheoremReport:
    """verify_bounded on op, the normalized operator of a graph, with lam
    the eigenvalues of its Euclidean matrix; the kernel is checked only if
    the graph is connected."""
    walk = Operator(matrix=np.eye(op.size) - op.matrix, metric=op.metric, kind="random_walk")
    pairs = [(operator_norm(op), 2.0), (operator_norm(walk), 1.0)]
    if connected:
        pairs.append((float(abs(_kernel_count(lam) - 1)), 0.0))
    return _report("norm_disc_kernel", instance, pairs)


def verify_kyfan(matrix: np.ndarray, instance: str = "matrix") -> TheoremReport:
    """Partial-sum comparison between Re of eigenvalues and eigenvalues of
    the Hermitian part.

    With both lists ascending, the top-q sums of Re(eigenvalues) are bounded
    by the top-q sums of the Hermitian part's eigenvalues, with equality for
    q = n (both equal the real part of the trace).
    """
    a = np.asarray(matrix)
    return _kyfan(a, eig(a), instance)


def _kyfan(a: np.ndarray, lam: np.ndarray, instance: str) -> TheoremReport:
    """verify_kyfan on the square matrix a, whose eigenvalues are lam. A
    real a stays real: both solves take the real path."""
    re_sorted = np.sort(lam.real)
    sym_sorted = _hermitian_eigh(a)
    n = a.shape[0]
    pairs = []
    for q in range(1, n + 1):
        pairs.append((float(re_sorted[n - q :].sum()), float(sym_sorted[n - q :].sum())))
    # q = n is an equality: add the reversed inequality
    pairs.append((float(sym_sorted.sum()), float(re_sorted.sum())))
    return _report("ky_fan_partial_sums", instance, pairs)


def verify_dirichlet_bounds(
    g: DirectedGraph, omega: Iterable[int], instance: str = "graph"
) -> TheoremReport:
    """Spectral bounds for the normalized operator restricted to a proper
    subset with zero boundary conditions.

    Checks: Re of the lowest eigenvalue is (strictly) positive and <= 1; the
    extreme eigenvalues of the Hermitian part sum to <= 2; the Hermitian
    part's bottom eigenvalue lower-bounds Re of the lowest eigenvalue; Re of
    the top eigenvalue stays below 2. Strict positivity is asserted at the
    1e-12 floor.
    """
    idx = subset_array(g, omega)
    if idx.size >= g.n:
        raise InvalidArgumentError("omega must be a proper subset")
    vertex_boundary, _ = boundaries(g, idx)
    if not vertex_boundary:
        raise InvalidArgumentError("omega must have a non-empty vertex boundary")
    op = dirichlet(assemble(g, "normalized_delta"), idx)
    return _bounds(op, *_hermitian_extremes(op), f"{instance}|omega={_omega_tag(idx)}")


def _bounds(op: Operator, s_low: float, s_high: float, tag: str) -> TheoremReport:
    """verify_dirichlet_bounds on op, a normalized restriction whose
    Hermitian part has the extreme eigenvalues s_low and s_high."""
    lam = eig(op.matrix)
    re_low = float(lam[0].real)
    re_high = float(lam[-1].real)
    tol = _default_tolerance([re_low, re_high, s_low, s_high, 2.0])
    pairs = [
        (STRICT_FLOOR - tol, re_low),  # strict positivity at the 1e-12 floor
        (re_low, 1.0),
        (s_low + s_high, 2.0),
        (s_low, re_low),
        (re_high, 2.0),
    ]
    return _report("dirichlet_eigenvalue_bounds", tag, pairs, tolerance=tol)


def _isoperimetric(
    g: DirectedGraph,
    idx: np.ndarray,
    instance: str,
    delta: Operator,
    normalized: Operator,
    known: dict,
    with_bounds: bool = False,
) -> list[TheoremReport]:
    """The Dirichlet bounds (if with_bounds), the Cheeger sandwich and the
    Fujiwara envelope of a valid subset array, in that order. The plain
    side comes from _subset, which adds the subset to known: its nu is
    both nu_m and rho, the inf of Re over the numerical range, and sigma
    the sup. One solve of the normalized restriction's Hermitian part
    gives nu_t and its top eigenvalue.
    """
    op_m, d = _subset(g, idx, delta, known)
    op_t = dirichlet(normalized, idx)
    nu_t, top_t = _hermitian_extremes(op_t)
    sandwich = [
        (d.h * d.h / 8.0, d.M * d.nu),
        (d.M * d.nu, 0.5 * d.M * d.h),
        (d.ht * d.ht / 8.0, nu_t),
        (nu_t, 0.5 * d.ht),
        (d.ess_lower_bound, d.nu),
    ]
    s = float(np.sqrt(max(0.0, 4.0 - d.ht * d.ht)))
    f = _draw(SplitMix64(_FUJIWARA_SEED), _FUJIWARA_VECTORS, idx.size)
    two_re_lam = quadratic_form(op_m, f) / metric_inner(op_m.metric, f, f).real
    r = quadratic_form(op_t, f) / metric_inner(op_t.metric, f, f).real
    # the worst vector of each side; argmin takes the first on ties
    low = int(np.argmin(two_re_lam - d.m * r))
    high = int(np.argmin(d.M * r - two_re_lam))
    fujiwara = [
        (d.m * (2.0 - s), 2.0 * d.nu),
        (2.0 * d.sigma, d.M * (2.0 + s)),
        (d.m * r[low], two_re_lam[low]),
        (two_re_lam[high], d.M * r[high]),
    ]
    tag = f"{instance}|omega={_omega_tag(idx)}"
    reports = [_bounds(op_t, nu_t, top_t, tag)] if with_bounds else []
    return reports + [
        _report("cheeger_sandwich", tag, sandwich),
        _report("fujiwara_envelope", f"{tag}|vectors={_FUJIWARA_VECTORS}", fujiwara),
    ]


def verify_cheeger_sandwich(
    g: DirectedGraph, omega: Iterable[int], instance: str = "graph"
) -> TheoremReport:
    """Two-sided isoperimetric bounds on the Dirichlet spectral gap.

    With h the measure-normalized and ht the outflow-normalized constant,
    nu_m / nu_t the gaps of the plain / normalized restrictions, and m, M
    the extreme outflow-to-measure ratios on omega:

        h^2 / 8     <= M nu_m <= M h / 2
        ht^2 / 8    <= nu_t   <= ht / 2
        m ht^2 / 8  <= nu_m

    A call also evaluates the Fujiwara envelope; verify_graph keeps both.
    """
    return _isoperimetric(g, subset_array(g, omega), instance, *_operators(g), {})[0]


def verify_fujiwara(
    g: DirectedGraph, omega: Iterable[int], instance: str = "graph"
) -> TheoremReport:
    """Isoperimetric envelope of the Dirichlet numerical range.

    On a flow-balanced graph, every point of the numerical range of the
    restricted plain operator has 2 Re(point) between m (2 - sqrt(4 - ht^2))
    and M (2 + sqrt(4 - ht^2)). Checked at rho and sigma, the exact inf and
    sup of Re over the range, and as the sharper interior chain
    m r(f) <= 2 Re (A f, f)_m <= M r(f) on 100 random vectors, where
    r(f) = 2 Re (At f, f)_bp / (f, f)_bp compares against the normalized
    restriction At.

    A call also evaluates the Cheeger sandwich; verify_graph keeps both.
    """
    return _isoperimetric(g, subset_array(g, omega), instance, *_operators(g), {})[1]


def verify_ess_bound_consistency(
    g: DirectedGraph,
    filt: Filtration,
    instance: str = "graph",
) -> TheoremReport:
    """Per-level essential-spectrum lower bounds along a filtration.

    The Dirichlet gap of each complement bounds the essential spectrum's
    real part from below, so the sequence nu(level complement) must be
    nondecreasing, and each level must satisfy the isoperimetric bound
    m_c ht_c^2 / 8 <= nu.
    """
    return _ess_bounds(infinity_profile(g, filt), filt.root, instance)


def _ess_bounds(profile: InfinityProfile, root: int, instance: str) -> TheoremReport:
    """verify_ess_bound_consistency on the profile of a filtration from root."""
    if len(profile.levels) < 2:
        raise EmptyComplementError("need at least 2 levels with non-empty complement")
    pairs = []
    for a, b in zip(profile.levels, profile.levels[1:]):
        pairs.append((a.nu_dirichlet, b.nu_dirichlet))
    for row in profile.levels:
        pairs.append((row.ess_lower_bound, row.nu_dirichlet))
    return _report(
        "essential_spectrum_lower_bound",
        f"{instance}|root={root}|levels={len(profile.levels)}",
        pairs,
    )


def _proper_subsets(n: int, max_size: int) -> Iterable[tuple[int, ...]]:
    """All subsets of 0..n-1 with 1 <= size <= max_size, smallest first."""
    for size in range(1, max_size + 1):
        yield from combinations(range(n), size)


def _selected_subsets(g: DirectedGraph, filt: Filtration | None) -> list[tuple[int, ...]]:
    """Deterministic subset family for graphs too big to sweep: three
    single vertices, then the first filtration levels and their complements."""
    subsets: list[tuple[int, ...]] = [(0,), (g.n // 2,), (g.n - 1,)]
    if filt is not None:
        for r in range(min(4, int(filt.dist.max()))):
            subsets.append(tuple(np.flatnonzero(filt.dist <= r).tolist()))
            subsets.append(tuple(np.flatnonzero(filt.dist > r).tolist()))
    return list(dict.fromkeys(subsets))


def verify_graph(g: DirectedGraph, name: str = "graph") -> list[TheoremReport]:
    """Run the whole suite on one balanced graph.

    For n <= 9 the subset sweep is exhaustive over subsets of up to 8
    vertices; larger graphs get a deterministic selection of single
    vertices, filtration levels from vertex 0 and their complements. Every
    subset gets the isoperimetric checks, and each proper one with a vertex
    boundary the Dirichlet bounds (so a union of components is left out);
    all bounds reports come first. On a connected graph whose filtration
    has two levels with a non-empty complement, the essential-spectrum
    bounds are checked along it. Every Cheeger constant is exact, so no
    subset is left out for its size: on larger graphs the selected levels
    and complements are checked whatever their size.
    """
    delta, normalized = _operators(g)
    connected, _ = connectivity(g)
    # one real solve of the normalized operator serves the kernel and Ky Fan
    euclidean = to_euclidean(normalized)
    lam = eig(euclidean)
    reports = [
        verify_green(g, name),
        _bounded(normalized, lam, connected, name),
        _kyfan(euclidean, lam, f"{name}|normalized_delta"),
    ]
    filt = build_filtration(g, 0) if connected else None
    if g.n <= _EXHAUSTIVE_LIMIT:
        subsets = _proper_subsets(g.n, min(_SANDWICH_SIZE_CAP, g.n))
    else:
        subsets = _selected_subsets(g, filt)
    bounds, isoperimetric = [], []
    known: dict = {}
    for omega in subsets:
        idx = subset_array(g, omega)
        # on a connected graph every proper subset has a vertex boundary
        with_bounds = idx.size < g.n and (connected or bool(boundaries(g, idx)[0]))
        *head, sandwich, fujiwara = _isoperimetric(
            g, idx, name, delta, normalized, known, with_bounds
        )
        bounds += head
        isoperimetric += [sandwich, fujiwara]
    reports += bounds + isoperimetric
    # every level but the last (the whole graph) has a non-empty complement
    if filt is not None and filt.dist.max() >= 2:
        reports.append(_ess_bounds(_profile(g, filt, delta, known), filt.root, name))
    return reports


def verify_corpus() -> list[TheoremReport]:
    """Run the suite over the built-in corpus."""
    reports: list[TheoremReport] = []
    for name, g in corpus():
        reports.extend(verify_graph(g, name))
    return reports
