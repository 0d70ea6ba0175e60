"""Cheeger-type isoperimetric constants, filtrations and profiles at infinity.

For a vertex subset Omega, the constant is

    inf over finite non-empty U inside Omega of  b(edge boundary of U) / denom(U)

where the edge boundary counts directed edges crossing U in either
direction, and denom is the measure m(U) ("measure" normalization) or the
outflow beta_plus(U) ("beta_plus" normalization). On a balanced graph the
two crossing directions carry equal total weight, so the numerator is twice
the one-directional cut.

cheeger_exact finds the constant exactly, at every size of Omega, by
Dinkelbach's iteration over minimum cuts (MQI, Lang & Rao 2004). At a ratio
p / q, the sink side of a minimum s-t cut minimizes q cut(U) - p denom(U)
over U, in the network with arcs s -> u of capacity q times u's weight to
and from outside Omega, q (b(u, v) + b(v, u)) both ways between internal
u and v, and u -> t of capacity p denom(u). From U = Omega, each step moves
to that sink side, whose ratio is smaller, until none is. The floats are
dyadic, so one power of two scales them to integers and the flow (Dinic's
algorithm) is exact; the value is the witness's integer cut over its integer
denominator, divided once, so it is correctly rounded. The witness is the
largest minimizer, the union of all of them: the vertices that s does not
reach in the final residual network. Every maximum flow leaves the same
vertices unreached, so the flow is free to save work: it starts from a
preflow that saturates each two-arc path s -> u -> t, and each of Dinic's
phases stops its breadth-first search once t's level is known and keeps in
its level graph only the nodes that can lie on a shortest augmenting path.
cheeger_exact is the only solver; cheeger_heuristic, the name of a retired
sweep-cut heuristic, returns its result unchanged.

A filtration is a nested exhausting family of connected subsets; profiling
the complements (min/max vertex ratios, Cheeger constants, Dirichlet
spectral gaps) gives lower bounds for the essential spectrum and detects
heavy ends, where the complements' weight-to-measure ratio blows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DisconnectedError, InvalidArgumentError, _require_finite
from .graph import DirectedGraph, _check_types, hop_distances, subset_array
from .operators import Operator, assemble, dirichlet
from .spectral import _hermitian_extremes

NORMALIZATIONS = ("measure", "beta_plus")


@dataclass(frozen=True)
class CheegerResult:
    """Constant value, the subset achieving it, and how it was obtained.

    mode is always "exact": value is the exact minimum ratio, correctly
    rounded, and witness the largest minimizer, the union of all of them.
    """

    value: float
    witness: tuple[int, ...]
    mode: str
    normalization: str


def _denominator_values(g: DirectedGraph, normalization: str) -> np.ndarray:
    if normalization not in NORMALIZATIONS:
        raise InvalidArgumentError(
            f"unknown normalization {normalization!r}, expected one of {NORMALIZATIONS}"
        )
    return g.measure if normalization == "measure" else g.beta_plus


def _dyadic_integers(x: np.ndarray) -> np.ndarray:
    """The positive finite floats x as the exact Python ints x * 2^J, with
    one J for all of them: the smallest that makes every entry an integer.

    Every float is odd * 2^e for an odd integer below 2^53.
    """
    frac, exp = np.frexp(x)
    mantissa = (frac * 2.0**53).astype(np.int64)
    zeros = np.frexp((mantissa & -mantissa).astype(float))[1] - 1
    shift = exp + zeros
    return (mantissa >> zeros).astype(object) << (shift - shift.min()).astype(object)


def _group_sums(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Exact integer sums of values per group id in 0..size-1."""
    out = np.zeros(size, dtype=object)
    np.add.at(out, groups, values)
    return out


def _max_flow(start: list, to: list, rev: list, cap: list, s: int, t: int) -> list[int]:
    """Push a maximum s-t flow (Dinic), leaving the residual capacities in
    cap, and return the last breadth-first levels: -1 exactly at the nodes
    that s does not reach in the residual network. The arcs of node x are
    start[x]..start[x + 1] - 1, arc a runs to to[a], and rev[a] is its
    reverse arc.

    A preflow first saturates every two-arc path s -> u -> t. Each phase's
    breadth-first search then stops as soon as t has a level or every other
    node has one: t's level is one above the lowest node with a residual
    arc into t (read from t's arcs through rev). Of that lowest level only
    the nodes with such an arc stay in the level graph, and beyond it only
    t: no other node there lies on a shortest augmenting path. A node that
    the blocking-flow search finds to be a dead end leaves the level graph
    too, so no later path of the phase enters it. The last phase, which
    never reaches t, searches the whole residual network."""
    n = len(start) - 1
    # into_t[u] is an arc u -> t, or -1
    into_t = [-1] * n
    for b in range(start[t], start[t + 1]):
        into_t[to[b]] = rev[b]
    for a in range(start[s], start[s + 1]):
        e = into_t[to[a]]
        if e >= 0:
            push = min(cap[a], cap[e])
            cap[a] -= push
            cap[rev[a]] += push
            cap[e] -= push
            cap[rev[e]] += push
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for x in queue:
            for a in range(start[x], start[x + 1]):
                if cap[a] and level[to[a]] < 0:
                    level[to[a]] = level[x] + 1
                    queue.append(to[a])
            if level[t] >= 0 or len(queue) == n - 1:
                break
        # t's level is one above the lowest node with a residual arc into it
        feeds = [to[b] for b in range(start[t], start[t + 1]) if cap[rev[b]] and level[to[b]] >= 0]
        if not feeds:
            return level
        below = min(level[y] for y in feeds)
        feeds = [y for y in feeds if level[y] == below]
        # the queue ends with the nodes on that level and beyond; keep only
        # t and the feeding nodes
        for y in reversed(queue):
            if level[y] < below:
                break
            level[y] = -1
        for y in feeds:
            level[y] = below
        level[t] = below + 1
        # blocking flow by depth-first search over the level graph; path
        # holds the arcs from s to x, and arc[y] is y's first untried arc
        arc = start[:-1]
        path: list[int] = []
        x = s
        while True:
            if x == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[rev[a]] += push
                first = next(i for i, a in enumerate(path) if not cap[a])
                x = to[rev[path[first]]]
                del path[first:]
                continue
            a, stop, down = arc[x], start[x + 1], level[x] + 1
            while a < stop and not (cap[a] and level[to[a]] == down):
                a += 1
            arc[x] = a
            if a < stop:
                path.append(a)
                x = to[a]
            elif x == s:
                break
            else:  # x is a dead end: leave the level graph, retreat and
                # skip the arc into it
                level[x] = -1
                a = path.pop()
                x = to[rev[a]]
                arc[x] += 1


def _exact(
    g: DirectedGraph, idx: np.ndarray, normalizations: tuple[str, ...] = NORMALIZATIONS
) -> tuple[CheegerResult, ...]:
    """cheeger_exact on a sorted array of distinct valid vertex ids, once
    per normalization, over one network. An unknown normalization raises
    before the network is built."""
    denoms = [_denominator_values(g, name)[idx] for name in normalizations]
    k = idx.size
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[idx] = np.arange(k)
    ends = pos[g.edge_from], pos[g.edge_to]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    # an edge with one end in omega belongs to that end, hi; an edge with
    # both joins the internal pair lo < hi, once per direction
    leaving = np.flatnonzero((lo < 0) & (hi >= 0))
    inner = np.flatnonzero(lo >= 0)
    pairs, which = np.unique(lo[inner] * k + hi[inner], return_inverse=True)
    w = g.edge_weight
    ints = _dyadic_integers(np.concatenate([*denoms, w[leaving], w[inner]]))
    # the denominators come first, k integers per normalization
    off = len(denoms) * k
    ext = _group_sums(hi[leaving], ints[off : off + leaving.size], k)
    pair_weight = _group_sums(which, ints[off + leaving.size :], pairs.size)
    u, v = pairs // k, pairs % k

    # nodes 0..k-1 are omega, then s and t. The m arcs u -> t, u -> v (one
    # per internal pair) and s -> u come first and their reverses next, so
    # arc i + m is the reverse of arc i. At ratio p / q, arc a has capacity
    # entry source[a] of [0, p * denom, q * on_q]: arc i < m has entry
    # i + 1, v -> u shares u -> v's, and the other reverses have 0, so each
    # pair's weight is multiplied once. The network is stored by tail node
    # (CSR).
    s, t = k, k + 1
    exits = np.flatnonzero(ext)
    m = k + pairs.size + exits.size
    tails = np.concatenate([np.arange(k), u, np.full(exits.size, s), np.full(k, t), v, exits])
    entries = np.arange(1, m + 1)
    none = np.zeros(k + exits.size, dtype=np.int64)
    source = np.concatenate([entries, none[:k], entries[k : k + pairs.size], none[k:]])
    # node ids and entries in the smallest unsigned type that holds them: a
    # stable sort of 16-bit keys is a radix sort, and source, kept through
    # every flow, then takes 2 bytes an arc
    order = np.argsort(tails.astype(np.min_scalar_type(k + 1)), kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(2 * m)
    start = np.searchsorted(tails[order], np.arange(k + 3)).tolist()
    to = np.concatenate([tails[m:], tails[:m]])[order].tolist()
    rev = where[(order + m) % (2 * m)].tolist()
    source = source[order].astype(np.min_scalar_type(m))
    on_q = np.concatenate([pair_weight, ext[exits]])
    zero = np.zeros(1, dtype=object)

    def solve(normalization: str, denom: np.ndarray) -> CheegerResult:
        def cut_and_denom(inside: np.ndarray) -> tuple[int, int]:
            cut = ext[inside].sum() + pair_weight[inside[u] != inside[v]].sum()
            return int(cut), int(denom[inside].sum())

        # Dinkelbach's iteration from omega: the largest minimizer at the
        # current ratio, the vertices s does not reach, has a smaller
        # ratio, until the ratio is the minimum
        p, q = cut_and_denom(np.ones(k, dtype=bool))
        while True:
            cap = np.concatenate([zero, p * denom, q * on_q])[source].tolist()
            inside = np.asarray(_max_flow(start, to, rev, cap, s, t)[:k]) < 0
            cut, d = cut_and_denom(inside)
            if cut * q == p * d:
                break
            p, q = cut, d
        message = f"the {normalization} Cheeger constant is beyond the float range"
        value = _require_finite(message, lambda: cut / d)
        return CheegerResult(value, tuple(idx[inside].tolist()), "exact", normalization)

    return tuple(
        solve(name, ints[i * k : (i + 1) * k]) for i, name in enumerate(normalizations)
    )


def cheeger_exact(
    g: DirectedGraph, omega: Iterable[int], normalization: str = "measure"
) -> CheegerResult:
    """Exact constant over the non-empty subsets of omega, at any size, by
    integer minimum cuts (see the module docstring): the exact minimum
    ratio, correctly rounded, and the union of the subsets attaining it."""
    return _exact(g, subset_array(g, omega), (normalization,))[0]


def cheeger_heuristic(
    g: DirectedGraph, omega: Iterable[int], normalization: str = "measure"
) -> CheegerResult:
    """cheeger_exact's result, unchanged, so its mode is "exact". The name
    stays for the callers of the sweep-cut heuristic that it replaces."""
    return cheeger_exact(g, omega, normalization)


def m_M_constants(g: DirectedGraph, omega: Iterable[int]) -> tuple[float, float]:
    """(min, max) of beta_plus(x) / m(x) over the subset.

    These are the constants by which measure and outflow norms compare on
    the subset; both equal 1 identically when m == beta_plus.
    """
    idx = subset_array(g, omega)
    ratios = g.beta_plus[idx] / g.measure[idx]
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True, eq=False)
class Filtration:
    """Strictly nested connected vertex sets exhausting the graph, as each
    vertex's hop distance from root: level r is dist <= r, its complement
    dist > r; dist takes every value 0..max, as hop distances do."""

    root: int
    dist: np.ndarray

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """The vertex ids of each level, ascending."""
        return tuple(
            tuple(np.flatnonzero(self.dist <= r).tolist()) for r in range(int(self.dist.max()) + 1)
        )


def build_filtration(g: DirectedGraph, root: int) -> Filtration:
    """Balls of increasing radius around root in the undirected skeleton,
    as the read-only array of hop distances from root.

    Each ball induces a connected subgraph, consecutive balls are strictly
    nested, and the last one is the whole vertex set. Requires a connected
    graph. root is a vertex id as build_graph takes it: a Python or numpy
    integer, never a bool.
    """
    _check_types([root], Integral, "root")
    if not (0 <= root < g.n):
        raise InvalidArgumentError(f"root {root} out of range 0..{g.n - 1}")
    dist = hop_distances(g, root)
    if np.any(dist < 0):
        raise DisconnectedError("filtration needs a connected graph")
    dist.flags.writeable = False
    return Filtration(root=int(root), dist=dist)


@dataclass(frozen=True)
class LevelProfile:
    """Numbers attached to one filtration level's complement."""

    level: int
    complement_size: int
    m_c: float
    M_c: float
    h_c: float
    h_tilde_c: float
    nu_dirichlet: float
    ess_lower_bound: float


@dataclass(frozen=True)
class InfinityProfile:
    """Per-level complement profiles along a filtration, plus a verdict.

    The m_c and Cheeger sequences never decrease and M_c never increases,
    exactly: m_c and M_c are the min and max of the same per-vertex floats
    over shrinking sets, and each constant is the correctly rounded exact
    minimum over a shrinking family. So heavy_end, the verdict "the
    complements' min weight-to-measure ratio grew at least tenfold", needs
    no check that m_c never decreased.
    """

    levels: tuple[LevelProfile, ...]
    heavy_end: bool

    def sequence(self, field: str) -> list[float]:
        return [getattr(row, field) for row in self.levels]


def infinity_profile(g: DirectedGraph, filt: Filtration) -> InfinityProfile:
    """Profile the complements of a filtration's levels.

    The Cheeger constants of every complement are exact, whatever its
    size, so ess_lower_bound = m_c * h_tilde_c^2 / 8 is a proven lower
    bound. Every level but the last has a non-empty complement, dist > r,
    and gets a row; the filtration needs at least 2 levels.
    """
    return _profile(g, filt, assemble(g, "delta"), {})


class _Dirichlet(NamedTuple):
    """A subset's extreme outflow-to-measure ratios m and M, its exact
    constants h (measure) and ht (beta_plus), and nu and sigma, the extreme
    eigenvalues of the Hermitian part of the restriction of delta to it."""

    m: float
    M: float
    h: float
    ht: float
    nu: float
    sigma: float

    @property
    def ess_lower_bound(self) -> float:
        """m ht^2 / 8, the isoperimetric lower bound on nu. Only an
        unbalanced graph's ht (above 2) can take it beyond the float range."""
        message = f"bound m ht^2 / 8 at m = {self.m!r}, ht = {self.ht!r} is beyond the float range"
        return _require_finite(message, lambda: self.m * self.ht**2 / 8.0)


def _subset(
    g: DirectedGraph, idx: np.ndarray, delta: Operator, known: dict
) -> tuple[Operator, _Dirichlet]:
    """The restriction of delta, g's assembled operator, to a valid subset
    array, and the subset's _Dirichlet data, added to known under its ids."""
    # solve the constants first, so that the flow network is freed before
    # the dense restriction is built
    constants = [res.value for res in _exact(g, idx)]
    op = dirichlet(delta, idx)
    data = _Dirichlet(*m_M_constants(g, idx), *constants, *_hermitian_extremes(op))
    known[tuple(idx.tolist())] = data
    return op, data


def _profile(g: DirectedGraph, filt: Filtration, delta: Operator, known: dict) -> InfinityProfile:
    """infinity_profile over delta, g's assembled operator. known maps the
    ids of each subset solved so far to its _Dirichlet data; the other
    complements are solved by _subset and added to it."""
    if filt.dist.shape != (g.n,):
        raise InvalidArgumentError(
            f"filtration has {filt.dist.size} vertices, the graph {g.n}: built on another graph"
        )
    top = int(filt.dist.max())
    if top < 1:
        raise InvalidArgumentError("filtration needs at least 2 levels")
    rows: list[LevelProfile] = []
    for r in range(top):
        comp = np.flatnonzero(filt.dist > r)
        d = known.get(tuple(comp.tolist())) or _subset(g, comp, delta, known)[1]
        rows.append(LevelProfile(r + 1, comp.size, d.m, d.M, d.h, d.ht, d.nu, d.ess_lower_bound))
    heavy = len(rows) >= 2 and rows[-1].m_c >= 10.0 * rows[0].m_c
    return InfinityProfile(levels=tuple(rows), heavy_end=heavy)
