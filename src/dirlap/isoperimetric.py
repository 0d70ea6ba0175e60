"""Cheeger-type isoperimetric constants, filtrations and profiles at infinity.

For a vertex subset Omega, the constant is

    inf over finite non-empty U inside Omega of  b(edge boundary of U) / denom(U)

where the edge boundary counts directed edges crossing U in either
direction, and denom is the measure m(U) ("measure" normalization) or the
outflow beta_plus(U) ("beta_plus" normalization). On a balanced graph the
two crossing directions carry equal total weight, so the numerator is twice
the one-directional cut.

cheeger_exact enumerates every subset of Omega (cap: |Omega| <= 22) with
tables indexed by bitmask: the cut of every subset, and its measure or
outflow. A cut entry adds one packet per vertex of Omega in ascending
order: the vertex's pair weights to lower neighbours inside the subset, or,
for a member, its external weight plus its pair weights to lower neighbours
outside (see _cut_table). The cut table is built by doubling in
O(2^k + sum over vertices of 2^(lower neighbours)) element updates, and
values and witnesses follow from that order bit for bit. A table takes
8 * 2^k bytes, 32 MB at k = 22. One call builds the cut table once,
evaluates both normalizations from it and frees it; the two results are
cached per graph and subset, so a later call for either normalization of
the same subset enumerates nothing. No table is kept after the call.
cheeger_heuristic runs a spectral sweep cut plus greedy single-vertex
exchange and returns an upper bound; cheeger picks the first when Omega is
small enough and the second otherwise.

A filtration is a nested exhausting family of connected subsets; profiling
the complements (min/max vertex ratios, Cheeger constants, Dirichlet
spectral gaps) gives lower bounds for the essential spectrum and detects
heavy ends, where the complements' weight-to-measure ratio blows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    DisconnectedError,
    EmptyComplementError,
    EmptySubsetError,
    InvalidArgumentError,
    SubsetTooLargeError,
)
from .graph import DirectedGraph, hop_distances, subset_array
from .operators import assemble, dirichlet, to_euclidean
from .spectral import converging, hermitian_part, nu

MAX_EXACT_SUBSET = 22
NORMALIZATIONS = ("measure", "beta_plus")

# slack used when checking that the m_c sequence never decreases (heavy_end)
_MONOTONE_SLACK = 1e-12

# exact results kept, per graph and subset. On more than 9 vertices
# verify_graph asks for at most 11 distinct subsets (3 single vertices, 4
# filtration levels, 4 complements) before its essential-spectrum profile
# asks for the first complement again; smaller graphs are swept exhaustively
# over subsets of at most 9 vertices, which cost little to enumerate again.
_RESULTS_CACHE_SIZE = 11


@dataclass(frozen=True)
class CheegerResult:
    """Constant value, the subset achieving it, and how it was obtained.

    mode is "exact" (full enumeration; witness is the lexicographically
    smallest minimizer) or "upper_bound" (heuristic; value >= the true
    constant, witness is the best subset found).
    """

    value: float
    witness: tuple[int, ...]
    mode: str
    normalization: str

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "witness": list(self.witness),
            "mode": self.mode,
            "normalization": self.normalization,
        }


def _denominator_values(g: DirectedGraph, normalization: str) -> np.ndarray:
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"unknown normalization {normalization!r}, expected one of {NORMALIZATIONS}"
        )
    return g.measure if normalization == "measure" else g.beta_plus


def _subset_sums(vals: np.ndarray) -> np.ndarray:
    """table[S] = sum of vals[i] over bits i set in S, for all 2^k masks.

    Built by doubling, table[S + 2^i] = table[S] + vals[i] for S < 2^i, so
    every entry adds its bits in increasing order starting from 0.0.
    """
    k = vals.size
    table = np.zeros(1 << k)
    for i in range(k):
        step = 1 << i
        np.add(table[:step], vals[i], out=table[step : 2 * step])
    return table


def _cut_table(g: DirectedGraph, ids: tuple[int, ...]) -> np.ndarray:
    """table[S] = total weight of directed edges leaving or entering the
    subset of ids encoded by bitmask S (boundary taken in the full graph).

    Every entry adds one packet per vertex t in ascending order,
    ((0.0 + p_0) + p_1) + ... + p_(k-1). With I_t[S] and O_t[S] the sums of
    the weights of t's pairs with its lower neighbours inside and outside S,
    each starting from 0.0 and adding in ascending neighbour order, p_t is
    ext_t + O_t[S] when t is in S and I_t[S] otherwise; ext_t is t's weight
    to and from vertices outside ids, and a pair's weight sums both
    directions in edge order.

    Built by doubling: once cut[:2^t] holds the subsets of the vertices
    below t, cut[2^t : 2^(t+1)] = lower half + (ext_t + O_t), then
    lower half += I_t. I_t is one subset-sum table over t's d_t lower
    neighbours, broadcast with one axis per neighbour bit, and O_t is that
    table reversed, so the build costs O(2^k + sum of 2^(d_t)). A table
    takes 8 * 2^k bytes (32 MB at k = 22).
    """
    idx = np.asarray(ids, dtype=np.int64)
    k = idx.size
    adj = g.adjacency
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[idx] = np.arange(k)
    p_own, p_nbr = pos[adj.owner], pos[adj.nbr]
    leaving = (p_own >= 0) & (p_nbr < 0)
    ext = np.bincount(p_own[leaving], weights=adj.weight[leaving], minlength=k)
    # each internal pair i < j, seen from i, with the weights of both
    # directions summed; sorted by j, then by i
    inner = (p_own >= 0) & (p_own < p_nbr)
    pairs, which = np.unique(p_nbr[inner] * k + p_own[inner], return_inverse=True)
    pair_weight = np.bincount(which, weights=adj.weight[inner])
    # the pairs of vertex t are the keys in [t * k, (t + 1) * k)
    bounds = np.searchsorted(pairs, k * np.arange(k + 1)).tolist()
    lower = (pairs % k).tolist()
    cut = np.zeros(1 << k)
    for t in range(k):
        half = cut[: 1 << t]
        start, stop = bounds[t], bounds[t + 1]
        if start == stop:
            np.add(half, ext[t], out=cut[1 << t : 2 << t])
            continue
        # axes of the lower half from its top bit down: one of size 2 per
        # lower neighbour, one for each run of bits between neighbours
        shape, packet_shape, top = [], [], t
        for j in reversed(lower[start:stop]):
            if top - j > 1:
                shape.append(1 << (top - j - 1))
                packet_shape.append(1)
            shape.append(2)
            packet_shape.append(2)
            top = j
        if top:
            shape.append(1 << top)
            packet_shape.append(1)
        inside = _subset_sums(pair_weight[start:stop])
        half = half.reshape(shape)
        # ext_t + O_t is a temporary, so at most two tables of 2^d_t entries
        # live beside the cut table
        np.add(
            half,
            (ext[t] + inside[::-1]).reshape(packet_shape),
            out=cut[1 << t : 2 << t].reshape(shape),
        )
        half += inside.reshape(packet_shape)
    return cut


def _mask_to_ids(mask: int, idx: np.ndarray) -> tuple[int, ...]:
    return tuple(int(idx[i]) for i in range(idx.size) if (mask >> i) & 1)


def _min_ratio(
    g: DirectedGraph, idx: np.ndarray, cut: np.ndarray, normalization: str
) -> CheegerResult:
    """Smallest cut-to-denominator ratio over the non-empty masks of cut,
    with the lexicographically smallest witness among the ties."""
    denom = _subset_sums(_denominator_values(g, normalization)[idx])
    denom[0] = 1.0  # avoid 0/0; the empty subset is excluded below
    ratios = np.divide(cut, denom, out=denom)
    ratios[0] = np.inf
    best = ratios.min()
    tied = np.flatnonzero(ratios == best)
    witness = min(_mask_to_ids(int(mask), idx) for mask in tied)
    return CheegerResult(
        value=float(best), witness=witness, mode="exact", normalization=normalization
    )


@lru_cache(maxsize=_RESULTS_CACHE_SIZE)
def _exact_results(g: DirectedGraph, ids: tuple[int, ...]) -> tuple[CheegerResult, ...]:
    """Exact results for every normalization, in NORMALIZATIONS order, from
    one cut table over the sorted ids.

    The table is freed on return, and each normalization's denominator
    table is freed before the next one is built, so a call holds at most
    two 2^k tables. The graph is hashed by identity and held by the cache,
    so its id cannot be reused while the entry lives.
    """
    idx = np.asarray(ids, dtype=np.int64)
    cut = _cut_table(g, ids)
    return tuple(_min_ratio(g, idx, cut, normalization) for normalization in NORMALIZATIONS)


def cheeger_exact(
    g: DirectedGraph, omega: Iterable[int], normalization: str = "measure"
) -> CheegerResult:
    """Exact constant by enumeration of all non-empty subsets of omega.

    Raises SubsetTooLargeError when |omega| > 22. Ties on the optimal value
    are broken toward the lexicographically smallest witness (subsets
    compared as sorted id lists). Both normalizations are computed and
    cached together, so the other one of the same graph and subset is
    returned without enumerating again.
    """
    _denominator_values(g, normalization)  # raises on an unknown normalization
    idx = subset_array(g, omega)
    k = idx.size
    if k > MAX_EXACT_SUBSET:
        raise SubsetTooLargeError(
            f"|omega| = {k} exceeds the exact enumeration cap {MAX_EXACT_SUBSET}"
        )
    return _exact_results(g, tuple(idx.tolist()))[NORMALIZATIONS.index(normalization)]


def _toggle_deltas(g: DirectedGraph, crossed: np.ndarray) -> np.ndarray:
    """Per vertex, the change in cut weight when it switches sides, given
    whether each adjacency entry crosses the cut before the switch."""
    adj = g.adjacency
    return np.bincount(adj.owner, weights=adj.weight * (1.0 - 2.0 * crossed), minlength=g.n)


def _prefix_sweep(
    g: DirectedGraph, ordering: np.ndarray, denom_vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cut and denominator of every prefix of ordering, each vertex added
    to the previous prefix in turn."""
    adj = g.adjacency
    rank = np.full(g.n, ordering.size)
    rank[ordering] = np.arange(ordering.size)
    deltas = _toggle_deltas(g, rank[adj.nbr] < rank[adj.owner])
    return np.cumsum(deltas[ordering]), np.cumsum(denom_vals[ordering])


def cheeger_heuristic(
    g: DirectedGraph, omega: Iterable[int], normalization: str = "measure"
) -> CheegerResult:
    """Upper bound via a spectral sweep cut plus greedy vertex exchange.

    Orders the vertices of omega by the second-smallest eigenvector of the
    Dirichlet restriction of the symmetrized operator, sweeps prefixes from
    both ends (and all singletons), then repeatedly applies the best
    single-vertex add/remove while it strictly lowers the ratio.
    """
    denom_vals = _denominator_values(g, normalization)
    idx = subset_array(g, omega)
    k = idx.size

    if k == 1:
        order = idx
    else:
        kind = "h" if normalization == "measure" else "normalized_h"
        op = dirichlet(assemble(g, kind), idx)
        with converging():
            _, vecs = np.linalg.eigh(hermitian_part(to_euclidean(op)))
        f = vecs[:, 1] / np.sqrt(op.metric)
        order = idx[np.argsort(f, kind="stable")]

    # candidates in turn: prefixes of order, prefixes of its reverse, and
    # singletons (whose cut is their total edge weight); the first smallest
    # ratio wins
    sweeps = [_prefix_sweep(g, ordering, denom_vals) for ordering in (order, order[::-1])]
    degrees = _toggle_deltas(g, np.zeros(g.adjacency.owner.size, dtype=bool))
    ratios = np.concatenate(
        [cut / denom for cut, denom in sweeps] + [degrees[order] / denom_vals[order]]
    )
    best = int(np.argmin(ratios))
    if best < 2 * k:
        ordering = order if best < k else order[::-1]
        best_set = np.sort(ordering[: best % k + 1])
    else:
        best_set = order[best - 2 * k : best - 2 * k + 1]

    cuts, denoms = _prefix_sweep(g, best_set, denom_vals)
    cut, denom = cuts[-1], denoms[-1]
    current = cut / denom
    in_u = np.zeros(g.n, dtype=bool)
    in_u[best_set] = True
    adj = g.adjacency
    for _ in range(1000 + 10 * k):
        deltas = _toggle_deltas(g, in_u[adj.owner] ^ in_u[adj.nbr])[order]
        leaving = in_u[order]
        new_denoms = np.where(leaving, denom - denom_vals[order], denom + denom_vals[order])
        # the last member may not leave
        movable = ~leaving if np.count_nonzero(leaving) == 1 else slice(None)
        ratios = np.full(k, np.inf)
        ratios[movable] = (cut + deltas[movable]) / new_denoms[movable]
        move = int(np.argmin(ratios))
        if not ratios[move] < current:
            break
        cut += deltas[move]
        denom = new_denoms[move]
        in_u[order[move]] = not leaving[move]
        current = ratios[move]
    members = tuple(np.flatnonzero(in_u).tolist())
    return CheegerResult(
        value=float(current), witness=members, mode="upper_bound", normalization=normalization
    )


def cheeger(
    g: DirectedGraph, omega: Iterable[int], normalization: str = "measure"
) -> CheegerResult:
    """Exact constant when |omega| <= 22, otherwise the heuristic upper
    bound; the result's mode says which one ran."""
    idx = subset_array(g, omega)
    solve = cheeger_exact if idx.size <= MAX_EXACT_SUBSET else cheeger_heuristic
    return solve(g, idx, normalization)


def m_M_constants(g: DirectedGraph, omega: Iterable[int]) -> tuple[float, float]:
    """(min, max) of beta_plus(x) / m(x) over the subset.

    These are the constants by which measure and outflow norms compare on
    the subset; both equal 1 identically when m == beta_plus.
    """
    idx = subset_array(g, omega)
    ratios = g.beta_plus[idx] / g.measure[idx]
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True)
class Filtration:
    """Strictly nested connected vertex sets exhausting the graph."""

    root: int
    levels: tuple[tuple[int, ...], ...]


def build_filtration(g: DirectedGraph, root: int) -> Filtration:
    """Balls of increasing radius around root in the undirected skeleton.

    Each ball induces a connected subgraph, consecutive balls are strictly
    nested, and the last one is the whole vertex set. Requires a connected
    graph.
    """
    if not (0 <= root < g.n):
        raise InvalidArgumentError(f"root {root} out of range 0..{g.n - 1}")
    dist = hop_distances(g, root)
    if np.any(dist < 0):
        raise DisconnectedError("filtration needs a connected graph")
    levels = []
    for r in range(int(dist.max()) + 1):
        levels.append(tuple(int(v) for v in np.flatnonzero(dist <= r)))
    return Filtration(root=root, levels=tuple(levels))


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
    h_mode: str
    h_tilde_mode: str


def _nondecreasing(seq: list[float]) -> bool:
    return all(b >= a - _MONOTONE_SLACK * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))


@dataclass(frozen=True)
class InfinityProfile:
    """Per-level complement profiles along a filtration, plus two verdicts.

    The m_c and Cheeger sequences are nondecreasing and M_c nonincreasing
    when computed exactly (infima/suprema over shrinking families);
    heuristic levels can break that, which is why all_exact is reported.
    heavy_end is the verdict "the complements' min weight-to-measure ratio
    grew at least tenfold and never decreased".
    """

    levels: tuple[LevelProfile, ...]
    all_exact: bool
    heavy_end: bool

    def sequence(self, field: str) -> list[float]:
        return [getattr(row, field) for row in self.levels]


def infinity_profile(g: DirectedGraph, filt: Filtration) -> InfinityProfile:
    """Profile the complements of a filtration's levels.

    Complements of at most 22 vertices are enumerated exactly; larger ones
    fall back to the heuristic and are flagged via h_mode / h_tilde_mode
    and all_exact. Levels whose complement is empty (the final exhausting
    level) are skipped; at least one usable level must remain.
    """
    if len(filt.levels) < 2:
        raise ValueError("filtration needs at least 2 levels")
    delta = assemble(g, "delta")
    all_ids = frozenset(range(g.n))
    rows: list[LevelProfile] = []
    for li, level in enumerate(filt.levels, start=1):
        comp = sorted(all_ids.difference(level))
        if not comp:
            continue
        m_c, M_c = m_M_constants(g, comp)
        h = cheeger(g, comp, "measure")
        ht = cheeger(g, comp, "beta_plus")
        nu_d = nu(dirichlet(delta, comp))
        rows.append(
            LevelProfile(
                level=li,
                complement_size=len(comp),
                m_c=m_c,
                M_c=M_c,
                h_c=h.value,
                h_tilde_c=ht.value,
                nu_dirichlet=nu_d,
                ess_lower_bound=m_c * ht.value**2 / 8.0,
                h_mode=h.mode,
                h_tilde_mode=ht.mode,
            )
        )
    if not rows:
        raise EmptyComplementError("every filtration level has an empty complement")
    m_seq = [r.m_c for r in rows]
    heavy = len(rows) >= 2 and _nondecreasing(m_seq) and m_seq[-1] >= 10.0 * m_seq[0]
    return InfinityProfile(
        levels=tuple(rows),
        all_exact=all(r.h_mode == "exact" and r.h_tilde_mode == "exact" for r in rows),
        heavy_end=heavy,
    )
