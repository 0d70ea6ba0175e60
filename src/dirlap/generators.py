"""Graph families used by the tests, the CLI and the verification corpus.

Random families use a splitmix-style 64-bit generator so an instance is
pinned down by its seed alone, and default weights live on a dyadic grid
(k/8) so that flow-balance sums are float-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .graph import DirectedGraph, _graph_from_columns, build_graph

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """The splitmix64 finalizer of one state, mod 2^64.

    Every product is masked, so the same expression takes a Python int or a
    numpy uint64 array (whose products wrap mod 2^64) and gives the same
    bits.
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64: the public single-state 64-bit mixer.

    step: x += 0x9E3779B97F4A7C15; return _mix(x)   (all mod 2^64)

    The state is a counter, so draw i after state x is _mix(x + i * gamma).
    """

    def __init__(self, seed: int):
        self._x = seed & _MASK64

    def next_u64(self) -> int:
        self._x = (self._x + _GAMMA) & _MASK64
        return _mix(self._x)

    def block(self, count: int) -> np.ndarray:
        """The next count next_u64 draws as one uint64 array, in draw order.

        One vectorized _mix over the counters x + i * gamma; the state then
        stands where count next_u64 calls would leave it.
        """
        counters = np.uint64(self._x) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._x = (self._x + count * _GAMMA) & _MASK64
        return _mix(counters)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound). bound must be >= 1."""
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def complex_vector(self, n: int) -> np.ndarray:
        """Complex vector with re, im uniform in [-1, 1): _draw(self, 1, n)[0]."""
        return _draw(self, 1, n)[0]


def _draw(rng: SplitMix64, count: int, n: int) -> np.ndarray:
    """count random complex vectors of length n, one per row, in draw order.

    Each row takes 2n draws, n real parts then n imaginary parts, each
    2 next_float() - 1; the rows come from one uint64 block over the
    count * 2n counter values, so the bits and the final state are those of
    count complex_vector(n) calls.
    """
    u = 2.0 * ((rng.block(count * 2 * n) >> 11) * 2.0**-53) - 1.0
    re, im = u.reshape(count, 2, n).transpose(1, 0, 2)
    return re + 1j * im


def gen_cycle(n: int, w: float = 1.0) -> DirectedGraph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0, constant weight, m = 1."""
    if n < 2:
        raise InvalidArgumentError("cycle needs n >= 2")
    return build_graph([1.0] * n, [(i, (i + 1) % n, w) for i in range(n)])


def gen_opposing_cycles(
    n: int = 3, w_forward: float = 2.0, w_backward: float = 1.0
) -> DirectedGraph:
    """Two opposing directed n-cycles with different weights, m = 1.

    Balanced but genuinely asymmetric whenever the two weights differ:
    b(x, y) != b(y, x) on every pair, yet outflow == inflow everywhere.
    """
    if n < 3:
        raise InvalidArgumentError("opposing cycles need n >= 3")
    edges = [(i, (i + 1) % n, w_forward) for i in range(n)]
    edges += [((i + 1) % n, i, w_backward) for i in range(n)]
    return build_graph([1.0] * n, edges)


def gen_random_circulation(
    n: int,
    k_cycles: int,
    seed: int,
    weight_range: tuple[float, float] = (0.25, 4.0),
) -> DirectedGraph:
    """Superpose k random directed simple cycles with dyadic random weights.

    Each cycle contributes its weight to outflow and inflow of every vertex
    it visits, so the result is Kirchhoff balanced by construction (exactly,
    thanks to the dyadic grid). Parallel contributions to the same ordered
    pair are merged by summation, in cycle order. The first cycle runs
    through all n vertices in random order, so no vertex is left isolated
    and k_cycles=1 yields a relabeled weighted cycle.

    The seed's splitmix64 stream is read in a fixed layout: the first cycle
    takes n - 1 Fisher-Yates draws (over 0..n-1, bounds n down to 2) and one
    weight draw; each later cycle takes one length draw (2 + u % (n - 1)),
    n - 1 Fisher-Yates draws over a fresh 0..n-1 and one weight draw, and
    keeps the first `length` shuffled vertices. A weight is k/8 for the
    k-th point of the eighth-integer grid inside weight_range, at least 1/8;
    both ends of the range must stay finite when multiplied by 8.
    """
    if n < 3:
        raise InvalidArgumentError("need n >= 3")
    if k_cycles < 1:
        raise InvalidArgumentError("need k_cycles >= 1")
    lo, hi = weight_range
    try:
        finite = np.isfinite([8.0 * lo, 8.0 * hi]).all()
    except OverflowError:  # an integer beyond the largest float
        finite = False
    if not finite:
        raise InvalidArgumentError(f"weight range [{lo}, {hi}] times 8 is not finite")
    k_lo = max(1, int(np.ceil(lo * 8)))
    k_hi = int(np.floor(hi * 8))
    if k_hi < k_lo:
        raise InvalidArgumentError(f"weight range [{lo}, {hi}] contains no k/8 grid point")
    # one row of n + 1 draws per cycle: length, n - 1 swaps, weight; the
    # first cycle draws no length, so its row starts with a placeholder
    draws = np.zeros(k_cycles * (n + 1), dtype=np.uint64)
    draws[1:] = SplitMix64(seed).block(draws.size - 1)
    draws = draws.reshape(k_cycles, n + 1)
    lengths = 2 + (draws[:, 0] % np.uint64(n - 1)).astype(np.int64)
    lengths[0] = n
    swaps = (draws[:, 1:n] % np.arange(n, 1, -1, dtype=np.uint64)).astype(np.int64)
    # Python ints: the grid may reach past 2^64
    weights = [(k_lo + u % (k_hi - k_lo + 1)) / 8.0 for u in draws[:, n].tolist()]

    # Fisher-Yates on every cycle at once: at step i, swap positions i and j
    order = np.tile(np.arange(n), (k_cycles, 1))
    rows = np.arange(k_cycles)
    for i, j in zip(range(n - 1, 0, -1), swaps.T):
        held = order[:, i].copy()
        order[:, i] = order[rows, j]
        order[rows, j] = held

    pos = np.arange(n)
    on_cycle = pos < lengths[:, None]
    succ = np.where(pos + 1 < lengths[:, None], pos + 1, 0)
    tails = order[on_cycle]
    heads = np.take_along_axis(order, succ, axis=1)[on_cycle]
    # np.add.at adds in index order, so each pair sums its cycles in order
    total = np.zeros((n, n))
    np.add.at(total, (tails, heads), np.repeat(weights, lengths))
    ef, et = np.nonzero(total)
    # the columns are ints and floats already, so build_graph's conversion is skipped
    return _graph_from_columns(np.ones(n), ef.tolist(), et.tolist(), total[ef, et].tolist())


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise InvalidArgumentError(f"{name} must be finite and > 0, got {value}")


def _power(name: str, base: float, exponent: int) -> float:
    try:
        return base**exponent
    except OverflowError:
        raise InvalidArgumentError(f"{name}**{exponent} is beyond the float range") from None


def gen_layered_heavy(L: int, width: int, gamma: float, radial: float = 1.0) -> DirectedGraph:
    """L concentric layers of directed cycles with geometrically growing weight.

    Layer l (0-based) is a directed cycle on `width` vertices with weight
    gamma**l; consecutive layers are joined by symmetric radial edge pairs of
    weight radial * gamma**l (l the inner layer). m = 1. Balanced exactly:
    the cycle contributes gamma**l to both flows at each of its vertices and
    radial pairs are symmetric. With gamma > 1 the weights escape to
    infinity along the layers, the model of a heavy end.
    """
    if L < 1 or width < 2:
        raise InvalidArgumentError("need L >= 1 and width >= 2")
    _check_positive(gamma=gamma, radial=radial)
    edges: list[tuple[int, int, float]] = []

    def vid(layer: int, j: int) -> int:
        return layer * width + j

    for layer in range(L):
        w_cycle = _power("gamma", gamma, layer)
        for j in range(width):
            edges.append((vid(layer, j), vid(layer, (j + 1) % width), w_cycle))
        if layer + 1 < L:
            w_radial = radial * w_cycle
            for j in range(width):
                edges.append((vid(layer, j), vid(layer + 1, j), w_radial))
                edges.append((vid(layer + 1, j), vid(layer, j), w_radial))
    return build_graph([1.0] * (L * width), edges)


def gen_symmetric_tree(depth: int, branching: int, weight_growth: float = 1.0) -> DirectedGraph:
    """Rooted tree with both edge orientations present and equal.

    A tree has no directed cycles besides back-and-forth travel, so balance
    forces b(x, y) == b(y, x); this family realizes that forced-symmetric
    case. Edges from a vertex at depth d to its children carry weight
    weight_growth**d in both directions. m = 1.
    """
    if depth < 1 or branching < 1:
        raise InvalidArgumentError("need depth >= 1 and branching >= 1")
    _check_positive(weight_growth=weight_growth)
    edges: list[tuple[int, int, float]] = []
    level = [0]
    next_id = 1
    for d in range(depth):
        w = _power("weight_growth", weight_growth, d)
        nxt = []
        for parent in level:
            for _ in range(branching):
                child = next_id
                next_id += 1
                edges.append((parent, child, w))
                edges.append((child, parent, w))
                nxt.append(child)
        level = nxt
    return build_graph([1.0] * next_id, edges)


def corpus() -> list[tuple[str, DirectedGraph]]:
    """Named balanced instances used by the verification suite.

    All entries have n <= 9 so exhaustive subset sweeps stay cheap, and they
    cover every family: plain cycles, opposing cycles, random circulations,
    a layered heavy-end graph, and a forced-symmetric tree.
    """
    return [
        ("cycle3", gen_cycle(3, 1.0)),
        ("cycle5", gen_cycle(5, 1.0)),
        ("cycle8_w2", gen_cycle(8, 2.0)),
        ("opposing3", gen_opposing_cycles()),
        ("circulation6_s1", gen_random_circulation(6, 3, seed=1)),
        ("circulation8_s2", gen_random_circulation(8, 4, seed=2)),
        ("circulation9_s3", gen_random_circulation(9, 4, seed=3)),
        ("layered3", gen_layered_heavy(3, 3, 2.0, 1.0)),
        ("tree2", gen_symmetric_tree(2, 2, 2.0)),
    ]
