"""Independent reference computations used as test oracles.

Everything here is deliberately written the slow, obvious way (itertools
enumeration, direct summation, plain geometry, one vector at a time) so it
shares no code paths with the part of the package it checks. The verifier
oracles take what they do not check (Cheeger constants, report assembly)
from the package.
"""

import math
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from dirlap import (
    DirectedGraph,
    DuplicateEdgeError,
    InvalidArgumentError,
    IsolatedDirectionError,
    NonPositiveMeasureError,
    NonPositiveWeightError,
    SchemaViolationError,
    SelfLoopError,
    SplitMix64,
    assemble,
    build_graph,
    cheeger_exact,
    dirichlet,
    gen_random_circulation,
    m_M_constants,
    subset_array,
)
from dirlap.verify import _FUJIWARA_SEED, _GREEN_SEED, _omega_tag, _report


def dense_weights(g):
    """The dense weight matrix B: B[x, y] = b(x, y) on the edges, filled
    one edge at a time, and zero elsewhere."""
    B = np.zeros((g.n, g.n))
    for u, v, w in g.edges():
        B[u, v] = w
    return B


def dense_operator(g, kind):
    """Reference assemble matrix: the dense formula diag(beta_plus / w) - B / w
    over the whole matrix, with B.T for the prime kinds and twice the
    diagonal minus (B + B.T) / w for the h kinds; w is beta_plus for the
    normalized kinds and the measure otherwise. Entries beyond the float
    range come out as inf or nan."""
    B = dense_weights(g)
    w = g.beta_plus if kind.startswith("normalized_") else g.measure
    base = kind.removeprefix("normalized_")
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.diag(g.beta_plus / w)
        if base == "delta":
            return diag - B / w[:, None]
        if base == "delta_prime":
            return diag - B.T / w[:, None]
        return 2.0 * diag - (B + B.T) / w[:, None]


def brute_cheeger(g, omega, normalization):
    """Reference Cheeger constant: enumerate subsets with itertools and sum
    boundary weights straight off the edge list."""
    omega = sorted(set(omega))
    denom_source = g.measure if normalization == "measure" else g.beta_plus
    # an edge with neither end in omega never crosses
    members = set(omega)
    edges = [(u, v, w) for u, v, w in g.edges() if u in members or v in members]
    best = None
    best_set = None
    for size in range(1, len(omega) + 1):
        for sub in combinations(omega, size):
            inside = set(sub)
            cut = sum(w for u, v, w in edges if (u in inside) != (v in inside))
            denom = sum(denom_source[v] for v in sub)
            value = cut / denom
            key = tuple(sub)
            if best is None or value < best or (value == best and key < best_set):
                best = value
                best_set = key
    return best, best_set


def float_cheeger(g, omega, normalization):
    """Float minimum ratio over every non-empty subset of omega, from numpy
    tables of every subset's membership, cut and denominator."""
    omega = np.asarray(sorted(set(omega)))
    denom_source = g.measure if normalization == "measure" else g.beta_plus
    masks = np.arange(1, 1 << omega.size)
    bits = ((masks[:, None] >> np.arange(omega.size)) & 1).astype(bool)
    inside = np.zeros((masks.size, g.n), dtype=bool)
    inside[:, omega] = bits
    cut = (inside[:, g.edge_from] != inside[:, g.edge_to]) @ g.edge_weight
    return float(np.min(cut / (bits @ denom_source[omega])))


def _integers(floats):
    """The floats of a dict as exact integer multiples of 1 / scale:
    (dict of the integers, scale)."""
    ratios = {key: x.as_integer_ratio() for key, x in floats.items()}
    scale = max((d for _, d in ratios.values()), default=1)
    return {key: n * (scale // d) for key, (n, d) in ratios.items()}, scale


def rational_cheeger(g, omega, normalization):
    """Exact Cheeger constant of the stored floats: (minimum ratio as a
    Fraction, union of the subsets attaining it), by enumerating every
    non-empty subset of omega with exact rational sums."""
    omega = sorted(set(omega))
    denom_source = g.measure if normalization == "measure" else g.beta_plus
    members = set(omega)
    edges = [(u, v, w) for u, v, w in g.edges() if u in members or v in members]
    # a float is an integer over a power of two, so every float of a list
    # is an integer multiple of 1 / (the largest of those powers)
    denom, denom_scale = _integers({v: float(denom_source[v]) for v in omega})
    weights, cut_scale = _integers({i: w for i, (_, _, w) in enumerate(edges)})
    edges = [(u, v, weights[i]) for i, (u, v, _) in enumerate(edges)]
    best, union = None, set()
    for size in range(1, len(omega) + 1):
        for sub in combinations(omega, size):
            inside = set(sub)
            cut = sum(w for u, v, w in edges if (u in inside) != (v in inside))
            value = Fraction(cut * denom_scale, cut_scale * sum(denom[v] for v in sub))
            if best is None or value < best:
                best, union = value, inside
            elif value == best:
                union |= inside
    return best, tuple(sorted(union))


def convex_hull(points):
    """Monotone-chain hull of complex points, counterclockwise, as a list."""
    pts = sorted(set((float(p.real), float(p.imag)) for p in points))
    if len(pts) <= 2:
        return [complex(x, y) for x, y in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [complex(x, y) for x, y in hull]


def _segment_distance(p, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * np.conj(ab)).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def hull_distance(p, points):
    """Distance from complex p to the convex hull of the given points."""
    hull = convex_hull(points)
    p = complex(p)
    if len(hull) == 1:
        return abs(p - hull[0])
    if len(hull) == 2:
        return _segment_distance(p, hull[0], hull[1])
    inside = True
    for a, b in zip(hull, hull[1:] + hull[:1]):
        cross = ((b - a).real * (p - a).imag) - ((b - a).imag * (p - a).real)
        if cross < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(_segment_distance(p, a, b) for a, b in zip(hull, hull[1:] + hull[:1]))


def support_value(points, angle):
    """Support function max_p <p, e^{i angle}> of a finite point set."""
    d = np.exp(1j * angle)
    return max((p * np.conj(d)).real for p in points)


def spectra_mismatch(got, expected):
    """Symmetric nearest-neighbor distance between two spectra.

    Robust against ordering: conjugate pairs can have real parts equal only
    up to rounding, which makes sorted elementwise comparison unstable.
    When the true eigenvalues are separated by much more than the returned
    value, a small result certifies a one-to-one matching.
    """
    a = np.asarray(got, dtype=complex).ravel()
    b = np.asarray(expected, dtype=complex).ravel()
    assert a.size == b.size
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))


def full_sweep_boundary(op, n_angles):
    """Reference rotation sweep: one eigh of the Hermitian part of
    e^{i theta} A per angle, every angle solved, no use of symmetry.

    Returns (angles, points) with the same expressions, in the same order,
    as a sweep that solves every angle, so solved points can be compared
    with the package's by bytes."""
    s = np.sqrt(op.metric)
    a = (op.matrix * (s[:, None] / s[None, :])).astype(complex)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    points = np.empty(n_angles, dtype=complex)
    for k, theta in enumerate(angles):
        rotated = np.exp(1j * theta) * a
        _, vecs = np.linalg.eigh(0.5 * (rotated + rotated.conj().T))
        v = vecs[:, -1]
        scale = float(np.max(np.abs(v)))
        for x in v:
            if abs(x) > 1e-12 * scale:
                v = v * (np.conj(x) / abs(x))
                break
        points[k] = v.conj() @ (a @ v)
    return angles, points


def bfs_hops(n, arcs, root):
    """Reference hop counts from root over the (tail, head) pairs of arcs,
    by a deque breadth-first search; -1 where root does not reach."""
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    dist = [-1] * n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def edmonds_karp(n, arcs, s, t):
    """Reference maximum flow on Python ints: (flow value, the set of nodes
    that s reaches in the final residual network), by augmenting along
    shortest paths found by a deque breadth-first search. arcs holds
    (tail, head, capacity) triples; parallel arcs are summed."""
    residual = [dict() for _ in range(n)]
    for u, v, c in arcs:
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    value = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, c in residual[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return value, set(parent)
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        value += push


@st.composite
def layered_networks(draw):
    """A flow network in the layout of the exact Cheeger solver: nodes
    0..k-1, then s = k and t = k + 1, as (k, arcs), where arcs holds
    (tail, head, capacity, reverse capacity). Its nodes have BFS depths
    1..D from s, one above another. A node at depth 1 has an arc into t
    of less capacity than the arc from s, which the two-arc preflow
    saturates; otherwise only nodes at depth feed >= 2 and deeper have
    arcs into t. So the first phase finds t at level feed + 1 with nodes
    beyond it, and at depth feed at least one node's arc into t has
    capacity 0. Capacities are small integers, so flows tie often."""
    depth_count = draw(st.integers(4, 6))
    feed = draw(st.integers(2, depth_count - 2))
    sizes = [draw(st.integers(1, 3)) for _ in range(depth_count)]
    sizes[feed - 1] = max(sizes[feed - 1], 2)
    depth = [d for d, size in enumerate(sizes, 1) for _ in range(size)]
    k = len(depth)
    s, t = k, k + 1
    layer = {d: [u for u in range(k) if depth[u] == d] for d in range(1, depth_count + 1)}
    cap = st.integers(1, 9)
    # the nodes at depth 1 are 0, 1, ..., so from_s[u] is u's arc from s
    from_s = [draw(cap) for _ in layer[1]]
    arcs = [(s, u, c, 0) for u, c in zip(layer[1], from_s)]
    for u in range(k):
        if depth[u] > 1:
            arcs.append((draw(st.sampled_from(layer[depth[u] - 1])), u, draw(cap), draw(st.integers(0, 9))))
    # further arcs between nodes at most one depth apart keep every depth
    near = [(u, v) for u in range(k) for v in range(u + 1, k) if abs(depth[u] - depth[v]) <= 1]
    for u, v in draw(st.lists(st.sampled_from(near), max_size=8)) if near else []:
        arcs.append((u, v, draw(st.integers(0, 9)), draw(st.integers(0, 9))))
    for u in range(k):
        if depth[u] == 1:
            c = draw(st.integers(0, from_s[u] - 1))
        elif u == layer[feed][0]:
            c = draw(cap)
        elif u == layer[feed][-1] or depth[u] < feed:
            c = 0
        else:
            c = draw(st.integers(0, 9))
        arcs.append((u, t, c, 0))
    return k, arcs


def pi_circulation(n, seed):
    """Balanced n-vertex graph whose weights (a random circulation's times
    pi) and measures (uniform in [0.25, 4)) are not dyadic, so every sum
    rounds."""
    base = gen_random_circulation(n, max(2, n // 2), seed=seed)
    measures = np.random.default_rng(seed).uniform(0.25, 4.0, n)
    return build_graph(measures, [(u, v, w * math.pi) for u, v, w in base.edges()])


@st.composite
def cycle_sums(draw):
    """A balanced graph on 3..10 vertices: a weighted cycle through every
    vertex plus up to three weighted cycles on random vertex subsets, with
    contributions to the same ordered pair summed."""
    n = draw(st.integers(3, 10))
    weight = st.floats(0.25, 4.0)
    cycles = [(draw(st.permutations(range(n))), draw(weight))]
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.permutations(range(n)))
        cycles.append((order[: draw(st.integers(2, n))], draw(weight)))
    total = {}
    for order, w in cycles:
        for u, v in zip(order, order[1:] + order[:1]):
            total[(u, v)] = total.get((u, v), 0.0) + w
    return build_graph([1.0] * n, [(u, v, w) for (u, v), w in sorted(total.items())])


def loop_complex_vector(rng, n):
    """Reference SplitMix64.complex_vector: n real parts, then n imaginary
    parts, one next_float() at a time, each mapped to 2 u - 1."""
    re = np.array([2.0 * rng.next_float() - 1.0 for _ in range(n)])
    im = np.array([2.0 * rng.next_float() - 1.0 for _ in range(n)])
    return re + 1j * im


def _loop_inner(metric, f, h):
    return complex(np.sum(metric * np.asarray(f) * np.conj(h)))


def loop_verify_green(g, instance="graph", n_pairs=100):
    """Reference verify_green: one vector pair at a time, each term and
    modulus taken the plain way (matrix @ vector, fancy indexing, abs of a
    Python complex), the worst ratio kept by max()."""
    rng = SplitMix64(_GREEN_SEED)
    delta = assemble(g, "delta").matrix
    worst = 0.0
    for _ in range(n_pairs):
        f = loop_complex_vector(rng, g.n)
        h = loop_complex_vector(rng, g.n)
        t1 = _loop_inner(g.measure, delta @ f, h)
        t2 = np.conj(_loop_inner(g.measure, delta @ h, f))
        df = f[g.edge_from] - f[g.edge_to]
        dh = h[g.edge_from] - h[g.edge_to]
        t3 = complex(np.sum(g.edge_weight * df * np.conj(dh)))
        scale = max(1.0, abs(t1), abs(t2), abs(t3))
        worst = max(worst, abs(t1 + t2 - t3) / scale)
    return _report("greens_formula", f"{instance}|pairs={n_pairs}", [(worst, 1e-9)], tolerance=0.0)


def loop_verify_fujiwara(g, omega, instance="graph", n_vectors=100):
    """Reference verify_fujiwara: the envelope pairs at the extreme
    eigenvalues of the Hermitian part, with the package's expressions, then
    one random vector at a time for the interior chain, the worst pair of
    each side kept on a strict < comparison."""
    idx = subset_array(g, omega)
    ht = cheeger_exact(g, idx, "beta_plus").value
    m_c, M_c = m_M_constants(g, idx)
    op_m = dirichlet(assemble(g, "delta"), idx)
    op_t = dirichlet(assemble(g, "normalized_delta"), idx)
    root = np.sqrt(op_m.metric)
    a = op_m.matrix * (root[:, None] / root[None, :])
    sym = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    rho, sigma = float(sym[0]), float(sym[-1])
    s = float(np.sqrt(max(0.0, 4.0 - ht * ht)))
    pairs = [(m_c * (2.0 - s), 2.0 * rho), (2.0 * sigma, M_c * (2.0 + s))]
    rng = SplitMix64(_FUJIWARA_SEED)
    worst_low = worst_high = None
    for _ in range(n_vectors):
        f = loop_complex_vector(rng, idx.size)
        norm_m = _loop_inner(op_m.metric, f, f).real
        two_re_lam = 2.0 * _loop_inner(op_m.metric, op_m.matrix @ f, f).real / norm_m
        norm_t = _loop_inner(op_t.metric, f, f).real
        r = 2.0 * _loop_inner(op_t.metric, op_t.matrix @ f, f).real / norm_t
        low = (m_c * r, two_re_lam)
        high = (two_re_lam, M_c * r)
        if worst_low is None or low[1] - low[0] < worst_low[1] - worst_low[0]:
            worst_low = low
        if worst_high is None or high[1] - high[0] < worst_high[1] - worst_high[0]:
            worst_high = high
    if worst_low is not None:
        pairs.extend([worst_low, worst_high])
    return _report(
        "fujiwara_envelope",
        f"{instance}|omega={_omega_tag(idx)}|vectors={n_vectors}",
        pairs,
    )


def loop_random_circulation(n, k_cycles, seed, weight_range=(0.25, 4.0)):
    """Reference gen_random_circulation: one scalar draw at a time, a list
    Fisher-Yates per cycle, and parallel edges summed in a dict in cycle
    order."""
    if n < 3:
        raise InvalidArgumentError("need n >= 3")
    if k_cycles < 1:
        raise InvalidArgumentError("need k_cycles >= 1")
    rng = SplitMix64(seed)

    def weight():
        lo, hi = weight_range
        k_lo = max(1, int(np.ceil(lo * 8)))
        k_hi = int(np.floor(hi * 8))
        if k_hi < k_lo:
            raise InvalidArgumentError(f"weight range [{lo}, {hi}] contains no k/8 grid point")
        return (k_lo + rng.next_below(k_hi - k_lo + 1)) / 8.0

    accum = {}

    def add_cycle(order, w):
        for a, b in zip(order, order[1:] + order[:1]):
            accum[(a, b)] = accum.get((a, b), 0.0) + w

    first = list(range(n))
    rng.shuffle(first)
    add_cycle(first, weight())
    for _ in range(k_cycles - 1):
        length = 2 + rng.next_below(n - 1)
        pool = list(range(n))
        rng.shuffle(pool)
        add_cycle(pool[:length], weight())
    return build_graph([1.0] * n, [(u, v, w) for (u, v), w in sorted(accum.items())])


def _loop_json_number(item, key, convert):
    value = item[key]
    allowed = int if convert is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"{key!r} is not a JSON number")
    try:
        return convert(value)
    except OverflowError:  # an integer beyond every float
        return math.inf if value > 0 else -math.inf


def loop_graph_from_json_obj(obj):
    """Reference graph_from_json_obj: every entry parsed and every edge
    checked one at a time, in input order, raising what the package raises
    for the first offending entry."""
    if not isinstance(obj, dict):
        raise SchemaViolationError("graph JSON must be an object")
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise SchemaViolationError(f"graph JSON missing key: {exc}") from exc
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise SchemaViolationError("'vertices' and 'edges' must be arrays")
    measures = {}
    for item in vertices:
        try:
            vid = _loop_json_number(item, "id", int)
            m = _loop_json_number(item, "m", float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolationError(f"bad vertex entry {item!r}") from exc
        if vid in measures:
            raise SchemaViolationError(f"vertex id {vid} listed twice")
        measures[vid] = m
    n = len(measures)
    if sorted(measures) != list(range(n)):
        raise SchemaViolationError("vertex ids must be exactly 0..n-1")
    triples = []
    for item in edges:
        try:
            triples.append(tuple(_loop_json_number(item, k, c)
                                 for k, c in (("from", int), ("to", int), ("b", float))))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolationError(f"bad edge entry {item!r}") from exc

    m = np.asarray([measures[i] for i in range(n)], dtype=float)
    if n == 0:
        raise SchemaViolationError("graph needs at least one vertex")
    for i, x in enumerate(m):
        if not x > 0:
            raise NonPositiveMeasureError(f"measure of vertex {i} is {float(x)!r}, must be > 0")
    for i, x in enumerate(m):
        if not math.isfinite(x):
            raise SchemaViolationError(f"measure of vertex {i} is not finite")
    for u, v, w in triples:
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaViolationError(f"edge ({u}, {v}) endpoint out of range 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self loop at vertex {u}")
        if not w > 0:
            raise NonPositiveWeightError(f"edge ({u}, {v}) has weight {w!r}, must be > 0")
    triples.sort(key=lambda t: (t[0], t[1]))
    for a, b in zip(triples, triples[1:]):
        if a[:2] == b[:2]:
            raise DuplicateEdgeError(f"duplicate edge ({a[0]}, {a[1]})")
    for u, v, w in triples:
        if not math.isfinite(w):
            raise SchemaViolationError(f"edge ({u}, {v}) has a weight that is not finite")
    totals = {"outgoing": [0.0] * n, "incoming": [0.0] * n}
    for u, v, w in triples:
        totals["outgoing"][u] += w
        totals["incoming"][v] += w
    for direction, sums in totals.items():
        for x, total in enumerate(sums):
            if total <= 0:
                raise IsolatedDirectionError(f"vertex {x} has no {direction} weight")
        for x, total in enumerate(sums):
            if not math.isfinite(total):
                raise SchemaViolationError(f"total {direction} weight of vertex {x} is not finite")
    ef, et, ew = zip(*triples)
    return DirectedGraph(
        n=n, measure=m, edge_from=np.asarray(ef, dtype=np.int64),
        edge_to=np.asarray(et, dtype=np.int64), edge_weight=np.asarray(ew, dtype=float),
    )


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc, which sees numpy's buffers, while
    fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
