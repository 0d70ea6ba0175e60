"""Output checks for the benchmark, computed apart from dirlap.

Every check takes plain data parsed from the program's output files (or
returned by a library call) together with the input edge list, and raises
CheckError when the output is wrong. Reference values come straight from
the edge list (BFS, subset enumeration, traces) or from properties the
method must have; nothing here calls into dirlap.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

EPS = np.finfo(float).eps


class CheckError(Exception):
    """An output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- parsing


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(io.StringIO(fh.read())))


def read_spectrum(path: str) -> np.ndarray:
    rows = read_csv(path)
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows])


def read_numrange(path: str) -> tuple[np.ndarray, np.ndarray]:
    rows = read_csv(path)
    theta = np.array([float(r["theta"]) for r in rows])
    points = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    return theta, points


def read_profile(path: str) -> list[dict[str, float]]:
    return [{k: float(v) for k, v in row.items()} for row in read_csv(path)]


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------- edge-list references


class EdgeList:
    """A graph as the benchmark generated it: measures and (u, v, w) triples."""

    def __init__(self, measure: list[float], edges: list[tuple[int, int, float]]):
        self.n = len(measure)
        self.measure = list(measure)
        self.edges = list(edges)
        self.beta_plus = [0.0] * self.n
        self.beta_minus = [0.0] * self.n
        for u, v, w in self.edges:
            self.beta_plus[u] += w
            self.beta_minus[v] += w
        self.neighbors: list[set[int]] = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            self.neighbors[u].add(v)
            self.neighbors[v].add(u)

    def bfs_distances(self, root: int) -> list[int]:
        dist = [-1] * self.n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in sorted(self.neighbors[x]):
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return dist

    def connected(self) -> bool:
        return min(self.bfs_distances(0)) >= 0

    def ball_complements(self, root: int) -> list[tuple[int, list[int]]]:
        """(level number, complement) for every ball around root that is not
        the whole vertex set; level r + 1 is the ball of radius r."""
        dist = self.bfs_distances(root)
        out = []
        for r in range(max(dist) + 1):
            comp = [v for v in range(self.n) if dist[v] > r]
            if comp:
                out.append((r + 1, comp))
        return out

    def ratio_range(self, omega: list[int]) -> tuple[float, float]:
        ratios = [self.beta_plus[v] / self.measure[v] for v in omega]
        return min(ratios), max(ratios)

    def cut(self, inside: set[int]) -> float:
        return sum(w for u, v, w in self.edges if (u in inside) != (v in inside))

    def denominator(self, normalization: str) -> list[float]:
        return self.measure if normalization == "measure" else self.beta_plus

    def brute_cheeger(self, omega: list[int], normalization: str) -> float:
        """min over non-empty U inside omega of cut(U) / denom(U), by
        enumerating every subset and summing straight off the edge list."""
        omega = sorted(set(omega))
        denom = self.denominator(normalization)
        touching = [(u, v, w) for u, v, w in self.edges if u in omega or v in omega]
        best = float("inf")
        for mask in range(1, 1 << len(omega)):
            inside = {omega[i] for i in range(len(omega)) if (mask >> i) & 1}
            cut = sum(w for u, v, w in touching if (u in inside) != (v in inside))
            best = min(best, cut / sum(denom[v] for v in inside))
        return best


def parse_omega(instance: str) -> list[int]:
    tag = instance.split("|omega={", 1)[1].split("}", 1)[0]
    return [int(v) for v in tag.split(",")]


# ------------------------------------------------------------ verify runs


def check_exit_zero(rc: int) -> None:
    require(rc == 0, f"command exited {rc}")


def check_all_passed(reports: list[dict]) -> None:
    bad = [r["instance"] for r in reports if r["passed"] is not True]
    require(not bad, f"{len(bad)} reports failed, first {bad[:1]}")
    short = [r["instance"] for r in reports if r["margin"] < -r["tolerance"]]
    require(not short, f"{len(short)} reports have margin below -tolerance")


def check_sandwich_brute(reports: list[dict], graphs: dict[str, EdgeList]) -> None:
    """lhs[0] = h^2/8 and lhs[2] = ht^2/8 of cheeger_sandwich reports,
    against enumeration from the edge list."""
    for r in reports:
        require(r["theorem_id"] == "cheeger_sandwich", f"not a sandwich report: {r['instance']}")
        g = graphs[r["instance"].split("|", 1)[0]]
        omega = parse_omega(r["instance"])
        h = g.brute_cheeger(omega, "measure")
        ht = g.brute_cheeger(omega, "beta_plus")
        require(close(r["lhs"][0], h * h / 8.0), f"{r['instance']}: h^2/8 {r['lhs'][0]!r} != {h * h / 8.0!r}")
        require(close(r["lhs"][2], ht * ht / 8.0), f"{r['instance']}: ht^2/8 {r['lhs'][2]!r} != {ht * ht / 8.0!r}")


# --------------------------------------------------------- dense spectra


def check_trace(values: np.ndarray, trace: float) -> None:
    """sum of eigenvalues = trace, to n eps sum |lambda| rounding."""
    total = complex(values.sum())
    tol = 8.0 * values.size * EPS * float(np.abs(values).sum())
    require(abs(total.real - trace) <= tol and abs(total.imag) <= tol,
            f"sum of eigenvalues {total!r} != trace {trace!r} (tol {tol:.3g})")


def check_conjugate_pairs(values: np.ndarray) -> None:
    pairs = sorted((float(v.real), float(v.imag)) for v in values)
    mirrored = sorted((float(v.real), -float(v.imag)) for v in values)
    require(pairs == mirrored, "eigenvalues are not closed under conjugation")


def support(theta: np.ndarray, points: np.ndarray) -> np.ndarray:
    """h(theta_k) = Re(e^{i theta_k} p_k)."""
    return np.cos(theta) * points.real - np.sin(theta) * points.imag


def check_disc(points: np.ndarray) -> None:
    worst = float(np.abs(points - 1.0).max())
    require(worst <= 1.0 + 1e-12, f"numerical range point at |p - 1| = {worst!r} > 1")


def check_support_symmetric(theta: np.ndarray, points: np.ndarray) -> None:
    n = theta.size
    require(np.allclose(theta, 2.0 * np.pi * np.arange(n) / n, rtol=0, atol=1e-12),
            "angles are not 2 pi k / n")
    h = support(theta, points)
    mirror = h[(-np.arange(n)) % n]
    worst = float(np.abs(h - mirror).max())
    require(worst <= 1e-11 * max(1.0, float(np.abs(h).max())), f"h(theta) - h(-theta) = {worst!r}")


def check_spectrum_inside(theta: np.ndarray, points: np.ndarray, values: np.ndarray) -> None:
    """Re(e^{i theta} lambda) <= h(theta) for every eigenvalue and angle."""
    h = support(theta, points)
    proj = np.cos(theta)[:, None] * values.real[None, :] - np.sin(theta)[:, None] * values.imag[None, :]
    excess = float((proj - h[:, None]).max())
    require(excess <= 1e-9, f"an eigenvalue lies {excess!r} outside the support line")


def normalized_euclidean(g: EdgeList) -> np.ndarray:
    """I - D^-1/2 B D^-1/2 with D = diag(beta_plus): the normalized operator
    conjugated into the plain inner product, assembled from the edge list."""
    b = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        b[u, v] = w
    s = np.sqrt(np.asarray(g.beta_plus))
    return np.eye(g.n) - b / (s[:, None] * s[None, :])


def check_support_values(theta: np.ndarray, points: np.ndarray, a: np.ndarray, samples: int = 8) -> None:
    """h(theta) at `samples` evenly spaced angles against the top eigenvalue of
    the Hermitian part of e^{i theta} A, with A from normalized_euclidean."""
    for k in range(0, theta.size, max(1, theta.size // samples)):
        rot = np.exp(1j * theta[k]) * a
        top = float(np.linalg.eigvalsh(0.5 * (rot + rot.conj().T))[-1])
        h = float(support(theta[k:k + 1], points[k:k + 1])[0])
        require(abs(h - top) <= 1e-11 * max(1.0, abs(top)), f"h({float(theta[k])!r}) = {h!r}, eigenvalue gives {top!r}")


def check_nu(points: np.ndarray, nu: float) -> None:
    low = float(points.real.min())
    require(abs(low - nu) <= 1e-10, f"min Re p = {low!r} but nu = {nu!r}")


def check_norm_at_most_2(norm: float) -> None:
    require(norm <= 2.0 + 1e-12, f"operator norm {norm!r} > 2")


def check_norm_at_least_radius(norm: float, values: np.ndarray) -> None:
    rho = float(np.abs(values).max())
    require(norm >= rho * (1.0 - 1e-12), f"operator norm {norm!r} < spectral radius {rho!r}")


def check_kernel(dim: int) -> None:
    require(dim == 1, f"kernel dimension {dim}, expected 1")


# ------------------------------------------------------ infinity profile


def check_profile_constants(rows: list[dict], g: EdgeList, root: int) -> None:
    """Levels, m_c and M_c against the benchmark's own BFS filtration."""
    comps = g.ball_complements(root)
    require([int(r["level"]) for r in rows] == [lv for lv, _ in comps],
            f"levels {[int(r['level']) for r in rows]} != {[lv for lv, _ in comps]}")
    for row, (lv, comp) in zip(rows, comps):
        m_c, M_c = g.ratio_range(comp)
        require(close(row["m_c"], m_c) and close(row["M_c"], M_c),
                f"level {lv}: (m_c, M_c) = ({row['m_c']!r}, {row['M_c']!r}), expected ({m_c!r}, {M_c!r})")


def cheeger_cap(g: EdgeList, comp: list[int], normalization: str) -> float:
    """The smaller of the whole complement's ratio and the best single
    vertex's ratio: every Cheeger value, exact or heuristic, is at most this."""
    denom = g.denominator(normalization)
    whole = g.cut(set(comp)) / sum(denom[v] for v in comp)
    single = min((g.beta_plus[v] + g.beta_minus[v]) / denom[v] for v in comp)
    return min(whole, single)


def check_profile_cheeger(rows: list[dict], g: EdgeList, root: int, brute_max: int = 12) -> None:
    """h_c, h~_c: equal to enumeration on complements of <= brute_max
    vertices, and never above cheeger_cap."""
    for row, (lv, comp) in zip(rows, g.ball_complements(root)):
        for key, normalization in (("h_c", "measure"), ("h_tilde_c", "beta_plus")):
            value = row[key]
            if len(comp) <= brute_max:
                ref = g.brute_cheeger(comp, normalization)
                require(close(value, ref), f"level {lv}: {key} = {value!r}, enumeration gives {ref!r}")
            cap = cheeger_cap(g, comp, normalization)
            require(value <= cap * (1.0 + 1e-12), f"level {lv}: {key} = {value!r} above {cap!r}")


def _bound_tol(value: float) -> float:
    return 1e-9 * max(1.0, abs(value))


def check_nu_below_h(rows: list[dict]) -> None:
    """nu_dirichlet <= h_c / 2 at every level."""
    for row in rows:
        nu_d = row["nu_dirichlet"]
        require(nu_d <= row["h_c"] / 2.0 + _bound_tol(nu_d),
                f"level {int(row['level'])}: nu {nu_d!r} > h_c / 2 = {row['h_c'] / 2.0!r}")


def check_ess_below_nu(rows: list[dict]) -> None:
    """ess_lower_bound <= nu_dirichlet at every level."""
    for row in rows:
        nu_d = row["nu_dirichlet"]
        require(row["ess_lower_bound"] <= nu_d + _bound_tol(nu_d),
                f"level {int(row['level'])}: ess_lower_bound {row['ess_lower_bound']!r} > nu {nu_d!r}")


def heavy_end(m_column: list[float]) -> bool:
    """m_c nondecreasing and grown at least tenfold."""
    steady = all(b >= a for a, b in zip(m_column, m_column[1:]))
    return len(m_column) >= 2 and steady and m_column[-1] >= 10.0 * m_column[0]


def check_heavy(rows: list[dict], expected: bool) -> None:
    got = heavy_end([r["m_c"] for r in rows])
    require(got == expected, f"heavy end read from m_c is {got}, expected {expected}")

