"""The workloads: inputs, timed calls and the checks on their outputs.

A workload's setup imports dirlap, generates its graphs and writes them as
graph JSON files; it runs in the pass process and is what setup_s times.
Its operations are the timed calls, each a CLI command run in-process
through dirlap.cli.main (inputs and outputs in files) or, where no command
exists, a library call. Each operation carries the checks of its output,
and each check carries one deliberately wrong variant of that output that
the check must reject before the benchmark trusts it.

Nothing at module level imports numpy or dirlap, so that importing this
file does not move work out of the timed setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

NAMES = ("dense_spectra", "cheeger_profile")

DENSE_N, DENSE_CYCLES = 300, 150
SMALL_N, SMALL_CYCLES = 23, 4
ANGLES = 360
# The kernel-dimension fault is shown on one fixed instance, so that the
# failing operation does not depend on the workload seed.
FAULT_SEED = 0
FAULT_SCALE = 2.0**40
# Cut-table work on the n = 23 circulation depends on its BFS level sizes
# and on the internal pairs of the 22-vertex complement of the root. The
# seed picks an instance among those with this shape, so every seed does
# the same enumeration work.
SMALL_SHAPE = ((1, 5, 17, 23), 54)
BRUTE_MAX = 12


def _mix(x: int) -> int:
    """splitmix64 finalizer, for deriving instance seeds from the workload seed."""
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def small_shape(g) -> tuple[tuple[int, ...], int]:
    """(BFS ball sizes around 0, undirected pairs inside the complement of 0)."""
    from dirlap.isoperimetric import build_filtration

    sizes = tuple(len(level) for level in build_filtration(g, 0).levels)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(g.edge_from.tolist(), g.edge_to.tolist())}
    return sizes, sum(1 for u, v in pairs if u and v)


def instance_seeds(workload: str, seed: int) -> dict[str, int]:
    """Seeds of the generated instances; the same seed gives the same inputs."""
    if workload == "dense_spectra":
        return {"circulation": seed}
    from dirlap.generators import gen_random_circulation

    for j in range(1 << 20):
        candidate = _mix(seed * 1_000_003 + j) >> 1
        if small_shape(gen_random_circulation(SMALL_N, SMALL_CYCLES, candidate)) == SMALL_SHAPE:
            return {"circulation": seed, "small": candidate}
    raise RuntimeError(f"no n = {SMALL_N} circulation of shape {SMALL_SHAPE} for seed {seed}")


@dataclass
class Check:
    """A check of an operation's output and one wrong output it must reject.

    corrupt returns a changed copy of the output and leaves its input alone.
    """

    label: str
    run: Callable[[Any], None]
    corrupt: Callable[[Any], Any]


@dataclass
class Operation:
    name: str
    call: Callable[[], Any]
    read: Callable[[Any], Any]
    checks: list[Check]
    outputs: list[str] = field(default_factory=list)
    # fails today because of a known fault in the program; it counts as a
    # failed operation rather than a wrong result
    known_fault: str | None = None


def _edge_arrays(g) -> tuple[list[float], list[tuple[int, int, float]]]:
    return g.measure.tolist(), list(
        zip(g.edge_from.tolist(), g.edge_to.tolist(), g.edge_weight.tolist())
    )


def _cli(argv: list[str]) -> Callable[[], int]:
    from dirlap import cli

    return lambda: cli.main(argv)


# ------------------------------------------------------------- setups


def setup(workload: str, seeds: dict[str, int]) -> dict[str, Any]:
    """Import dirlap, generate the graphs, write them as graph JSON files in
    the current directory. Returns the edge lists and in-memory graphs."""
    from dirlap import generators
    from dirlap.graph import build_graph, save_graph

    if workload == "dense_spectra":
        base = generators.gen_random_circulation(DENSE_N, DENSE_CYCLES, FAULT_SEED)
        measure, edges = _edge_arrays(base)
        graphs = {
            "circulation": generators.gen_random_circulation(DENSE_N, DENSE_CYCLES, seeds["circulation"]),
            "scaled": build_graph([m * FAULT_SCALE for m in measure], edges),
        }
    else:
        graphs = {
            "small": generators.gen_random_circulation(SMALL_N, SMALL_CYCLES, seeds["small"]),
            "heavy": generators.gen_layered_heavy(6, 4, 2.0),
            "flat": generators.gen_layered_heavy(6, 4, 1.0),
            "circulation": generators.gen_random_circulation(DENSE_N, DENSE_CYCLES, seeds["circulation"]),
        }
    for name, g in graphs.items():
        save_graph(g, f"{name}.json")
    return {"graphs": graphs, "seeds": seeds}


# --------------------------------------------------------- operations


class _EdgeLists:
    """checks.EdgeList of each generated graph, built on first use, so that
    no reference data is allocated before the timed calls have run. A name
    may carry the ".json" of the graph's file, as verify instance names do."""

    def __init__(self, graphs: dict[str, Any]):
        self._graphs = graphs
        self._built: dict[str, Any] = {}

    def __getitem__(self, name: str):
        import checks as C

        name = name.removesuffix(".json")
        if name not in self._built:
            self._built[name] = C.EdgeList(*_edge_arrays(self._graphs[name]))
        return self._built[name]


def operations(workload: str, state: dict[str, Any]) -> list[Operation]:
    edges = _EdgeLists(state["graphs"])
    build = {"dense_spectra": _dense_ops, "cheeger_profile": _cheeger_ops}
    return build[workload](state, edges)


def _with(data: dict, **changes) -> dict:
    out = dict(data)
    out.update(changes)
    return out


def _flip_first_passed(reports: list[dict]) -> list[dict]:
    out = list(reports)
    out[0] = _with(out[0], passed=not out[0]["passed"])
    return out


def _raise_first_h(reports: list[dict]) -> list[dict]:
    """Raise the Cheeger value behind lhs[0] by 1%, in the first report
    where it is not 0."""
    out = list(reports)
    i = next(i for i, r in enumerate(out) if r["lhs"][0] > 0)
    h = (8.0 * out[i]["lhs"][0]) ** 0.5
    out[i] = _with(out[i], lhs=[(1.01 * h) ** 2 / 8.0] + out[i]["lhs"][1:])
    return out


def _verify_read(path: str, sample: Callable[[list[dict]], list[dict]]):
    import checks as C

    def read(rc: int) -> dict:
        reports = C.read_json(path)
        return {"rc": rc, "reports": reports, "sample": sample(reports)}

    return read


def _verify_checks(edges: _EdgeLists) -> list[Check]:
    import checks as C

    return [
        _exit_zero(),
        Check("every report passes", lambda d: C.check_all_passed(d["reports"]),
              lambda d: _with(d, reports=_flip_first_passed(d["reports"]))),
        Check("sandwich lhs = enumerated h^2/8, ht^2/8", lambda d: C.check_sandwich_brute(d["sample"], edges),
              lambda d: _with(d, sample=_raise_first_h(d["sample"]))),
    ]


def _exit_zero() -> Check:
    import checks as C

    return Check("exit code 0", lambda d: C.check_exit_zero(d["rc"]), lambda d: _with(d, rc=1))


def _dense_ops(state, edges) -> list[Operation]:
    import numpy as np

    import checks as C
    from dirlap.operators import assemble
    from dirlap.spectral import kernel_dimension, nu, operator_norm

    g = state["graphs"]["circulation"]
    scaled = state["graphs"]["scaled"]
    # outputs read so far, for checks that relate two operations
    seen: dict[str, Any] = {}

    def delta_trace() -> float:
        ref = edges["circulation"]
        return sum(b / m for b, m in zip(ref.beta_plus, ref.measure))

    def spectrum_op(op_name: str, trace: Callable[[], float]) -> Operation:
        out = f"spectrum_{op_name}.csv"

        def read(rc: int) -> dict:
            seen[op_name] = C.read_spectrum(out)
            return {"rc": rc, "values": seen[op_name]}

        def shift(d, where: int, by: float) -> dict:
            values = d["values"].copy()
            values[where] += by
            return _with(d, values=values)

        return Operation(
            f"spectrum --op {op_name}",
            _cli(["spectrum", "circulation.json", "--op", op_name, "--out", out]),
            read,
            [
                _exit_zero(),
                Check("sum of eigenvalues = trace", lambda d: C.check_trace(d["values"], trace()),
                      lambda d: shift(d, 0, 1e-6)),
                Check("conjugate pairs", lambda d: C.check_conjugate_pairs(d["values"]),
                      lambda d: shift(d, int(np.flatnonzero(d["values"].imag)[0]), 1e-6)),
            ],
            outputs=[out],
        )

    def read_numrange(rc: int) -> dict:
        theta, points = C.read_numrange("numrange.csv")
        seen["numrange"] = points
        return {"rc": rc, "theta": theta, "points": points, "values": seen["normalized"]}

    def replace(d, key: str, where: int, value: complex) -> dict:
        arr = d[key].copy()
        arr[where] = value
        return _with(d, **{key: arr})

    def push_out(d):
        p = d["points"][0]
        return replace(d, "points", 0, 1.0 + (1.0 + 1e-6) * (p - 1.0) / abs(p - 1.0))

    def move_support(d):
        return replace(d, "points", 1, d["points"][1] + 1e-6 * np.exp(-1j * d["theta"][1]))

    def eigenvalue_outside(d):
        h0 = float(C.support(d["theta"][:1], d["points"][:1])[0])
        return replace(d, "values", int(np.argmax(d["values"].real)), h0 + 1e-6)

    def normalized():
        return assemble(g, "normalized_delta")

    return [
        spectrum_op("delta", delta_trace),
        spectrum_op("normalized", lambda: float(g.n)),
        Operation(
            f"numrange --op normalized --angles {ANGLES}",
            _cli(["numrange", "circulation.json", "--op", "normalized", "--angles", str(ANGLES),
                  "--out", "numrange.csv"]),
            read_numrange,
            [
                _exit_zero(),
                Check("|p - 1| <= 1", lambda d: C.check_disc(d["points"]), push_out),
                Check("h(theta) = top eigenvalue from the edge list",
                      lambda d: C.check_support_values(d["theta"], d["points"], C.normalized_euclidean(edges["circulation"])),
                      lambda d: _with(d, points=d["points"] * (1.0 + 1e-6))),
                Check("h(theta) = h(-theta)", lambda d: C.check_support_symmetric(d["theta"], d["points"]),
                      move_support),
                Check("Re(e^{i theta} lambda) <= h(theta)",
                      lambda d: C.check_spectrum_inside(d["theta"], d["points"], d["values"]),
                      eigenvalue_outside),
            ],
            outputs=["numrange.csv"],
        ),
        Operation("operator_norm(normalized)", lambda: operator_norm(normalized()), _same, [
            Check("norm <= 2", C.check_norm_at_most_2, lambda v: 2.0 + 1e-6),
            Check("norm >= spectral radius", lambda v: C.check_norm_at_least_radius(v, seen["normalized"]),
                  lambda v: float(np.abs(seen["normalized"]).max()) * (1.0 - 1e-6)),
        ]),
        Operation("nu(normalized)", lambda: nu(normalized()), _same, [
            Check("min Re p = nu", lambda v: C.check_nu(seen["numrange"], v), lambda v: v + 1e-6),
        ]),
        Operation("kernel_dimension(normalized)", lambda: kernel_dimension(normalized()), _same, [
            Check("kernel dimension 1", C.check_kernel, lambda v: 2),
        ]),
        Operation(
            "kernel_dimension(delta, measures x 2^40)",
            lambda: kernel_dimension(assemble(scaled, "delta")),
            _same,
            [Check("kernel dimension 1", C.check_kernel, lambda v: 2)],
            known_fault="spectral.kernel_dimension compares |lambda| with an absolute 1e-8",
        ),
    ]


def _same(value):
    return value


def _cheeger_ops(state, edges) -> list[Operation]:
    import checks as C

    def small_sample(reports: list[dict]) -> list[dict]:
        return [r for r in reports if r["theorem_id"] == "cheeger_sandwich"
                and len(C.parse_omega(r["instance"])) <= BRUTE_MAX]

    def read_profile(path: str):
        return lambda rc: {"rc": rc, "rows": C.read_profile(path)}

    def on_rows(corrupt):
        return lambda d: _with(d, rows=corrupt(d["rows"]))

    def on_first_row(**changes):
        return on_rows(lambda rows: [_with(rows[0], **{k: f(rows[0]) for k, f in changes.items()})] + rows[1:])

    def raise_last_h(name: str):
        def corrupt(rows):
            g = edges[name]
            comp = g.ball_complements(0)[-1][1]
            cap = C.cheeger_cap(g, comp, "measure")
            return rows[:-1] + [_with(rows[-1], h_c=1.01 * max(rows[-1]["h_c"], cap))]

        return on_rows(corrupt)

    def infinity_op(name: str, heavy: bool | None) -> Operation:
        out = f"infinity_{name}.csv"
        checks = [
            _exit_zero(),
            Check("levels, m_c, M_c from own BFS", lambda d: C.check_profile_constants(d["rows"], edges[name], 0),
                  on_first_row(m_c=lambda row: row["m_c"] * (1.0 + 1e-6))),
            Check("h_c, h~_c by enumeration and caps",
                  lambda d: C.check_profile_cheeger(d["rows"], edges[name], 0, BRUTE_MAX), raise_last_h(name)),
            Check("nu <= h_c / 2", lambda d: C.check_nu_below_h(d["rows"]),
                  on_first_row(nu_dirichlet=lambda row: 0.505 * row["h_c"])),
            Check("ess_lower_bound <= nu", lambda d: C.check_ess_below_nu(d["rows"]),
                  on_first_row(ess_lower_bound=lambda row: 1.01 * row["nu_dirichlet"] + 1e-6)),
        ]
        if heavy is not None:
            if heavy:
                corrupt = on_rows(lambda rows: rows[::-1])
            else:
                corrupt = on_rows(lambda rows: rows[:-1] + [_with(rows[-1], m_c=100.0 * rows[0]["m_c"])])
            checks.append(Check(f"heavy end is {heavy}", lambda d: C.check_heavy(d["rows"], heavy), corrupt))
        return Operation(
            f"infinity --root 0 {name}",
            _cli(["infinity", f"{name}.json", "--root", "0", "--out", out]),
            read_profile(out),
            checks,
            outputs=[out],
        )

    return [
        Operation(
            "verify small",
            _cli(["verify", "small.json", "--out", "verify_small.json"]),
            _verify_read("verify_small.json", small_sample),
            _verify_checks(edges),
            outputs=["verify_small.json"],
        ),
        infinity_op("heavy", True),
        infinity_op("flat", False),
        infinity_op("circulation", None),
    ]
