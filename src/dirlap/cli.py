"""Command line interface.

Subcommands: gen, check, spectrum, numrange, cheeger, verify, infinity.
All outputs are plain data (JSON or CSV) written atomically; floats use
their shortest round-trip representation. Exit codes: 0 on success, 1 when
`verify` found a failing report, 2 on input errors (bad files, bad flags,
schema violations).
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter

from ._io import (
    INTEGER, check_writable, dump_csv, dump_json, json_typed, parse_json, read_json, read_text,
    write_text_atomic,
)
from .errors import DirlapError, InputParseError, InvalidArgumentError
from .generators import (
    gen_cycle,
    gen_layered_heavy,
    gen_opposing_cycles,
    gen_random_circulation,
    gen_symmetric_tree,
)
from .graph import check_kirchhoff, graph_from_json_obj, load_graph, save_graph
from .isoperimetric import (
    NORMALIZATIONS,
    build_filtration,
    cheeger_exact,
    infinity_profile,
)
from .operators import (
    assemble,
    dirichlet,
    operator_from_csv_text,
    operator_from_json_obj,
    operator_to_csv_text,
    operator_to_json_obj,
)
from .spectral import eig, numerical_range_boundary
from .verify import verify_corpus, verify_graph

_OP_CHOICES = {
    "delta": "delta",
    "delta-prime": "delta_prime",
    "h": "h",
    "normalized": "normalized_delta",
    "normalized-prime": "normalized_delta_prime",
    "normalized-h": "normalized_h",
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out, text)


def _parse_omega(args) -> list[int] | None:
    if getattr(args, "omega", None) is not None:
        ids = parse_json(args.omega, "omega")
    elif getattr(args, "omega_file", None) is not None:
        ids = read_json(args.omega_file)
    else:
        return None
    if not isinstance(ids, list) or not json_typed(ids, INTEGER):
        raise InputParseError("omega must be a JSON array of integer ids")
    return ids


def _resolve_operator(args):
    """Build the operator a spectrum/numrange invocation refers to: the --op
    operator of a graph file (delta when --op is not given), or an exported
    operator file as is (CSV unless the name ends in .json, as
    --dump-operator writes it), whose kind an explicit --op must match.
    Exports it when --dump-operator is given."""
    kind = None if args.op is None else _OP_CHOICES[args.op]
    if not args.input.endswith(".json"):
        op = operator_from_csv_text(read_text(args.input))
    else:
        obj = read_json(args.input)
        if isinstance(obj, dict) and "matrix" in obj:
            op = operator_from_json_obj(obj)
        else:
            op = assemble(graph_from_json_obj(obj), kind or "delta")
    if kind is not None and op.base_kind() != kind:
        raise InvalidArgumentError(
            f"--op {args.op} asks for {kind}, but {args.input} holds a {op.kind} operator"
        )
    omega = _parse_omega(args)
    if omega is not None:
        op = dirichlet(op, omega)
    path = args.dump_operator
    if path:
        write_text_atomic(path, dump_json(operator_to_json_obj(op)) if path.endswith(".json")
                          else operator_to_csv_text(op))
    return op


def _cmd_gen(args) -> int:
    if args.family == "cycle":
        g = gen_cycle(args.n, args.w)
    elif args.family == "opposing":
        g = gen_opposing_cycles(args.n, args.w_forward, args.w_backward)
    elif args.family == "circulation":
        g = gen_random_circulation(
            args.n, args.cycles, args.seed, (args.wmin, args.wmax)
        )
    elif args.family == "layered":
        g = gen_layered_heavy(args.layers, args.width, args.gamma, args.radial)
    else:  # tree
        g = gen_symmetric_tree(args.depth, args.branching, args.growth)
    save_graph(g, args.out)
    return 0


def _cmd_check(args) -> int:
    g = load_graph(args.input)
    report = check_kirchhoff(g, args.tol)
    _emit(dump_json(report), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    values = eig(_resolve_operator(args).matrix)
    _emit(dump_csv([("re", "im"), *zip(values.real, values.imag)]), args.out)
    return 0


def _cmd_numrange(args) -> int:
    b = numerical_range_boundary(_resolve_operator(args), args.angles)
    _emit(dump_csv([("theta", "re", "im"), *zip(b.angles, b.points.real, b.points.imag)]), args.out)
    return 0


def _cmd_cheeger(args) -> int:
    g = load_graph(args.input)
    omega = _parse_omega(args)
    if omega is None:
        omega = list(range(g.n))
    result = cheeger_exact(g, omega, args.normalization)
    _emit(dump_json(result), args.out)
    return 0


def _cmd_verify(args) -> int:
    if (args.input is None) == (args.family is None):
        raise InputParseError("verify needs exactly one of a graph file and --family corpus")
    if args.family is None:
        reports = verify_graph(load_graph(args.input), args.input)
    elif args.family == "corpus":
        reports = verify_corpus()
    else:
        raise InputParseError(f"unknown family {args.family!r}, expected 'corpus'")
    _emit(dump_json(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


# the LevelProfile fields of the infinity CSV, in column order
_LEVEL_CSV = ("level", "m_c", "M_c", "h_c", "h_tilde_c", "nu_dirichlet", "ess_lower_bound")


def _cmd_infinity(args) -> int:
    g = load_graph(args.input)
    profile = infinity_profile(g, build_filtration(g, args.root))
    rows = map(attrgetter(*_LEVEL_CSV), profile.levels)
    _emit(dump_csv([_LEVEL_CSV, *rows]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirlap",
        description="Laplacians, numerical ranges and Cheeger constants on directed weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph from a named family")
    fam = p.add_subparsers(dest="family", required=True)
    f = fam.add_parser("cycle", help="directed n-cycle")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--w", type=float, default=1.0)
    f = fam.add_parser("opposing", help="two opposing weighted cycles")
    f.add_argument("--n", type=int, default=3)
    f.add_argument("--w-forward", type=float, default=2.0)
    f.add_argument("--w-backward", type=float, default=1.0)
    f = fam.add_parser("circulation", help="superposition of random cycles")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--cycles", type=int, default=3)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--wmin", type=float, default=0.25)
    f.add_argument("--wmax", type=float, default=4.0)
    f = fam.add_parser("layered", help="concentric cycles with growing weights")
    f.add_argument("--layers", type=int, required=True)
    f.add_argument("--width", type=int, required=True)
    f.add_argument("--gamma", type=float, default=2.0)
    f.add_argument("--radial", type=float, default=1.0)
    f = fam.add_parser("tree", help="symmetric-weight rooted tree")
    f.add_argument("--depth", type=int, default=2)
    f.add_argument("--branching", type=int, default=2)
    f.add_argument("--growth", type=float, default=1.0)
    for f in fam.choices.values():
        f.add_argument("--out", required=True, help="output graph JSON path")

    p = sub.add_parser("check", help="report flow balance of a graph")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)

    for name, help_text in (
        ("spectrum", "eigenvalues as CSV (re,im)"),
        ("numrange", "numerical range boundary as CSV (theta,re,im)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="graph JSON, or an operator exported as .json or CSV")
        p.add_argument(
            "--op", choices=sorted(_OP_CHOICES), default=None,
            help="operator of a graph file (default delta); on an operator file, its kind",
        )
        omega = p.add_mutually_exclusive_group()
        omega.add_argument("--omega", default=None, help="JSON array of vertex ids")
        omega.add_argument("--omega-file", default=None)
        p.add_argument("--dump-operator", default=None, help="also export the operator (.json or CSV)")
        p.add_argument("--out", default=None)
        if name == "numrange":
            p.add_argument("--angles", type=int, default=360)

    p = sub.add_parser("cheeger", help="isoperimetric constant of a subset")
    p.add_argument("input", help="graph JSON file")
    omega = p.add_mutually_exclusive_group()
    omega.add_argument("--omega", default=None, help="JSON array of vertex ids (default: all)")
    omega.add_argument("--omega-file", default=None)
    p.add_argument("--normalization", choices=NORMALIZATIONS, default="measure")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the inequality suite, exit 1 on failure")
    p.add_argument("input", nargs="?", default=None, help="graph JSON file")
    p.add_argument("--family", default=None, help="'corpus' to run the built-in corpus")
    p.add_argument("--out", default=None)

    p = sub.add_parser("infinity", help="filtration complement profile as CSV")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "spectrum": _cmd_spectrum,
    "numrange": _cmd_numrange,
    "cheeger": _cmd_cheeger,
    "verify": _cmd_verify,
    "infinity": _cmd_infinity,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an output that cannot be written fails before the work, not after
        if getattr(args, "out", None) is not None:
            check_writable(args.out)
        if getattr(args, "dump_operator", None):
            check_writable(args.dump_operator)
        return _COMMANDS[args.command](args)
    except DirlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
