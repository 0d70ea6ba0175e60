"""The benchmark wraps dirlap functions by name; they must keep existing.

bench/spans.py lists, per dirlap module, the functions its tracer replaces
with timing wrappers. A function renamed or moved away makes the traced
benchmark fail with an AttributeError, so the names are checked here.
"""

import collections
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from dirlap import gen_layered_heavy, load_graph, save_graph
from dirlap.cli import build_parser, main

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, qualname",
    [(layer, name) for layer, names in load_spans().LAYERS.items() for name in names],
)
def test_traced_function_exists(layer, qualname):
    target = importlib.import_module(f"dirlap.{layer}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


# The benchmark runs CLI commands in-process and parses their outputs; a
# flag it passes that the parser no longer accepts, or a changed CSV layout,
# makes a pass exit non-zero before it prints its result.


def test_bench_cli_argvs_parse(monkeypatch):
    """Every argv the benchmark's operations pass to dirlap.cli.main parses."""
    monkeypatch.syspath_prepend(str(SPANS.parent))  # workloads imports checks
    spec = importlib.util.spec_from_file_location("bench_workloads", SPANS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    argvs = []
    monkeypatch.setattr(workloads, "_cli", argvs.append)
    for name in workloads.NAMES:
        # the graphs are only read when an operation runs
        workloads.operations(name, {"graphs": collections.defaultdict(lambda: None)})
    assert {argv[0] for argv in argvs} == {"spectrum", "numrange", "verify", "infinity"}
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]


def test_infinity_csv_layout(tmp_path):
    save_graph(gen_layered_heavy(3, 3, 2.0), tmp_path / "g.json")
    out = tmp_path / "profile.csv"
    assert main(["infinity", str(tmp_path / "g.json"), "--root", "0", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "level,m_c,M_c,h_c,h_tilde_c,nu_dirichlet,ess_lower_bound"
    assert rows
    for row in rows:
        assert len([float(v) for v in row.split(",")]) == 7


# A set-up that raises ends a pass before it prints its result line, so the
# graphs the benchmark generates and writes are checked to load back intact.


@pytest.mark.parametrize("workload", ["dense_spectra", "cheeger_profile"])
def test_setup_files_load_back(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("bench_workloads", SPANS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    state = workloads.setup(workload, workloads.instance_seeds(workload, 1))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{name}.json" for name in state["graphs"])
    for name, g in state["graphs"].items():
        back = load_graph(f"{name}.json")
        assert back.n == g.n
        for field in ("measure", "edge_from", "edge_to", "edge_weight"):
            assert getattr(back, field).tobytes() == getattr(g, field).tobytes()


# A traced pass reports per-layer counters; its result line must stay
# readable by JSON readers limited to finite floats and 64-bit integers.


def test_traced_cheeger_pass_reports_bounded_numbers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("bench_workloads", SPANS.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    seeds = json.dumps(workloads.instance_seeds("cheeger_profile", 1))
    src = str(SPANS.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(SPANS.parent / "worker.py"), "cheeger_profile", seeds,
         "result.json", "traced", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert [op["name"] for op in result["operations"] if op["failed"]] == []
    json.dumps(result, allow_nan=False)
    for name, value in result["trace"].items():
        if isinstance(value, int):
            assert abs(value) < 2**63, name
        else:
            assert isinstance(value, float) and math.isfinite(value), name
