import hashlib
import json
import os
import subprocess
import sys

import pytest

import dirlap
from dirlap import (
    TheoremReport,
    build_graph,
    gen_cycle,
    gen_layered_heavy,
    gen_random_circulation,
    load_graph,
    save_graph,
)
from dirlap import cli
from dirlap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    save_graph(gen_cycle(3), path)
    return str(path)


@pytest.fixture
def unbalanced_file(tmp_path):
    path = tmp_path / "unbalanced.json"
    path.write_text(
        json.dumps(
            {
                "vertices": [{"id": 0, "m": 1.0}, {"id": 1, "m": 1.0}],
                "edges": [
                    {"from": 0, "to": 1, "b": 2.0},
                    {"from": 1, "to": 0, "b": 1.0},
                ],
            }
        )
    )
    return str(path)


class TestGen:
    def test_cycle(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "cycle", "--n", "5", "--w", "2.0", "--out", str(out))
        assert code == 0
        g = load_graph(out)
        assert g.n == 5
        assert g.edge_weight.tolist() == [2.0] * 5

    def test_circulation_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(
                capsys,
                "gen", "circulation", "--n", "9", "--cycles", "4",
                "--seed", "3", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_layered_and_tree(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(
            capsys,
            "gen", "layered", "--layers", "3", "--width", "4",
            "--gamma", "2.0", "--out", str(out),
        )
        assert code == 0 and load_graph(out).n == 12
        code, _, _ = run(
            capsys,
            "gen", "tree", "--depth", "2", "--branching", "3", "--out", str(out),
        )
        assert code == 0 and load_graph(out).n == 13

    def test_circulation_300_bytes(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(
            capsys,
            "gen", "circulation", "--n", "300", "--cycles", "150", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        data = out.read_bytes()
        # recorded with the generator and writer that drew and wrote one value at a time
        assert len(data) == 1213331
        assert (
            hashlib.sha256(data).hexdigest()
            == "d4f02359a2b3b30cad6ed119e09980d30e9323c82841c02ad538f7bc86c2eab6"
        )

    def test_opposing_defaults(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "opposing", "--out", str(out))
        assert code == 0
        g = load_graph(out)
        assert g.n == 3 and g.edge_from.size == 6


class TestCheck:
    def test_balanced_graph(self, triangle_file, capsys):
        code, out, _ = run(capsys, "check", triangle_file)
        assert code == 0
        report = json.loads(out)
        assert report["satisfied"] is True
        assert report["max_violation"] == 0.0

    def test_unbalanced_graph_still_exits_zero(self, unbalanced_file, capsys):
        code, out, _ = run(capsys, "check", unbalanced_file)
        assert code == 0
        report = json.loads(out)
        assert report["satisfied"] is False
        assert report["violating_vertices"] == [0, 1]

    def test_out_file(self, triangle_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", triangle_file, "--out", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["satisfied"] is True

    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("vertices", "m", "measure of vertex 2 is not finite"),
            ("edges", "b", "edge (2, 0) has a weight that is not finite"),
        ],
    )
    def test_number_too_large_for_a_float_exits_two(self, tmp_path, capsys, section, key, message):
        obj = dirlap.graph_to_json_obj(gen_cycle(3))
        obj[section][2][key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_non_positive_measure_prints_a_plain_float(self, tmp_path, capsys):
        obj = dirlap.graph_to_json_obj(gen_cycle(3))
        obj["vertices"][1]["m"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err == "error: measure of vertex 1 is 0.0, must be > 0\n"


class TestSpectrum:
    def test_csv_matches_closed_form(self, triangle_file, capsys):
        code, out, _ = run(capsys, "spectrum", triangle_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im"
        values = sorted(
            (complex(*map(float, ln.split(","))) for ln in lines[1:]),
            key=lambda z: (z.real, z.imag),
        )
        assert len(values) == 3
        assert abs(values[0]) < 1e-9
        assert values[1] == pytest.approx(1.5 - 0.8660254037844386j, abs=1e-9)
        assert values[2] == pytest.approx(1.5 + 0.8660254037844386j, abs=1e-9)

    def test_dirichlet_restriction_flag(self, triangle_file, capsys):
        code, out, _ = run(capsys, "spectrum", triangle_file, "--omega", "[0, 1]")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 2
        for ln in lines:
            re, im = map(float, ln.split(","))
            assert re == pytest.approx(1.0, abs=1e-9)
            assert im == pytest.approx(0.0, abs=1e-9)

    def test_operator_json_round_trip(self, triangle_file, tmp_path, capsys):
        dumped = tmp_path / "op.json"
        code, direct, _ = run(
            capsys,
            "spectrum", triangle_file, "--op", "normalized",
            "--dump-operator", str(dumped),
        )
        assert code == 0
        obj = json.loads(dumped.read_text())
        assert obj["kind"] == "normalized_delta"
        code, from_operator, _ = run(capsys, "spectrum", str(dumped))
        assert code == 0
        assert from_operator == direct

    @pytest.mark.parametrize(
        "op, size, digest",
        [
            ("delta", 796, "c7431d205575db55e378bd870b54398f7860694059966f92ee64420144366dec"),
            ("normalized", 875, "b9b542f4e6b0bc4b8976828c54f3ee7b5cfbe0e3cc1f21f11b8b3d9083634531"),
        ],
    )
    def test_circulation_23_bytes(self, tmp_path, capsys, op, size, digest):
        graph = tmp_path / "g.json"
        code, _, _ = run(
            capsys,
            "gen", "circulation", "--n", "23", "--cycles", "4", "--seed", "4", "--out", str(graph),
        )
        assert code == 0
        code, out, _ = run(capsys, "spectrum", str(graph), "--op", op)
        assert code == 0
        data = out.encode()
        # recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31, 1 and 2 threads
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_operator_csv_round_trip(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        save_graph(gen_random_circulation(6, 3, seed=1), graph)
        dumped = tmp_path / "op.csv"
        code, direct, _ = run(
            capsys,
            "spectrum", str(graph), "--op", "normalized", "--omega", "[0, 2, 3]",
            "--dump-operator", str(dumped),
        )
        assert code == 0
        assert dumped.read_text().startswith("kind,dirichlet(normalized_delta)\n")
        code, from_operator, err = run(capsys, "spectrum", str(dumped))
        assert (code, err) == (0, "")
        assert from_operator == direct

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    @pytest.mark.parametrize("command", ["spectrum", "numrange"])
    def test_op_on_operator_file(self, triangle_file, tmp_path, capsys, command, suffix):
        dumped = tmp_path / f"op.{suffix}"
        code, direct, _ = run(
            capsys, command, triangle_file, "--op", "normalized-h", "--omega", "[0, 1]",
            "--dump-operator", str(dumped),
        )
        assert code == 0
        # the operator's own kind, named or not, gives the same output
        for flags in ([], ["--op", "normalized-h"]):
            code, out, err = run(capsys, command, str(dumped), *flags)
            assert (code, out, err) == (0, direct, "")
        # any other kind is an input error, never silently ignored
        code, out, err = run(capsys, command, str(dumped), "--op", "delta")
        assert (code, out) == (2, "")
        assert "--op delta asks for delta" in err and "dirichlet(normalized_h)" in err

    def test_omega_file(self, triangle_file, tmp_path, capsys):
        omega_path = tmp_path / "omega.json"
        omega_path.write_text("[0, 1]")
        code, out, _ = run(capsys, "spectrum", triangle_file, "--omega-file", str(omega_path))
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestNumrange:
    def test_csv_shape_and_disc_bound(self, triangle_file, capsys):
        code, out, _ = run(
            capsys, "numrange", triangle_file, "--op", "normalized", "--angles", "24"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 25
        first_theta = float(lines[1].split(",")[0])
        assert first_theta == 0.0
        for ln in lines[1:]:
            _, re, im = map(float, ln.split(","))
            assert (re - 1.0) ** 2 + im**2 <= 1.0 + 1e-8

    def test_operator_input(self, triangle_file, tmp_path, capsys):
        dumped = tmp_path / "op.json"
        run(capsys, "numrange", triangle_file, "--angles", "8", "--dump-operator", str(dumped))
        code, out, _ = run(capsys, "numrange", str(dumped), "--angles", "8")
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_csv_dump_operator(self, triangle_file, tmp_path, capsys):
        dumped = tmp_path / "op.csv"
        code, _, _ = run(
            capsys, "numrange", triangle_file, "--angles", "8", "--dump-operator", str(dumped)
        )
        assert code == 0
        text = dumped.read_text()
        assert text.startswith("kind,delta\nmetric,1.0,1.0,1.0\n")

    def test_zero_operator_sweeps_to_zero(self, tmp_path, capsys):
        # every vector is an extreme one, and every point is 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"kind": "delta", "metric": [1.0, 2.0], "matrix": [[0.0] * 2] * 2}))
        code, out, _ = run(capsys, "numrange", str(path), "--angles", "8")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert len(rows) == 8
        assert all(float(re) == 0.0 and float(im) == 0.0 for _, re, im in rows)

    def test_one_vertex_restriction_prints_its_entry(self, triangle_file, capsys):
        # W([[1]]) = {1}; the Rayleigh quotient of a 1 x 1 matrix is exact
        code, out, _ = run(capsys, "numrange", triangle_file, "--omega", "[1]", "--angles", "16")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert len(rows) == 16
        assert all(re == "1.0" and float(im) == 0.0 for _, re, im in rows)

    @pytest.mark.parametrize("omega", [None, "[0]"])
    @pytest.mark.parametrize("op", ["delta", "h", "normalized-h"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycles_with_multiple_extremes(self, tmp_path, capsys, n, op, omega):
        # a cycle's operators are normal or symmetric, so most directions
        # have a multiple extreme eigenvalue
        path = tmp_path / "cycle.json"
        save_graph(gen_cycle(n), path)
        argv = ["numrange", str(path), "--op", op, "--angles", "96"]
        code, out, _ = run(capsys, *argv, *(["--omega", omega] if omega else []))
        assert code == 0
        assert len(out.strip().splitlines()) == 97


class TestCheeger:
    def test_defaults_to_all_vertices(self, triangle_file, capsys):
        code, out, _ = run(capsys, "cheeger", triangle_file)
        assert code == 0
        result = json.loads(out)
        assert result["value"] == 0.0
        assert result["witness"] == [0, 1, 2]
        assert result["mode"] == "exact"
        assert result["normalization"] == "measure"

    def test_subset_and_normalization(self, triangle_file, capsys):
        code, out, _ = run(
            capsys,
            "cheeger", triangle_file, "--omega", "[0, 1]",
            "--normalization", "beta_plus",
        )
        assert code == 0
        result = json.loads(out)
        assert result["value"] == 1.0
        assert result["witness"] == [0, 1]

    def test_default_mode_is_exact_when_large(self, tmp_path, capsys):
        # an arc of 24 vertices of a 25-cycle
        path = tmp_path / "big.json"
        save_graph(gen_cycle(25), path)
        code, out, _ = run(capsys, "cheeger", str(path), "--omega", json.dumps(list(range(24))))
        assert code == 0
        assert json.loads(out) == {
            "value": 2 / 24, "witness": list(range(24)), "mode": "exact", "normalization": "measure"
        }

    @pytest.mark.parametrize("mode", ["auto", "heuristic", "exact"])
    def test_auto_mode_is_gone(self, triangle_file, capsys, mode):
        # cheeger has one solver and no --mode option
        with pytest.raises(SystemExit) as exc:
            run(capsys, "cheeger", triangle_file, "--mode", mode)
        assert exc.value.code == 2

    def test_bad_omega_is_input_error(self, triangle_file, capsys):
        code, _, err = run(capsys, "cheeger", triangle_file, "--omega", "nonsense")
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_single_graph_passes(self, triangle_file, capsys):
        code, out, _ = run(capsys, "verify", triangle_file)
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 23
        assert all(r["passed"] for r in reports)

    def test_exit_one_on_failing_report(self, triangle_file, capsys, monkeypatch):
        import dirlap.cli

        failing = TheoremReport(
            theorem_id="t",
            instance="i",
            lhs=(1.0,),
            rhs=(0.0,),
            margin=-1.0,
            passed=False,
            tolerance=0.0,
        )
        monkeypatch.setattr(dirlap.cli, "verify_graph", lambda g, name: [failing])
        code, out, _ = run(capsys, "verify", triangle_file)
        assert code == 1
        assert json.loads(out)[0]["passed"] is False

    def test_disconnected_small_graph_passes(self, tmp_path, capsys):
        # two disjoint directed triangles; a union of components has no
        # vertex boundary and gets no Dirichlet bounds report
        path = tmp_path / "two.json"
        save_graph(
            build_graph(
                [1.0] * 6,
                [(i, (i + 1) % 3, 1.0) for i in range(3)]
                + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
            ),
            path,
        )
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)
        bounds = [r["instance"] for r in reports if r["theorem_id"].startswith("dirichlet")]
        # 2^6 - 2 proper subsets, less the two triangles
        assert len(bounds) == 2**6 - 2 - 2
        assert f"{path}|omega={{0,1,2}}" not in bounds

    def test_needs_input_or_family(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "error:" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "zoo")
        assert code == 2
        assert "error:" in err

    def test_graph_file_and_family_exclude_each_other(self, triangle_file, capsys):
        code, out, err = run(capsys, "verify", triangle_file, "--family", "corpus")
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestInfinity:
    def test_profile_csv(self, tmp_path, capsys):
        path = tmp_path / "layered.json"
        save_graph(gen_cycle(6), path)
        code, out, _ = run(capsys, "infinity", str(path), "--root", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,m_c,M_c,h_c,h_tilde_c,nu_dirichlet,ess_lower_bound"
        assert len(lines) >= 2
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 1.0

    def test_heavy_profile_bytes(self, tmp_path, capsys):
        path = tmp_path / "heavy.json"
        save_graph(gen_layered_heavy(6, 4, 2.0), path)
        out = tmp_path / "heavy.csv"
        code, _, _ = run(capsys, "infinity", str(path), "--root", "0", "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        # recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31
        assert len(data) == 574
        assert (
            hashlib.sha256(data).hexdigest()
            == "6bceaac469e2f8daeec2a355528c0daa94a82848df9051a3ce392e301bfcccd3"
        )

    @pytest.mark.parametrize(
        "name, graph, size, digest",
        [
            # 41 complements, every one solved by exact minimum cuts
            ("deep_heavy", lambda: gen_layered_heavy(40, 4, 2.0), 4416,
             "a0b9aa7c17546f24d5a94a18044cb77cc490e362330767f1a7f2751812f56e3c"),
            # the two complements of the benchmark's n = 300 circulation
            ("circulation", lambda: gen_random_circulation(300, 150, 1), 239,
             "954f4b1419a5d7eaeb1238957492ef70a467eb28b465e522c8c634ddd5cf580c"),
        ],
    )
    def test_exact_cut_profile_bytes(self, tmp_path, name, graph, size, digest):
        save_graph(graph(), tmp_path / f"{name}.json")
        # in a subprocess with 2 BLAS threads: under 1, row 1's nu_dirichlet
        # of the n = 300 circulation differs in its last digits
        result = subprocess.run(
            [sys.executable, "-m", "dirlap", "infinity", f"{name}.json", "--root", "0",
             "--out", f"{name}.csv"],
            capture_output=True,
            cwd=tmp_path,
            env=package_env(OPENBLAS_NUM_THREADS="2"),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        data = (tmp_path / f"{name}.csv").read_bytes()
        # recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31, 2 threads
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_rejects_disconnected(self, tmp_path, capsys):
        path = tmp_path / "two.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": i, "m": 1.0} for i in range(6)],
                    "edges": [
                        {"from": i, "to": (i + 1) % 3, "b": 1.0} for i in range(3)
                    ]
                    + [
                        {"from": 3 + i, "to": 3 + (i + 1) % 3, "b": 1.0}
                        for i in range(3)
                    ],
                }
            )
        )
        code, _, err = run(capsys, "infinity", str(path))
        assert code == 2
        assert "error:" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/graph.json")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command, name", [("check", "g.json"), ("spectrum", "op.csv")])
    def test_undecodable_file(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_schema_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [], "edges": []}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "command, bad",
        [("check", "b"), ("cheeger", "b"), ("spectrum", "m"), ("numrange", "b")],
    )
    def test_non_finite_graph(self, tmp_path, capsys, command, bad):
        path = tmp_path / "inf.json"
        edges = [{"from": i, "to": (i + 1) % 3, "b": 1.0} for i in range(3)]
        vertices = [{"id": i, "m": 1.0} for i in range(3)]
        (edges if bad == "b" else vertices)[0][bad] = float("inf")
        path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert "error:" in err and "not finite" in err and out == ""

    @pytest.fixture
    def overflowing_file(self, tmp_path):
        """Balanced, with finite measures, weights and totals, but b / m = 1e600."""
        path = tmp_path / "tiny.json"
        save_graph(build_graph([1e-300] * 3, [(i, (i + 1) % 3, 1e300) for i in range(3)]), path)
        return str(path)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("infinity",), "operator delta has an entry beyond the float range"),
            (("verify",), "operator delta has an entry beyond the float range"),
            (("spectrum",), "operator delta has an entry beyond the float range"),
            (("numrange",), "operator delta has an entry beyond the float range"),
            (("spectrum", "--op", "h"), "operator h has an entry beyond the float range"),
            (("cheeger", "--omega", "[1,2]"), "the measure Cheeger constant is beyond the float range"),
        ],
    )
    def test_overflow_exits_two(self, overflowing_file, capsys, argv, message):
        assert run(capsys, "check", overflowing_file)[0] == 0
        code, out, err = run(capsys, argv[0], overflowing_file, *argv[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, graph, message",
        [
            # unbalanced: ht = 5e209 on the complement of vertex 0, so ht^2 overflows
            ("infinity",
             build_graph([1.0] * 3, [(0, 1, 1e200), (0, 2, 1e200), (1, 0, 1e-10),
                                     (2, 0, 1e-10), (1, 2, 1e-10), (2, 1, 1e-10)]),
             "bound m ht^2 / 8 at m = 2e-10, ht = 5e+209"
             " is beyond the float range"),
            # balanced, every constant finite, but h * h = 4e400
            ("verify",
             build_graph([1e-200] * 3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]),
             "cheeger_sandwich on {path}|omega={{0}} has a value beyond the float range"),
            # balanced, but the Hermitian part of delta on {0, 1} sums -1e308 twice
            ("infinity",
             build_graph([1.0] * 3, [(0, 1, 1e308), (1, 0, 1e308), (1, 2, 1.0), (2, 1, 1.0)]),
             "matrix has a non-finite entry"),
        ],
        ids=["infinity-ess-bound", "verify-sandwich", "infinity-hermitian-part"],
    )
    def test_numbers_beyond_the_float_range_exit_two(
        self, tmp_path, capsys, command, graph, message
    ):
        path = tmp_path / "g.json"
        save_graph(graph, path)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, str(path), "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {message.format(path=path)}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("cheeger", "--omega", "[1,2]", "--normalization", "beta_plus"),
            ("spectrum", "--op", "normalized"),
            ("numrange", "--op", "normalized-h", "--angles", "8"),
        ],
    )
    def test_finite_kinds_of_an_overflowing_graph_still_work(
        self, overflowing_file, capsys, argv
    ):
        code, out, err = run(capsys, argv[0], overflowing_file, *argv[1:])
        assert code == 0 and out and err == ""

    def test_boolean_in_graph(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "m": True}, {"id": True, "m": 1.0}],
            "edges": [{"from": 0, "to": 1, "b": 1.0}, {"from": 1, "to": 0, "b": 1.0}],
        }))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error:" in err and out == ""

    def test_fractional_and_string_values_in_graph(self, tmp_path, capsys):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({
            "vertices": [{"id": 0, "m": 1.0}, {"id": 1.7, "m": 1.0}],
            "edges": [{"from": 0, "to": 1.9, "b": 1.0}, {"from": "1", "to": 0, "b": "1.0"}],
        }))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error:" in err and out == ""

    def test_non_finite_operator(self, tmp_path, capsys):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(
            {"kind": "delta", "metric": [1.0, 1.0], "matrix": [[1.0, float("nan")], [0.0, 1.0]]}
        ))
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2
        assert "error:" in err and "finite" in err

    @pytest.mark.parametrize(
        "support, omega",
        [
            ([0, 1, 2], "[2]"),
            (["a", "b"], None),
            (5, None),
            ([1.7, 2], None),
            ([0, 0], None),
            ([True, 1], None),
            ([-1, 0], None),
        ],
        ids=[
            "longer-than-matrix", "strings", "scalar", "fractional", "repeated", "boolean",
            "negative",
        ],
    )
    def test_bad_operator_support(self, tmp_path, capsys, support, omega):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({
            "kind": "delta", "metric": [1.0, 1.0], "matrix": [[1.0, -1.0], [-1.0, 1.0]],
            "support": support,
        }))
        flags = [] if omega is None else ["--omega", omega]
        code, out, err = run(capsys, "spectrum", str(path), *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "support" in err

    @pytest.mark.parametrize("kind", [None, 3, ["delta"]])
    def test_operator_kind_must_be_a_string(self, tmp_path, capsys, kind):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(
            {"kind": kind, "metric": [1.0, 1.0], "matrix": [[1.0, -1.0], [-1.0, 1.0]]}
        ))
        code, out, err = run(capsys, "spectrum", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "kind" in err

    @pytest.mark.parametrize("kind", ["x\ny", "laplacian", "dirichlet(laplacian)", "dirichlet(h"])
    def test_operator_kind_must_be_known(self, tmp_path, capsys, kind):
        # an unknown kind is rejected before anything is exported
        path, dumped = tmp_path / "op.json", tmp_path / "kn.csv"
        path.write_text(json.dumps(
            {"kind": kind, "metric": [1.0, 1.0], "matrix": [[1.0, -1.0], [-1.0, 1.0]]}
        ))
        code, out, err = run(capsys, "spectrum", str(path), "--dump-operator", str(dumped))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown operator kind") and not dumped.exists()

    def test_restricted_kind_of_any_depth_is_read(self, tmp_path, capsys):
        path = tmp_path / "op.csv"
        path.write_text("kind,dirichlet(dirichlet(h))\nmetric,1.0\nsupport,4\n2.0\n")
        code, out, _ = run(capsys, "spectrum", str(path), "--op", "h")
        assert (code, out) == (0, "re,im\n2.0,0.0\n")

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"kind": "delta", "metric": [1.0], "matrix": [[True]]}),
            json.dumps({"kind": "delta", "metric": ["2"], "matrix": [["1.5"]]}),
            json.dumps({"kind": "delta", "metric": [1.0], "matrix": [[None]]}),
            json.dumps({"kind": "delta", "metric": [1.0, 1.0], "matrix": [[10**400, 0], [0, 1]]}),
            json.dumps({"kind": "delta", "metric": [-(10**400)], "matrix": [[1.0]]}),
            json.dumps({"kind": "delta", "metric": [1.0, 1.0], "matrix": [[1.0, 0.0], [0.0]]}),
            json.dumps({"kind": "delta", "matrix": [[1.0]]}),
            "kind,delta\nmetric,1.0\n1.0,x\n",
            "kind,delta\nmetric,true\n1.0\n",
            "kind,delta\nmetric,1.0\n1" + "0" * 400 + "\n",
            "kind,laplacian\nmetric,1.0\n1.0\n",
            "kind,delta\nmetric,1_0\n2.0\n",
            "kind,delta\nmetric,1.0,1.0\n1.0,0.0],[0.0,1.0\n",
        ],
        ids=[
            "json-true", "json-strings", "json-null", "json-huge", "json-minus-huge-metric",
            "json-ragged", "json-no-metric", "csv-word", "csv-true", "csv-huge", "csv-kind",
            "csv-underscore", "csv-two-rows-in-one",
        ],
    )
    def test_operator_values_must_be_numbers(self, tmp_path, capsys, text):
        path = tmp_path / ("op.json" if text.startswith("{") else "op.csv")
        path.write_text(text)
        code, out, err = run(capsys, "spectrum", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000], ids=["long-integer", "deep"])
    def test_json_the_parser_cannot_hold(self, triangle_file, tmp_path, capsys, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        for argv in (["check", str(path)], ["cheeger", triangle_file, "--omega", text]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "is not valid JSON" in err

    @pytest.mark.parametrize("omega", ["[0]", "[3]", "[4,5]", "[1]"])
    def test_restricted_export_reads_alike_from_csv_and_json(self, tmp_path, capsys, omega):
        graph = tmp_path / "c.json"
        save_graph(gen_cycle(6), graph)
        results = []
        for name in ("op.csv", "op.json"):
            dumped = str(tmp_path / name)
            code, _, _ = run(capsys, "spectrum", str(graph), "--omega", "[3,4,5]",
                             "--dump-operator", dumped)
            assert code == 0
            results.append(run(capsys, "spectrum", dumped, "--omega", omega))
        assert results[0] == results[1]

    @pytest.mark.parametrize("command", ["cheeger", "spectrum"])
    def test_omega_and_omega_file_exclude_each_other(
        self, triangle_file, tmp_path, capsys, command
    ):
        omega_path = tmp_path / "omega.json"
        omega_path.write_text("[0, 1]")
        with pytest.raises(SystemExit) as exc:
            main([command, triangle_file, "--omega", "[0]", "--omega-file", str(omega_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    @pytest.mark.parametrize("omega", ["[true]", "[0, false]"])
    def test_boolean_omega(self, triangle_file, capsys, omega):
        code, _, err = run(capsys, "cheeger", triangle_file, "--omega", omega)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("numrange", "{graph}", "--angles", "2"),
            ("numrange", "{graph}", "--angles", "0"),
            ("numrange", "{graph}", "--angles", "-5"),
            ("gen", "cycle", "--n", "1", "--out", "{out}"),
            ("gen", "circulation", "--n", "1", "--cycles", "1", "--seed", "0", "--out", "{out}"),
            ("gen", "circulation", "--n", "5", "--wmin", "0.3", "--wmax", "0.32", "--out", "{out}"),
            ("gen", "circulation", "--n", "5", "--wmin", "nan", "--out", "{out}"),
            ("gen", "circulation", "--n", "5", "--wmax", "inf", "--out", "{out}"),
            ("gen", "circulation", "--n", "5", "--wmin", "1e308", "--out", "{out}"),
            ("gen", "layered", "--layers", "0", "--width", "4", "--gamma", "2", "--out", "{out}"),
            ("gen", "layered", "--layers", "1", "--width", "3", "--gamma", "nan", "--out", "{out}"),
            ("gen", "tree", "--depth", "2", "--branching", "1", "--growth", "nan", "--out", "{out}"),
            ("gen", "layered", "--layers", "3", "--width", "2", "--gamma", "1e200",
             "--out", "{out}"),
            ("gen", "tree", "--depth", "3", "--branching", "1", "--growth", "1e200",
             "--out", "{out}"),
            ("infinity", "{graph}", "--root", "99"),
            ("check", "{graph}", "--tol", "-1"),
            ("check", "{graph}", "--tol", "nan"),
            ("check", "{graph}", "--tol", "inf"),
            ("gen", "cycle", "--n", "3", "--out", "{dir}"),
            ("gen", "cycle", "--n", "3", "--out", "{missing}"),
            ("check", "{graph}", "--out", "{missing}"),
            ("verify", "{graph}", "--out", "{missing}"),
            ("spectrum", "{graph}", "--dump-operator", "{missing_csv}"),
        ],
        ids=[
            "angles-2", "angles-0", "angles-negative", "cycle-n1", "circulation-n1",
            "circulation-empty-weight-range", "circulation-wmin-nan", "circulation-wmax-inf",
            "circulation-weight-overflow", "layered-0", "layered-gamma-nan", "tree-growth-nan",
            "layered-gamma-overflow", "tree-growth-overflow",
            "infinity-root", "check-tol",
            "check-tol-nan", "check-tol-inf", "out-directory", "gen-out-missing-dir",
            "check-out-missing-dir", "verify-out-missing-dir", "dump-operator-missing-dir",
        ],
    )
    def test_invalid_argument(self, triangle_file, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        missing = tmp_path / "missing"
        argv = [
            a.format(
                graph=triangle_file, out=out, dir=tmp_path,
                missing=missing / "x.json", missing_csv=missing / "op.csv",
            )
            for a in argv
        ]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "work, argv",
        [
            ("verify_graph", ("verify", "{graph}", "--out", "{path}")),
            ("infinity_profile", ("infinity", "{graph}", "--out", "{path}")),
            ("eig", ("spectrum", "{graph}", "--out", "{path}")),
            ("numerical_range_boundary", ("numrange", "{graph}", "--out", "{path}")),
            ("assemble", ("spectrum", "{graph}", "--dump-operator", "{path}")),
        ],
        ids=["verify", "infinity", "spectrum", "numrange", "dump-operator"],
    )
    @pytest.mark.parametrize("target", ["missing/x.json", "directory", "file.json/"])
    def test_unwritable_output_fails_before_the_work(
        self, triangle_file, tmp_path, capsys, monkeypatch, work, argv, target
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(f"dirlap.cli.{work}", refuse)
        where = tmp_path / "out"
        (where / "directory").mkdir(parents=True)
        path = os.path.join(where, target)
        code, stdout, err = run(capsys, *[a.format(graph=triangle_file, path=path) for a in argv])
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {path}: ")
        # neither the target nor a temp file is left behind
        assert [p.name for p in where.rglob("*")] == ["directory"]

    def test_the_parser_is_built_once(self, triangle_file, capsys):
        cli._parser.cache_clear()
        for command in ("check", "cheeger", "verify"):
            assert run(capsys, command, triangle_file)[0] == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bogus"])
        assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "g.json"
    result = subprocess.run(
        [sys.executable, "-m", "dirlap", "gen", "cycle", "--n", "4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "dirlap", "check", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["satisfied"] is True


def package_env(**variables):
    """os.environ plus variables, with this dirlap first on PYTHONPATH."""
    package_root = os.path.dirname(os.path.dirname(dirlap.__file__))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **variables)


def test_sweep_does_not_import_scipy():
    # numpy is the only runtime requirement
    code = (
        "import sys, dirlap\n"
        "op = dirlap.assemble(dirlap.gen_random_circulation(8, 3, seed=1), 'delta')\n"
        "dirlap.numerical_range_boundary(op, 16)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=300
    )
    assert result.returncode == 0, result.stderr


_THREAD_GRAPHS = {
    "g23": lambda: gen_random_circulation(23, 4, seed=4),
    "c100": lambda: gen_random_circulation(100, 50, 1),
    "layered25": lambda: gen_layered_heavy(25, 4, 2.0),
    "layered40": lambda: gen_layered_heavy(40, 4, 2.0),
}


@pytest.mark.parametrize("name", list(_THREAD_GRAPHS))
def test_verify_is_identical_across_blas_threads(tmp_path, name):
    g = _THREAD_GRAPHS[name]()
    save_graph(g, tmp_path / f"{name}.json")
    # run from tmp_path with a relative path, since the instance names carry it
    outputs = []
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "dirlap", "verify", f"{name}.json"],
            capture_output=True,
            cwd=tmp_path,
            env=package_env(OPENBLAS_NUM_THREADS=threads),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    # the complement of the root is checked
    complement = "omega={" + ",".join(str(v) for v in range(1, g.n)) + "}"
    assert any(r["instance"].endswith(complement) for r in json.loads(outputs[0]))
    assert outputs[0] == outputs[1]
    if name != "g23":
        return
    # recorded with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31, 1 and 2 threads
    assert len(outputs[0]) == 12541
    assert (
        hashlib.sha256(outputs[0]).hexdigest()
        == "d08c97a96f3739400a8d495f1cc170d2c7ba9a12aaaa3550d8cc4a289b5d3861"
    )


@pytest.mark.parametrize(
    "g",
    [gen_layered_heavy(25, 4, 2.0), gen_random_circulation(100, 50, 1)],
    ids=["layered25", "c100"],
)
def test_infinity_is_identical_across_blas_threads(tmp_path, g):
    save_graph(g, tmp_path / "g.json")
    outputs = []
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "dirlap", "infinity", "g.json"],
            capture_output=True,
            cwd=tmp_path,
            env=package_env(OPENBLAS_NUM_THREADS=threads),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].startswith(b"level,m_c,")
    assert outputs[0] == outputs[1]


def test_numrange_is_identical_across_processes(tmp_path):
    # the sweep refills one np.empty work matrix at every solved angle, so a
    # read of an entry it never wrote would differ from process to process
    save_graph(gen_random_circulation(300, 150, 1), tmp_path / "g.json")
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "dirlap", "numrange", "g.json"],
            capture_output=True,
            cwd=tmp_path,
            env=package_env(OPENBLAS_NUM_THREADS="1"),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].startswith(b"theta,re,im")
    assert outputs[0].count(b"\n") == 361
    assert outputs[0] == outputs[1]
