import ast
import json
import warnings
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirlap import (
    NORMALIZATIONS,
    DirlapError,
    EmptyComplementError,
    Filtration,
    KirchhoffViolatedError,
    Operator,
    SplitMix64,
    TheoremReport,
    assemble,
    build_filtration,
    build_graph,
    cheeger_exact,
    dirichlet,
    eig,
    gen_cycle,
    gen_layered_heavy,
    gen_opposing_cycles,
    gen_random_circulation,
    infinity_profile,
    nu,
    numerical_range_boundary,
    operator_norm,
    quadratic_form,
    subset_array,
    to_euclidean,
    verify_bounded,
    verify_cheeger_sandwich,
    verify_dirichlet_bounds,
    verify_ess_bound_consistency,
    verify_fujiwara,
    verify_graph,
    verify_green,
    verify_kyfan,
)
from dirlap import isoperimetric, operators, verify
from dirlap._io import dump_json
from dirlap.generators import _draw
from dirlap.verify import _GREEN_SEED, _report
from util import (
    cycle_sums, loop_complex_vector, loop_verify_fujiwara, loop_verify_green, pi_circulation,
)


def record_solver_inputs(monkeypatch):
    """Wrap np.linalg.eigvals and eigvalsh; the returned list gets (name,
    shape, whether complex) for each call."""
    calls = []
    for name in ("eigvals", "eigvalsh"):

        def wrapper(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a.shape, np.iscomplexobj(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


class TestReportSemantics:
    def test_margin_is_min_gap(self):
        r = _report("t", "i", [(0.0, 1.0), (2.0, 2.5)])
        assert r.margin == 0.5
        assert r.passed

    def test_fails_when_margin_below_tolerance(self):
        r = _report("t", "i", [(1.0, 0.5)], tolerance=0.1)
        assert r.margin == -0.5
        assert not r.passed

    def test_tiny_violation_within_tolerance_passes(self):
        r = _report("t", "i", [(1.0 + 1e-12, 1.0)], tolerance=1e-8)
        assert r.passed

    def test_default_tolerance_scales_with_values(self):
        small = _report("t", "i", [(0.0, 1.0)])
        big = _report("t", "i", [(0.0, 1e6)])
        assert big.tolerance > small.tolerance

    def test_json_obj_round_trips(self):
        r = _report("t", "inst", [(0.0, 1.0)])
        obj = json.loads(dump_json(r))
        assert obj["theorem_id"] == "t"
        assert obj["instance"] == "inst"
        assert obj["lhs"] == [0.0] and obj["rhs"] == [1.0]
        assert obj["passed"] is True
        back = TheoremReport(
            theorem_id=obj["theorem_id"],
            instance=obj["instance"],
            lhs=tuple(obj["lhs"]),
            rhs=tuple(obj["rhs"]),
            margin=obj["margin"],
            passed=obj["passed"],
            tolerance=obj["tolerance"],
        )
        assert back == r


class TestGreen:
    def test_passes_on_balanced_graphs(self):
        for seed in (0, 1, 2):
            g = gen_random_circulation(10, 4, seed=seed)
            r = verify_green(g, f"circ{seed}")
            assert r.passed
            assert r.theorem_id == "greens_formula"
            assert r.tolerance == 0.0

    def test_residual_scale_is_tiny(self):
        r = verify_green(gen_opposing_cycles(5))
        assert r.lhs[0] <= 1e-12
        assert r.rhs[0] == 1e-9

    def test_raises_on_unbalanced(self):
        g = build_graph([1.0, 1.0], [(0, 1, 2.0), (1, 0, 1.0)])
        with pytest.raises(KirchhoffViolatedError):
            verify_green(g)

    def test_raises_on_unbalanced_without_pairs(self, monkeypatch):
        monkeypatch.setattr(verify, "_GREEN_PAIRS", 0)
        g = build_graph([1.0, 1.0], [(0, 1, 2.0), (1, 0, 1.0)])
        with pytest.raises(KirchhoffViolatedError):
            verify_green(g)

    def test_deterministic(self):
        g = gen_random_circulation(8, 3, seed=4)
        assert verify_green(g) == verify_green(g)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(g=cycle_sums())
    def test_summation_by_parts_on_cycle_sums(self, g):
        r = verify_green(g)
        assert r.passed, r.margin

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 2**16))
    def test_summation_by_parts_on_pi_circulations(self, n, seed):
        r = verify_green(pi_circulation(n, seed))
        assert r.passed, r.margin


def _report_bytes(report):
    return dump_json(report)


class TestStackedChecksMatchLoops:
    """The stacked checks give the per-vector loops' reports, byte for byte,
    at the verifier's sample counts and at smaller ones set in their place."""

    @pytest.mark.parametrize("n", [3, 7, 8, 30])
    @pytest.mark.parametrize("count", [0, 1, verify._GREEN_PAIRS])
    def test_green(self, monkeypatch, n, count):
        monkeypatch.setattr(verify, "_GREEN_PAIRS", count)
        g = pi_circulation(n, seed=n)
        got = verify_green(g, "pi")
        assert _report_bytes(got) == _report_bytes(loop_verify_green(g, "pi", n_pairs=count))

    @pytest.mark.parametrize("n", [3, 7, 8, 30])
    @pytest.mark.parametrize("count", [1, verify._FUJIWARA_VECTORS])
    def test_fujiwara(self, monkeypatch, n, count):
        monkeypatch.setattr(verify, "_FUJIWARA_VECTORS", count)
        g = pi_circulation(n, seed=n)
        omega = range(0, n, 2)
        got = verify_fujiwara(g, omega, "pi")
        want = loop_verify_fujiwara(g, omega, "pi", n_vectors=count)
        assert _report_bytes(got) == _report_bytes(want)
        assert len(got.lhs) == 4


class TestBlockDraw:
    @pytest.mark.parametrize("seed", [0, _GREEN_SEED, 2**64 - 1, 12345])
    def test_equals_scalar_stream(self, seed):
        for n in (1, 2, 3, 7, 23, 300):
            for count in (0, 1, 5):
                block, scalar = SplitMix64(seed), SplitMix64(seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    drawn = _draw(block, count, n)
                expected = np.array(
                    [loop_complex_vector(scalar, n) for _ in range(count)], dtype=complex
                ).reshape(count, n)
                assert drawn.shape == expected.shape
                assert drawn.tobytes() == expected.tobytes()
                assert block._x == scalar._x
                assert block.next_u64() == scalar.next_u64()
                # complex_vector is one row of the block draw
                one = SplitMix64(seed).complex_vector(n)
                assert one.tobytes() == loop_complex_vector(SplitMix64(seed), n).tobytes()


class TestBounded:
    def test_passes_with_kernel_check_when_connected(self):
        r = verify_bounded(gen_opposing_cycles(4))
        assert r.passed
        assert len(r.lhs) == 3
        assert r.rhs == (2.0, 1.0, 0.0)

    def test_skips_kernel_check_when_disconnected(self):
        g = build_graph(
            [1.0] * 6,
            [(i, (i + 1) % 3, 1.0) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
        )
        r = verify_bounded(g)
        assert r.passed
        assert len(r.lhs) == 2

    def test_norm_bound_is_tight_on_even_cycle(self):
        # the 2-periodic sign vector saturates the norm bound on even cycles
        r = verify_bounded(gen_cycle(8))
        assert r.passed
        assert r.lhs[0] == pytest.approx(2.0, abs=1e-9)

    @settings(max_examples=15, derandomize=True, deadline=None, database=None)
    @given(pi=st.booleans(), n=st.integers(3, 30), seed=st.integers(0, 2**16))
    def test_disc_certificate_covers_the_sweep(self, pi, n, seed):
        # the second pair is ||I - A|| for the normalized operator A, which
        # bounds |(A f, f) - 1| for every unit f, so every swept boundary
        # point lies within it of 1
        g = pi_circulation(n, seed) if pi else gen_random_circulation(n, max(2, n // 2), seed)
        op = assemble(g, "normalized_delta")
        walk = Operator(matrix=np.eye(n) - op.matrix, metric=op.metric, kind="walk")
        r = verify_bounded(g, "circ")
        assert r.passed and r.instance == "circ"
        assert r.lhs[1] == operator_norm(walk) <= 1.0 + 1e-13
        points = numerical_range_boundary(op, 360).points
        assert np.max(np.abs(points - 1.0)) <= r.lhs[1] + 1e-13


class TestKyFan:
    def test_random_complex_matrices(self):
        rng = SplitMix64(2024)
        for trial in range(30):
            n = 2 + trial % 6
            a = rng.complex_vector(n * n).reshape(n, n)
            r = verify_kyfan(a, f"random{trial}")
            assert r.passed, (trial, r.margin)

    def test_trace_equality_is_included(self):
        a = np.array([[1.0, 5.0], [0.0, 2.0]])
        r = verify_kyfan(a)
        assert r.passed
        # last pair is the reversed total-sum inequality, so the margin of
        # the equality is zero up to rounding
        assert abs((r.rhs[-1] - r.lhs[-1])) <= r.tolerance

    def test_non_normal_jordan_block(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        r = verify_kyfan(a)
        assert r.passed
        # eigenvalues are 0, 0 but the Hermitian part has spread 1/2
        assert r.rhs[0] == pytest.approx(0.5)

    def test_graph_operator_input(self):
        g = gen_random_circulation(7, 3, seed=6)
        r = verify_kyfan(to_euclidean(assemble(g, "normalized_delta")))
        assert r.passed

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_real_input_stays_real(self, monkeypatch, symmetric):
        # both the general and the Hermitian solve take the real path
        g = gen_cycle(7) if symmetric else gen_random_circulation(7, 3, seed=6)
        a = to_euclidean(assemble(g, "h" if symmetric else "normalized_delta"))
        calls = record_solver_inputs(monkeypatch)
        assert verify_kyfan(a).passed
        general = "eigvalsh" if symmetric else "eigvals"
        assert calls == [(general, (7, 7), False), ("eigvalsh", (7, 7), False)]


class TestDirichletBounds:
    def test_triangle_hand_instance(self):
        r = verify_dirichlet_bounds(gen_cycle(3), [0, 1])
        assert r.passed
        # lowest eigenvalue has real part exactly 1
        assert r.lhs[1] == pytest.approx(1.0, abs=1e-10)
        # Hermitian-part extremes 0.5 and 1.5 sum to 2
        assert r.lhs[2] == pytest.approx(2.0, abs=1e-10)
        assert r.lhs[3] == pytest.approx(0.5, abs=1e-10)

    def test_exhaustive_small_graph(self):
        g = gen_random_circulation(6, 3, seed=8)
        for size in range(1, 6):
            for omega in combinations(range(6), size):
                r = verify_dirichlet_bounds(g, omega)
                assert r.passed, (omega, r.margin)

    def test_rejects_full_set(self):
        with pytest.raises(ValueError):
            verify_dirichlet_bounds(gen_cycle(4), range(4))

    def test_rejects_subset_without_boundary(self):
        g = build_graph(
            [1.0] * 6,
            [(i, (i + 1) % 3, 1.0) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
        )
        with pytest.raises(ValueError):
            verify_dirichlet_bounds(g, [0, 1, 2])

    def test_instance_tag_contains_subset(self):
        r = verify_dirichlet_bounds(gen_cycle(5), [1, 3], "pent")
        assert r.instance == "pent|omega={1,3}"


class TestCheegerSandwich:
    def test_tight_instance(self):
        r = verify_cheeger_sandwich(gen_cycle(3), [0, 1])
        assert r.passed
        # nu of the normalized restriction and half the outflow-normalized
        # constant coincide at 0.5 here
        assert r.lhs[3] == pytest.approx(0.5, abs=1e-9)
        assert r.rhs[3] == pytest.approx(0.5, abs=1e-9)

    def test_passes_on_random_subsets(self):
        g = gen_random_circulation(9, 4, seed=5)
        for omega in ([0], [0, 3, 4], [1, 2, 5, 7], list(range(8))):
            r = verify_cheeger_sandwich(g, omega)
            assert r.passed, (omega, r.margin)

    def test_accepts_large_subsets(self):
        # an arc of a cycle, h = ht = 2 / 23
        r = verify_cheeger_sandwich(gen_cycle(25), range(23))
        assert r.passed
        h = 2 / 23
        assert r.lhs[0] == h * h / 8


class TestFujiwara:
    def test_passes_on_subsets(self):
        g = gen_opposing_cycles(6)
        for omega in ([0], [0, 1, 2], [1, 3, 5]):
            r = verify_fujiwara(g, omega)
            assert r.passed, (omega, r.margin)

    def test_envelope_plus_interior_chain(self):
        r = verify_fujiwara(gen_cycle(5), [0, 1])
        assert r.passed
        # 2 envelope pairs plus the two worst interior pairs
        assert len(r.lhs) == 4

    @pytest.mark.parametrize("n", [5, 8, 23])
    def test_envelope_ends_at_exact_extremes(self, n):
        # rho is inf Re of the numerical range, computed as nu computes it
        g = pi_circulation(n, seed=n)
        for omega in (range(0, n, 2), range(1, n), [n - 1]):
            r = verify_fujiwara(g, omega)
            op = dirichlet(assemble(g, "delta"), subset_array(g, omega))
            assert r.rhs[0] == 2.0 * nu(op)

    def test_deterministic(self):
        g = gen_random_circulation(8, 3, seed=9)
        assert verify_fujiwara(g, [0, 2, 4]) == verify_fujiwara(g, [0, 2, 4])


class TestIsoperimetricProperties:
    # the sandwich and the Fujiwara envelope on any non-empty subset, the
    # whole vertex set included
    @staticmethod
    def check(g, data):
        omega = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        for check in (verify_cheeger_sandwich, verify_fujiwara):
            r = check(g, omega)
            assert r.passed, (r.instance, r.margin)

    @settings(max_examples=160, derandomize=True, deadline=None, database=None)
    @given(g=cycle_sums(), data=st.data())
    def test_on_cycle_sums(self, g, data):
        self.check(g, data)

    @settings(max_examples=160, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(3, 24), seed=st.integers(0, 2**16), data=st.data())
    def test_on_pi_circulations(self, n, seed, data):
        self.check(pi_circulation(n, seed), data)


class TestEssConsistency:
    def test_layered_graph_passes(self):
        g = gen_layered_heavy(4, 3, gamma=2.0)
        r = verify_ess_bound_consistency(g, build_filtration(g, 0))
        assert r.passed
        assert r.theorem_id == "essential_spectrum_lower_bound"

    def test_needs_two_usable_levels(self):
        g = gen_cycle(3)
        filt = Filtration(root=0, dist=np.array([0, 1, 1]))
        with pytest.raises(EmptyComplementError):
            verify_ess_bound_consistency(g, filt)

    @pytest.mark.parametrize(
        "name, g",
        [
            ("c23", gen_random_circulation(23, 4, seed=4)),
            ("layered", gen_layered_heavy(6, 4, gamma=2.0)),
            ("c30", gen_random_circulation(30, 15, seed=1)),
        ],
    )
    def test_verify_graph_reads_the_same_profile(self, name, g):
        # verify_graph's chain reads the constants of the complements it
        # has already checked; the public check solves them all afresh
        reports = verify_graph(g, name)
        [ess] = [r for r in reports if r.theorem_id == "essential_spectrum_lower_bound"]
        expected = verify_ess_bound_consistency(g, build_filtration(g, 0), name)
        assert dump_json(ess) == dump_json(expected)

    @pytest.mark.parametrize(
        "g", [gen_random_circulation(23, 4, seed=4), gen_layered_heavy(6, 4, gamma=2.0)]
    )
    def test_sandwich_and_profile_share_m_ht2_over_8(self, g):
        # the sandwich's last lhs and the profile's ess_lower_bound are one
        # expression, so they agree to the bit on every complement both read
        lhs = {
            r.instance: r.lhs[4] for r in verify_graph(g, "g") if r.theorem_id == "cheeger_sandwich"
        }
        filt = build_filtration(g, 0)
        shared = 0
        for r, row in enumerate(infinity_profile(g, filt).levels):
            tag = "g|omega={" + ",".join(map(str, np.flatnonzero(filt.dist > r).tolist())) + "}"
            if tag in lhs:
                assert lhs[tag].hex() == row.ess_lower_bound.hex(), tag
                shared += 1
        assert shared >= 2

    def test_verify_graph_solves_each_subset_once(self, monkeypatch):
        solved, kinds = [], []
        exact, assemble_ = isoperimetric._exact, operators.assemble

        def counting_exact(g, idx, *args):
            solved.append(tuple(idx.tolist()))
            return exact(g, idx, *args)

        def counting_assemble(g, kind):
            kinds.append(kind)
            return assemble_(g, kind)

        monkeypatch.setattr(isoperimetric, "_exact", counting_exact)
        for module in (isoperimetric, operators, verify):
            monkeypatch.setattr(module, "assemble", counting_assemble)
        verify_graph(gen_random_circulation(23, 4, seed=4))
        # 8 selected subsets, whose 3 filtration complements the chain reads
        assert len(solved) == len(set(solved)) == 8
        assert sorted(kinds) == ["delta", "delta", "normalized_delta"]


class TestVerifyGraph:
    def test_small_graph_report_inventory(self):
        reports = verify_graph(gen_cycle(3), "tri")
        assert all(r.passed for r in reports)
        ids = [r.theorem_id for r in reports]
        # 3 global checks, 6 proper subsets, 7 subsets for each of the two
        # isoperimetric checks; the radius-1 ball filtration has no usable
        # second level on a triangle
        assert ids.count("greens_formula") == 1
        assert ids.count("norm_disc_kernel") == 1
        assert ids.count("ky_fan_partial_sums") == 1
        assert ids.count("dirichlet_eigenvalue_bounds") == 6
        assert ids.count("cheeger_sandwich") == 7
        assert ids.count("fujiwara_envelope") == 7
        assert ids.count("essential_spectrum_lower_bound") == 0
        assert len(reports) == 23

    def test_larger_graph_uses_selected_subsets(self):
        g = gen_layered_heavy(4, 3, gamma=2.0)
        reports = verify_graph(g, "layered")
        assert all(r.passed for r in reports), [
            (r.theorem_id, r.instance, r.margin) for r in reports if not r.passed
        ]
        ids = [r.theorem_id for r in reports]
        assert ids.count("essential_spectrum_lower_bound") == 1
        # far fewer subset reports than the 2^12 exhaustive sweep would give
        assert len(reports) < 60

    def test_large_complements_are_checked(self):
        # n = 30: the root's complement has 29 vertices
        g = gen_random_circulation(30, 15, 1)
        reports = verify_graph(g, "c30")
        assert all(r.passed for r in reports), [
            (r.theorem_id, r.instance, r.margin) for r in reports if not r.passed
        ]
        sizes = [
            len(r.instance.split("omega={", 1)[1].split("}", 1)[0].split(","))
            for r in reports
            if r.theorem_id == "cheeger_sandwich"
        ]
        assert max(sizes) > 22

    def test_large_graph_samples_no_numerical_range(self):
        reports = verify_graph(gen_random_circulation(100, 50, 1), "c100")
        assert all(r.passed for r in reports), [
            (r.theorem_id, r.instance, r.margin) for r in reports if not r.passed
        ]
        assert not any("|angles=" in r.instance for r in reports)

    def test_one_network_per_subset(self, monkeypatch):
        # the sandwich and Fujiwara checks of a subset share its two
        # constants, solved once over one network
        solved = []

        def counting(g, idx, normalizations=NORMALIZATIONS):
            solved.append((tuple(idx.tolist()), tuple(normalizations)))
            return exact(g, idx, normalizations)

        exact = isoperimetric._exact
        monkeypatch.setattr(isoperimetric, "_exact", counting)
        reports = verify_graph(gen_random_circulation(6, 3, seed=1))
        sandwich = [r for r in reports if r.theorem_id == "cheeger_sandwich"]
        assert len(solved) == len(set(solved)) == len(sandwich) == 2**6 - 1
        assert {normalizations for _, normalizations in solved} == {NORMALIZATIONS}

    def test_each_subset_is_restricted_and_solved_once(self, monkeypatch):
        # n = 23: 8 selected subsets. Their Dirichlet bounds, sandwich and
        # Fujiwara checks share m and M, one restriction per operator kind
        # and one solve per restriction; the general eigensolve runs once
        # per bounds report and once for Ky Fan, and the connectivity walk
        # once per graph
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                # args is (graph, subset), (operator, subset), (operator,)
                # or (graph,)
                subset = tuple(args[1].tolist()) if len(args) == 2 else None
                calls.append((name, getattr(args[0], "kind", None), subset))
                return fn(*args)

            return wrapper

        # the plain side of each subset is solved in isoperimetric._subset
        for module, names in (
            (verify, ("dirichlet", "_hermitian_extremes", "eig", "connectivity")),
            (isoperimetric, ("dirichlet", "m_M_constants", "_hermitian_extremes")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        reports = verify_graph(gen_random_circulation(23, 4, seed=4))
        for theorem_id in ("dirichlet_eigenvalue_bounds", "cheeger_sandwich"):
            subsets = [r.instance for r in reports if r.theorem_id == theorem_id]
            assert len(subsets) == len(set(subsets)) == 8
        assert Counter(call[:2] for call in calls) == {
            ("m_M_constants", None): 8,
            ("dirichlet", "delta"): 8,
            ("dirichlet", "normalized_delta"): 8,
            ("_hermitian_extremes", "dirichlet(delta)"): 8,
            ("_hermitian_extremes", "dirichlet(normalized_delta)"): 8,
            ("eig", None): 8 + 1,
            ("connectivity", None): 1,
        }
        # 8 distinct subsets each time
        for key in (
            ("m_M_constants", None),
            ("dirichlet", "delta"),
            ("dirichlet", "normalized_delta"),
        ):
            assert len({c for c in calls if c[:2] == key}) == 8

    @pytest.mark.parametrize("n, k, seed", [(9, 4, 2), (30, 15, 1)])
    def test_one_real_solve_of_the_whole_normalized_operator(self, monkeypatch, n, k, seed):
        # the kernel count and Ky Fan share one general eigensolve of the
        # n x n normalized operator, on its real Euclidean matrix, and Ky
        # Fan solves its Hermitian part; no solve of the run is given a
        # complex matrix
        calls = record_solver_inputs(monkeypatch)
        reports = verify_graph(gen_random_circulation(n, k, seed))
        assert all(r.passed for r in reports)
        whole = [c for c in calls if c[1] == (n, n)]
        assert whole == [("eigvals", (n, n), False), ("eigvalsh", (n, n), False)]
        assert not any(is_complex for _, _, is_complex in calls)

    def test_verify_binds_no_subset_solver(self):
        # the constants, m and M and nu of a subset come from
        # isoperimetric._subset alone
        for name in ("_exact", "m_M_constants", "nu"):
            assert not hasattr(verify, name), name

    def test_every_dense_solve_runs_in_spectral(self):
        # np.linalg is read in spectral alone, and the Hermitian parts of
        # verify and isoperimetric are solved by spectral._hermitian_eigh
        package = Path(verify.__file__).parent
        for path in sorted(package.glob("*.py")):
            if path.stem == "spectral":
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    assert node.attr != "linalg", f"{path.name}:{node.lineno}"
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [getattr(node, "module", None) or ""]
                    modules += [alias.name for alias in node.names]
                    assert not any("linalg" in m for m in modules), f"{path.name}:{node.lineno}"
        for module in (verify, isoperimetric):
            for name in ("converging", "hermitian_part"):
                assert not hasattr(module, name), (module.__name__, name)

    @pytest.mark.parametrize("n, k, seed", [(6, 3, 1), (23, 4, 4)])
    def test_isoperimetric_reports_match_the_public_checks(self, n, k, seed):
        # and the Fujiwara reports match the per-vector loop, whose outflow
        # constant comes from cheeger_exact
        g = gen_random_circulation(n, k, seed)
        reports = verify_graph(g, "g")
        for theorem_id, check in (
            ("dirichlet_eigenvalue_bounds", verify_dirichlet_bounds),
            ("cheeger_sandwich", verify_cheeger_sandwich),
            ("fujiwara_envelope", verify_fujiwara),
        ):
            found = [r for r in reports if r.theorem_id == theorem_id]
            assert found
            for r in found:
                omega = [int(v) for v in r.instance.split("{")[1].split("}")[0].split(",")]
                assert _report_bytes(check(g, omega, "g")) == _report_bytes(r)
                if theorem_id == "fujiwara_envelope":
                    assert _report_bytes(loop_verify_fujiwara(g, omega, "g")) == _report_bytes(r)

    def test_disconnected_small_graph(self):
        # two disjoint triangles: each triangle and the whole graph have no
        # vertex boundary, so they get no Dirichlet bounds report
        g = build_graph(
            [1.0] * 6,
            [(i, (i + 1) % 3, 1.0) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
        )
        reports = verify_graph(g, "two")
        assert all(r.passed for r in reports)
        bounds = [r.instance for r in reports if r.theorem_id == "dirichlet_eigenvalue_bounds"]
        assert len(bounds) == 2**6 - 2 - 2
        assert "two|omega={0,1,2}" not in bounds and "two|omega={3,4,5}" not in bounds
        # the isoperimetric checks keep every subset of up to 6 vertices
        assert [r.theorem_id for r in reports].count("cheeger_sandwich") == 2**6 - 1

    def test_instance_names_carry_graph_name(self):
        reports = verify_graph(gen_cycle(3), "tri")
        assert all(r.instance.startswith("tri") for r in reports)

    def test_each_operator_kind_is_assembled_once(self, monkeypatch):
        # n = 23: 8 selected subsets, each checked by the Dirichlet bounds,
        # the sandwich and Fujiwara; each call assembles its two operators
        # and keeps nothing for the next
        g = gen_random_circulation(23, 4, seed=4)
        other = gen_cycle(5)
        built = []

        def counting(h, kind):
            op = assemble(h, kind)
            built.append((h, kind, op))
            return op

        monkeypatch.setattr(verify, "assemble", counting)
        verify_graph(g)
        verify_graph(other)
        verify_graph(g)
        assert [(h is g, kind) for h, kind, _ in built] == [
            (True, "delta"),
            (True, "normalized_delta"),
            (False, "delta"),
            (False, "normalized_delta"),
            (True, "delta"),
            (True, "normalized_delta"),
        ]
        # the subsets share each operator, so none of its arrays is writable
        for _, _, op in built:
            assert not op.matrix.flags.writeable and not op.metric.flags.writeable


_TWO_PAIRS = build_graph([1.0] * 4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])


@pytest.mark.parametrize(
    "reject",
    [
        lambda: cheeger_exact(gen_cycle(3), [0], "volume"),
        lambda: infinity_profile(gen_cycle(3), Filtration(root=0, dist=np.zeros(3, int))),
        lambda: verify_dirichlet_bounds(gen_cycle(3), [0, 1, 2]),
        lambda: verify_dirichlet_bounds(_TWO_PAIRS, [0, 1]),
        lambda: eig(np.zeros((2, 3))),
        lambda: assemble(gen_cycle(3), "laplacian"),
        lambda: quadratic_form(assemble(gen_cycle(3), "h"), np.ones(3)),
    ],
    ids=[
        "normalization", "one-level-filtration", "omega-not-proper", "omega-no-boundary",
        "eig-non-square", "assemble-kind", "quadratic-form-kind",
    ],
)
def test_library_rejections_are_dirlap_errors(reject):
    with pytest.raises(DirlapError):
        reject()
