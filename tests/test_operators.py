import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import pi_circulation, spectra_mismatch

from dirlap import (
    KINDS,
    EmptySubsetError,
    KirchhoffViolatedError,
    SchemaViolationError,
    SplitMix64,
    assemble,
    build_graph,
    dirichlet,
    gen_cycle,
    gen_opposing_cycles,
    gen_random_circulation,
    greens_residual,
    metric_inner,
    operator_from_csv_text,
    operator_from_json_obj,
    operator_to_csv_text,
    operator_to_json_obj,
    quadratic_form,
    subset_array,
    to_euclidean,
)
from dirlap.operators import _green_terms


def shift_matrix(n):
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = 1.0
    return P


class TestAssemble:
    def test_cycle_delta_is_identity_minus_shift(self):
        g = gen_cycle(3)
        op = assemble(g, "delta")
        assert np.allclose(op.matrix, np.eye(3) - shift_matrix(3))
        assert op.metric.tolist() == [1.0, 1.0, 1.0]
        assert op.kind == "delta"
        assert op.support is None

    def test_cycle_delta_prime_is_transpose_form(self):
        g = gen_cycle(3)
        op = assemble(g, "delta_prime")
        assert np.allclose(op.matrix, np.eye(3) - shift_matrix(3).T)

    def test_h_is_sum_of_both(self):
        g = gen_random_circulation(7, 3, seed=1)
        d = assemble(g, "delta").matrix
        dp = assemble(g, "delta_prime").matrix
        h = assemble(g, "h").matrix
        assert np.allclose(h, d + dp)

    def test_normalized_uses_outflow_as_metric(self):
        g = gen_cycle(4, w=3.0)
        op = assemble(g, "normalized_delta")
        assert np.allclose(op.metric, g.beta_plus)
        # with m := beta_plus the diagonal becomes 1
        assert np.allclose(np.diag(op.matrix), 1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            assemble(gen_cycle(3), "laplacian")

    def test_matrix_read_only(self):
        op = assemble(gen_cycle(3), "delta")
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 9.0

    def test_row_sums_of_delta_vanish(self):
        # constants are always in the kernel of delta, balanced or not
        g = build_graph([1.0, 2.0], [(0, 1, 3.0), (1, 0, 1.0)])
        op = assemble(g, "delta")
        assert np.allclose(op.matrix.sum(axis=1), 0.0)

    def test_row_sums_of_delta_prime_give_imbalance(self):
        g = build_graph([1.0, 2.0], [(0, 1, 3.0), (1, 0, 1.0)])
        op = assemble(g, "delta_prime")
        expected = (g.beta_plus - g.beta_minus) / g.measure
        assert np.allclose(op.matrix.sum(axis=1), expected)


class TestAdjointness:
    @pytest.mark.parametrize("kind", ["delta", "normalized_delta"])
    def test_delta_prime_is_metric_adjoint(self, kind):
        # holds for every graph, balance not required
        g = gen_random_circulation(8, 4, seed=6)
        a = assemble(g, kind)
        b = assemble(g, kind + "_prime")
        rng = SplitMix64(99)
        for _ in range(20):
            f = rng.complex_vector(8)
            h = rng.complex_vector(8)
            lhs = metric_inner(a.metric, a.matrix @ f, h)
            rhs = metric_inner(a.metric, f, b.matrix @ h)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("kind", ["h", "normalized_h"])
    def test_h_is_metric_self_adjoint(self, kind):
        g = gen_random_circulation(9, 4, seed=8)
        op = assemble(g, kind)
        weighted = op.metric[:, None] * op.matrix
        assert np.allclose(weighted, weighted.T)

    def test_euclidean_h_is_symmetric(self):
        g = gen_random_circulation(6, 3, seed=2)
        e = to_euclidean(assemble(g, "normalized_h"))
        assert np.allclose(e, e.T)


class TestDirichlet:
    def test_triangle_restriction(self):
        op = dirichlet(assemble(gen_cycle(3), "delta"), [0, 1])
        assert np.allclose(op.matrix, [[1.0, -1.0], [0.0, 1.0]])
        assert op.kind == "dirichlet(delta)"
        assert op.support == (0, 1)
        assert op.base_kind() == "delta"

    def test_metric_follows_subset(self):
        g = build_graph([1.0, 2.0, 3.0], [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        op = dirichlet(assemble(g, "delta"), [1, 2])
        assert op.metric.tolist() == [2.0, 3.0]

    def test_nested_restriction_uses_original_ids(self):
        full = assemble(gen_cycle(5), "delta")
        once = dirichlet(full, [1, 2, 3])
        twice = dirichlet(once, [1, 3])
        direct = dirichlet(full, [1, 3])
        assert np.allclose(twice.matrix, direct.matrix)
        assert twice.support == (1, 3)
        assert twice.kind == "dirichlet(dirichlet(delta))"
        assert twice.base_kind() == "delta"

    def test_rejects_vertex_outside_support(self):
        once = dirichlet(assemble(gen_cycle(5), "delta"), [1, 2])
        with pytest.raises(SchemaViolationError):
            dirichlet(once, [0])

    def test_rejects_empty_and_out_of_range(self):
        op = assemble(gen_cycle(3), "delta")
        with pytest.raises(EmptySubsetError):
            dirichlet(op, [])
        with pytest.raises(SchemaViolationError):
            dirichlet(op, [3])

    def test_rejects_members_that_are_not_integers(self):
        op = assemble(gen_cycle(3), "delta")
        restricted = dirichlet(op, [0, 2])
        for omega in ([0.5, 1.9], [True], ["2"]):
            with pytest.raises(SchemaViolationError, match="is not an integer"):
                dirichlet(op, omega)
            with pytest.raises(SchemaViolationError, match="is not an integer"):
                dirichlet(restricted, omega)

    @pytest.mark.parametrize("omega", [[], [3], [-1, 0]])
    def test_rejects_as_subset_array_does(self, omega):
        g = gen_cycle(3)
        with pytest.raises((EmptySubsetError, SchemaViolationError)) as want:
            subset_array(g, omega)
        with pytest.raises(type(want.value)) as got:
            dirichlet(assemble(g, "delta"), omega)
        assert str(got.value) == str(want.value)
        # a restricted operator rejects an empty subset the same way
        if not omega:
            with pytest.raises(EmptySubsetError, match="^vertex subset is empty$"):
                dirichlet(dirichlet(assemble(g, "delta"), [0, 1]), omega)


class TestEuclideanConjugation:
    def test_spectrum_preserved(self):
        g = gen_random_circulation(7, 3, seed=5)
        op = assemble(g, "delta")
        before = np.linalg.eigvals(op.matrix)
        after = np.linalg.eigvals(to_euclidean(op))
        assert spectra_mismatch(before, after) < 1e-9

    def test_identity_when_metric_constant(self):
        op = assemble(gen_cycle(4), "delta")
        assert np.allclose(to_euclidean(op), op.matrix)


class TestGreensResidual:
    def test_zero_on_balanced_graphs(self):
        rng = SplitMix64(17)
        for seed in range(5):
            g = gen_random_circulation(9, 4, seed=seed)
            f = rng.complex_vector(9)
            h = rng.complex_vector(9)
            assert greens_residual(g, f, h) < 1e-12

    def test_raises_on_unbalanced(self):
        g = build_graph([1.0, 1.0], [(0, 1, 2.0), (1, 0, 1.0)])
        with pytest.raises(KirchhoffViolatedError):
            greens_residual(g, np.ones(2), np.ones(2))

    def test_nonzero_terms_cancel(self):
        # the identity is a cancellation, not 0 == 0: check the pieces are big
        g = gen_opposing_cycles(5)
        f = np.arange(5, dtype=complex)
        h = f**2
        assert greens_residual(g, f, h) < 1e-10
        op = assemble(g, "delta")
        assert abs(metric_inner(g.measure, op.matrix @ f, h)) > 1.0


class TestQuadraticForm:
    def test_matches_edge_sum(self):
        g = gen_random_circulation(8, 3, seed=12)
        op = assemble(g, "delta")
        rng = SplitMix64(23)
        for _ in range(10):
            f = rng.complex_vector(8)
            diffs = np.abs(f[g.edge_from] - f[g.edge_to]) ** 2
            expected = float(np.sum(g.edge_weight * diffs))
            assert quadratic_form(op, f) == pytest.approx(expected, rel=1e-12)

    def test_indicator_energy_is_cut_weight(self):
        g = gen_cycle(6)
        f = np.zeros(6)
        f[:3] = 1.0
        assert quadratic_form(assemble(g, "delta"), f) == pytest.approx(2.0)

    def test_nonnegative(self):
        g = gen_random_circulation(10, 4, seed=3)
        op = assemble(g, "normalized_delta")
        rng = SplitMix64(31)
        for _ in range(10):
            assert quadratic_form(op, rng.complex_vector(10)) >= -1e-12

    def test_rejects_non_delta_kind(self):
        with pytest.raises(ValueError):
            quadratic_form(assemble(gen_cycle(3), "h"), np.ones(3))

    def test_accepts_dirichlet_delta(self):
        op = dirichlet(assemble(gen_cycle(4), "delta"), [0, 1])
        assert quadratic_form(op, np.ones(2)) >= 0.0


def _stacks(n, rows, seed):
    """Pairs (F, H) of row stacks laid out three ways: contiguous blocks,
    every other row of one draw array, and a transposed (column-major)
    view."""
    rng = SplitMix64(seed)
    draws = np.array([rng.complex_vector(n) for _ in range(2 * rows)])
    by_column = np.ascontiguousarray(draws.T).transpose()
    assert not by_column.flags.c_contiguous
    return [
        (draws[:rows], draws[rows:]),
        (draws[0::2], draws[1::2]),
        (by_column[:rows], by_column[rows:]),
    ]


def _same_rows(stacked, single_calls):
    """Each row of a stacked result has the bytes of the one-vector call."""
    stacked = np.asarray(stacked)
    assert stacked.shape == (len(single_calls),)
    for row, single in zip(stacked, single_calls):
        assert np.ndim(single) == 0
        assert row.tobytes() == np.asarray(single).tobytes()


class TestStackedCalls:
    @pytest.mark.parametrize("n", [3, 7, 8, 30])
    def test_rows_equal_single_calls(self, n):
        g = pi_circulation(n, seed=n)
        delta = assemble(g, "delta").matrix
        k = max(1, n // 2)
        ops = [
            (assemble(g, "delta"), n),
            (assemble(g, "normalized_delta"), n),
            (dirichlet(assemble(g, "delta"), range(k)), k),
        ]
        for F, H in _stacks(n, 12, seed=100 + n):
            pairs = [(np.array(f), np.array(h)) for f, h in zip(F, H)]
            inners = [metric_inner(g.measure, f, h) for f, h in pairs]
            _same_rows(metric_inner(g.measure, F, H), inners)
            _same_rows(greens_residual(g, F, H), [greens_residual(g, f, h) for f, h in pairs])
            terms = [_green_terms(g, delta, f, h) for f, h in pairs]
            for t, stacked in enumerate(_green_terms(g, delta, F, H)):
                _same_rows(stacked, [row[t] for row in terms])
            for op, size in ops:
                _same_rows(
                    quadratic_form(op, F[:, :size]),
                    [quadratic_form(op, np.array(f[:size])) for f in F],
                )

    def test_empty_stack(self):
        g = pi_circulation(7, seed=7)
        empty = np.zeros((0, 7), dtype=complex)
        assert metric_inner(g.measure, empty, empty).shape == (0,)
        assert greens_residual(g, empty, empty).shape == (0,)
        assert quadratic_form(assemble(g, "delta"), empty).shape == (0,)


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_json_round_trip(self, kind):
        op = assemble(gen_random_circulation(6, 3, seed=4), kind)
        back = operator_from_json_obj(operator_to_json_obj(op))
        assert np.array_equal(back.matrix, op.matrix)
        assert np.array_equal(back.metric, op.metric)
        assert back.kind == kind
        assert back.support is None

    def test_json_round_trip_with_support(self):
        op = dirichlet(assemble(gen_cycle(5), "h"), [1, 2, 4])
        back = operator_from_json_obj(operator_to_json_obj(op))
        assert back.support == (1, 2, 4)
        assert np.array_equal(back.matrix, op.matrix)

    def test_csv_round_trip(self):
        op = assemble(gen_random_circulation(5, 2, seed=10), "delta")
        back = operator_from_csv_text(operator_to_csv_text(op))
        assert np.array_equal(back.matrix, op.matrix)
        assert np.array_equal(back.metric, op.metric)
        assert back.kind == "delta"

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**16), kind=st.sampled_from(KINDS),
           data=st.data())
    def test_csv_and_json_round_trips(self, n, seed, kind, data):
        op = assemble(pi_circulation(n, seed), kind)
        omega = data.draw(st.none() | st.sets(st.integers(0, n - 1), min_size=1))
        if omega is not None:
            op = dirichlet(op, omega)
        for back in (
            operator_from_csv_text(operator_to_csv_text(op)),
            operator_from_json_obj(operator_to_json_obj(op)),
        ):
            assert back.matrix.shape == op.matrix.shape
            assert back.matrix.tobytes() == op.matrix.tobytes()
            assert back.metric.tobytes() == op.metric.tobytes()
            assert (back.kind, back.support) == (op.kind, op.support)

    def test_csv_support_line_only_for_a_restriction(self):
        op = assemble(gen_cycle(4), "delta")
        assert "support" not in operator_to_csv_text(op)
        lines = operator_to_csv_text(dirichlet(op, [1, 3])).splitlines()
        assert lines[:3] == ["kind,dirichlet(delta)", "metric,1.0,1.0", "support,1,3"]

    def test_csv_floats_survive_exactly(self):
        g = build_graph([1.0, 3.0], [(0, 1, 1.0 / 3.0), (1, 0, 1.0 / 3.0)])
        op = assemble(g, "delta")
        back = operator_from_csv_text(operator_to_csv_text(op))
        assert np.array_equal(back.matrix, op.matrix)

    def test_json_rejects_bad_shapes(self):
        with pytest.raises(SchemaViolationError):
            operator_from_json_obj({"kind": "delta", "metric": [1.0], "matrix": [[1.0, 2.0]]})
        with pytest.raises(SchemaViolationError):
            operator_from_json_obj(
                {"kind": "delta", "metric": [1.0, -1.0], "matrix": [[1.0, 0.0], [0.0, 1.0]]}
            )
        with pytest.raises(SchemaViolationError):
            operator_from_json_obj([1, 2, 3])

    def test_csv_rejects_missing_headers(self):
        with pytest.raises(SchemaViolationError):
            operator_from_csv_text("1.0,2.0\n3.0,4.0\n")
