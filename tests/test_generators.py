import numpy as np
import pytest
from util import dense_weights, loop_random_circulation, traced_peak

from dirlap import (
    InvalidArgumentError,
    SplitMix64,
    check_kirchhoff,
    connectivity,
    corpus,
    gen_cycle,
    gen_layered_heavy,
    gen_opposing_cycles,
    gen_random_circulation,
    gen_symmetric_tree,
)

# Frozen reference outputs of the splitmix64 mixer, cross-checked against an
# independent implementation before pinning.
SPLITMIX_SEED0 = [16294208416658607535, 7960286522194355700, 487617019471545679]
SPLITMIX_SEED1234567 = [6457827717110365317, 3203168211198807973]


class TestSplitMix64:
    def test_known_stream_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED0

    def test_known_stream_other_seed(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(2)] == SPLITMIX_SEED1234567

    def test_same_seed_same_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_float_range(self):
        rng = SplitMix64(7)
        xs = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        # not degenerate
        assert max(xs) > 0.9 and min(xs) < 0.1

    def test_next_below_range(self):
        rng = SplitMix64(1)
        xs = [rng.next_below(5) for _ in range(200)]
        assert set(xs) == {0, 1, 2, 3, 4}

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(3)
        items = list(range(12))
        rng.shuffle(items)
        assert sorted(items) == list(range(12))
        assert items != list(range(12))

    @pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
    def test_block_equals_scalar_stream(self, seed):
        for count in (0, 1, 7, 1000):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            drawn = block.block(count)
            assert drawn.dtype == np.uint64
            assert drawn.tolist() == [scalar.next_u64() for _ in range(count)]
            assert block.next_u64() == scalar.next_u64()

    def test_complex_vector_bounds(self):
        v = SplitMix64(5).complex_vector(64)
        assert v.shape == (64,)
        assert np.all(np.abs(v.real) <= 1.0) and np.all(np.abs(v.imag) <= 1.0)


class TestCycle:
    def test_structure(self):
        g = gen_cycle(4, w=3.0)
        assert g.n == 4
        assert list(g.edges()) == [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 3.0), (3, 0, 3.0)]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_cycle(1)


class TestOpposingCycles:
    def test_asymmetric_but_balanced(self):
        g = gen_opposing_cycles(3, w_forward=2.0, w_backward=1.0)
        B = dense_weights(g)
        assert B[0, 1] == 2.0 and B[1, 0] == 1.0
        assert check_kirchhoff(g).satisfied

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_opposing_cycles(2)


class TestRandomCirculation:
    def test_deterministic_per_seed(self):
        a = gen_random_circulation(8, 4, seed=5)
        b = gen_random_circulation(8, 4, seed=5)
        assert np.array_equal(a.edge_from, b.edge_from)
        assert np.array_equal(a.edge_to, b.edge_to)
        assert np.array_equal(a.edge_weight, b.edge_weight)

    def test_seeds_differ(self):
        a = gen_random_circulation(8, 4, seed=5)
        b = gen_random_circulation(8, 4, seed=6)
        same = a.edge_from.shape == b.edge_from.shape and np.array_equal(
            a.edge_from, b.edge_from
        ) and np.array_equal(a.edge_weight, b.edge_weight)
        assert not same

    @pytest.mark.parametrize("n,k,seed", [(3, 1, 0), (5, 2, 1), (10, 4, 2), (30, 6, 3)])
    def test_balance_is_float_exact(self, n, k, seed):
        g = gen_random_circulation(n, k, seed=seed)
        assert np.array_equal(g.beta_plus, g.beta_minus)

    def test_covers_all_vertices(self):
        for seed in range(10):
            g = gen_random_circulation(12, 3, seed=seed)
            assert g.beta_plus.min() > 0 and g.beta_minus.min() > 0

    def test_weights_on_dyadic_grid(self):
        g = gen_random_circulation(9, 5, seed=4)
        scaled = g.edge_weight * 8.0
        assert np.array_equal(scaled, np.round(scaled))
        assert g.edge_weight.min() >= 0.25 - 1e-15

    def test_single_cycle_case(self):
        g = gen_random_circulation(6, 1, seed=2)
        # one simple cycle through all vertices: n edges, each vertex once
        assert g.edge_from.size == 6
        assert sorted(g.edge_from.tolist()) == list(range(6))
        assert sorted(g.edge_to.tolist()) == list(range(6))

    def test_numpy_integer_arguments(self):
        want = gen_random_circulation(9, 4, seed=3)
        for kind in (np.int64, np.uint64):
            got = gen_random_circulation(kind(9), kind(4), seed=kind(3))
            assert got.edge_weight.tobytes() == want.edge_weight.tobytes()
            assert got.edge_to.tobytes() == want.edge_to.tobytes()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gen_random_circulation(2, 1, seed=0)
        with pytest.raises(ValueError):
            gen_random_circulation(5, 0, seed=0)

    def test_empty_weight_grid(self):
        message = r"^weight range \[0.3, 0.32\] contains no k/8 grid point$"
        with pytest.raises(InvalidArgumentError, match=message):
            gen_random_circulation(5, 2, seed=0, weight_range=(0.3, 0.32))

    @pytest.mark.parametrize(
        "weight_range",
        [(np.nan, 4.0), (0.25, np.nan), (0.25, np.inf), (-np.inf, 4.0), (1e308, 4.0), (1, 2**1100)],
    )
    def test_non_finite_weight_range(self, weight_range):
        with pytest.raises(InvalidArgumentError, match=r"times 8 is not finite$"):
            gen_random_circulation(5, 2, seed=0, weight_range=weight_range)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("n", [3, 4, 9, 23, 100, 300])
    def test_matches_scalar_loop(self, n, seed):
        for k in sorted({1, 2, n // 2}):
            got, want = gen_random_circulation(n, k, seed), loop_random_circulation(n, k, seed)
            for name in ("measure", "edge_from", "edge_to", "edge_weight"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("weight_range", [(0.5, 1.5), (-3.0, 0.2), (0.1, 2.0**70)])
    def test_matches_scalar_loop_on_other_grids(self, weight_range):
        got = gen_random_circulation(40, 25, 7, weight_range)
        want = loop_random_circulation(40, 25, 7, weight_range)
        for name in ("measure", "edge_from", "edge_to", "edge_weight"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_merge_holds_no_pair_table(self):
        # 8,000 edges: an n x n accumulator would take 32 MB
        assert traced_peak(gen_random_circulation, 2000, 4, 1) <= 2**22


class TestLayeredHeavy:
    def test_shape_and_balance(self):
        g = gen_layered_heavy(3, 4, gamma=2.0)
        assert g.n == 12
        assert np.array_equal(g.beta_plus, g.beta_minus)

    def test_weights_grow_geometrically(self):
        g = gen_layered_heavy(3, 3, gamma=2.0, radial=1.0)
        B = dense_weights(g)
        # ring weights: layer 0 has 1, layer 1 has 2, layer 2 has 4
        assert B[0, 1] == 1.0
        assert B[3, 4] == 2.0
        assert B[6, 7] == 4.0
        # radial pairs are symmetric
        assert B[0, 3] == B[3, 0] == 1.0
        assert B[3, 6] == B[6, 3] == 2.0

    def test_gamma_one_is_flat(self):
        g = gen_layered_heavy(4, 3, gamma=1.0)
        assert set(g.edge_weight.tolist()) == {1.0}

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["gamma", "radial"])
    def test_rejects_non_positive_and_non_finite(self, name, value):
        kwargs = {"gamma": 2.0, "radial": 1.0, name: value}
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be finite and > 0"):
            gen_layered_heavy(1, 3, **kwargs)

    def test_rejects_weights_beyond_the_float_range(self):
        with pytest.raises(InvalidArgumentError, match=r"^gamma\*\*2 is beyond the float range"):
            gen_layered_heavy(3, 2, 1e200)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_layered_heavy(0, 3, 2.0)
        with pytest.raises(ValueError):
            gen_layered_heavy(3, 1, 2.0)
        with pytest.raises(ValueError):
            gen_layered_heavy(3, 3, 0.0)


class TestSymmetricTree:
    def test_structure(self):
        g = gen_symmetric_tree(2, 2, weight_growth=2.0)
        assert g.n == 7
        B = dense_weights(g)
        assert B[0, 1] == B[1, 0] == 1.0
        assert B[1, 3] == B[3, 1] == 2.0

    def test_balanced_by_symmetry(self):
        g = gen_symmetric_tree(3, 2, weight_growth=1.5)
        assert np.array_equal(g.beta_plus, g.beta_minus)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_symmetric_tree(0, 2)

    def test_rejects_weights_beyond_the_float_range(self):
        with pytest.raises(InvalidArgumentError, match=r"^weight_growth\*\*2 is beyond"):
            gen_symmetric_tree(3, 1, 1e200)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_non_positive_and_non_finite_growth(self, value):
        with pytest.raises(InvalidArgumentError, match="^weight_growth must be finite and > 0"):
            gen_symmetric_tree(2, 1, value)


class TestCorpus:
    def test_every_entry_balanced_and_connected(self):
        for name, g in corpus():
            assert check_kirchhoff(g).satisfied, name
            und, _ = connectivity(g)
            assert und, name

    def test_sizes_allow_exhaustive_sweeps(self):
        for name, g in corpus():
            assert g.n <= 9, name

    def test_names_unique(self):
        names = [name for name, _ in corpus()]
        assert len(names) == len(set(names))

    def test_stable_across_calls(self):
        first = {name: g.edge_weight.tolist() for name, g in corpus()}
        second = {name: g.edge_weight.tolist() for name, g in corpus()}
        assert first == second
