import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_spectral import cycle_sums
from util import bitwise_subset_sums, brute_cheeger, mask_cut_table

from dirlap import (
    NORMALIZATIONS,
    DisconnectedError,
    EmptyComplementError,
    Filtration,
    SubsetTooLargeError,
    build_filtration,
    build_graph,
    cheeger,
    cheeger_exact,
    cheeger_heuristic,
    gen_cycle,
    gen_layered_heavy,
    gen_opposing_cycles,
    gen_random_circulation,
    gen_symmetric_tree,
    infinity_profile,
    isoperimetric,
    m_M_constants,
    verify_graph,
)
from dirlap.isoperimetric import _cut_table, _exact_results, _subset_sums


def subset_ratio(g, members, normalization):
    """Ratio of one specific subset, computed straight from the edge list."""
    inside = set(members)
    cut = sum(w for u, v, w in g.edges() if (u in inside) != (v in inside))
    vals = g.measure if normalization == "measure" else g.beta_plus
    return cut / sum(vals[v] for v in inside)


def oracle_result(g, omega, normalization):
    """(value.hex(), witness) of the exact constant from the mask oracles."""
    idx = np.asarray(sorted(set(omega)))
    vals = g.measure if normalization == "measure" else g.beta_plus
    ratios = mask_cut_table(g, idx)[1:] / bitwise_subset_sums(vals[idx])[1:]
    best = ratios.min()
    members = [[int(v) for i, v in enumerate(idx) if (m + 1) >> i & 1]
               for m in np.flatnonzero(ratios == best).tolist()]
    return best.hex(), tuple(min(members))


def rescaled(g):
    """The same edges with weights times pi and measures 1 + i / 8: another
    balanced graph with the same vertex ids."""
    return build_graph(
        [1.0 + i / 8 for i in range(g.n)], [(u, v, w * math.pi) for u, v, w in g.edges()]
    )


@pytest.fixture
def cut_table_sizes(monkeypatch):
    """Sizes of the cut tables built while the fixture is active, in order."""
    sizes = []

    def counting(g, ids):
        sizes.append(len(ids))
        return _cut_table(g, ids)

    monkeypatch.setattr(isoperimetric, "_cut_table", counting)
    return sizes


class TestCheegerExact:
    def test_triangle_hand_values(self):
        g = gen_cycle(3)
        one = cheeger_exact(g, [0])
        assert one.value == 2.0 and one.witness == (0,)
        pair = cheeger_exact(g, [0, 1])
        assert pair.value == 1.0 and pair.witness == (0, 1)
        assert pair.mode == "exact" and pair.normalization == "measure"

    def test_arc_of_cycle(self):
        g = gen_cycle(6)
        res = cheeger_exact(g, [0, 1, 2])
        assert res.value == pytest.approx(2.0 / 3.0)
        assert res.witness == (0, 1, 2)

    def test_full_vertex_set_gives_zero(self):
        g = gen_cycle(5)
        res = cheeger_exact(g, range(5))
        assert res.value == 0.0
        assert res.witness == (0, 1, 2, 3, 4)

    def test_tie_breaks_to_lexicographically_smallest(self):
        # in a 4-cycle the subsets {1}, {3} and {1,3} all have ratio 2
        res = cheeger_exact(gen_cycle(4), [1, 3])
        assert res.value == 2.0
        assert res.witness == (1,)

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, normalization, seed):
        g = gen_random_circulation(8, 3, seed=seed)
        omega = [0, 2, 3, 5, 6, 7]
        res = cheeger_exact(g, omega, normalization)
        value, witness = brute_cheeger(g, omega, normalization)
        assert res.value == value
        assert res.witness == witness

    def test_matches_brute_force_non_unit_measures(self):
        g = build_graph(
            [1.0, 2.0, 4.0, 0.5],
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 1.0), (2, 0, 1.0)],
        )
        for normalization in NORMALIZATIONS:
            res = cheeger_exact(g, range(4), normalization)
            value, witness = brute_cheeger(g, range(4), normalization)
            assert res.value == pytest.approx(value, rel=1e-12)
            assert res.witness == witness

    def test_boundary_counts_both_directions(self):
        g = gen_opposing_cycles(3, w_forward=2.0, w_backward=1.0)
        res = cheeger_exact(g, [0])
        # both orientations cross: (2+1) on each side of the singleton
        assert res.value == pytest.approx(6.0)

    def test_beta_plus_normalization_divides_by_outflow(self):
        g = gen_cycle(4, w=2.0)
        res = cheeger_exact(g, [0, 1], "beta_plus")
        # cut 2*2, outflow 2 per vertex
        assert res.value == pytest.approx(1.0)
        assert res.normalization == "beta_plus"

    def test_rejects_oversized_subset(self):
        g = gen_cycle(25)
        with pytest.raises(SubsetTooLargeError):
            cheeger_exact(g, range(23))

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValueError):
            cheeger_exact(gen_cycle(3), [0], "volume")

    def test_json_shape(self):
        obj = cheeger_exact(gen_cycle(3), [0, 1]).to_json_obj()
        assert obj == {
            "value": 1.0,
            "witness": [0, 1],
            "mode": "exact",
            "normalization": "measure",
        }


def ring_graph(k, seed):
    """Random balanced graph (weights times pi, random measures) with a
    random k-subset omega whose members, in sorted order, form a directed
    cycle, so the internal pairs include (0, 1), (0, k - 1) and (k - 2, k - 1)."""
    rng = np.random.default_rng(seed)
    n = k + 3
    omega = np.sort(rng.choice(n, size=k, replace=False))
    weights: dict[tuple[int, int], float] = {}
    cycles = [rng.permutation(n), rng.permutation(n)[: n // 2]]
    if k > 1:
        cycles.append(omega)
    for cycle in cycles:
        w = float(rng.uniform(0.5, 2.0)) * math.pi
        for u, v in zip(cycle.tolist(), np.roll(cycle, -1).tolist()):
            if u != v:
                weights[(u, v)] = weights.get((u, v), 0.0) + w
    g = build_graph(rng.uniform(0.25, 4.0, n), [(u, v, w) for (u, v), w in weights.items()])
    return g, omega


class TestCutTables:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_bit_identical_to_mask_oracle(self, k):
        for seed in range(2):
            g, omega = ring_graph(k, 1000 * k + seed)
            table = _cut_table(g, tuple(omega.tolist()))
            assert table.tobytes() == mask_cut_table(g, omega).tobytes()
            for vals in (g.measure[omega], g.beta_plus[omega], g.edge_weight[:k] * math.e):
                assert _subset_sums(vals).tobytes() == bitwise_subset_sums(vals).tobytes()

    def test_cached_results_give_each_call_its_own_result(self):
        # two graphs with the same vertex ids, two subsets, both normalizations
        base = gen_random_circulation(12, 5, seed=3)
        other = rescaled(base)
        calls = [
            (g, omega, normalization)
            for omega in ([0, 2, 3, 5, 7, 8, 11], list(range(1, 10)))
            for g in (base, other)
            for normalization in NORMALIZATIONS
        ]

        def result(call):
            res = cheeger_exact(*call)
            return res.value.hex(), res.witness

        alone = []
        for call in calls:
            _exact_results.cache_clear()
            alone.append(result(call))
            assert alone[-1] == oracle_result(*call)
        _exact_results.cache_clear()
        # alternate between the two subsets, then run everything backwards
        order = [i for pair in zip(range(4), range(4, 8)) for i in pair] + list(range(8))[::-1]
        for i in order:
            assert result(calls[i]) == alone[i], calls[i][1:]

    def test_both_normalizations_cost_one_build(self, cut_table_sizes):
        g = gen_random_circulation(12, 5, seed=3)
        for normalization in NORMALIZATIONS * 2:
            cheeger_exact(g, [0, 2, 3, 5], normalization)
        assert cut_table_sizes == [4]
        assert _exact_results.cache_info().misses == 1

    def test_verify_builds_each_subset_once(self, cut_table_sizes):
        # n = 23: the sandwich and Fujiwara checks ask for the filtration
        # complements of sizes 22, 18 and 6 before the essential-spectrum
        # profile asks for them again
        verify_graph(gen_random_circulation(23, 4, seed=4))
        assert cut_table_sizes == [1, 1, 1, 22, 5, 18, 17, 6]

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), g=cycle_sums())
    def test_call_history_cannot_change_a_result(self, data, g):
        graphs = (g, rescaled(g))
        vertex_sets = st.sets(st.integers(0, g.n - 1), min_size=1)
        pool = data.draw(st.lists(vertex_sets, min_size=1, max_size=3))
        calls = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(graphs), st.sampled_from(pool), st.sampled_from(NORMALIZATIONS)
                ),
                min_size=1,
                max_size=12,
            )
        )
        for h, omega, normalization in calls:
            res = cheeger_exact(h, sorted(omega), normalization)
            assert (res.value.hex(), res.witness) == oracle_result(h, omega, normalization)


def exact_cuts(g, omega):
    """Per non-empty mask of the sorted omega, the exact rational cut of the
    stored floats, summed straight off the edge list."""
    cuts = {}
    for mask in range(1, 1 << len(omega)):
        inside = {v for i, v in enumerate(omega) if mask >> i & 1}
        crossing = (w for u, v, w in g.edges() if (u in inside) != (v in inside))
        cuts[mask] = sum(map(Fraction, crossing), Fraction(0))
    return cuts


class TestExactRationalBounds:
    """Rounding bounds against exact rational sums, which hold in whatever
    order the tables add. A sum of at most E non-negative terms rounds by at
    most E * 2^-53 relative, so a cut (at most E edge weights) is within
    E * 2^-53 and a ratio (cut, at most k measures, one division) within
    (E + k + 2) * 2^-53 of its exact value. The witness's rounded ratio is
    no larger than the minimum's, so its exact ratio is within twice the
    ratio bound of the exact minimum."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), g=cycle_sums())
    def test_cuts_values_and_witnesses(self, data, g):
        h = data.draw(st.sampled_from((g, rescaled(g))))
        omega = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=12)))
        edges = h.edge_weight.size
        table = _cut_table(h, tuple(omega))
        cuts = exact_cuts(h, omega)
        for mask, cut in cuts.items():
            assert abs(Fraction(float(table[mask])) - cut) * 2**53 <= edges * cut
        ratio_terms = edges + len(omega) + 2
        for normalization in NORMALIZATIONS:
            source = h.measure if normalization == "measure" else h.beta_plus
            vals = [Fraction(float(source[v])) for v in omega]
            ratios = {
                mask: cut / sum(x for i, x in enumerate(vals) if mask >> i & 1)
                for mask, cut in cuts.items()
            }
            best = min(ratios.values())
            res = cheeger_exact(h, omega, normalization)
            assert abs(Fraction(res.value) - best) * 2**53 <= ratio_terms * best
            witness = sum(1 << omega.index(v) for v in res.witness)
            assert (ratios[witness] - best) * 2**53 <= 2 * ratio_terms * best


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc, which sees numpy's buffers, while
    fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExactMemory:
    def test_cut_table_holds_one_table(self):
        # the root complement of the n = 23 verify graph: 22 vertices, 32 MB
        g = gen_random_circulation(23, 4, seed=4)
        g.adjacency  # built before tracing
        assert traced_peak(_cut_table, g, tuple(range(1, 23))) <= 1.1 * 8 * 2**22

    def test_exact_results_hold_two_tables(self):
        # every pair of the 16 vertices joined, so the last vertex's packet
        # tables have 2^15 entries each
        n = 18
        g = build_graph(
            [1.0] * n,
            [
                (u, v, 1.0 + (3 * u + v) % 5)
                for a, b in combinations(range(n), 2)
                for u, v in ((a, b), (b, a))
            ],
        )
        g.adjacency, g.beta_plus  # built before tracing
        assert traced_peak(_exact_results, g, tuple(range(1, 17))) <= 2.25 * 8 * 2**16


class TestCheegerHeuristic:
    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    def test_never_below_exact(self, normalization):
        for seed in range(6):
            g = gen_random_circulation(9, 4, seed=seed)
            omega = list(range(6 + seed % 3))
            exact = cheeger_exact(g, omega, normalization)
            heur = cheeger_heuristic(g, omega, normalization)
            assert heur.value >= exact.value - 1e-12
            assert heur.mode == "upper_bound"

    def test_witness_ratio_is_the_reported_value(self):
        for seed in range(5):
            g = gen_random_circulation(10, 4, seed=100 + seed)
            heur = cheeger_heuristic(g, range(7), "measure")
            assert heur.value == pytest.approx(
                subset_ratio(g, heur.witness, "measure"), rel=1e-9
            )
            assert set(heur.witness) <= set(range(7))

    def test_exact_on_easy_instances(self):
        # sweep cuts recover arcs of a cycle
        g = gen_cycle(8)
        exact = cheeger_exact(g, range(4))
        heur = cheeger_heuristic(g, range(4))
        assert heur.value == pytest.approx(exact.value)

    def test_singleton_subset(self):
        g = gen_cycle(5)
        heur = cheeger_heuristic(g, [2])
        assert heur.value == 2.0
        assert heur.witness == (2,)

    def test_deterministic(self):
        g = gen_random_circulation(12, 5, seed=77)
        a = cheeger_heuristic(g, range(9))
        b = cheeger_heuristic(g, range(9))
        assert a.value == b.value and a.witness == b.witness


    def test_pinned_values(self):
        # value.hex() and witness recorded before the sweep and the greedy
        # exchange were vectorized; both must stay bit-identical
        big = gen_random_circulation(300, 150, 1)
        levels = build_filtration(big, 0).levels
        cases = [(big, [v for v in range(300) if v not in levels[i]]) for i in (0, 1)]
        expected = [
            {"measure": "0x1.df7702918d456p-1", "beta_plus": "0x1.b0c45cfbbba65p-8"},
            {"measure": "0x1.c02eac8d6fbc2p+6", "beta_plus": "0x1.95e2ecc258419p-1"},
        ]
        for (g, comp), values in zip(cases, expected):
            for normalization, value in values.items():
                heur = cheeger_heuristic(g, comp, normalization)
                assert (heur.value.hex(), heur.witness) == (value, tuple(comp))
        # non-dyadic weights and non-unit measures
        base = gen_random_circulation(30, 12, seed=0)
        g = build_graph(
            [1.0 + (i % 7) / 4 for i in range(30)],
            [(u, v, w * math.pi) for u, v, w in base.edges()],
        )
        comp = [v for v in range(30) if v not in build_filtration(g, 0).levels[1]]
        assert len(comp) == 14
        heur = cheeger_heuristic(g, comp, "measure")
        assert (heur.value.hex(), heur.witness) == ("0x1.05616905f83b6p+4", (13,))
        heur = cheeger_heuristic(g, comp, "beta_plus")
        assert (heur.value.hex(), heur.witness) == (
            "0x1.0927eb7d9e94bp+0",
            (1, 2, 3, 11, 13, 15, 17, 19, 20, 21, 26, 27),
        )


class TestCheegerAuto:
    def test_exact_up_to_budget_then_heuristic(self):
        # the exact-enumeration budget is the fixed cap of 22 vertices
        g = gen_random_circulation(24, 8, seed=4)
        for size, mode in ((4, "exact"), (22, "exact"), (23, "upper_bound")):
            assert cheeger(g, range(size), "beta_plus").mode == mode, size
        assert cheeger(g, range(5)) == cheeger_exact(g, range(5))
        assert cheeger(g, range(23)) == cheeger_heuristic(g, range(23))


class TestMMConstants:
    def test_unit_cycle_is_flat(self):
        assert m_M_constants(gen_cycle(5), range(5)) == (1.0, 1.0)

    def test_hand_values(self):
        g = build_graph(
            [1.0, 2.0, 4.0],
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        )
        m, M = m_M_constants(g, range(3))
        assert (m, M) == (0.25, 1.0)

    def test_subset_restriction(self):
        g = build_graph(
            [1.0, 2.0, 4.0],
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        )
        m, M = m_M_constants(g, [1, 2])
        assert (m, M) == (0.25, 0.5)


class TestFiltration:
    def test_balls_are_nested_and_exhaust(self):
        g = gen_layered_heavy(4, 3, gamma=2.0)
        filt = build_filtration(g, 0)
        assert filt.root == 0
        assert filt.levels[0] == (0,)
        for a, b in zip(filt.levels, filt.levels[1:]):
            assert set(a) < set(b)
        assert set(filt.levels[-1]) == set(range(g.n))

    def test_tree_levels_are_depth_balls(self):
        g = gen_symmetric_tree(2, 2)
        filt = build_filtration(g, 0)
        assert filt.levels[0] == (0,)
        assert filt.levels[1] == (0, 1, 2)
        assert filt.levels[2] == tuple(range(7))

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            build_filtration(gen_cycle(3), 3)

    def test_rejects_disconnected(self):
        g = build_graph(
            [1.0] * 6,
            [(i, (i + 1) % 3, 1.0) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
        )
        with pytest.raises(DisconnectedError):
            build_filtration(g, 0)


class TestInfinityProfile:
    def test_layered_heavy_end_detected(self):
        g = gen_layered_heavy(5, 3, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        assert prof.heavy_end
        assert prof.all_exact
        m_seq = prof.sequence("m_c")
        assert m_seq == sorted(m_seq)
        assert m_seq[-1] >= 10.0 * m_seq[0]

    def test_flat_weights_are_not_a_heavy_end(self):
        g = gen_layered_heavy(5, 3, gamma=1.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        assert not prof.heavy_end
        assert prof.sequence("m_c") == [2.0] * len(prof.levels)

    def test_ess_lower_bound_below_dirichlet_gap(self):
        g = gen_layered_heavy(4, 4, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        for row in prof.levels:
            assert row.ess_lower_bound <= row.nu_dirichlet + 1e-8
            assert row.ess_lower_bound == pytest.approx(
                row.m_c * row.h_tilde_c**2 / 8.0
            )

    def test_empty_complements_skipped(self):
        g = gen_cycle(4)
        filt = build_filtration(g, 0)
        prof = infinity_profile(g, filt)
        # last level is the whole graph, so it contributes no row
        assert all(row.complement_size > 0 for row in prof.levels)
        assert len(prof.levels) == len(filt.levels) - 1

    def test_budget_forces_heuristic_mode(self):
        # complements above the exact cap of 22 vertices go to the heuristic
        g = gen_layered_heavy(3, 8, gamma=2.0)
        filt = build_filtration(g, 0)
        prof = infinity_profile(g, filt)
        assert [row.complement_size for row in prof.levels[:2]] == [23, 20]
        assert not prof.all_exact
        for row, level in zip(prof.levels, filt.levels):
            comp = sorted(set(range(g.n)) - set(level))
            solve = cheeger_exact if len(comp) <= 22 else cheeger_heuristic
            h, ht = solve(g, comp, "measure"), solve(g, comp, "beta_plus")
            assert (row.h_c, row.h_mode) == (h.value, h.mode)
            assert (row.h_tilde_c, row.h_tilde_mode) == (ht.value, ht.mode)

    def test_levels_report_metadata(self):
        g = gen_layered_heavy(3, 3, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        first = prof.levels[0]
        assert first.level == 1
        assert first.complement_size == g.n - len(build_filtration(g, 0).levels[0])
        assert first.h_mode in ("exact", "upper_bound")

    def test_rejects_short_filtration(self):
        g = gen_cycle(3)
        with pytest.raises(ValueError):
            infinity_profile(g, Filtration(root=0, levels=((0, 1, 2),)))

    def test_rejects_all_empty_complements(self):
        g = gen_cycle(3)
        filt = Filtration(root=0, levels=((0, 1, 2), (0, 1, 2)))
        with pytest.raises(EmptyComplementError):
            infinity_profile(g, filt)

    def test_profile_values_are_plain_floats(self):
        g = gen_layered_heavy(3, 3, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        assert isinstance(prof.levels[0].m_c, float)
        assert isinstance(prof.levels[0].h_c, float)
        assert isinstance(prof.levels[0].nu_dirichlet, float)
