import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import (
    bfs_hops, brute_cheeger, cycle_sums, edmonds_karp, float_cheeger, layered_networks,
    pi_circulation, rational_cheeger, traced_peak,
)

from dirlap import (
    NORMALIZATIONS,
    CheegerResult,
    DisconnectedError,
    SchemaViolationError,
    Filtration,
    InvalidArgumentError,
    build_filtration,
    build_graph,
    cheeger_exact,
    cheeger_heuristic,
    corpus,
    gen_cycle,
    gen_layered_heavy,
    gen_opposing_cycles,
    gen_random_circulation,
    gen_symmetric_tree,
    infinity_profile,
    m_M_constants,
    verify_ess_bound_consistency,
)
from dirlap import isoperimetric
from dirlap._io import dump_json


def subset_ratio(g, members, normalization):
    """Ratio of one specific subset, computed straight from the edge list:
    exact rational sums of the stored floats, correctly rounded."""
    inside = set(members)
    cut = sum(Fraction(w) for u, v, w in g.edges() if (u in inside) != (v in inside))
    vals = g.measure if normalization == "measure" else g.beta_plus
    return float(cut / sum(Fraction(float(vals[v])) for v in inside))


def rescaled(g):
    """The same edges with weights times pi and measures 1 + i / 8: another
    balanced graph with the same vertex ids."""
    return build_graph(
        [1.0 + i / 8 for i in range(g.n)], [(u, v, w * math.pi) for u, v, w in g.edges()]
    )


class TestCheegerExact:
    def test_rejects_members_that_are_not_integers(self):
        for omega in ([0.5, 1.9], [True, 2], ["1"]):
            with pytest.raises(SchemaViolationError, match="is not an integer"):
                cheeger_exact(gen_cycle(4), omega, "measure")

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

    def test_tie_breaks_to_union_of_minimizers(self):
        # in a 4-cycle the subsets {1}, {3} and {1,3} all have ratio 2
        res = cheeger_exact(gen_cycle(4), [1, 3])
        assert res.value == 2.0
        assert res.witness == (1, 3)

    def test_exact_at_every_size(self):
        g = gen_random_circulation(24, 8, seed=4)
        for size in (4, 22, 23, 24):
            res = cheeger_exact(g, range(size), "beta_plus")
            assert res.mode == "exact"
            assert res.value <= subset_ratio(g, range(size), "beta_plus")
            assert res.value == subset_ratio(g, res.witness, "beta_plus")
        # an arc of 23 vertices of a 25-cycle: every arc has cut 2
        res = cheeger_exact(gen_cycle(25), range(23))
        assert (res.value, res.witness) == (2 / 23, tuple(range(23)))

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

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValueError):
            cheeger_exact(gen_cycle(3), [0], "volume")

    def test_unknown_normalization_is_rejected_before_the_network(self, monkeypatch):
        def no_network(*args):
            raise AssertionError("network built")

        monkeypatch.setattr(isoperimetric, "_dyadic_integers", no_network)
        monkeypatch.setattr(isoperimetric, "_max_flow", no_network)
        g = gen_random_circulation(8, 3, seed=1)
        for normalizations in (("volume",), ("measure", "volume")):
            with pytest.raises(InvalidArgumentError, match="'volume'"):
                isoperimetric._exact(g, np.arange(1, 8), normalizations)
        with pytest.raises(InvalidArgumentError, match="'volume'"):
            cheeger_exact(g, range(1, 8), "volume")

    def test_json_shape(self):
        obj = json.loads(dump_json(cheeger_exact(gen_cycle(3), [0, 1])))
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


class TestRingGraphs:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_matches_oracles(self, k):
        # non-dyadic weights and measures, so every float sum rounds; the
        # internal pairs include the first, last and wrap-around ones
        g, omega = ring_graph(k, 1000 * k)
        for normalization in NORMALIZATIONS:
            res = cheeger_exact(g, omega, normalization)
            if k <= 12:
                best, union = rational_cheeger(g, omega, normalization)
                assert (res.value, res.witness) == (float(best), union)
            else:
                # within rounding; see TestExactRationalBounds
                value = float_cheeger(g, omega, normalization)
                terms = g.edge_weight.size + k + 2
                assert abs(res.value - value) * 2**52 <= terms * value


class TestExactRationalBounds:
    """The flow is exact: its value is the exact rational minimum over the
    stored floats, correctly rounded, and its witness the union of every
    subset attaining it. Enumeration with rounded float sums agrees up to
    the rounding of its sums: a sum of at most E non-negative terms rounds
    by at most E * 2^-53 relative, so a ratio (cut of at most E edge
    weights, at most k denominators, one division) is within
    (E + k + 2) * 2^-53 of its exact value, and the flow's value within
    2^-53, so the two agree within 2 (E + k + 2) * 2^-53 relative."""

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), g=cycle_sums())
    def test_cuts_values_and_witnesses(self, data, g):
        h = data.draw(st.sampled_from((g, rescaled(g))))
        omega = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=12)))
        for normalization in NORMALIZATIONS:
            source = h.measure if normalization == "measure" else h.beta_plus
            res = cheeger_exact(h, omega, normalization)
            best, union = rational_cheeger(h, omega, normalization)
            assert (res.value, res.witness) == (float(best), union)
            # the union of the minimizers is itself a minimizer
            inside = set(res.witness)
            cut = sum(Fraction(w) for u, v, w in h.edges() if (u in inside) != (v in inside))
            assert cut / sum(Fraction(float(source[v])) for v in inside) == best

    @settings(max_examples=15, derandomize=True, deadline=None, database=None)
    @given(
        pi=st.booleans(),
        n=st.integers(3, 17),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_circulations_against_enumeration(self, pi, n, seed, data):
        g = pi_circulation(n, seed) if pi else gen_random_circulation(n, max(2, n // 2), seed)
        omega = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=16)))
        ratio_terms = g.edge_weight.size + len(omega) + 2
        for normalization in NORMALIZATIONS:
            res = cheeger_exact(g, omega, normalization)
            if len(omega) <= 12:
                best, union = rational_cheeger(g, omega, normalization)
                assert (res.value, res.witness) == (float(best), union)
            else:
                value, _ = brute_cheeger(g, omega, normalization)
                assert abs(res.value - value) * 2**52 <= ratio_terms * value


class TestMaxFlow:
    """_max_flow against the Edmonds-Karp oracle, on networks where the
    pruned phases matter: nodes beyond t's level, and nodes one level
    below t with no residual arc into it."""

    @staticmethod
    def network(k, arcs):
        """The arcs in the solver's CSR layout: forward arcs i, their
        reverses i + m, stored by tail node in a stable order."""
        m = len(arcs)
        tails = np.array([a[0] for a in arcs] + [a[1] for a in arcs])
        heads = np.array([a[1] for a in arcs] + [a[0] for a in arcs])
        caps = [a[2] for a in arcs] + [a[3] for a in arcs]
        order = np.argsort(tails, kind="stable")
        where = np.empty_like(order)
        where[order] = np.arange(2 * m)
        start = np.searchsorted(tails[order], np.arange(k + 3)).tolist()
        rev = where[(order + m) % (2 * m)].tolist()
        return start, heads[order].tolist(), rev, [caps[i] for i in order.tolist()]

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(net=layered_networks(), scale=st.sampled_from((1, 3, 2**70 + 1)))
    def test_matches_edmonds_karp(self, net, scale):
        k, arcs = net
        arcs = [(u, v, c * scale, b * scale) for u, v, c, b in arcs]
        s, t = k, k + 1
        start, to, rev, cap = self.network(k, arcs)
        initial = list(cap)
        level = isoperimetric._max_flow(start, to, rev, cap, s, t)
        value, reached = edmonds_karp(
            k + 2, [(u, v, c) for u, v, c, _ in arcs] + [(v, u, b) for u, v, _, b in arcs], s, t
        )
        into_t = sum(initial[a] - cap[a] for a in range(len(to)) if to[a] == t)
        assert into_t == value
        assert {x for x in range(k + 2) if level[x] >= 0} == reached
        assert min(cap) >= 0
        for x in range(k):  # conservation
            assert sum(initial[a] - cap[a] for a in range(start[x], start[x + 1])) == 0

    def test_one_flow_per_normalization_at_n300(self, monkeypatch):
        # both complements of the root-0 filtration of the benchmark circulation
        # take a single Dinkelbach step: the pruned phases make each flow
        # cheaper, not the flows fewer
        calls = []
        flow = isoperimetric._max_flow

        def counted(*args):
            calls.append(1)
            return flow(*args)

        monkeypatch.setattr(isoperimetric, "_max_flow", counted)
        g = gen_random_circulation(300, 150, 1)
        dist = build_filtration(g, 0).dist
        sizes = []
        for r in range(int(dist.max())):
            comp = np.flatnonzero(dist > r)
            calls.clear()
            isoperimetric._exact(g, comp)
            assert len(calls) == len(NORMALIZATIONS)
            sizes.append(comp.size)
        assert sizes == [299, 181]


class TestExactMemory:
    """The flow holds the network, O(k + pairs) Python ints, and no table
    over the 2^k subsets."""

    def test_k22_call_holds_no_table(self):
        # the root complement of the n = 23 verify graph
        g = gen_random_circulation(23, 4, seed=4)
        g.beta_plus  # built before tracing
        assert traced_peak(cheeger_exact, g, range(1, 23)) <= 2**17

    def test_dense_16_vertex_call_holds_no_table(self):
        # every pair of the 16 vertices joined
        n = 18
        g = build_graph(
            [1.0] * n,
            [
                (u, v, 1.0 + (3 * u + v) % 5)
                for a, b in combinations(range(n), 2)
                for u, v in ((a, b), (b, a))
            ],
        )
        g.beta_plus  # built before tracing
        assert traced_peak(cheeger_exact, g, range(1, 17), "beta_plus") <= 2**17

    def test_sparse_1000_vertex_call_holds_no_pair_table(self):
        # the leaves of a 1,000-leaf star: no internal pair, so a table over
        # the k * k pairs (8 MB) would dwarf the network (under 1 MB)
        leaves = range(1, 1001)
        g = build_graph([1.0] * 1001, [e for i in leaves for e in ((0, i, 1.0), (i, 0, 1.0))])
        g.beta_plus  # built before tracing
        assert traced_peak(cheeger_exact, g, leaves) <= 2**21
        assert cheeger_exact(g, leaves) == CheegerResult(2.0, tuple(leaves), "exact", "measure")


class TestCheegerHeuristic:
    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    def test_never_below_exact(self, normalization):
        for seed in range(6):
            g = gen_random_circulation(9, 4, seed=seed)
            omega = list(range(6 + seed % 3))
            exact = cheeger_exact(g, omega, normalization)
            heur = cheeger_heuristic(g, omega, normalization)
            assert heur.value >= exact.value - 1e-12
            assert heur.mode == "exact"

    def test_witness_ratio_is_the_reported_value(self):
        for seed in range(5):
            g = gen_random_circulation(10, 4, seed=100 + seed)
            heur = cheeger_heuristic(g, range(7), "measure")
            assert heur.value == subset_ratio(g, heur.witness, "measure")
            assert set(heur.witness) <= set(range(7))

    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    def test_never_below_exact_on_a_deep_heavy_end(self, normalization):
        # weights up to 2^74 on the root's complement, where float sums
        # cancel: the value is the witness's correctly rounded ratio
        g = gen_layered_heavy(75, 4, 2.0)
        comp = range(1, g.n)
        heur = cheeger_heuristic(g, comp, normalization)
        assert heur.value >= cheeger_exact(g, comp, normalization).value
        assert heur.value == subset_ratio(g, heur.witness, normalization)

    def test_exact_on_easy_instances(self):
        # an arc of a cycle
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

    def test_returns_the_exact_result(self):
        # every corpus subset of up to 4 vertices and each whole vertex set,
        # both root complements of the n = 300 circulation, and the
        # complements dist > 0 and dist > 1 of the 75-level heavy end
        cases = [
            (g, omega)
            for _, g in corpus()
            for omega in [
                *(c for size in range(1, min(4, g.n) + 1) for c in combinations(range(g.n), size)),
                range(g.n),
            ]
        ]
        for g in (gen_random_circulation(300, 150, 1), gen_layered_heavy(75, 4, 2.0)):
            dist = build_filtration(g, 0).dist
            cases += [(g, np.flatnonzero(dist > r)) for r in (0, 1)]
        for g, omega in cases:
            for normalization in NORMALIZATIONS:
                heur = cheeger_heuristic(g, omega, normalization)
                assert dump_json(heur) == dump_json(cheeger_exact(g, omega, normalization))


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

    @staticmethod
    def assert_reference_balls(g, root):
        """Levels are the balls of a deque BFS over the undirected skeleton,
        and the complement dist > r is the set difference from the level."""
        filt = build_filtration(g, root)
        arcs = list(zip(g.edge_from.tolist(), g.edge_to.tolist()))
        hops = bfs_hops(g.n, arcs + [(v, u) for u, v in arcs], root)
        balls = tuple(
            tuple(v for v in range(g.n) if hops[v] <= r) for r in range(max(hops) + 1)
        )
        assert filt.root == root and filt.levels == balls
        for r, level in enumerate(balls):
            assert np.flatnonzero(filt.dist > r).tolist() == sorted(set(range(g.n)) - set(level))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(g=cycle_sums(), data=st.data())
    def test_levels_are_reference_balls(self, g, data):
        self.assert_reference_balls(g, data.draw(st.integers(0, g.n - 1)))

    def test_tree_levels_are_reference_balls(self):
        g = gen_symmetric_tree(3, 2, 2.0)
        for root in (0, 4, g.n - 1):
            self.assert_reference_balls(g, root)

    def test_dist_is_read_only(self):
        filt = build_filtration(gen_cycle(5), 0)
        assert not filt.dist.flags.writeable
        with pytest.raises(ValueError):
            filt.dist[0] = 1

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            build_filtration(gen_cycle(3), 3)

    def test_root_is_an_integer_id(self):
        g = gen_cycle(3)
        for root in (True, 1.5):
            with pytest.raises(SchemaViolationError, match="is not an integer"):
                build_filtration(g, root)
        filt = build_filtration(g, np.int64(1))
        assert type(filt.root) is int and filt.levels[0] == (1,)

    def test_rejects_disconnected(self):
        g = build_graph(
            [1.0] * 6,
            [(i, (i + 1) % 3, 1.0) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
        )
        with pytest.raises(DisconnectedError):
            build_filtration(g, 0)


class TestInfinityProfile:
    def test_ess_bound_beyond_the_float_range_is_rejected(self):
        # unbalanced, so ht = 5e209 > 2 on the complement of vertex 0
        g = build_graph([1.0] * 3, [(0, 1, 1e200), (0, 2, 1e200), (1, 0, 1e-10),
                                    (2, 0, 1e-10), (1, 2, 1e-10), (2, 1, 1e-10)])
        filt = build_filtration(g, 0)
        message = r"^bound m ht\^2 / 8 at m = 2e-10, ht = 5e\+209 is beyond the float range$"
        for call in (infinity_profile, verify_ess_bound_consistency):
            with pytest.raises(InvalidArgumentError, match=message):
                call(g, filt)

    @pytest.mark.parametrize("m, ht", [(1.0, 1.4e154), (1e300, 1e5), (1e-300, 1e155)])
    def test_ess_bound_rejects_each_overflow(self, m, ht):
        # ht ** 2 raises OverflowError in the first and last; m * ht**2 is inf in the second
        d = isoperimetric._Dirichlet(m, m, ht, ht, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError, match="beyond the float range"):
            d.ess_lower_bound

    @pytest.mark.parametrize("m, ht", [(0.3, 1.9), (1e-300, 1e154), (7.0, 1e-160), (1e308, 1.0)])
    def test_ess_bound_rounds_as_one_expression(self, m, ht):
        d = isoperimetric._Dirichlet(m, m, ht, ht, 1.0, 1.0)
        assert d.ess_lower_bound.hex() == (m * ht**2 / 8.0).hex()

    def test_layered_heavy_end_detected(self):
        g = gen_layered_heavy(5, 3, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        assert prof.heavy_end
        m_seq = prof.sequence("m_c")
        assert m_seq == sorted(m_seq)
        assert m_seq[-1] >= 10.0 * m_seq[0]

    def test_flat_weights_are_not_a_heavy_end(self):
        g = gen_layered_heavy(5, 3, gamma=1.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        assert not prof.heavy_end
        assert prof.sequence("m_c") == [2.0] * len(prof.levels)

    @staticmethod
    def assert_monotone(g):
        """Along the filtrations from three roots, m_c, h_c and h_tilde_c
        never decrease and M_c never increases, compared exactly: each is a
        min, max or correctly rounded minimum over a shrinking family, and
        heavy_end reads only the first and last m_c."""
        for root in (0, g.n // 2, g.n - 1):
            levels = infinity_profile(g, build_filtration(g, root)).levels
            for a, b in zip(levels, levels[1:]):
                assert a.m_c <= b.m_c and a.M_c >= b.M_c, (root, a, b)
                assert a.h_c <= b.h_c and a.h_tilde_c <= b.h_tilde_c, (root, a, b)

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(3, 24), cycles=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_circulation_profiles_are_monotone(self, n, cycles, seed):
        self.assert_monotone(gen_random_circulation(n, cycles, seed))

    @pytest.mark.parametrize(
        "g",
        [gen_layered_heavy(6, 4, gamma) for gamma in (1.0, 1.5, 2.0)]
        + [gen_symmetric_tree(3, 2, 2.0)],
    )
    def test_layered_and_tree_profiles_are_monotone(self, g):
        self.assert_monotone(g)

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

    def test_large_complements_are_exact(self):
        g = gen_layered_heavy(3, 8, gamma=2.0)
        filt = build_filtration(g, 0)
        prof = infinity_profile(g, filt)
        assert [row.complement_size for row in prof.levels[:2]] == [23, 20]
        for row, level in zip(prof.levels, filt.levels):
            comp = sorted(set(range(g.n)) - set(level))
            h, ht = cheeger_exact(g, comp, "measure"), cheeger_exact(g, comp, "beta_plus")
            assert (row.h_c, row.h_tilde_c) == (h.value, ht.value)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_layered_25_levels(self, gamma):
        # n = 100: each complement's own ratio bounds its level from above,
        # and small complements match the exact-rational oracle
        g = gen_layered_heavy(25, 4, gamma)
        filt = build_filtration(g, 0)
        prof = infinity_profile(g, filt)
        assert len(prof.levels) == len(filt.levels) - 1
        for row, level in zip(prof.levels, filt.levels):
            comp = sorted(set(range(g.n)) - set(level))
            assert row.h_c <= subset_ratio(g, comp, "measure")
            assert row.h_tilde_c <= subset_ratio(g, comp, "beta_plus")
            assert row.ess_lower_bound <= row.nu_dirichlet
            if len(comp) <= 12:
                for value, normalization in ((row.h_c, "measure"), (row.h_tilde_c, "beta_plus")):
                    assert value == float(rational_cheeger(g, comp, normalization)[0])

    def test_levels_report_metadata(self):
        g = gen_layered_heavy(3, 3, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        first = prof.levels[0]
        assert first.level == 1
        assert first.complement_size == g.n - len(build_filtration(g, 0).levels[0])

    def test_rejects_short_filtration(self):
        g = gen_cycle(3)
        with pytest.raises(ValueError):
            infinity_profile(g, Filtration(root=0, dist=np.zeros(3, int)))

    @pytest.mark.parametrize("graph_n, filtration_n", [(6, 4), (4, 6)])
    def test_rejects_filtration_of_another_graph(self, graph_n, filtration_n):
        filt = build_filtration(gen_cycle(filtration_n), 0)
        message = f"^filtration has {filtration_n} vertices, the graph {graph_n}"
        for profile in (infinity_profile, verify_ess_bound_consistency):
            with pytest.raises(InvalidArgumentError, match=message):
                profile(gen_cycle(graph_n), filt)

    def test_profile_values_are_plain_floats(self):
        g = gen_layered_heavy(3, 3, gamma=2.0)
        prof = infinity_profile(g, build_filtration(g, 0))
        assert isinstance(prof.levels[0].m_c, float)
        assert isinstance(prof.levels[0].h_c, float)
        assert isinstance(prof.levels[0].nu_dirichlet, float)
