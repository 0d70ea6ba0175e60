import json
import math
import os
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import bfs_hops, cycle_sums, loop_graph_from_json_obj, pi_circulation

from dirlap import (
    DirectedGraph,
    DirlapError,
    DisconnectedError,
    DuplicateEdgeError,
    EmptySubsetError,
    InputParseError,
    InvalidArgumentError,
    IsolatedDirectionError,
    NonPositiveMeasureError,
    NonPositiveWeightError,
    SchemaViolationError,
    SelfLoopError,
    boundaries,
    build_filtration,
    build_graph,
    check_kirchhoff,
    cheeger_heuristic,
    connectivity,
    corpus,
    gen_cycle,
    gen_opposing_cycles,
    gen_random_circulation,
    graph_from_json_obj,
    graph_to_json_obj,
    infinity_profile,
    load_graph,
    save_graph,
    schrodinger_potential,
    subset_array,
    verify_graph,
)
from dirlap._io import dump_json
from dirlap.graph import hop_distances


def triangle():
    return gen_cycle(3)


class TestBuildGraph:
    def test_basic_fields(self):
        g = build_graph([1.0, 2.0], [(0, 1, 3.0), (1, 0, 3.0)])
        assert g.n == 2
        assert g.measure.tolist() == [1.0, 2.0]
        assert g.edge_from.tolist() == [0, 1]
        assert g.edge_to.tolist() == [1, 0]
        assert g.edge_weight.tolist() == [3.0, 3.0]

    def test_edges_sorted_canonically(self):
        g = build_graph(
            [1.0, 1.0, 1.0],
            [(2, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.5), (2, 1, 0.5), (1, 0, 0.5)],
        )
        pairs = list(zip(g.edge_from.tolist(), g.edge_to.tolist()))
        assert pairs == sorted(pairs)

    def test_arrays_are_read_only(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.measure[0] = 5.0
        with pytest.raises(ValueError):
            g.edge_weight[0] = 5.0

    def test_rejects_nonpositive_measure(self):
        with pytest.raises(NonPositiveMeasureError):
            build_graph([1.0, 0.0], [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(NonPositiveMeasureError):
            build_graph([1.0, -2.0], [(0, 1, 1.0), (1, 0, 1.0)])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_measure_and_weight(self, bad):
        edges = [(0, 1, 1.0), (1, 0, 1.0)]
        with pytest.raises(DirlapError):
            build_graph([1.0, bad], edges)
        with pytest.raises(DirlapError):
            build_graph([1.0, 1.0], [(0, 1, bad), (1, 0, 1.0)])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_beyond_the_float_range_is_not_finite(self, sign):
        edges = [(0, 1, 1.0), (1, 0, 1.0)]
        huge = sign * 10**400
        with pytest.raises(DirlapError, match="^measure of vertex 0 is (not finite|-inf)"):
            build_graph([huge, 1.0], edges)
        with pytest.raises(DirlapError, match="has (a weight that is not finite|weight -inf)"):
            build_graph([1.0, 1.0], [(0, 1, huge), (1, 0, 1.0)])
        # a Fraction beyond the float range overflows the same way
        with pytest.raises(SchemaViolationError, match="^measure of vertex 1 is not finite"):
            build_graph([1.0, Fraction(10**400, 3)], edges)

    def test_rejects_overflowing_weight_totals(self):
        # every weight is finite, but vertex 0's outgoing and incoming totals are not
        edges = [(0, 1, 1e308), (0, 2, 1e308), (1, 0, 1e308), (2, 0, 1e308)]
        with pytest.raises(SchemaViolationError, match="outgoing"):
            build_graph([1.0, 1.0, 1.0], edges)
        # only the incoming total of vertex 0 overflows
        edges[1] = (0, 2, 1.0)
        with pytest.raises(SchemaViolationError, match="incoming"):
            build_graph([1.0, 1.0, 1.0], edges)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeightError):
            build_graph([1.0, 1.0], [(0, 1, 0.0), (1, 0, 1.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph([1.0, 1.0], [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(SchemaViolationError):
            build_graph([1.0, 1.0], [(0, 2, 1.0), (1, 0, 1.0)])
        with pytest.raises(SchemaViolationError):
            build_graph([1.0, 1.0], [(-1, 0, 1.0), (1, 0, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph([1.0, 1.0], [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 3.0)])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(IsolatedDirectionError):
            build_graph([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0)])

    def test_rejects_vertex_missing_one_direction(self):
        # vertex 2 has an incoming edge but no outgoing edge
        with pytest.raises(IsolatedDirectionError):
            build_graph([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)])

    @pytest.mark.parametrize(
        "edge",
        [
            (0, 1.7, 1.0),  # a fractional id is not truncated to 1
            (0, 1.0, 1.0),  # nor is an integral float taken as an id
            ("0", 1, 1.0),
            (True, 1, 1.0),  # Python's bool is an int, but not an id
            (0, np.float64(1.0), 1.0),
            (0, 1, "2.5"),
            (0, 1, True),
            (0, 1, None),
        ],
    )
    def test_rejects_ids_and_weights_of_other_types(self, edge):
        # the first edge of a triangle replaced by edge
        edges = [edge, (1, 2, 1.0), (2, 0, 1.0)]
        with pytest.raises(SchemaViolationError, match="is not an integer|is not a real number"):
            build_graph([1.0, 1.0, 1.0], edges)

    @pytest.mark.parametrize("measure", ["1.0", True, None])
    def test_rejects_measures_of_other_types(self, measure):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
        with pytest.raises(SchemaViolationError, match="measure .* is not a real number"):
            build_graph([1.0, measure, 1.0], edges)

    def test_reports_the_first_offender(self):
        edges = [(0, 1, 1.0), (1, "2", 1.0), (2, 0.5, 1.0)]
        with pytest.raises(SchemaViolationError, match="vertex id '2' is not an integer"):
            build_graph([1.0, 1.0, 1.0], edges)

    def test_accepts_numpy_scalars(self):
        ids = np.arange(3)
        edges = [(ids[i], ids[(i + 1) % 3], np.float32(0.5) * (i + 1)) for i in range(3)]
        g = build_graph(np.array([1.0, 2.0, 3.0]), edges)
        ref = build_graph([1.0, 2.0, 3.0], [(0, 1, 0.5), (1, 2, 1.0), (2, 0, 1.5)])
        assert g.edge_from.tolist() == ref.edge_from.tolist() == [0, 1, 2]
        assert g.edge_to.tolist() == ref.edge_to.tolist()
        assert g.edge_weight.tolist() == ref.edge_weight.tolist()
        assert g.measure.tolist() == ref.measure.tolist()
        # an integer weight is a real number
        assert build_graph([1, 1], [(0, 1, 2), (1, 0, 2)]).edge_weight.tolist() == [2.0, 2.0]


class TestDegreeSums:
    def test_beta_on_cycle(self):
        g = gen_cycle(4, w=2.5)
        assert g.beta_plus.tolist() == [2.5] * 4
        assert g.beta_minus.tolist() == [2.5] * 4

    def test_beta_matches_weight_matrix(self):
        g = gen_random_circulation(7, 3, seed=11)
        B = g.weight_matrix
        assert np.allclose(g.beta_plus, B.sum(axis=1))
        assert np.allclose(g.beta_minus, B.sum(axis=0))

    def test_weight_matrix_entries(self):
        g = build_graph([1.0, 1.0], [(0, 1, 2.0), (1, 0, 3.0)])
        B = g.weight_matrix
        assert B[0, 1] == 2.0
        assert B[1, 0] == 3.0
        assert B[0, 0] == 0.0


class TestKirchhoff:
    def test_cycle_is_balanced(self):
        report = check_kirchhoff(gen_cycle(5))
        assert report.satisfied
        assert report.max_violation == 0.0
        assert report.violating_vertices == ()

    def test_circulation_generator_is_balanced(self):
        for seed in range(5):
            g = gen_random_circulation(8, 4, seed=seed)
            assert check_kirchhoff(g).satisfied

    def test_unbalanced_graph_detected(self):
        # path-like traffic: 0 -> 1 heavy, 1 -> 0 light
        g = build_graph([1.0, 1.0], [(0, 1, 2.0), (1, 0, 1.0)])
        report = check_kirchhoff(g)
        assert not report.satisfied
        assert report.max_violation == pytest.approx(1.0)
        assert report.violating_vertices == (0, 1)

    def test_tolerance_is_relative_to_scale(self):
        # imbalance of 1e-12 on weights of size ~1e3 is within the default
        g = build_graph([1.0, 1.0], [(0, 1, 1000.0), (1, 0, 1000.0 + 1e-9)])
        assert check_kirchhoff(g).satisfied
        assert not check_kirchhoff(g, tol=1e-12).satisfied

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_and_non_finite_tol(self, tol):
        with pytest.raises(InvalidArgumentError, match="^tol must be finite and >= 0"):
            check_kirchhoff(triangle(), tol=tol)

    def test_report_json_shape(self):
        obj = json.loads(dump_json(check_kirchhoff(triangle())))
        assert obj["satisfied"] is True
        assert set(obj) == {"satisfied", "max_violation", "violating_vertices", "tolerance"}

    def test_potential_vanishes_iff_balanced(self):
        g = gen_random_circulation(6, 3, seed=3)
        assert np.allclose(schrodinger_potential(g), 0.0)
        bad = build_graph([2.0, 1.0], [(0, 1, 3.0), (1, 0, 1.0)])
        q = schrodinger_potential(bad)
        assert q.tolist() == [(3.0 - 1.0) / 2.0, (1.0 - 3.0) / 1.0]


class TestSubsetsAndBoundaries:
    def test_subset_array_sorts_and_dedupes(self):
        g = gen_cycle(5)
        assert subset_array(g, [3, 1, 1]).tolist() == [1, 3]

    def test_subset_array_rejects_empty(self):
        with pytest.raises(EmptySubsetError):
            subset_array(gen_cycle(3), [])

    def test_subset_array_rejects_out_of_range(self):
        with pytest.raises(SchemaViolationError):
            subset_array(gen_cycle(3), [0, 3])

    @pytest.mark.parametrize(
        "omega, member",
        [([1.7, True, "3"], "1.7"), ([True], "True"), (["3"], "'3'"), ([1.0], "1.0"),
         (np.array([True, False]), "np.True_"), (np.array([1.0, 2.0]), "np.float64\\(1.0\\)")],
        ids=["mixed", "bool", "string", "integral-float", "numpy-bool", "numpy-float"],
    )
    def test_subset_members_follow_the_vertex_id_rule(self, omega, member):
        with pytest.raises(SchemaViolationError, match=f"^subset member {member} is not an integer"):
            subset_array(gen_cycle(4), omega)

    def test_subset_members_may_be_numpy_integers(self):
        members = [np.int32(3), np.uint8(1), 2]
        assert subset_array(gen_cycle(4), members).tolist() == [1, 2, 3]
        assert subset_array(gen_cycle(4), np.array([2, 0])).tolist() == [0, 2]

    def test_boundary_on_cycle(self):
        g = gen_cycle(4)
        touched, crossing = boundaries(g, [0, 1])
        assert touched == [0, 1]
        assert sorted(crossing) == [(1, 2, 1.0), (3, 0, 1.0)]

    def test_boundary_counts_both_directions(self):
        g = gen_opposing_cycles(3)
        touched, crossing = boundaries(g, [0])
        assert touched == [0]
        # forward weight 2 and backward weight 1 on each side of vertex 0
        total = sum(w for _, _, w in crossing)
        assert total == pytest.approx(6.0)

    def test_interior_vertex_not_touched(self):
        # 4-cycle with chord edges so {0,1,2} has 1 interior vertex
        g = gen_cycle(4)
        touched, _ = boundaries(g, [0, 1, 2])
        assert touched == [0, 2]


class TestConnectivity:
    def test_cycle_connected_both_senses(self):
        und, strong = connectivity(gen_cycle(6))
        assert und and strong

    def test_disconnected_components(self):
        g = build_graph(
            [1.0] * 4,
            [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
        )
        und, strong = connectivity(g)
        assert not und and not strong

    def test_weakly_but_not_strongly_connected(self):
        # two 3-cycles joined by the single arc 2 -> 3
        g = build_graph(
            [1.0] * 6,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
             (2, 3, 1.0)],
        )
        und, strong = connectivity(g)
        assert und and not strong


def walks(g):
    """(arcs argument, the same steps as (tail, head) pairs) for the
    undirected, forward and backward walks of g."""
    forward = list(zip(g.edge_from.tolist(), g.edge_to.tolist()))
    backward = [(v, u) for u, v in forward]
    return {
        "undirected": (None, forward + backward),
        "forward": ((g.edge_from, g.edge_to), forward),
        "backward": ((g.edge_to, g.edge_from), backward),
    }


def one_way_ladder(blocks):
    """Two-vertex cycles 2j <-> 2j + 1 joined in one direction only by the
    arcs 2j + 1 -> 2j + 2: connected, unbalanced, and not strongly
    connected when there are two blocks or more."""
    edges = [(2 * j, 2 * j + 1, 1.0 + j) for j in range(blocks)]
    edges += [(2 * j + 1, 2 * j, 2.0) for j in range(blocks)]
    edges += [(2 * j + 1, 2 * j + 2, 0.5) for j in range(blocks - 1)]
    return build_graph([1.0] * (2 * blocks), edges)


def disjoint_union(g, h):
    shift = g.n
    return build_graph(
        [*g.measure.tolist(), *h.measure.tolist()],
        [*g.edges(), *((u + shift, v + shift, w) for u, v, w in h.edges())],
    )


class TestHopDistances:
    def check_against_oracle(self, g):
        for name, (arcs, pairs) in walks(g).items():
            for root in range(g.n):
                got = hop_distances(g, root, arcs)
                assert got.dtype == np.int64
                assert got.tolist() == bfs_hops(g.n, pairs, root), (name, root)
        reach = {
            name: [bfs_hops(g.n, pairs, root) for root in range(g.n)]
            for name, (_, pairs) in walks(g).items()
        }
        connected = min(reach["undirected"][0]) >= 0
        strong = all(min(dist) >= 0 for dist in reach["forward"])
        assert connectivity(g) == (connected, strong)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(g=cycle_sums(), other=st.none() | cycle_sums())
    def test_circulations_match_oracle(self, g, other):
        # a second circulation beside the first leaves every walk disconnected
        self.check_against_oracle(g if other is None else disjoint_union(g, other))

    @pytest.mark.parametrize("blocks", [1, 2, 5])
    def test_one_way_ladder_matches_oracle(self, blocks):
        g = one_way_ladder(blocks)
        self.check_against_oracle(g)
        last = g.n - 1
        assert hop_distances(g, 0, (g.edge_from, g.edge_to)).tolist() == list(range(g.n))
        assert hop_distances(g, last, (g.edge_to, g.edge_from)).tolist() == (
            list(range(g.n))[::-1]
        )
        assert connectivity(g) == (True, blocks == 1)


def test_graph_keeps_only_its_fields_and_flows():
    g = gen_random_circulation(12, 6, seed=3)
    verify_graph(g)
    infinity_profile(g, build_filtration(g, 0))
    cheeger_heuristic(g, range(1, 12))
    assert sorted(vars(g)) == sorted(
        ["n", "measure", "edge_from", "edge_to", "edge_weight", "beta_plus", "beta_minus"]
    )
    assert g.weight_matrix is not g.weight_matrix


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        g = gen_random_circulation(9, 4, seed=7)
        g2 = graph_from_json_obj(graph_to_json_obj(g))
        assert g2.n == g.n
        assert np.array_equal(g2.measure, g.measure)
        assert np.array_equal(g2.edge_from, g.edge_from)
        assert np.array_equal(g2.edge_to, g.edge_to)
        assert np.array_equal(g2.edge_weight, g.edge_weight)

    def test_json_obj_shape(self):
        obj = graph_to_json_obj(gen_cycle(3))
        assert set(obj) == {"vertices", "edges"}
        assert obj["vertices"][0] == {"id": 0, "m": 1.0}
        assert obj["edges"][0] == {"from": 0, "to": 1, "b": 1.0}

    def test_ids_must_be_dense(self):
        obj = graph_to_json_obj(gen_cycle(3))
        obj["vertices"][2]["id"] = 5
        with pytest.raises(SchemaViolationError):
            graph_from_json_obj(obj)

    @pytest.mark.parametrize(
        "section, field",
        [("vertices", "id"), ("vertices", "m"), ("edges", "from"), ("edges", "to"), ("edges", "b")],
    )
    def test_rejects_booleans(self, section, field):
        obj = graph_to_json_obj(gen_cycle(3))
        obj[section][1][field] = True
        with pytest.raises(SchemaViolationError):
            graph_from_json_obj(obj)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("vertices", "id", 1.7),
            ("vertices", "id", 1.0),
            ("vertices", "id", "1"),
            ("vertices", "m", "2.5"),
            ("edges", "from", "1"),
            ("edges", "to", 1.9),
            ("edges", "b", "2.5"),
        ],
    )
    def test_rejects_non_json_integers_and_numbers(self, section, field, value):
        # ids are JSON integers, measures and weights JSON numbers; nothing
        # is truncated or parsed from a string
        obj = graph_to_json_obj(gen_cycle(3))
        obj[section][1][field] = value
        with pytest.raises(SchemaViolationError):
            graph_from_json_obj(obj)

    def test_integer_measures_and_weights_are_numbers(self):
        obj = {
            "vertices": [{"id": 0, "m": 1}, {"id": 1, "m": 2.5}],
            "edges": [{"from": 0, "to": 1, "b": 2}, {"from": 1, "to": 0, "b": 2}],
        }
        g = graph_from_json_obj(obj)
        assert g.measure.tolist() == [1.0, 2.5]
        assert g.edge_weight.tolist() == [2.0, 2.0]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        g = gen_random_circulation(6, 3, seed=0)
        save_graph(g, path)
        g2 = load_graph(path)
        assert np.array_equal(g2.edge_weight, g.edge_weight)
        # file ends with a newline and is stable json
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == graph_to_json_obj(g)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputParseError):
            load_graph(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(InputParseError):
            load_graph(tmp_path / "nope.json")

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"vertices": []}))
        with pytest.raises(SchemaViolationError):
            load_graph(path)


# Malformed graph JSON, built from a well-formed object. Each LAST case puts
# one defect in the last entry of its section; each ORDER case puts two, so
# that the check that reaches one first decides what is reported.
V, E = "vertices", "edges"


@lru_cache(maxsize=None)
def _base(name):
    n = {"n9": 9, "n300": 300}[name]
    return graph_to_json_obj(gen_random_circulation(n, 3, seed=3))


def _put(obj, section, index, entry):
    items = list(obj[section])
    items[index] = entry
    return {**obj, section: items}


def _set(obj, section, index, **fields):
    fields = {k.rstrip("_"): v for k, v in fields.items()}  # from_ is "from"
    return _put(obj, section, index, {**obj[section][index], **fields})


def _drop(obj, section, index, key):
    entry = dict(obj[section][index])
    del entry[key]
    return _put(obj, section, index, entry)


def _last_n(o):
    return len(o[V])


def _dup_first(o, index):
    return _set(o, E, index, from_=o[E][0]["from"], to=o[E][0]["to"])


def _reversed(o):
    return {V: o[V][::-1], E: o[E][::-1]}


LAST = [
    ("vertex-not-object", lambda o: _put(o, V, -1, 5)),
    ("vertex-array", lambda o: _put(o, V, -1, [_last_n(o) - 1, 1.0])),
    ("vertex-null", lambda o: _put(o, V, -1, None)),
    ("vertex-no-id", lambda o: _drop(o, V, -1, "id")),
    ("vertex-no-m", lambda o: _drop(o, V, -1, "m")),
    ("vertex-id-bool", lambda o: _set(o, V, -1, id=True)),
    ("vertex-id-float", lambda o: _set(o, V, -1, id=float(_last_n(o) - 1))),
    ("vertex-id-string", lambda o: _set(o, V, -1, id=str(_last_n(o) - 1))),
    ("vertex-m-bool", lambda o: _set(o, V, -1, m=False)),
    ("vertex-m-string", lambda o: _set(o, V, -1, m="1.0")),
    ("vertex-m-null", lambda o: _set(o, V, -1, m=None)),
    ("vertex-id-twice", lambda o: _set(o, V, -1, id=0)),
    ("vertex-id-n", lambda o: _set(o, V, -1, id=_last_n(o))),
    ("vertex-id-negative", lambda o: _set(o, V, -1, id=-1)),
    ("vertex-id-huge", lambda o: _set(o, V, -1, id=10**30)),
    ("vertex-m-zero", lambda o: _set(o, V, -1, m=0)),
    ("vertex-m-negative", lambda o: _set(o, V, -1, m=-0.5)),
    ("vertex-m-inf", lambda o: _set(o, V, -1, m=math.inf)),
    ("vertex-m-nan", lambda o: _set(o, V, -1, m=math.nan)),
    ("vertex-m-huge", lambda o: _set(o, V, -1, m=10**400)),
    ("vertex-m-minus-huge", lambda o: _set(o, V, -1, m=-(10**400))),
    ("edge-not-object", lambda o: _put(o, E, -1, "edge")),
    ("edge-no-from", lambda o: _drop(o, E, -1, "from")),
    ("edge-no-to", lambda o: _drop(o, E, -1, "to")),
    ("edge-no-b", lambda o: _drop(o, E, -1, "b")),
    ("edge-from-bool", lambda o: _set(o, E, -1, from_=False)),
    ("edge-to-float", lambda o: _set(o, E, -1, to=1.0)),
    ("edge-b-string", lambda o: _set(o, E, -1, b="2.5")),
    ("edge-b-bool", lambda o: _set(o, E, -1, b=True)),
    ("edge-b-null", lambda o: _set(o, E, -1, b=None)),
    ("edge-to-n", lambda o: _set(o, E, -1, to=_last_n(o))),
    ("edge-from-negative", lambda o: _set(o, E, -1, from_=-1)),
    ("edge-to-huge", lambda o: _set(o, E, -1, to=10**30)),
    ("edge-self-loop", lambda o: _set(o, E, -1, to=o[E][-1]["from"])),
    ("edge-b-zero", lambda o: _set(o, E, -1, b=0)),
    ("edge-b-negative-zero", lambda o: _set(o, E, -1, b=-0.0)),
    ("edge-b-negative", lambda o: _set(o, E, -1, b=-2)),
    ("edge-b-nan", lambda o: _set(o, E, -1, b=math.nan)),
    ("edge-b-minus-inf", lambda o: _set(o, E, -1, b=-math.inf)),
    ("edge-b-inf", lambda o: _set(o, E, -1, b=math.inf)),
    ("edge-b-huge", lambda o: _set(o, E, -1, b=10**400)),
    ("edge-duplicate", lambda o: _dup_first(o, -1)),
    ("totals-overflow", lambda o: {**o, E: [{**e, "b": 1.5e308} for e in o[E]]}),
    ("no-vertices", lambda o: {**o, V: []}),
    ("no-edges", lambda o: {**o, E: []}),
]

ORDER = [
    ("bad-vertex-then-twice", lambda o: _set(_set(o, V, 0, m="1"), V, -1, id=1)),
    ("twice-then-bad-vertex", lambda o: _set(_set(o, V, 1, id=0), V, -1, m="1")),
    ("twice-then-gap", lambda o: _set(_set(o, V, 1, id=0), V, -1, id=-5)),
    ("bad-vertex-then-bad-edge", lambda o: _set(_set(o, V, -1, m=None), E, 0, b=None)),
    ("gap-then-bad-edge", lambda o: _set(_set(o, V, -1, id=_last_n(o)), E, 0, b=None)),
    ("measure-then-loop", lambda o: _set(_set(o, V, -1, m=0.0), E, 0, to=o[E][0]["from"])),
    ("inf-measure-then-zero", lambda o: _set(_set(o, V, 0, m=math.inf), V, -1, m=0.0)),
    ("huge-measure-then-zero", lambda o: _set(_set(o, V, 0, m=10**400), V, -1, m=0.0)),
    ("huge-weight-then-duplicate", lambda o: _dup_first(_set(o, E, -1, b=10**400), 1)),
    # a malformed later entry sends the reader to its per-entry scan
    ("huge-measure-then-bad-vertex", lambda o: _set(_set(o, V, 0, m=10**400), V, -1, id="x")),
    ("huge-weight-then-bad-edge", lambda o: _set(_set(o, E, 0, b=-(10**400)), E, -1, to=None)),
    ("range-then-bad-edge", lambda o: _set(_set(o, E, 0, to=-3), E, -1, b="x")),
    ("range-then-loop", lambda o: _set(_set(o, E, 0, to=10**30), E, -1, to=o[E][-1]["from"])),
    ("loop-then-range", lambda o: _set(_set(o, E, 0, to=o[E][0]["from"]), E, -1, to=10**30)),
    ("weight-then-range", lambda o: _set(_set(o, E, 0, b=-1.0), E, -1, from_=-10**30)),
    ("loop-with-zero-weight", lambda o: _set(o, E, -1, to=o[E][-1]["from"], b=0.0)),
    ("loop-out-of-range", lambda o: _set(o, E, -1, from_=_last_n(o), to=_last_n(o))),
    ("duplicate-then-weight", lambda o: _set(_dup_first(o, 1), E, -1, b=0)),
    ("duplicate-then-inf", lambda o: _dup_first(_set(o, E, -1, b=math.inf), 1)),
    ("two-duplicates-reversed", lambda o: _reversed(
        _set(_dup_first(o, 1), E, -1, from_=o[E][-2]["from"], to=o[E][-2]["to"]))),
    ("two-inf-reversed", lambda o: _reversed(_set(_set(o, E, 0, b=math.inf), E, -1, b=math.inf))),
]

MALFORMED = dict(LAST + ORDER)

VALID = {
    "reversed": _reversed,
    "int-numbers": lambda o: _set(_set(o, V, -1, m=3), E, -1, b=2**53 + 1),
}


class TestReaderParity:
    """graph_from_json_obj against the one-entry-at-a-time reference: the
    same exception class and message for the same first offending entry,
    and the same arrays on well-formed input."""

    @pytest.mark.parametrize(
        "obj",
        [[], "graph", {V: []}, {V: {}, E: []}, {V: [], E: None}],
    )
    def test_not_a_graph(self, obj):
        with pytest.raises(SchemaViolationError) as got:
            graph_from_json_obj(obj)
        with pytest.raises(SchemaViolationError) as want:
            loop_graph_from_json_obj(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("base", ["n9", "n300"])
    @pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed(self, base, build):
        obj = build(_base(base))
        with pytest.raises(DirlapError) as want:
            loop_graph_from_json_obj(obj)
        with pytest.raises(DirlapError) as got:
            graph_from_json_obj(obj)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("base", ["n9", "n300"])
    @pytest.mark.parametrize("build", VALID.values(), ids=VALID.keys())
    def test_well_formed(self, base, build):
        obj = build(_base(base))
        got, want = graph_from_json_obj(obj), loop_graph_from_json_obj(obj)
        for name in ("measure", "edge_from", "edge_to", "edge_weight"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _writer_graphs():
    tiny = build_graph(
        [5e-324, 0.1, 1e300],
        [(0, 1, 5e-324), (1, 2, 0.1), (2, 0, 1e300), (1, 0, 0.1), (2, 1, 1e300), (0, 2, 2.0)],
    )
    return {
        **dict(corpus()),
        "pi_circulation": pi_circulation(40, 2),
        "circulation300": gen_random_circulation(300, 150, seed=1),
        "extremes": tiny,
    }


class TestWriter:
    @pytest.mark.parametrize("g", _writer_graphs().values(), ids=_writer_graphs().keys())
    def test_text_is_canonical_json(self, tmp_path, g):
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert path.read_text() == dump_json(graph_to_json_obj(g))
        back = load_graph(path)
        assert back.n == g.n
        for field in ("measure", "edge_from", "edge_to", "edge_weight"):
            assert getattr(back, field).tobytes() == getattr(g, field).tobytes()

    def test_empty_arrays_as_json_writes_them(self, tmp_path):
        # no checked graph lacks edges, but the dataclass can be built bare
        empty = np.zeros(0, dtype=np.int64)
        for n in (0, 1):
            g = DirectedGraph(n=n, measure=np.ones(n), edge_from=empty, edge_to=empty,
                              edge_weight=np.zeros(0))
            save_graph(g, tmp_path / "g.json")
            assert (tmp_path / "g.json").read_text() == dump_json(graph_to_json_obj(g))


class TestWriteFailures:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=["022", "027", "077"])
    def test_file_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "g.json"
        path.write_text("")
        os.chmod(path, 0o644)
        old = os.umask(umask)
        try:
            save_graph(triangle(), tmp_path / "new.json")
            save_graph(triangle(), path)
        finally:
            os.umask(old)
        for written in (tmp_path / "new.json", path):
            assert written.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("target", ["directory", "missing/g.json"])
    def test_unwritable_path_is_an_invalid_argument(self, tmp_path, target):
        work = tmp_path / "work"
        (work / "directory").mkdir(parents=True)
        path = work / target
        with pytest.raises(InvalidArgumentError, match="cannot write") as exc:
            save_graph(triangle(), path)
        assert str(path) in str(exc.value)
        # the temp file is removed
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory", "work"]


def test_dataclass_is_frozen():
    g = triangle()
    with pytest.raises(AttributeError):
        g.n = 7


def test_edges_iterator_matches_arrays():
    g = gen_random_circulation(5, 2, seed=9)
    listed = list(g.edges())
    assert listed == list(
        zip(g.edge_from.tolist(), g.edge_to.tolist(), g.edge_weight.tolist())
    )


def test_measure_defaults_are_preserved():
    g = gen_cycle(3)
    assert math.isclose(float(g.measure.sum()), 3.0)
    assert isinstance(g, DirectedGraph)


def test_disconnected_error_is_importable():
    assert issubclass(DisconnectedError, Exception)
