import copy
import json
import pickle

import numpy as np
import pytest
from _graphgen import (hypercube, random_labeled_graph, random_properly_colored_graph,
                       reference_bfs_path, reference_validate_proper_coloring)

from hqw import graphs
from _reference import adjacency, validate_regular
from hqw.graphs import (Edge, LabeledGraph, NotRegularError, bfs_path, load_json, path_colors, save_json,
                        subgraph_adjacency, validate_proper_coloring)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_circle2_blocks():
    g = graphs.circle2(2, 3)
    np.testing.assert_allclose(subgraph_adjacency(g, "0"), 2 * X)
    np.testing.assert_allclose(subgraph_adjacency(g, "1"), 3 * X)


def test_unused_label_gives_zero_block():
    g = graphs.star(4)
    np.testing.assert_allclose(subgraph_adjacency(g, "0"), np.zeros((4, 4)))


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown label"):
        subgraph_adjacency(graphs.star(4), "7")


def test_fock_ladder_weights():
    g = graphs.fock_g0(3, 1.0)
    np.testing.assert_allclose(np.diag(subgraph_adjacency(g, "0")).real, [0.0, 0.5, 1.0, 1.5])
    g2 = graphs.fock_g0(2, 1.0)
    np.testing.assert_allclose(np.diag(subgraph_adjacency(g2, "0")).real, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(np.diag(subgraph_adjacency(g2, "1")).real, [0.0, -0.5, -1.0])


def test_two_mode_ladder_weights():
    g = graphs.fock_g0p(1)
    # vertices (n,m) in row-major order: (0,0),(0,1),(1,0),(1,1)
    np.testing.assert_allclose(np.diag(subgraph_adjacency(g, "0")).real, [0.5, 1.0, 1.0, 1.5])
    np.testing.assert_allclose(
        subgraph_adjacency(g, "0") + subgraph_adjacency(g, "1"), np.zeros((4, 4)))


def test_line3_label_cycle():
    g = graphs.line3(2)
    got = {(e.u, e.v): e.label for e in g.edges}
    assert got == {(0, 1): "0", (1, 2): "1", (2, 3): "2", (3, 4): "0"}


def test_line_builders_properly_colored():
    for g in (graphs.line2(5), graphs.line3(5), graphs.segment_line(6), graphs.star(7)):
        assert validate_proper_coloring(g).proper


def test_triangle_single_label_improper():
    g = LabeledGraph(3, (Edge(0, 1, "0"), Edge(1, 2, "0"), Edge(0, 2, "0")), ("0",))
    report = validate_proper_coloring(g)
    assert not report.proper
    assert {v for v, *_ in report.violations} == {0, 1, 2}


def test_validate_regular():
    assert validate_regular(graphs.cycle(4)) == 2
    assert validate_regular(graphs.cubic8()) == 3
    assert validate_regular(graphs.complete(4)) == 3
    with pytest.raises(NotRegularError) as err:
        validate_regular(graphs.star(10))
    assert err.value.degrees[0] == 9
    assert err.value.degrees[1:] == [1] * 9


def test_path_colors():
    assert path_colors(graphs.line3(2), [0, 1, 2, 3]) == ("0", "1", "2")
    assert path_colors(graphs.segment_line(2), [0, 1]) == ("b",)
    # first segment is blue so the transfer protocol (initial blue coin,
    # identity first coin) moves on step one
    assert path_colors(graphs.segment_line(3), [0, 1, 2]) == ("b", "r")
    with pytest.raises(ValueError, match="not adjacent"):
        path_colors(graphs.line2(2), [0, 2])
    with pytest.raises(ValueError, match="ambiguous"):
        path_colors(graphs.circle2(1, 2), [0, 1])
    for far in (99, -1, 10**30):  # not vertices, so not adjacent
        with pytest.raises(ValueError, match="not adjacent"):
            path_colors(graphs.line2(2), [0, far])


def test_bfs_path():
    assert bfs_path(graphs.line2(3), 0, 6) == (0, 1, 2, 3, 4, 5, 6)
    two_parts = LabeledGraph(4, (Edge(0, 1, "0"), Edge(2, 3, "0")), ("0",))
    with pytest.raises(ValueError, match="not connected"):
        bfs_path(two_parts, 0, 3)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_bfs_path_matches_the_per_edge_reference():
    rng = np.random.default_rng(41)
    cases = [random_properly_colored_graph(rng, max_n=16) for _ in range(15)]
    cases += [random_labeled_graph(rng) for _ in range(30)]  # loops, parallel edges, disconnected
    for g in cases:
        for s in range(g.n):
            for t in range(g.n):
                assert _outcome(bfs_path, g, s, t) == _outcome(reference_bfs_path, g, s, t), (g, s, t)
    for d in range(2, 9):
        g = hypercube(d)
        sources = range(g.n) if d <= 4 else [0, g.n - 1, *rng.integers(g.n, size=2).tolist()]
        for s in sources:
            targets = range(g.n) if d <= 5 else [s ^ (g.n - 1), *rng.integers(g.n, size=6).tolist()]
            for t in targets:
                assert bfs_path(g, s, t) == reference_bfs_path(g, s, t), (d, s, t)


def test_coloring_violations_match_the_per_edge_reference():
    rng = np.random.default_rng(43)
    improper = 0
    for _ in range(300):
        g = random_labeled_graph(rng)
        report = validate_proper_coloring(g)
        assert report == reference_validate_proper_coloring(g), g  # order included
        improper += not report.proper
    assert improper > 150


def test_label_partition_recovers_adjacency():
    for g in (graphs.line3(4), graphs.star(6), graphs.cycle(5)):
        total = sum(subgraph_adjacency(g, lab) for lab in g.labels)
        np.testing.assert_allclose(total, adjacency(g), atol=1e-14)


def test_matching_blocks_square_to_diagonal():
    rng = np.random.default_rng(2)
    from _graphgen import random_properly_colored_graph
    for _ in range(10):
        g = random_properly_colored_graph(rng)
        for lab in g.labels:
            S = subgraph_adjacency(g, lab)
            sq = S @ S
            off = sq - np.diag(np.diag(sq))
            assert np.abs(off).max(initial=0.0) < 1e-12
            diag = np.diag(sq).real
            assert np.all((np.abs(diag) < 1e-12) | (np.abs(diag - 1.0) < 1e-12))


def test_builder_param_validation():
    with pytest.raises(ValueError):
        graphs.star(1)
    with pytest.raises(ValueError):
        graphs.line2(0)
    with pytest.raises(ValueError):
        graphs.segment_line(1)
    with pytest.raises(ValueError, match="unknown graph family"):
        graphs.build("moebius", 4)


@pytest.mark.parametrize("family, size, message", [
    ("star", 4097, "a state of 4097 labels x 4097 vertices is over the limit of 16777216 amplitudes"),
    ("line2", 2**22, "a state of 2 labels x 8388609 vertices"),
    ("line3", 2796203, "a state of 3 labels x 5592407 vertices"),
    ("segment_line", 2**23 + 1, "a state of 2 labels x 8388609 vertices"),
    ("fock_g0", 2**23, "a state of 2 labels x 8388609 vertices"),
    ("fock_g0p", 2896, "a state of 2 labels x 8392609 vertices"),
    ("cycle", 2**24 + 1, "a state of 1 labels x 16777217 vertices"),
    ("complete", 5794, "a graph of 16782321 edges is over the limit of 16777216 edges"),
])
def test_a_builder_over_the_limit_raises_before_its_first_edge(monkeypatch, family, size, message):
    class NoColumns:  # a builder's edges are numpy columns: its first use of numpy makes one
        def __getattr__(self, name):
            raise AssertionError("an edge column was made")

    monkeypatch.setattr(graphs, "np", NoColumns())
    with pytest.raises(ValueError, match=message):
        graphs.build(family, size)
    with pytest.raises(AssertionError, match="an edge column was made"):  # one size smaller is at the limit
        graphs.build(family, size - 1)


def test_graph_validation():
    with pytest.raises(ValueError, match="outside"):
        LabeledGraph(3, (Edge(0, 5, "0"),), ("0",))
    with pytest.raises(ValueError, match="unknown label"):
        LabeledGraph(3, (Edge(0, 1, "9"),), ("0",))
    with pytest.raises(ValueError, match="duplicate"):
        LabeledGraph(3, (Edge(0, 1, "0"), Edge(1, 0, "0")), ("0",))


# one bad edge of each kind for a 4-vertex graph over labels a, b holding Edge(0, 1, "a")
BAD_EDGES = {
    "outside": (Edge(0, 7, "a"), "edge Edge(u=0, v=7, label='a', weight=1.0) has endpoint outside 0..3"),
    "beyond-int64": (Edge(2**70, 1, "b"),
                     "edge Edge(u=1180591620717411303424, v=1, label='b', weight=1.0) has endpoint outside 0..3"),
    "unknown": (Edge(1, 2, "z"), "edge Edge(u=1, v=2, label='z', weight=1.0) uses unknown label 'z'"),
    "non-finite": (Edge(2, 3, "a", float("inf")), "edge Edge(u=2, v=3, label='a', weight=inf) has a non-finite weight"),
    "duplicate": (Edge(1, 0, "a"), "duplicate edge for pair (0, 1) under label 'a'"),
    "float": (Edge(0.5, 1, "a"), "edge Edge(u=0.5, v=1, label='a', weight=1.0) has non-integer endpoints"),
    "bool": (Edge(3, True, "b"), "edge Edge(u=3, v=True, label='b', weight=1.0) has non-integer endpoints"),
}


@pytest.mark.parametrize("first, second", [(a, b) for a in BAD_EDGES for b in BAD_EDGES if a != b])
def test_graph_validation_names_the_first_of_two_bad_edges(first, second):
    edges = (Edge(0, 1, "a"), Edge(2, 3, "b"), BAD_EDGES[first][0], Edge(0, 3, "b"), BAD_EDGES[second][0])
    with pytest.raises(ValueError) as exc:
        LabeledGraph(4, edges, ("a", "b"))
    assert str(exc.value) == BAD_EDGES[first][1]


def test_graph_validation_checks_an_edge_in_order():
    # outside before unknown label before non-finite weight
    with pytest.raises(ValueError, match="outside"):
        LabeledGraph(4, (Edge(0, 9, "z", float("nan")),), ("a",))
    with pytest.raises(ValueError, match="unknown label"):
        LabeledGraph(4, (Edge(0, 1, "z", float("nan")),), ("a",))


def test_non_integer_endpoints_are_refused():
    # floats were truncated to vertices the edges do not name, bools read as 0 and 1
    for edges, text in (((Edge(0.5, 1, "a"), Edge(1, 2.9, "a")), "Edge(u=0.5, v=1"),
                        ((Edge(0, 1, "a"), Edge(1, 2.9, "a")), "Edge(u=1, v=2.9"),
                        ((Edge(True, 2, "a"),), "Edge(u=True, v=2"),
                        ((Edge(0, np.bool_(True), "a"),), "Edge(u=0, v="),  # repr varies by numpy version
                        ((Edge(0, "1", "a"),), "Edge(u=0, v='1'"),
                        ((Edge(0, 2.0, "a"),), "Edge(u=0, v=2.0")):
        with pytest.raises(ValueError, match="non-integer endpoints") as exc:
            LabeledGraph(3, edges, ("a",))
        assert str(exc.value).startswith(f"edge {text}")
    # numpy integers are integers
    g = LabeledGraph(3, (Edge(np.int64(0), np.int32(2), "a"), Edge(1, np.uint8(2), "b")), ("a", "b"))
    assert g.u.tolist() == [0, 1] and g.v.tolist() == [2, 2] and g.u.dtype == np.int64
    assert LabeledGraph(3, (), ("a",)).u.dtype == np.int64
    # so is the vertex count
    for n in (2.5, True, "3"):
        with pytest.raises(ValueError, match="integer vertex count"):
            LabeledGraph(n, (), ("a",))
    assert LabeledGraph(np.int64(3), (), ("a",)).n == 3


def test_vertex_count_beyond_int64_is_refused():
    with pytest.raises(ValueError, match="beyond the int64 range"):
        LabeledGraph(2**70, (Edge(0, 1, "0"),), ("0",))


def test_edge_columns():
    g = graphs.fock_g0(2)
    np.testing.assert_array_equal(g.u, [e.u for e in g.edges])
    np.testing.assert_array_equal(g.c, [g.labels.index(e.label) for e in g.edges])
    np.testing.assert_array_equal(g.w, [e.weight for e in g.edges])
    with pytest.raises(ValueError, match="read-only"):
        g.w[0] = 2.0


def test_json_schema_instance():
    g = load_json('{"n":2,"labels":["0","1"],"edges":[[0,1,"0",1.0],[0,1,"1",2.0]]}')
    ref = graphs.circle2(1, 2)
    assert g == ref


def test_load_json_restores_the_callers_gc_state():
    import gc

    enabled = gc.isenabled()
    try:
        for state in (True, False):
            gc.enable() if state else gc.disable()
            assert load_json('{"n":2,"labels":["a"],"edges":[[0,1,"a"]]}').n == 2
            assert gc.isenabled() is state
            for bad in ('{"n":2,"labels":["a"],"edges":[[0,1,"b"]]}', '{"n":2,', '[1]',
                        '{"n":2,"labels":["a"],"edges":[[0]]}'):
                with pytest.raises(ValueError):
                    load_json(bad)
                assert gc.isenabled() is state, bad
    finally:
        gc.enable() if enabled else gc.disable()


def test_json_weight_defaults_to_one():
    g = load_json('{"n":2,"labels":["a"],"edges":[[0,1,"a"]]}')
    assert g.edges[0].weight == 1.0


def test_json_round_trip_star():
    g = graphs.star(10)
    assert load_json(save_json(g)) == g


def test_json_round_trip_preserves_weights_bit_exact():
    w = 0.1 + 0.7  # not exactly representable sum
    g = LabeledGraph(2, (Edge(0, 1, "0", w),), ("0",))
    assert load_json(save_json(g)).edges[0].weight == w


BUILDER_PARAMS = {"circle2": (1.5, -2.0), "star": (5,), "line2": (3,), "line3": (4,), "segment_line": (5,),
                  "fock_g0": (3, 0.5), "fock_g0p": (2,), "cycle": (5,), "complete": (5,), "cubic8": ()}


def test_every_graph_equals_its_tuple_and_json_round_trips():
    assert set(BUILDER_PARAMS) == set(graphs.BUILDERS)
    rng = np.random.default_rng(47)
    cases = [graphs.build(family, *args) for family, args in BUILDER_PARAMS.items()]
    cases += [graphs.fock_g0(3, 2), graphs.fock_g0(2, -1.5), hypercube(4)]
    cases += [random_properly_colored_graph(rng) for _ in range(10)] + [random_labeled_graph(rng) for _ in range(30)]
    for g in cases:
        again = LabeledGraph(g.n, g.edges, g.labels)
        assert again == g, g
        for k in "uvcw":
            a, b = getattr(again, k), getattr(g, k)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g, k)  # bit for bit, -0.0 included
        assert load_json(save_json(g)) == g, g
    assert graphs.cycle(5) != graphs.cycle(6) and graphs.line2(3) != graphs.segment_line(7)
    assert graphs.star(5) != LabeledGraph(5, graphs.star(5).edges[1:], graphs.star(5).labels)


def test_a_graph_is_read_only():
    g = graphs.star(4)
    for name, value in [("n", 5), ("labels", ("a",)), ("u", g.v), ("w", np.zeros(3))]:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(g, name, value)
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del g.n
    with pytest.raises(ValueError, match="read-only"):
        g.u[0] = 2
    assert g == graphs.star(4) and repr(g) == "LabeledGraph(n=4, labels=('0', '1', '2', '3'), 3 edges)"
    for again in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert again == g and not again.u.flags.writeable


def test_a_loaded_graph_holds_its_columns_and_not_its_records():
    import gc
    import tracemalloc

    d, n = 12, 1 << 12  # Q12: 24,576 edges
    text = json.dumps({"n": n, "labels": [str(b) for b in range(d)],
                       "edges": [[v, v ^ (1 << b), str(b)] for v in range(n) for b in range(d) if v < v ^ (1 << b)]})
    tracemalloc.start()
    try:
        g = load_json(text)
        del text
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(g.u) == 24576 and held < 1.5 * 2**20, held  # the four columns are 0.75 MiB


# one malformed record of each kind, and the message that names it among well-formed records; the first
# record error wins over every graph error (range, label, weight, duplicate), and the first graph error next
GOOD_RECORDS = [[0, 1, "a"], [1, 2, "b", 2.5], [2, 3, "a", 1]]
BAD_RECORDS = {
    "non-list": ("x", "edge record 'x' is not [u, v, label] or [u, v, label, weight]"),
    "length": ([0, 1], "edge record [0, 1] is not [u, v, label] or [u, v, label, weight]"),
    "float": ([0.5, 1, "a"], "edge record [0.5, 1, 'a'] has non-integer endpoints"),
    "bool": ([0, True, "b"], "edge record [0, True, 'b'] has non-integer endpoints"),
    "label": ([0, 1, 2], "edge record [0, 1, 2] has a non-string label"),
    "weight": ([0, 1, "a", "1"], "edge record [0, 1, 'a', '1'] has a non-numeric weight"),
    "overflow": ([0, 3, "b", 10**309], f"edge record [0, 3, 'b', {10**309}] has a weight beyond the float range"),
}
BAD_EDGE_RECORDS = {
    "outside": ([0, 9, "a"], "edge Edge(u=0, v=9, label='a', weight=1.0) has endpoint outside 0..3"),
    "beyond-int64": ([1, 2**70, "b", 3],
                     "edge Edge(u=1, v=1180591620717411303424, label='b', weight=3.0) has endpoint outside 0..3"),
    "unknown": ([1, 3, "z"], "edge Edge(u=1, v=3, label='z', weight=1.0) uses unknown label 'z'"),
    "non-finite": ([0, 2, "b", float("inf")], "edge Edge(u=0, v=2, label='b', weight=inf) has a non-finite weight"),
    "duplicate": ([3, 2, "a", 4.0], "duplicate edge for pair (2, 3) under label 'a'"),
}


def _load_error(records) -> str:
    with pytest.raises(ValueError) as exc:
        load_json(json.dumps({"n": 4, "labels": ["a", "b"], "edges": GOOD_RECORDS + records}))
    return str(exc.value)


@pytest.mark.parametrize("kind", [*BAD_RECORDS, *BAD_EDGE_RECORDS])
def test_load_json_names_a_bad_record_after_good_ones(kind):
    record, message = {**BAD_RECORDS, **BAD_EDGE_RECORDS}[kind]
    assert _load_error([record]) == message
    assert _load_error([record, [0, 3, "b"]]) == message


def test_load_json_names_the_first_record_error_then_the_first_edge_error():
    bad = {**BAD_RECORDS, **BAD_EDGE_RECORDS}
    for first, second in ((a, b) for a in bad for b in bad if a != b):
        winner = first if first in BAD_RECORDS or second in BAD_EDGE_RECORDS else second
        assert _load_error([bad[first][0], [0, 3, "b"], bad[second][0]]) == bad[winner][1], (first, second)


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError, match="malformed"):
        load_json("{nope")
    with pytest.raises(ValueError, match="missing key"):
        load_json('{"n": 3}')
    with pytest.raises(ValueError, match="outside"):
        load_json('{"n":3,"labels":["0"],"edges":[[0,5,"0",1.0]]}')
    with pytest.raises(ValueError, match="duplicate"):
        load_json('{"n":3,"labels":["0"],"edges":[[0,1,"0"],[1,0,"0"]]}')
    with pytest.raises(ValueError, match="non-integer"):
        load_json('{"n":3,"labels":["0"],"edges":[[0.5,1,"0"]]}')
    with pytest.raises(ValueError, match='"n" must be'):
        load_json(json.dumps({"n": "three", "labels": [], "edges": []}))


def test_cubic8_structure():
    g = graphs.cubic8()
    assert validate_regular(g) == 3
    A = adjacency(g).real
    assert A[0, 1] == A[0, 2] == A[1, 2] == 1  # the single triangle at vertex 0


def test_signed_coords():
    np.testing.assert_allclose(graphs.signed_coords(5), [-2, -1, 0, 1, 2])
