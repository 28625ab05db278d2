import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import adjacency, compose, corpus_graphs, cycle_graph, mkgraph, prepend_gather
from wck.errors import GraphError
from wck.graphs import Edge, Graph, Path, load_graph

CORPUS = corpus_graphs()


def brute_force_walks(g, k):
    """Independent path count: all edge k-tuples that concatenate in walk order."""
    if k == 0:
        return g.n_vertices
    count = 0
    for combo in itertools.product(range(g.n_edges), repeat=k):
        if all(g.edst[combo[i]] == g.esrc[combo[i + 1]] for i in range(k - 1)):
            count += 1
    return count


def warshall_reach(g):
    n = g.n_vertices
    reach = [[False] * n for _ in range(n)]
    for ei in range(g.n_edges):
        reach[g.esrc[ei]][g.edst[ei]] = True
    for m in range(n):
        for u in range(n):
            for w in range(n):
                reach[u][w] = reach[u][w] or (reach[u][m] and reach[m][w])
    return reach


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(min_value=1, max_value=4))
    ne = draw(st.integers(min_value=1, max_value=6))
    vs = ["v%d" % i for i in range(nv)]
    es = []
    for j in range(ne):
        s = draw(st.integers(min_value=0, max_value=nv - 1))
        r = draw(st.integers(min_value=0, max_value=nv - 1))
        es.append(("e%d" % j, vs[s], vs[r]))
    return mkgraph(vs, es)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_path_counts_match_adjacency_powers(name):
    g = CORPUS[name]
    a = adjacency(g)
    power = np.eye(g.n_vertices, dtype=np.int64)
    for k in range(9):
        assert len(g.paths(k)) == int(power.sum()), (name, k)
        assert g.level_dim(k) == len(g.paths(k)), (name, k)
        power = a @ power


def test_level_dim_is_exact_and_builds_no_path():
    g = corpus_graphs()["O2"]
    assert g.level_dim(9) == 512
    assert not g._paths and not g._levels
    # prepend and path_index read the level arrays, not the Path lists
    assert g.prepend(4, g.parse_path("e.f")).tolist() == list(range(32, 48))
    assert g.path_index(g.parse_path("e.f.e")) == 2
    assert not g._paths
    # past the int64 range: the counts are Python ints
    assert g.level_dim(70) == 2 ** 70
    with pytest.raises(GraphError):
        g.level_dim(-1)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_path_counts_match_brute_force(g):
    for k in range(4):
        assert len(g.paths(k)) == brute_force_walks(g, k)
        assert g.level_dim(k) == len(g.paths(k))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_transitive_matches_warshall(g):
    reach = warshall_reach(g)
    expected = all(
        reach[u][w]
        for u in range(g.n_vertices)
        for w in range(g.n_vertices)
        if u != w
    )
    assert g.validate().transitive == expected


def test_o2_paths_and_xi():
    g = CORPUS["O2"]
    assert len(g.paths(3)) == 8
    first = g.paths(3)[0]
    assert [g.edges[i].name for i in first.edges] == ["e", "e", "e"]
    assert g.path_str(g.xi(0, 2, "min")) == "e.e"
    assert g.path_str(g.xi(0, 2, "max")) == "f.f"
    assert g.xi(0, 0).edges == ()


def test_paths_level_zero_are_vertices(g2):
    ps = g2.paths(0)
    assert [p.source for p in ps] == [0, 1]
    assert all(len(p) == 0 for p in ps)


def test_shape_reports():
    c3 = CORPUS["C3"].validate()
    assert c3.as_dict() == {
        "no_sources": True,
        "no_sinks": True,
        "transitive": True,
        "is_cycle": True,
    }
    o2 = CORPUS["O2"].validate()
    assert o2.transitive and not o2.is_cycle
    assert o2.no_sources and o2.no_sinks
    g2 = CORPUS["G2"].validate()
    assert g2.no_sources and g2.no_sinks
    assert not g2.transitive and not g2.is_cycle
    chord = CORPUS["C3chord"].validate()
    assert chord.transitive and not chord.is_cycle
    assert not CORPUS["chain13"].validate().transitive
    assert CORPUS["theta"].validate().transitive
    # two disjoint loops: degree profile of a cycle but not connected
    two = mkgraph(["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v2", "v2")])
    assert not two.validate().is_cycle


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cycle_unique_path_per_level_and_source(k):
    g = cycle_graph(k)
    for n in range(7):
        ps = g.paths(n)
        assert len(ps) == k
        assert sorted(p.source for p in ps) == list(range(k))


def test_walk_order_serialization(c3):
    p = [q for q in c3.paths(2) if q.source == 0][0]
    assert c3.path_str(p) == "e1.e2"
    back = c3.parse_path("e1.e2")
    assert back == p
    with pytest.raises(GraphError):
        c3.parse_path("e1.e1")
    with pytest.raises(GraphError):
        c3.parse_path("e1.nope")


@pytest.mark.parametrize(
    "path",
    [
        Path((0,), 2),
        Path((1, 0), 1),
        Path((0, 0), 0),
        Path((3,), 0),
        Path((-1,), 0),
        Path((), 3),
    ],
    ids=[
        "wrong_source",
        "wrong_source_length_2",
        "broken_concatenation",
        "unknown_edge",
        "negative_edge",
        "unknown_vertex",
    ],
)
def test_path_index_rejects_paths_not_in_graph(c3, path):
    with pytest.raises(GraphError):
        c3.path_index(path)


@pytest.mark.parametrize(
    "call, path",
    [
        ("prepend", Path((0, 0), 0)),
        ("prepend", Path((1,), 0)),
        ("prepend_rank", Path((-1,), 0)),
    ],
    ids=["broken_concatenation", "wrong_source", "negative_edge"],
)
def test_prepend_rejects_prefixes_not_in_graph(call, path):
    """A prefix that is not a path raises, even after its edges were cached.

    Every edge is gathered at its own source first, so a cached shift
    cannot vouch for the same edges at a wrong source.
    """
    g = corpus_graphs()["C3"]
    for p in g.paths(1):
        g.prepend(2, p)
    with pytest.raises(GraphError, match="path not in graph"):
        getattr(g, call)(2, path)


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_path_str_round_trip(g, k):
    for p in g.paths(k)[:20]:
        if len(p) == 0:
            continue
        assert g.parse_path(g.path_str(p)) == p
        assert g.path_index(p) == g.paths(k).index(p)


def test_loader_and_errors():
    doc = {
        "vertices": ["v1", "v2"],
        "edges": [{"name": "a", "src": "v1", "dst": "v2"}],
    }
    g = load_graph(json.dumps(doc))
    assert g.n_vertices == 2 and g.n_edges == 1
    assert g.vertices == ["v1", "v2"]
    assert g.edges == [Edge("a", "v1", "v2")]
    with pytest.raises(GraphError):
        load_graph("not json")
    with pytest.raises(GraphError):
        load_graph(json.dumps({"vertices": ["v"]}))
    with pytest.raises(GraphError):
        load_graph(
            json.dumps(
                {
                    "vertices": ["v"],
                    "edges": [{"name": "a", "src": "v", "dst": "w"}],
                }
            )
        )
    with pytest.raises(GraphError):
        Graph(["v", "v"], [])
    with pytest.raises(GraphError):
        load_graph(
            json.dumps(
                {
                    "vertices": ["v"],
                    "edges": [
                        {"name": "a", "src": "v", "dst": "v"},
                        {"name": "a", "src": "v", "dst": "v"},
                    ],
                }
            )
        )


def test_xi_requires_extendable_path():
    sink = mkgraph(["v1", "v2"], [("a", "v1", "v2")])
    with pytest.raises(GraphError):
        sink.xi(1, 1)


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": ["v"], "edges": [{"name": 5, "src": "v", "dst": "v"}]},
        {"vertices": ["v"], "edges": 5},
    ],
    ids=["integer_edge_name", "edges_not_a_list"],
)
def test_load_graph_malformed_edges_raise_graph_error(doc):
    with pytest.raises(GraphError):
        load_graph(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_path_index_primitive_matches_composition(name):
    """ending_at, starting_at and prepend against the slow path filters.

    prepend(k, prefix) lists prefix*b for b ending at s(prefix), found
    by composing and looking up, for prefixes of length 0-3 (length 0
    gives all of ending_at) and levels 0-6.
    """
    g = CORPUS[name]
    for k in range(7):
        ps = g.paths(k)
        for v in range(g.n_vertices):
            expect = [i for i, b in enumerate(ps) if g.range_of(b) == v]
            assert g.ending_at(k, v).tolist() == expect
            expect = [i for i, b in enumerate(ps) if g.source_of(b) == v]
            assert g.starting_at(k, v).tolist() == expect
        for m in range(4):
            where = {p: i for i, p in enumerate(g.paths(k + m))}
            for prefix in g.paths(m):
                expect = [
                    where[compose(g, prefix, b)]
                    for b in ps
                    if g.range_of(b) == g.source_of(prefix)
                ]
                assert g.prepend(k, prefix).tolist() == expect


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_prepend_rank_is_the_shift_of_prepend_index(name):
    """prefix*b sits at prepend_rank + rank(b) among the paths ending at r(prefix).

    Against the full-level prefix gather that prepend_rank replaced, now
    the dict-built test oracle prepend_gather: its entries on ending_at,
    searchsorted into the image, for prefixes of length 0-3 and levels
    0-6.
    """
    g = CORPUS[name]
    for length in range(4):
        for a in g.paths(length):
            for k in range(7):
                image = g.ending_at(k + length, g.range_of(a))
                index = prepend_gather(g, k, a)[g.ending_at(k, a.source)]
                got = np.searchsorted(image, index)
                assert np.array_equal(image[got], index)
                assert np.array_equal(got, g.prepend_rank(k, a) + np.arange(len(index)))
    with pytest.raises(GraphError):
        g.prepend_rank(-1, g.paths(1)[0])
