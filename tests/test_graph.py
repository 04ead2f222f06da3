import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit import (
    Graph,
    InputError,
    ball,
    induced_subgraph,
    is_connected_excluding,
)
from coverkit.graph import edge_key

from .oracles import adjacency_of, connected_after_removal, is_three_connected, z2_ball


def k4():
    return Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])


def cycle_graph(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(InputError):
            Graph(range(2), [(0, 0)])

    def test_rejects_unknown_endpoints(self):
        with pytest.raises(InputError):
            Graph(range(2), [(0, 5)])

    def test_a_float_edge_end_is_refused(self):
        # 1.0 == 1, so it would pass as a known vertex and be stored as a
        # neighbour that to_json_dict writes and from_json_dict refuses
        with pytest.raises(InputError, match=r"^vertex ids must be integers, got 1\.0$"):
            Graph([0, 1, 2], [(0, 1.0), (1, 2)])

    def test_a_float_vertex_is_refused_not_truncated(self):
        # int() would read 1.5 as vertex 1
        with pytest.raises(InputError, match=r"^vertex ids must be integers, got 1\.5$"):
            Graph([0, 1.5, 2], [])

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(range(3), [(2, 0), (1, 2)])
        assert g.neighbors(2) == (0, 1)
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_json_round_trip(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert Graph.from_json_dict(g.to_json_dict()) == g


class TestTrustedGraph:
    """A Graph is its sorted adjacency and keeps no edge set; every answer
    of Graph._trusted is that of the validating Graph(vertices, edges)."""

    @pytest.mark.parametrize("seed", range(16))
    def test_trusted_and_validated_graphs_agree(self, seed):
        rng = random.Random(seed)
        vs = rng.sample(range(-4, 40), rng.randint(1, 14))  # ids need not be dense
        pairs = [(a, b) for a in vs for b in vs if a < b]
        es = rng.sample(pairs, rng.randint(0, len(pairs)))
        validated = Graph(vs, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in es])
        adj = {v: [] for v in vs}
        for a, b in es:
            adj[a].append(b)
            adj[b].append(a)
        trusted = Graph._trusted(adj)
        assert Graph.__slots__ == ("_vertices", "_adj", "_face_memos", "components")  # no edge set is kept
        assert trusted.components == validated.components == len({frozenset(validated.distances_from(v)) for v in vs})
        assert trusted.sorted_edges() == sorted(es)
        probes = [*vs, min(vs) - 1, max(vs) + 1, 1000]  # and ids that are not vertices
        edges = set(es)
        for u in probes:
            for w in probes:  # u == w included
                assert trusted.has_edge(u, w) == validated.has_edge(u, w) == (edge_key(u, w) in edges)
        assert trusted == validated and validated == trusted
        assert repr(trusted) == repr(validated) == f"Graph(n={len(vs)}, m={len(es)})"
        assert hash(trusted) == hash(validated)
        assert trusted.edges == validated.edges == edges
        assert len(trusted.edges) == len(es)
        assert trusted.sorted_edges() == validated.sorted_edges() == sorted(edges)
        if es:
            assert trusted != Graph(vs, es[1:])


class TestBall:
    def test_radius_zero_is_root(self, patch44_r6):
        b = ball(patch44_r6.graph, patch44_r6.root, 0)
        assert b.graph.vertices == (patch44_r6.root,)
        assert not b.graph.edges

    def test_radius_one_is_a_star(self, patch44_r6):
        b = ball(patch44_r6.graph, patch44_r6.root, 1)
        assert b.n == 5
        assert len(b.graph.edges) == 4  # neighbours of a lattice vertex are non-adjacent

    def test_radius_two_matches_lattice_oracle(self, patch44_r6):
        verts, edges, _ = z2_ball(2)
        b = ball(patch44_r6.graph, patch44_r6.root, 2)
        assert b.n == len(verts) == 13
        assert len(b.graph.edges) == len(edges)

    def test_unknown_root_rejected(self, patch44_r6):
        with pytest.raises(InputError):
            ball(patch44_r6.graph, 10**9, 1)

    def test_ball_growth_and_saturation(self):
        g = path_graph(5)
        sizes = [ball(g, 0, i).n for i in range(7)]
        assert sizes == sorted(sizes)
        assert sizes[4] == sizes[5] == sizes[6] == 5

    def test_nesting_exact(self, patch44_r6):
        b3 = ball(patch44_r6.graph, patch44_r6.root, 3)
        b2 = ball(patch44_r6.graph, patch44_r6.root, 2)
        inner = {v for v, d in b3.dist.items() if d <= 2}
        assert inner == set(b2.graph.vertices)


class TestInducedSubgraph:
    def test_full_set_is_identity(self, patch44_r6):
        g = patch44_r6.graph
        assert induced_subgraph(g, g.vertices) == g

    def test_empty_set(self, patch44_r6):
        sub = induced_subgraph(patch44_r6.graph, [])
        assert sub.n == 0

    def test_torus_face_is_a_four_cycle(self):
        from coverkit import QuotientSpec, make_quotient, trace_faces

        t = make_quotient(QuotientSpec("torus", 4, 4))
        face = trace_faces(t.graph, t.rotation)[0]
        sub = induced_subgraph(t.graph, set(face))
        assert sub.n == 4 and len(sub.edges) == 4
        assert all(sub.degree(v) == 2 for v in sub.vertices)

    def test_unknown_vertex_rejected(self, patch44_r6):
        with pytest.raises(InputError):
            induced_subgraph(patch44_r6.graph, [10**9])


class TestConnectivity:
    def test_nothing_removed(self, patch44_r6):
        assert is_connected_excluding(patch44_r6.graph, set())

    def test_cut_vertex(self):
        assert not is_connected_excluding(path_graph(3), {1})

    def test_remove_face_around_centre(self, patch44_r6):
        face = patch44_r6.faces_at(patch44_r6.root)[0]
        g = patch44_r6.graph
        assert is_connected_excluding(g, set(face)) == connected_after_removal(
            adjacency_of(g), set(face)
        )
        assert is_connected_excluding(g, set(face))

    def test_empty_remainder_counts_as_connected(self):
        g = cycle_graph(4)
        assert is_connected_excluding(g, {0, 1, 2, 3})

    def test_three_connected_k4(self):
        assert is_three_connected(k4())

    def test_three_connected_cycle_fails(self):
        assert not is_three_connected(cycle_graph(6))

    def test_three_connected_torus(self, torus57):
        g = torus57.graph
        assert is_three_connected(g)
        # independent confirmation on a sample of candidate cuts
        adj = adjacency_of(g)
        vs = g.vertices
        assert all(
            connected_after_removal(adj, {u, w}) for u in vs[:5] for w in vs[5:9]
        )

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            is_three_connected(path_graph(3))


# -- properties --------------------------------------------------------------

@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=18, unique=True)) if pairs else []
    return Graph(range(n), picks)


@given(small_graphs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_connectivity_agrees_with_plain_bfs(g):
    assert is_connected_excluding(g, set()) == g.is_connected()


@given(small_graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_ball_radii_nest(g, i):
    o = g.vertices[0]
    small = ball(g, o, i)
    big = ball(g, o, i + 1)
    assert set(small.graph.vertices) <= set(big.graph.vertices)
    assert {v for v, d in big.dist.items() if d <= i} == set(small.graph.vertices)


@given(small_graphs(), st.sets(st.integers(min_value=0, max_value=8)))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_induced_subgraph_keeps_exactly_the_edges_inside(g, s):
    keep = {v for v in s if v in g}
    sub = induced_subgraph(g, keep)
    assert set(sub.vertices) == keep
    assert sub.edges == {(u, w) for u, w in g.edges if u in keep and w in keep}


@given(small_graphs(), st.sets(st.integers(min_value=0, max_value=8)))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_induced_subgraph_equals_the_validated_graph(g, s):
    # induced_subgraph skips the checks of Graph(vertices, edges), as its
    # edges come from a valid graph; it must build what they would have
    keep = {v for v in s if v in g}
    for part in (keep, set()):
        sub = induced_subgraph(g, part)
        want = Graph(part, [(u, w) for u, w in g.edges if u in part and w in part])
        assert sub == want
        assert sub.vertices == want.vertices
        assert all(sub.neighbors(v) == want.neighbors(v) for v in part)
    with pytest.raises(InputError):
        induced_subgraph(g, keep | {g.n})
