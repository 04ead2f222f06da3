import gc
import random
import sys
import weakref
from collections import Counter

import pytest

import coverkit.local as local
from coverkit import (
    CoverRun,
    FaceBoundary,
    Flag,
    Graph,
    Host,
    InputError,
    PatchTooSmallError,
    PlanePatch,
    QuotientSpec,
    ball,
    build_cover,
    check_uniqueness,
    dk_ball,
    face_boundaries_at,
    face_core,
    flags_at,
    generate,
    is_r_locally,
    make_quotient,
    peripheral_cycles_through,
    rooted_isomorphisms,
)
from coverkit.graph import is_connected_excluding, local_parts
from coverkit.local import host_faces_at
from .oracles import (
    adjacency_of,
    assert_same_search,
    bfs_distances,
    brute_rooted_isomorphisms,
    cycle_vertices,
    peripheral_cycles_oracle,
    z2_faces_at,
)


def as_edge_sets(face_boundaries):
    return {frozenset(frozenset(e) for e in f.edges) for f in face_boundaries}


class TestPeripheralCycles:
    def test_k4_matches_oracle(self):
        g = Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
        got = peripheral_cycles_through(g, 0, 3)
        want = peripheral_cycles_oracle(adjacency_of(g), 0, 3)
        assert len(got) == 3
        assert as_edge_sets(got) == want

    def test_c6_returned_despite_empty_remainder(self):
        g = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
        got = peripheral_cycles_through(g, 0, 6)
        assert len(got) == 1 and len(got[0]) == 6

    def test_face_longer_than_the_recursion_limit(self):
        # one search level per path vertex: a face this long exceeds
        # Python's recursion limit, so the search must keep its own stack
        n = sys.getrecursionlimit() + 100
        g = Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
        got = peripheral_cycles_through(g, 0, n)
        assert [c.cycle for c in got] == [tuple(range(n))]
        assert peripheral_cycles_through(g, 0, n - 1) == []

    def test_torus_d2_ball_has_four_grid_faces(self, torus57):
        d2 = dk_ball(Host(torus57.graph, 4), 0, 2)
        got = peripheral_cycles_through(d2.graph, 0, 4)
        want = peripheral_cycles_oracle(adjacency_of(d2.graph), 0, 4)
        assert len(got) == 4
        assert as_edge_sets(got) == want

    def test_returned_cycles_satisfy_both_predicates(self, patch44_r6):
        g = patch44_r6.graph
        for v in (0, 3, 11):
            for c in peripheral_cycles_through(g, v, 4):
                assert as_edge_sets([c]) <= peripheral_cycles_oracle(adjacency_of(g), v, 4)

    def test_length_bound_respected(self, patch63_r10):
        g = patch63_r10.graph
        assert peripheral_cycles_through(g, 0, 5) == []
        assert len(peripheral_cycles_through(g, 0, 6)) == 3

    def test_matches_oracle_on_random_graphs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def graph_and_query(draw):
            n = draw(st.integers(min_value=3, max_value=8))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            picks = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=14, unique=True))
            l_max = draw(st.integers(min_value=3, max_value=6))
            return Graph(range(n), picks), draw(st.integers(min_value=0, max_value=n - 1)), l_max

        @given(graph_and_query())
        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        def run(case):
            g, v, l_max = case
            got = {frozenset(frozenset(e) for e in c.edges) for c in peripheral_cycles_through(g, v, l_max)}
            want = peripheral_cycles_oracle(adjacency_of(g), v, l_max)
            assert got == want

        run()


class TestDkBall:
    def test_d1_equals_b2_on_lattice(self, patch44_r6):
        d1 = dk_ball(Host(patch44_r6), patch44_r6.root, 1)
        b2 = ball(patch44_r6.graph, patch44_r6.root, 2)
        assert d1.radius == 2
        assert set(d1.graph.vertices) == set(b2.graph.vertices)
        # oracle: union of the four coordinate faces reaches exactly distance 2
        reach = {c for f in z2_faces_at((0, 0)) for c in f}
        assert max(abs(x) + abs(y) for x, y in reach) == 2

    def test_d2_equals_b4_on_lattice(self, patch44_r6):
        d2 = dk_ball(Host(patch44_r6), patch44_r6.root, 2)
        assert d2.radius == 4
        assert set(d2.graph.vertices) == set(
            ball(patch44_r6.graph, patch44_r6.root, 4).graph.vertices
        )

    def test_torus_d1(self, torus57):
        d1 = dk_ball(Host(torus57.graph, 4), 0, 1)
        assert d1.radius == 2
        assert set(d1.graph.vertices) == set(ball(torus57.graph, 0, 2).graph.vertices)

    def test_monotone_in_k(self, patch44_r10):
        d1 = dk_ball(Host(patch44_r10), patch44_r10.root, 1)
        d2 = dk_ball(Host(patch44_r10), patch44_r10.root, 2)
        assert set(d1.graph.vertices) <= set(d2.graph.vertices)

    def test_patch_too_small_never_truncates(self, patch44_r6):
        margin_vertex = patch44_r6.outer[0]
        with pytest.raises(PatchTooSmallError):
            dk_ball(Host(patch44_r6), margin_vertex, 1)
        with pytest.raises(PatchTooSmallError):
            Host(patch44_r6).chain_cycles(margin_vertex)

    @pytest.mark.parametrize("p, q, radius", [(5, 4, 5), (7, 3, 7), (3, 7, 4)])
    def test_radius_on_odd_face_lengths(self, p, q, radius):
        # an odd l_max rounds the per-link distance bound down; the
        # radius must still be that of the unbounded search
        patch = generate(p, q, radius)
        adj = adjacency_of(patch.graph)
        for o in sorted(v for v in patch.graph.vertices if patch.root_distance(v) <= 1):
            dist = bfs_distances(adj, o)
            reach = {o}
            for k in (1, 2):
                for y in list(reach):
                    for c in peripheral_cycles_oracle(adj, y, p):
                        reach |= cycle_vertices(c)
                j = max(dist[x] for x in reach)
                assert dk_ball(Host(patch), o, k).radius == j
                assert dk_ball(Host(patch.graph, p), o, k).radius == j


def _equal_graph(g):
    """A graph equal to g with no faces found yet: hosts of g and of it
    share no memo."""
    return Graph(g.vertices, g.edges)


def _cycle_edges(cycle):
    k = len(cycle)
    return frozenset(frozenset((cycle[i], cycle[(i + 1) % k])) for i in range(k))


@pytest.fixture(
    scope="module",
    params=[("torus", 9, 9, 0, 4), ("klein", 12, 12, 0, 4), ("hex_torus", 8, 8, 0, 6), ("twisted_torus", 7, 5, 2, 4)],
    ids=["torus9x9", "klein12x12", "hex8x8", "twisted7x5"],
)
def ladder_target(request):
    kind, m, n, s, l_max = request.param
    return make_quotient(QuotientSpec(kind, m, n, s)).graph, l_max


class TestChainCyclesAgainstNetworkx:
    """The host's chain cycles against networkx on targets too large for
    the brute-force oracles."""

    def test_chain_cycles_are_chordless_nonseparating_cycles(self, ladder_target):
        nx = pytest.importorskip("networkx")
        g, l_max = ladder_target
        big = nx.Graph(list(g.edges))
        want: dict[int, set] = {v: set() for v in g.vertices}
        for cyc in nx.chordless_cycles(big, length_bound=l_max):
            rest = set(big) - set(cyc)
            if not rest or nx.is_connected(big.subgraph(rest)):
                for v in cyc:
                    want[v].add(_cycle_edges(cyc))
        host = Host(g, l_max)
        for v in g.vertices:
            assert as_edge_sets(host.chain_cycles(v)) == want[v]

    def test_warm_host_serves_the_faces_of_a_cold_one(self, ladder_target):
        # the cold host is over an equal graph of its own: a Host of g
        # itself would read the warm host's memo
        g, l_max = ladder_target
        warm = Host(g, l_max)
        for v in reversed(g.vertices):
            host_faces_at(warm, v)
        cold = _equal_graph(g)
        for v in g.vertices:
            assert list(host_faces_at(warm, v)) == face_boundaries_at(cold, v, l_max)


class TestChainCyclesAgainstTutte:
    """Tutte (1963): the peripheral cycles of a 3-connected planar graph
    are exactly its face boundaries.  Near its interior vertices a patch
    looks like the whole tessellation, so there the chain cycles of a
    patch host must be the traced faces."""

    @pytest.mark.parametrize("p,q,radius", [(4, 4, 6), (6, 3, 6), (3, 7, 4), (4, 5, 4)])
    def test_patch_chain_cycles_are_its_faces(self, p, q, radius):
        patch = generate(p, q, radius)
        host = Host(patch)
        interior = [x for x in patch.graph.vertices if patch.complete_radius[x] >= 2]
        assert interior
        for x in interior:
            assert host.chain_cycles(x) == tuple(sorted(patch.faces_at(x)))


def _disjoint_union(*graphs):
    """The graphs side by side, each relabelled past the previous ones."""
    vertices, edges, base = [], [], 0
    for g in graphs:
        vertices += [base + v for v in g.vertices]
        edges += [(base + u, base + w) for u, w in g.edges]
        base += max(g.vertices) + 1
    return Graph(vertices, edges)


def _grid(k):
    return Graph(range(k * k), [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
                 + [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)])


def _verdicts(g, l_max):
    """(Host verdict, whole-graph BFS verdict) for every chordless cycle of g."""
    host = Host(g, l_max)
    seen, pairs = set(), []
    for x in g.vertices:
        chain = set(host.chain_cycles(x))
        for c in local._chordless_cycles_through(g, x, l_max):
            if c not in seen:
                seen.add(c)
                pairs.append((c in chain, is_connected_excluding(g, c.cycle)))
    return pairs


class TestLocalVerdict:
    """Host.chain_cycles decides each cycle's separation near the cycle
    (graph.local_parts and the graph's own component count); the BFS over
    the whole graph, is_connected_excluding, is the reference."""

    def test_agrees_with_whole_graph_bfs(self):
        torus = make_quotient(QuotientSpec("torus", 5, 5)).graph
        grid = _grid(3)
        hosts = {
            "{4,4} R=5": (generate(4, 4, 5).graph, 8),
            "{3,7} R=2": (generate(3, 7, 2).graph, 8),
            "{6,3} R=6": (generate(6, 3, 6).graph, 8),
            "{4,5} R=3": (generate(4, 5, 3).graph, 6),
            "torus 5x7": (make_quotient(QuotientSpec("torus", 5, 7)).graph, 6),
            "klein 6x6": (make_quotient(QuotientSpec("klein", 6, 6)).graph, 6),
            "hex torus 5x5": (make_quotient(QuotientSpec("hex_torus", 5, 5)).graph, 8),
            "two tori": (_disjoint_union(torus, torus), 4),
            "triangle and torus": (_disjoint_union(Graph(range(3), [(0, 1), (1, 2), (0, 2)]), torus), 4),
            # two 3x3 grids sharing the corner 8, a cut vertex
            "cut vertex": (Graph(range(17), list(grid.edges) + [(u + 8, w + 8) for u, w in grid.edges]), 8),
        }
        answers = Counter()
        for name, (g, l_max) in hosts.items():
            pairs = _verdicts(g, l_max)
            assert all(mine == ref for mine, ref in pairs), name
            answers.update(ref for _, ref in pairs)
        assert answers[True] and answers[False]

    def test_agrees_on_random_graphs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from .test_graph import small_graphs

        @given(small_graphs(), st.integers(min_value=3, max_value=8))
        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        def run(g, l_max):
            assert all(mine == ref for mine, ref in _verdicts(g, l_max))

        run()

    def test_chain_verdicts_stay_near_the_cycle(self, monkeypatch):
        # the vertices whose neighbours a verdict reads, counted through the
        # patch graph's adjacency; a BFS over the whole 11,173-vertex patch
        # reads all but the cycle's 3 in each verdict
        patch = generate(3, 7, 7)
        g = patch.graph
        running: list[set[int]] = []  # the reads of the verdict under way
        scanned: list[set[int]] = []  # the reads of each finished verdict

        class CountingAdjacency(dict):
            def __getitem__(self, v):
                if running:
                    running[-1].add(v)
                return dict.__getitem__(self, v)

        g._adj = CountingAdjacency(g._adj)
        real = local.local_parts

        def counting(graph, removed, *, within=None):
            running.append(set())
            try:
                return real(graph, removed, within=within)
            finally:
                scanned.append(running.pop())

        monkeypatch.setattr(local, "local_parts", counting)
        dk_ball(Host(patch), patch.root, 2)
        assert len(scanned) == 35
        assert max(map(len, scanned)) < g.n // 100
        assert len(set().union(*scanned)) < g.n // 100


class TestFaceInferenceWork:
    # Each test counts the work on graphs and patches of its own: the
    # faces found are kept on their source, so a session fixture would
    # come with the faces that earlier tests found.

    def test_each_cycle_tested_once_per_graph(self, monkeypatch):
        patch, torus = generate(4, 4, 10), make_quotient(QuotientSpec("torus", 5, 7)).graph
        tested: Counter = Counter()
        graphs = []  # keeps every tested graph alive, so its id stays unique
        real = local.local_parts

        def counting(g, removed, *, within=None):
            graphs.append(g)
            tested[(id(g), frozenset(within) if within else None, frozenset(removed))] += 1
            return real(g, removed, within=within)

        monkeypatch.setattr(local, "local_parts", counting)
        build_cover(patch, torus)
        assert max(tested.values()) == 1
        # 179 tests on the patch, the torus and the torus confined to its
        # 35 D_2 balls; 1,404 when every D-ball chain retested its cycles
        # on all of H
        assert sum(tested.values()) <= 200

    def test_build_work_does_not_grow_with_the_target(self, monkeypatch):
        # a {4,4} R=16 build maps 363 faces, and its target host searches
        # only the vertices the build asks about; so relabelled targets
        # of 3,600 and 14,400 vertices, a Klein bottle among them, cost
        # it the same (3,600 and 14,400 searches when a build searched
        # every target vertex first)
        patch = generate(4, 4, 16)
        build_cover(patch, make_quotient(QuotientSpec("torus", 9, 9)).graph)  # finds the patch's own cycles
        calls = _counting_face_work(monkeypatch)
        counts = set()
        for kind, m in (("torus", 60), ("klein", 60), ("torus", 120)):
            target = make_quotient(QuotientSpec(kind, m, m)).graph
            for seed in (1, 3):
                perm = list(target.vertices)
                random.Random(seed).shuffle(perm)
                calls.clear()
                build_cover(patch, Graph(target.vertices, [(perm[u], perm[v]) for u, v in target.edges]))
                counts.add((calls["_chordless_cycles_through"], calls["local_parts"]))
        assert counts == {(529, 2256)}

    def test_a_cover_reads_only_the_target_it_reaches(self):
        # the target vertices whose neighbours a {4,4} R=16 cover reads,
        # from preparing its run to the end of its build: the component
        # count comes with the graph, so no whole-target pass is left,
        # and tori of 3,600 and 57,600 vertices are read alike (3,600
        # and 57,600 when the first verdict counted the target)
        patch = generate(4, 4, 16)
        build_cover(patch, make_quotient(QuotientSpec("torus", 9, 9)).graph)  # finds the patch's own cycles

        def reads(h):
            read: set[int] = set()

            class CountingAdjacency(dict):
                def __getitem__(self, v):
                    read.add(v)
                    return dict.__getitem__(self, v)

                def get(self, v, default=None):
                    read.add(v)
                    return dict.get(self, v, default)

            h._adj = CountingAdjacency(h._adj)
            CoverRun(patch, h).build()
            return len(read)

        def relabelled(target, seed):
            perm = list(target.vertices)
            random.Random(seed).shuffle(perm)
            return Graph(target.vertices, [(perm[u], perm[v]) for u, v in target.edges])

        torus60, klein60, torus240 = (
            make_quotient(QuotientSpec(kind, m, m)).graph for kind, m in (("torus", 60), ("klein", 60), ("torus", 240))
        )
        moved = [reads(relabelled(torus60, 1)), reads(relabelled(klein60, 1)), reads(relabelled(torus240, 3))]
        assert reads(torus60) == reads(torus240)
        # the reads on a relabelled target follow its labelling, which
        # orders the searches, but not its size
        assert max(moved) < 1000

    def test_inferred_face_queries_build_no_graph(self, monkeypatch):
        made: list[str] = []
        real_init, real_trusted = Graph.__init__, Graph._trusted.__func__

        def init(self, *args, **kwargs):
            made.append("Graph.__init__")
            real_init(self, *args, **kwargs)

        def trusted(cls, adj):
            made.append("Graph._trusted")
            return real_trusted(cls, adj)

        for spec in (QuotientSpec("torus", 9, 9), QuotientSpec("klein", 12, 12)):
            g = make_quotient(spec).graph
            host = Host(g, 4)
            for v in g.vertices:
                host.chain_cycles(v)
            with monkeypatch.context() as m:
                m.setattr(Graph, "__init__", init)
                m.setattr(Graph, "_trusted", classmethod(trusted))
                faces = [host_faces_at(host, v) for v in g.vertices]
                assert made == []
                dk_ball(host, 0, 2)  # the counters do see a ball graph built
                assert made == ["Graph._trusted"]
            made.clear()
            assert all(len(f) == 4 for f in faces)

    def test_dropped_host_is_freed_without_the_cycle_collector(self, torus57):
        host = Host(torus57.graph, 4)
        for v in torus57.graph.vertices:
            host_faces_at(host, v)
        dk_ball(host, 0, 3)
        ref = weakref.ref(host)
        gc.disable()
        try:
            del host
            assert ref() is None
        finally:
            gc.enable()


def _counting_face_work(monkeypatch) -> Counter:
    """Count the chordless-cycle searches, separation tests and inferred
    face queries that hosts make from now on."""
    calls: Counter = Counter()
    for name in ("_chordless_cycles_through", "local_parts", "_inferred_faces"):

        def counting(*args, _real=getattr(local, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(local, name, counting)
    return calls


class TestSharedFaceMemo:
    """Every Host of one source and l_max shares what any of them has
    found, through a memo kept on the source itself."""

    def test_two_hosts_of_a_graph_share_their_faces(self, monkeypatch):
        g = make_quotient(QuotientSpec("torus", 6, 6)).graph
        first = Host(g, 4)
        faces = [host_faces_at(first, v) for v in g.vertices]
        chains = [first.chain_cycles(v) for v in g.vertices]
        calls = _counting_face_work(monkeypatch)
        second = Host(g, 4)
        for v in g.vertices:
            assert host_faces_at(second, v) is faces[v]
            assert second.chain_cycles(v) == chains[v]
        dk_ball(second, 0, 3)
        assert face_boundaries_at(g, 5, 4) == list(faces[5])
        assert calls == {}

    def test_two_hosts_of_a_patch_share_their_cycles(self, monkeypatch):
        patch = generate(3, 7, 4)
        interior = [v for v in patch.graph.vertices if patch.complete_radius[v] >= 2]
        chains = [Host(patch).chain_cycles(v) for v in interior]
        calls = _counting_face_work(monkeypatch)
        assert [Host(patch).chain_cycles(v) for v in interior] == chains
        assert calls == {}

    def test_another_l_max_shares_nothing(self, monkeypatch):
        g = make_quotient(QuotientSpec("torus", 6, 6)).graph
        short = Host(g, 4)
        for v in g.vertices:
            host_faces_at(short, v)
        calls = _counting_face_work(monkeypatch)
        long = Host(g, 6)
        assert long._memo is not short._memo
        for v in g.vertices:
            host_faces_at(long, v)
        assert calls["_chordless_cycles_through"] == calls["_inferred_faces"] == g.n

    def test_a_patch_host_and_a_graph_host_keep_apart(self, monkeypatch):
        # each way round, the second host does its own work
        patch = generate(4, 4, 6)
        g, margin = patch.graph, patch.outer[0]
        interior = [v for v in g.vertices if patch.complete_radius[v] >= 2]
        on_graph = Host(g, patch.l_max)
        assert host_faces_at(on_graph, margin)  # the graph has faces at a margin vertex
        for v in interior:
            host_faces_at(on_graph, v)
        on_patch = Host(patch)
        with pytest.raises(PatchTooSmallError):
            host_faces_at(on_patch, margin)
        calls = _counting_face_work(monkeypatch)
        for v in interior:
            on_patch.chain_cycles(v)
        assert calls["_chordless_cycles_through"] == len(interior)

        other = generate(4, 4, 6)
        for v in interior:
            host_faces_at(Host(other), v)
            Host(other).chain_cycles(v)
        calls.clear()
        host_faces_at(Host(other.graph, other.l_max), interior[0])
        assert calls["_inferred_faces"] == 1

    def test_a_dropped_graph_frees_its_memo_without_the_cycle_collector(self):
        g = make_quotient(QuotientSpec("torus", 5, 7)).graph
        host = Host(g, 4)
        for v in g.vertices:
            host_faces_at(host, v)
        dk_ball(host, 0, 3)
        memo_ref = weakref.ref(host._memo)
        gc.disable()
        try:
            del host
            assert memo_ref() is not None  # the graph keeps it
            del g
            assert memo_ref() is None
        finally:
            gc.enable()

    def test_locality_cover_and_uniqueness_find_each_face_once(self, monkeypatch):
        # the wide-target pipeline on one Klein 12x12: 434 cycle searches,
        # 1,664 separation tests and 306 inferred face queries when every
        # call started from an empty host
        patch = generate(4, 4, 8)
        h = make_quotient(QuotientSpec("klein", 12, 12)).graph
        calls = _counting_face_work(monkeypatch)
        assert is_r_locally(h, patch, 2, d_balls=True).ok
        build_cover(patch, h)
        assert check_uniqueness(patch, h, trials=3).ok
        assert calls["_chordless_cycles_through"] <= 146
        assert calls["local_parts"] <= 728
        assert calls["_inferred_faces"] <= h.n


def _reference_faces(g, v, l_max):
    """The faces at v the long way: D_2(v) on a Host of a graph equal to
    g (so it shares no memo with g's hosts), its peripheral cycles
    through v on a second Host of the ball's own graph."""
    return tuple(peripheral_cycles_through(dk_ball(Host(_equal_graph(g), l_max), v, 2).graph, v, l_max))


def _ear_and_long_cycle(ear, length):
    """A chordless cycle C = 0..length-1, an ear path of `ear` new
    vertices from 0 to 1, a vertex w joined to 2 and length - 1, and a
    pendant vertex opposite 0.  C separates the ear from the pendant, so
    no chain cycle reaches beyond the ear's face, and D_2(0) stops short
    of C, which the face search at 0 must drop."""
    a = list(range(length, length + ear))
    w, pendant = length + ear, length + ear + 1
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(0, a[0]), *zip(a, a[1:]), (a[-1], 1), (w, 2), (w, length - 1), (length // 2, pendant)]
    return Graph(range(pendant + 1), edges)


class TestFacesFromTheHostsCycles:
    """A graph host infers the faces at v from its own chordless cycles
    through v, kept when inside D_2(v) and non-separating there; the
    reference builds a second Host over the ball's graph."""

    def test_equal_the_reference_on_the_ladder(self, ladder_target):
        g, l_max = ladder_target
        host = Host(g, l_max)
        for v in g.vertices:
            assert host_faces_at(host, v) == _reference_faces(g, v, l_max)

    def test_equal_the_reference_where_the_ball_drops_a_cycle(self):
        g, l_max = _ear_and_long_cycle(8, 16), 16
        host = Host(g, l_max)
        inside = dk_ball(host, 0, 2).dist
        dropped = [c for c, _ in host._cycles_at(0) if not set(c.cycle) <= inside.keys()]
        assert [len(c) for c in dropped] == [16]
        assert [len(c) for c in host_faces_at(host, 0)] == [10]
        for v in g.vertices:
            assert host_faces_at(host, v) == _reference_faces(g, v, l_max)

    def test_a_face_may_separate_the_host(self):
        # the triangle 0-2-4 cuts the pendant 1 off from 3 in H, but 1 lies
        # outside D_2(0) = B_1(0), so in the ball the triangle is a face:
        # the verdict that counts is the ball's, not the host's
        g = Graph(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (2, 4), (3, 4)])
        host = Host(g, 6)
        faces = host_faces_at(host, 0)
        assert [c.cycle for c in faces] == [(0, 2, 4), (0, 3, 4)]
        assert faces == _reference_faces(g, 0, 6)
        assert [c.cycle for c in host.chain_cycles(0)] == [(0, 3, 4)]

    def test_equal_the_reference_on_random_graphs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from .test_graph import small_graphs

        @given(small_graphs(), st.integers(min_value=3, max_value=8))
        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        def run(g, l_max):
            host = Host(g, l_max)
            for v in g.vertices:
                assert host_faces_at(host, v) == _reference_faces(g, v, l_max)

        run()

    def test_one_cycle_search_per_vertex_per_host(self, monkeypatch):
        searched: Counter = Counter()
        real = local._chordless_cycles_through

        def counting(g, v, l_max):
            searched[(g, v)] += 1
            return real(g, v, l_max)

        monkeypatch.setattr(local, "_chordless_cycles_through", counting)
        g = make_quotient(QuotientSpec("torus", 9, 9)).graph
        host = Host(g, 4)
        for v in g.vertices:
            host_faces_at(host, v)
            host.chain_cycles(v)
        dk_ball(host, 0, 3)
        assert searched == Counter({(g, v): 1 for v in g.vertices})

    def test_host_count_does_not_grow_with_the_target(self, patch44_r10, monkeypatch):
        made = [0]
        real = Host.__init__

        def counting(self, *args, **kwargs):
            made[0] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(Host, "__init__", counting)
        counts = []
        for m in (5, 9):
            made[0] = 0
            build_cover(patch44_r10, make_quotient(QuotientSpec("torus", m, m)).graph)
            counts.append(made[0])
        assert counts[0] == counts[1]

    def test_a_shared_cycle_is_one_object(self):
        g = make_quotient(QuotientSpec("torus", 9, 9)).graph
        host = Host(g, 4)
        for u, w in sorted(g.edges):
            shared = [(a, b) for a in host.chain_cycles(u) for b in host.chain_cycles(w) if a == b]
            assert len(shared) == 2
            assert all(a is b for a, b in shared)
            assert all(a in host_faces_at(host, u) for a, _ in shared)

    def test_chain_cycles_kept_per_vertex(self, patch44_r6):
        # a D-ball asks for the chain cycles of each frontier vertex, often
        # again and again: each call reads them off the cycles the host kept
        # for the vertex, as the same cycle objects, and a patch host still
        # refuses a margin vertex on every call
        g = make_quotient(QuotientSpec("torus", 9, 9)).graph
        host = Host(g, 4)
        for v in g.vertices:
            first, again = host.chain_cycles(v), host.chain_cycles(v)
            assert first == again and all(a is b for a, b in zip(first, again))
            assert first == tuple(c for c, ok in host._cycles_at(v) if ok)
        patch = Host(patch44_r6)
        margin = next(v for v in patch44_r6.graph.vertices if patch44_r6.complete_radius[v] < 2)
        for _ in range(2):
            with pytest.raises(PatchTooSmallError):
                patch.chain_cycles(margin)


def _confined_answers(g, l_max, cycle_bound):
    """local_parts on H confined to D_2(v) against local_parts on the
    ball's own graph, at every vertex v, for every chordless cycle
    through v that has at most cycle_bound vertices and lies inside
    D_2(v); returns how often each answer was seen."""
    host = Host(g, l_max)
    answers: Counter = Counter()
    for v in g.vertices:
        d2 = dk_ball(host, v, 2)
        for c in local._chordless_cycles_through(g, v, cycle_bound):
            if set(c.cycle) <= d2.dist.keys():
                answer = local_parts(g, c.cycle, within=d2.dist)
                assert answer == local_parts(d2.graph, c.cycle), (v, c)
                answers[answer] += 1
    return answers


class TestConfinedSearch:
    """Face inference searches H confined to a D_2 ball's vertex set
    instead of building the ball's graph; both searches must agree."""

    def test_equals_the_search_on_the_ball_on_the_ladder(self, ladder_target):
        # cycles up to twice the face length: with l_max alone every
        # cycle inside a ball is a face, and no answer is 2
        g, l_max = ladder_target
        assert _confined_answers(g, l_max, 2 * l_max).keys() == {1, 2}

    def test_equals_the_search_on_the_ball_on_random_graphs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from .test_graph import small_graphs

        seen: Counter = Counter()

        @given(small_graphs(), st.integers(min_value=3, max_value=8))
        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        def run(g, l_max):
            seen.update(_confined_answers(g, l_max, l_max))

        run()
        assert seen[1] and seen[2]


class TestPatchComponents:
    """A graph's component count is counted where the graph is made, a
    patch's graph when the patch is traced, so a patch host's verdicts
    count nothing; on a disconnected patch they stay exact.  A face core
    is connected by construction, so it is never counted."""

    def test_a_self_cover_never_counts_the_patch(self, monkeypatch):
        import coverkit.graph as graph
        from coverkit import check_normality

        patch = generate(3, 7, 5)
        counted, tested = [], []
        real_count, real_parts = graph.component_count, local.local_parts

        def counting(g):
            counted.append(g.n)
            return real_count(g)

        def testing(g, removed, *, within=None):
            tested.append(g)
            return real_parts(g, removed, within=within)

        monkeypatch.setattr(graph, "component_count", counting)
        monkeypatch.setattr(local, "local_parts", testing)
        cov = build_cover(patch, patch)
        assert check_normality(cov).ok
        assert any(g is patch.graph for g in tested)  # verdicts were taken on the patch
        assert counted  # the balls and D-balls made on the way are counted as they are made
        assert patch.graph.n not in counted

    def test_face_cores_are_never_counted(self, monkeypatch):
        # each face of a core after the first level meets a vertex already
        # reached from its root, so its one component is stated, not counted
        import coverkit.flags as flags
        import coverkit.graph as graph

        patch = generate(4, 4, 16)
        h = make_quotient(QuotientSpec("torus", 9, 9)).graph
        counted, cores = [], []
        real_count, real_assemble = graph.component_count, local._assemble

        def counting(g):
            counted.append(g)
            return real_count(g)

        def assembling(x, faces):
            core = real_assemble(x, faces)
            cores.append(core.rooted.graph)
            return core

        monkeypatch.setattr(graph, "component_count", counting)
        for module in (local, flags):
            monkeypatch.setattr(module, "_assemble", assembling)
        assert is_r_locally(h, patch, 2, d_balls=True).ok
        assert build_cover(patch, h).surjective
        assert len(cores) > 20 and counted  # the D-balls are still counted
        assert not [core for core in cores if any(core is g for g in counted)]
        assert {core.components for core in cores} == {1}
        assert face_core(Host(patch), patch.root, 2).rooted.graph.components == 1

    def test_two_patches_keep_exact_verdicts(self, patch44_r6):
        from coverkit import FaceBoundary, PlanePatch

        p, shift = patch44_r6, patch44_r6.graph.n
        g = _disjoint_union(p.graph, p.graph)
        twin = PlanePatch(
            g,
            p.root,
            [*p.rotation, *(tuple(u + shift for u in r) for r in p.rotation)],
            [*p.faces, *(FaceBoundary([v + shift for v in f]) for f in p.faces)],
            p.outer + tuple(v + shift for v in p.outer),
            [*p.complete_radius, *p.complete_radius],
            p.schlafli,
        )
        host = Host(twin)
        asked = [x for x in g.vertices if twin.complete_radius[x] >= 2]
        assert len(asked) > 20
        for x in asked:
            chain = set(host.chain_cycles(x))
            for c in local._chordless_cycles_through(g, x, twin.l_max):
                assert (c in chain) == is_connected_excluding(g, c.cycle)


class TestFaceBoundariesAt:
    def test_torus(self, torus57):
        fb = face_boundaries_at(torus57.graph, 6, 4)
        assert len(fb) == 4 and all(len(f) == 4 for f in fb)

    def test_agrees_with_traced_faces_on_patch_interior(self, patch44_r6):
        p = patch44_r6
        for v in p.graph.vertices:
            if p.complete_radius[v] >= 2:
                assert set(face_boundaries_at(p.graph, v, 4)) == set(p.faces_at(v))

    def test_klein(self, klein66):
        fb = face_boundaries_at(klein66.graph, 0, 4)
        assert len(fb) == 4 and all(len(f) == 4 for f in fb)

    def test_peripheral_in_whole_graph(self, torus57):
        # every face-boundary at v is also peripheral in all of H
        g = torus57.graph
        for v in (0, 6, 34):
            fb = face_boundaries_at(g, v, 4)
            assert fb
            assert as_edge_sets(fb) == peripheral_cycles_oracle(adjacency_of(g), v, 4)


class TestRootedIsomorphisms:
    def test_identity_present(self, patch44_r6):
        b = ball(patch44_r6.graph, patch44_r6.root, 2)
        isos = rooted_isomorphisms(b, b)
        assert any(all(k == v for k, v in i.mapping.items()) for i in isos)

    def test_star_has_24(self, patch44_r6):
        b = ball(patch44_r6.graph, patch44_r6.root, 1)
        assert len(rooted_isomorphisms(b, b)) == 24

    def test_d1_has_8_confirmed_by_oracle(self, patch44_r6):
        d1 = dk_ball(Host(patch44_r6), patch44_r6.root, 1)
        got = rooted_isomorphisms(d1, d1)
        adj = adjacency_of(d1.graph)
        brute = brute_rooted_isomorphisms(adj, d1.root, adj, d1.root)
        assert len(got) == len(brute) == 8

    def test_symmetry_and_composition(self, patch44_r6):
        p = patch44_r6
        a = ball(p.graph, p.root, 2)
        b = ball(p.graph, 3, 2)
        ab = rooted_isomorphisms(a, b)
        ba = rooted_isomorphisms(b, a)
        assert bool(ab) == bool(ba)
        i = ab[0]
        inverse = {w: v for v, w in i.mapping.items()}
        assert inverse in [j.mapping for j in ba]
        assert all(inverse[i[v]] == v for v in a.graph.vertices)

    def test_limit_respected(self, patch44_r6):
        b = ball(patch44_r6.graph, patch44_r6.root, 1)
        assert len(rooted_isomorphisms(b, b, limit=5)) == 5

    def test_prescription_constrains(self, patch44_r6):
        d1 = dk_ball(Host(patch44_r6), patch44_r6.root, 1)
        nbrs = patch44_r6.graph.neighbors(patch44_r6.root)
        pres = {nbrs[0]: nbrs[0], nbrs[1]: nbrs[1]}
        isos = rooted_isomorphisms(d1, d1, prescribed=pres)
        assert len(isos) == 1  # fixing two adjacent directions rigidifies the square

    def test_non_isomorphic_gives_empty(self, patch44_r6, patch63_r10):
        a = ball(patch44_r6.graph, patch44_r6.root, 1)
        b = ball(patch63_r10.graph, patch63_r10.root, 1)
        assert rooted_isomorphisms(a, b) == []

    def test_search_depth_not_bounded_by_recursion_limit(self):
        # one search level per vertex: 1,201 levels exceed Python's default
        # recursion limit, so the search must keep its own stack
        p = generate(4, 4, 30)
        b = ball(p.graph, p.root, 24)
        assert b.n == 1201
        isos = rooted_isomorphisms(b, b, limit=1)
        assert len(isos) == 1
        assert all(k == v for k, v in isos[0].mapping.items())


class TestSearchAgainstTheJointReference:
    """The search refines each side alone, b once for many searches; the
    joint refinement it replaced, run afresh in every call, is the
    reference, and both find the same maps in the same order."""

    def test_random_graphs(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def ball_pair(draw):
            n = draw(st.integers(min_value=3, max_value=8))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            edges = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=14, unique=True))
            v, r = draw(st.integers(min_value=0, max_value=n - 1)), draw(st.integers(min_value=1, max_value=3))
            if draw(st.booleans()):  # a relabelling, so that maps exist
                perm = draw(st.permutations(range(n)))
                other, w = [(perm[x], perm[y]) for x, y in edges], perm[v]
            else:
                other = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=14, unique=True))
                w = draw(st.integers(min_value=0, max_value=n - 1))
            a, b = ball(Graph(range(n), edges), v, r), ball(Graph(range(n), other), w, r)
            pin = draw(st.sampled_from(sorted(a.graph.vertices)))
            return a, b, {pin: draw(st.sampled_from(sorted(b.graph.vertices)))}

        outcomes = Counter()

        @given(ball_pair())
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        def run(case):
            a, b, pin = case
            found = assert_same_search(a, b)
            assert_same_search(a, b, limit=1)
            assert_same_search(a, b, prescribed=pin)
            outcomes[found > 0] += 1

        run()
        assert outcomes[True] and outcomes[False]

    def test_rewired_torus_and_other_non_isomorphic_pairs(self, patch44_r10, patch63_r10):
        # torus 9x9 with (40,41), (49,50) rewired to (40,50), (41,49): the
        # cores round the rewiring match no core of the lattice, at depth 1
        # and 2; every core is searched against one reference ball, as
        # the colour pulls are
        g = make_quotient(QuotientSpec("torus", 9, 9)).graph
        rewired = Host(Graph(range(81), set(g.edges) - {(40, 41), (49, 50)} | {(40, 50), (41, 49)}), 4)
        found = Counter()
        for r in (1, 2):
            reference = face_core(Host(patch44_r10), patch44_r10.root, r).rooted
            for x in rewired.graph.vertices:
                found[r, assert_same_search(face_core(rewired, x, r).rooted, reference) > 0] += 1
        assert all(found[r, hit] for r in (1, 2) for hit in (True, False))
        a = ball(patch44_r10.graph, patch44_r10.root, 1)
        b = ball(patch63_r10.graph, patch63_r10.root, 1)
        assert assert_same_search(a, b) == assert_same_search(b, a) == 0


class TestFaceCore:
    def test_lattice_core_is_block(self, patch44_r6):
        core = face_core(Host(patch44_r6), patch44_r6.root, 1)
        assert core.rooted.n == 9
        assert len(core.faces) == 4

    def test_torus_core_matches_lattice_core(self, patch44_r6, torus57):
        cp = face_core(Host(patch44_r6), patch44_r6.root, 2)
        ct = face_core(Host(torus57.graph, 4), 0, 2)
        assert len(cp.faces) == len(ct.faces) == 16
        assert rooted_isomorphisms(cp.rooted, ct.rooted, limit=1)

    def test_patch_guard(self, patch44_r6):
        with pytest.raises(PatchTooSmallError):
            face_core(Host(patch44_r6), patch44_r6.outer[0], 1)


FAR = 99999  # a vertex of neither the patch nor the torus


def _off_flag(v):
    """A flag at v whose edge and face count away from the vertex ids."""
    step = 1 if v >= 0 else -1
    cycle = tuple(v + i * step for i in range(4))
    return Flag(v, (min(cycle[:2]), max(cycle[:2])), FaceBoundary(cycle))


_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda patch, s, v: flags_at(Host(s, 4), v),
        lambda patch, s, v: face_core(Host(s, 4), v, 1),
        lambda patch, s, v: host_faces_at(Host(s, 4), v),
        lambda patch, s, v: s.ball(v, 1) if isinstance(s, PlanePatch) else ball(s, v, 1),
        lambda patch, s, v: build_cover(patch, s, flag_h=_off_flag(v), n=1),
    ],
    ids=["flags_at", "face_core", "host_faces_at", "ball", "build_cover"],
)


class TestUnknownVertex:
    # a patch host refuses a vertex it does not have as a graph host
    # does, with InputError, not a bare KeyError from one of its tables
    @_CALLS
    @pytest.mark.parametrize("side", ["patch", "graph"])
    def test_is_an_input_error(self, patch44_r6, torus57, call, side):
        source = patch44_r6 if side == "patch" else torus57.graph
        with pytest.raises(InputError, match=f"^unknown vertex {FAR}$"):
            call(patch44_r6, source, FAR)

    # -1 and n lie just outside the ids 0..n-1, and a table indexed by
    # vertex answers xs[-1] with vertex n - 1's entry
    @_CALLS
    @pytest.mark.parametrize("which", ["-1", "n"])
    @pytest.mark.parametrize("side", ["patch", "graph"])
    def test_an_id_just_outside_is_an_input_error(self, patch44_r6, torus57, call, which, side):
        source = patch44_r6 if side == "patch" else torus57.graph
        n = patch44_r6.graph.n if side == "patch" else torus57.graph.n
        v = -1 if which == "-1" else n
        with pytest.raises(InputError, match=f"^unknown vertex {v}$"):
            call(patch44_r6, source, v)

    @pytest.mark.parametrize("which", ["-1", "n"])
    def test_a_patch_never_answers_with_another_vertex(self, patch44_r6, which):
        # each table of a patch is indexed by vertex, and a sequence
        # answers xs[-1] with vertex n - 1's entry: every query refuses
        # the id instead, as the patch's tables have always refused it
        p = patch44_r6
        v = -1 if which == "-1" else p.graph.n
        for query in (p.faces_at, p.is_interior, p.root_distance):
            with pytest.raises(KeyError):
                query(v)
        with pytest.raises(InputError, match=f"^unknown vertex {v}$"):
            p.require_complete(v, 0)
        # the faces at n - 1, with n - 1 renamed v, are faces of no patch
        last = p.graph.n - 1
        for f in p.faces_at(last):
            assert not p.has_face(FaceBoundary([v if u == last else u for u in f.cycle]))


class TestFaceCoresAgainstNetworkx:
    """Rooted isomorphism of face cores against networkx's GraphMatcher
    with the root pinned, on the ladder targets and on a rewired copy of
    each, whose cores near the rewiring match no core of the lattice."""

    @staticmethod
    def rooted_nx(nx, core):
        big = nx.Graph(list(core.graph.edges))
        big.add_nodes_from(core.graph.vertices)
        nx.set_node_attributes(big, {v: v == core.root for v in big}, "root")
        return big

    @staticmethod
    def rewired(g, l_max):
        """g with two opposite sides of a face at 0 swapped for its
        diagonals, as torus 9x9 is rewired in test_flags: face (c0, c1,
        c2, c3, ...) loses (c0, c1) and (c2, c3) and gains (c0, c2) and
        (c1, c3), which keeps every degree."""
        c = host_faces_at(Host(g, l_max), 0)[0].cycle
        gone = {(min(c[0], c[1]), max(c[0], c[1])), (min(c[2], c[3]), max(c[2], c[3]))}
        return Graph(g.vertices, set(g.edges) - gone | {(min(c[0], c[2]), max(c[0], c[2])), (min(c[1], c[3]), max(c[1], c[3]))})

    def test_existence_agrees_with_graphmatcher(self, ladder_target, patch44_r10, patch63_r10):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        g, l_max = ladder_target
        patch = patch44_r10 if l_max == 4 else patch63_r10
        reference = face_core(Host(patch), patch.root, 2).rooted
        ref_nx = self.rooted_nx(nx, reference)
        outcomes = Counter()
        for graph in (g, self.rewired(g, l_max)):
            host = Host(graph, l_max)
            for x in graph.vertices:
                core = face_core(host, x, 2).rooted
                got = bool(rooted_isomorphisms(core, reference, limit=1))
                want = GraphMatcher(
                    self.rooted_nx(nx, core), ref_nx, node_match=lambda p, q: p["root"] == q["root"]
                ).is_isomorphic()
                assert got == want, x
                outcomes[got] += 1
        assert outcomes[True] > graph.n and outcomes[False]

    def test_core_graph_equals_the_validated_graph(self, ladder_target):
        g, l_max = ladder_target
        host = Host(g, l_max)
        for x in g.vertices:
            core = face_core(host, x, 2)
            verts = {x} | {v for f in core.faces for v in f}
            want = Graph(verts, [e for f in core.faces for e in f.edges])
            assert core.rooted.graph == want
            assert all(core.rooted.graph.neighbors(v) == want.neighbors(v) for v in verts)


class TestIsRLocally:
    def test_torus57_ball_mode_fails_core_mode_passes(self, torus57, patch44_r10):
        # the 5-torus picks up wrap chords inside its induced 2-balls, so
        # the literal ball comparison fails while the face-core comparison
        # (what the cover machinery consumes) succeeds
        assert not is_r_locally(torus57.graph, patch44_r10, 2).ok
        assert is_r_locally(torus57.graph, patch44_r10, 2, d_balls=True).ok

    def test_torus67_ball_mode_passes(self, torus67, patch44_r10):
        assert is_r_locally(torus67.graph, patch44_r10, 2).ok

    def test_klein_ball_mode_passes(self, klein66, patch44_r10):
        assert is_r_locally(klein66.graph, patch44_r10, 2).ok

    def test_tiny_torus_fails_by_cardinality(self, patch44_r10):
        from coverkit import QuotientSpec, make_quotient

        t33 = make_quotient(QuotientSpec("torus", 3, 3))
        rep = is_r_locally(t33.graph, patch44_r10, 2)
        assert not rep.ok
        assert rep.failures == list(t33.graph.vertices)

    def test_patch_interior_agrees_with_itself(self, patch44_r6):
        p = patch44_r6
        ref = p.ball(p.root, 2)
        for v in p.graph.vertices:
            if p.complete_radius[v] >= 2:
                assert rooted_isomorphisms(ball(p.graph, v, 2), ref, limit=1)

    def test_hex_torus(self, hex55, patch63_r10):
        assert is_r_locally(hex55.graph, patch63_r10, 2).ok
        assert is_r_locally(hex55.graph, patch63_r10, 2, d_balls=True).ok

    def test_report_shape(self, torus57, patch44_r10):
        rep = is_r_locally(torus57.graph, patch44_r10, 2)
        doc = rep.to_json_dict()
        assert set(doc) == {"ok", "failures", "mode"}
