import pytest

from coverkit import (
    InputError,
    QuotientSpec,
    ball,
    check_K_ball_claim,
    closed_form_projection,
    deck_generators,
    example_cover_formula,
    hex_lattice_coordinates,
    is_r_locally,
    is_vertex_transitive,
    make_example_G_patch,
    make_example_K,
    make_quotient,
    rooted_isomorphisms,
    square_lattice_coordinates,
    trace_faces,
)
from coverkit.graph import Graph
from coverkit.instances import graph_diameter

from .oracles import is_three_connected


class TestQuotients:
    def test_torus_counts(self):
        t = make_quotient(QuotientSpec("torus", 4, 4))
        assert t.graph.n == 16 and len(t.graph.edges) == 32
        walks = trace_faces(t.graph, t.rotation)
        assert len(walks) == 16 and all(len(w) == 4 for w in walks)

    def test_twisted_torus(self):
        tw = make_quotient(QuotientSpec("twisted_torus", 5, 5, 2))
        assert tw.graph.n == 25
        assert all(tw.graph.degree(v) == 4 for v in tw.graph.vertices)
        walks = trace_faces(tw.graph, tw.rotation)
        assert 25 - 50 + len(walks) == 0

    def test_klein(self, klein66):
        assert klein66.graph.n == 36
        assert all(klein66.graph.degree(v) == 4 for v in klein66.graph.vertices)

    def test_hex_torus(self, hex55):
        assert hex55.graph.n == 50
        walks = trace_faces(hex55.graph, hex55.rotation)
        assert len(walks) == 25 and all(len(w) == 6 for w in walks)

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(InputError):
            QuotientSpec("torus", 2, 5)
        with pytest.raises(InputError):
            QuotientSpec("banana", 5, 5)

    def test_locality(self, torus57, klein66, patch44_r10):
        assert is_r_locally(torus57.graph, patch44_r10, 2, d_balls=True).ok
        assert is_r_locally(klein66.graph, patch44_r10, 2).ok

    @pytest.mark.parametrize(
        "spec",
        [
            QuotientSpec("torus", 5, 5),
            QuotientSpec("torus", 5, 7),
            QuotientSpec("twisted_torus", 5, 5, 2),
            QuotientSpec("klein", 5, 5),
            QuotientSpec("klein", 6, 6),
        ],
    )
    def test_every_square_quotient_is_2_locally(self, spec, patch44_r10):
        inst = make_quotient(spec)
        assert is_r_locally(inst.graph, patch44_r10, 2, d_balls=True).ok

    def test_hex_quotient_is_2_locally(self, hex55, patch63_r10):
        assert is_r_locally(hex55.graph, patch63_r10, 2, d_balls=True).ok

    def test_quotients_are_three_connected(self, torus57, klein66, hex55):
        for inst in (torus57, klein66, hex55):
            assert is_three_connected(inst.graph)

    def test_projection_locally_bijective(self, patch44_r10, torus57, klein66):
        for inst in (torus57, klein66):
            proj = closed_form_projection(inst, patch44_r10)
            assert set(proj.values()) == set(inst.graph.vertices)

    def test_hex_projection(self, patch63_r10, hex55):
        proj = closed_form_projection(hex55, patch63_r10)
        assert set(proj.values()) == set(hex55.graph.vertices)
        for gen in deck_generators(hex55, patch63_r10):
            assert all(proj[gen[v]] == proj[v] for v in gen)

    def test_coordinates_reject_wrong_schlafli(self, patch63_r10, patch44_r10):
        with pytest.raises(InputError):
            square_lattice_coordinates(patch63_r10)
        with pytest.raises(InputError):
            hex_lattice_coordinates(patch44_r10)


class TestExampleK:
    def test_structure(self):
        K = make_example_K(6, 4)
        assert K.graph.n == 48
        assert all(K.graph.degree(v) == 8 for v in K.graph.vertices)
        assert K.graph.is_connected()

    def test_rerouted_level(self):
        K = make_example_K(6, 4)
        for j in range(4):
            assert not K.graph.has_edge(K.y(0, j), K.y(1, j))
            assert K.graph.has_edge(K.y(0, j), K.y(1, j + 1))
            assert K.graph.has_edge(K.x(0, j), K.x(1, j))

    def test_cross_join_level_wise(self):
        K = make_example_K(6, 4)
        for j in range(4):
            for jj in range(4):
                assert K.graph.has_edge(K.x(2, j), K.y(2, jj))
            assert not K.graph.has_edge(K.x(2, j), K.y(3, j))

    def test_not_vertex_transitive(self):
        K = make_example_K(6, 4)
        assert not is_vertex_transitive(K.graph)

    def test_no_part_swap(self):
        K = make_example_K(6, 4)
        from coverkit.local import as_rooted

        a = as_rooted(K.graph, K.x(1, 0))
        b = as_rooted(K.graph, K.y(1, 0))
        assert not rooted_isomorphisms(a, b, limit=1)

    def test_small_graphs(self):
        path3 = Graph(range(3), [(0, 1), (1, 2)])
        assert not is_vertex_transitive(path3)

    def test_torus_is_transitive(self, torus57):
        assert is_vertex_transitive(torus57.graph)

    def test_size_guard(self):
        big = Graph(range(401), [(i, i + 1) for i in range(400)])
        with pytest.raises(InputError):
            is_vertex_transitive(big)

    def test_ball_claim(self):
        rep = check_K_ball_claim(6, 4)
        assert rep.ok
        stated = next(c for c in rep.checks if c.name == "balls isomorphic at stated radius")
        assert stated.info["rho"] == stated.info["diameter"] - 1 - 3
        logged = next(c for c in rep.checks if c.name == "maximal isomorphic-ball radius")
        assert logged.info["rho_max"] >= stated.info["rho"]

    @pytest.mark.parametrize("check", ["transitivity", "ball claim", "locality in balls", "locality in cores"])
    def test_the_reference_is_refined_once_per_comparison_run(self, check, patch44_r10, monkeypatch):
        # a reference ball keeps the Refinement of its first search, so it
        # is refined once, however many vertices it meets
        import coverkit.instances as instances
        import coverkit.local as local

        refined, references = [], []
        real_refine, real_search = local._refine, instances.rooted_isomorphisms

        def counting_refine(b, table, last=None):
            refined.append(b)
            return real_refine(b, table, last)

        def recording_search(a, b, *args, **kwargs):
            references.append(b)
            return real_search(a, b, *args, **kwargs)

        monkeypatch.setattr(local, "_refine", counting_refine)
        monkeypatch.setattr(instances, "rooted_isomorphisms", recording_search)
        monkeypatch.setattr(local, "rooted_isomorphisms", recording_search)
        if check == "transitivity":
            assert is_vertex_transitive(make_quotient(QuotientSpec("torus", 5, 7)).graph)
        elif check == "ball claim":
            assert check_K_ball_claim(6, 4).ok
        else:
            torus = make_quotient(QuotientSpec("torus", 7, 7)).graph
            assert is_r_locally(torus, patch44_r10, 2, d_balls=check == "locality in cores").ok
        distinct = {id(b): b for b in references}.values()
        assert len(references) > 10 * len(distinct)
        assert all(sum(r is b for r in refined) == 1 for b in distinct)

    def test_regular_graphs_have_isomorphic_zero_balls(self):
        K = make_example_K(6, 4)
        ref = ball(K.graph, 0, 0)
        assert all(
            rooted_isomorphisms(ball(K.graph, v, 0), ref, limit=1) for v in K.graph.vertices[:5]
        )


class TestExampleG:
    def test_interior_degrees(self):
        G = make_example_G_patch(4, (-8, 8))
        for v in G.interior_vertices():
            assert G.graph.degree(v) == 8

    def test_heights_preserved_by_cross_edges(self):
        G = make_example_G_patch(4, (-3, 3))
        for (u, w) in G.graph.edges:
            cu, zu, _ = G.labels[u]
            cw, zw, _ = G.labels[w]
            if cu != cw:
                assert zu == zw

    def test_interior_balls_pairwise_isomorphic(self):
        G = make_example_G_patch(4, (-8, 8))
        vs = [G.vid(0, 0, 0), G.vid(1, 2, 1), G.vid(0, -2, 3)]
        ref = ball(G.graph, vs[0], 2)
        for v in vs[1:]:
            assert rooted_isomorphisms(ball(G.graph, v, 2), ref, limit=1)


class TestExampleCoverFormula:
    def test_validates_and_local_bijection(self):
        G, K, cover = example_cover_formula(6, 4, (0, 12))
        assert set(cover.values()) == set(K.graph.vertices)
        for v in G.interior_vertices():
            images = [cover[u] for u in G.graph.neighbors(v)]
            assert len(set(images)) == len(images)
            assert set(images) == set(K.graph.neighbors(cover[v]))

    def test_plain_copy_lands_on_grid_edges(self):
        G, K, cover = example_cover_formula(6, 4, (0, 12))
        for z in range(0, 12):
            u, w = G.vid(0, z, 1), G.vid(0, z + 1, 1)
            assert K.graph.has_edge(cover[u], cover[w])
            assert K.labels[cover[u]][0] == "x"

    def test_wrap_edge_lands_on_rerouted_edge(self):
        G, K, cover = example_cover_formula(6, 4, (0, 12))
        # the height step 0 -> 1 crosses the reroute: its image joins level
        # 0 to level 1 with the width advanced by one
        u, w = G.vid(1, 0, 2), G.vid(1, 1, 2)
        lu, lw = K.labels[cover[u]], K.labels[cover[w]]
        assert lu[0] == lw[0] == "y"
        assert (lu[1], lw[1]) == (0, 1)
        assert lw[2] == (lu[2] + 1) % 4

    def test_too_short_range_rejected(self):
        with pytest.raises(InputError):
            example_cover_formula(6, 4, (0, 8))

    def test_diameter_is_computed_not_assumed(self):
        K = make_example_K(6, 4)
        assert graph_diameter(K.graph) == max(
            max(K.graph.distances_from(v).values()) for v in K.graph.vertices
        )
