import gc
import math
import weakref
from collections import Counter

import pytest

from coverkit import (
    Coloring,
    DefectError,
    FaceBoundary,
    Flag,
    Graph,
    Host,
    HypothesisViolationError,
    InputError,
    PatchTooSmallError,
    QuotientSpec,
    build_cover,
    check_normality,
    color,
    color_in_h,
    dk_ball,
    extend_iso,
    face_boundaries_at,
    face_core,
    flag_orbit_partition,
    flags_at,
    generate,
    i_fundamental_domain,
    import_patch,
    make_quotient,
    rooted_isomorphisms,
    stabilize_n,
)
import coverkit.local as local
from coverkit.flags import _colour, _flag_cycle, _prescription, _verify_partial_isomorphism
from coverkit.graph import edge_key
from coverkit.local import host_faces_at

from .oracles import (
    adjacency_of,
    assert_same_search,
    assert_unique_extension,
    brute_rooted_isomorphisms,
    extension_by_propagation,
    map_flag,
)


def build_squareoct_patch(window=6, drop_links=()):
    """A window of the truncated square tiling (vertex configuration
    4.8.8): every lattice cell carries a small square, squares joined by
    link edges, leaving octagonal faces.  Rotations come from the planar
    coordinates, so this is a genuine vertex-transitive plane graph with
    two face sizes.  `drop_links` names cells (i, j) whose horizontal link
    edge to the right is removed, which merges its two octagons and
    breaks vertex-transitivity; the vertex ids are then returned too."""
    offs = ((0.35, 0.0), (0.0, 0.35), (-0.35, 0.0), (0.0, -0.35))
    ids = {}
    pos = {}
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            for d in range(4):
                ids[(i, j, d)] = len(ids)
                pos[ids[(i, j, d)]] = (i + offs[d][0], j + offs[d][1])
    edges = set()
    for (i, j, d), v in ids.items():
        if d == 0:
            for dd in (1, 3):
                edges.add(tuple(sorted((v, ids[(i, j, dd)]))))
            if (i + 1, j, 2) in ids and (i, j) not in drop_links:
                edges.add(tuple(sorted((v, ids[(i + 1, j, 2)]))))
        elif d == 2:
            for dd in (1, 3):
                edges.add(tuple(sorted((v, ids[(i, j, dd)]))))
        elif d == 1 and (i, j + 1, 3) in ids:
            edges.add(tuple(sorted((v, ids[(i, j + 1, 3)]))))
    adj = {v: [] for v in ids.values()}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    rotation = {}
    for v, nbrs in adj.items():
        x, y = pos[v]
        rotation[v] = sorted(nbrs, key=lambda u: math.atan2(pos[u][1] - y, pos[u][0] - x))
    patch = import_patch(
        {
            "n": len(ids),
            "edges": sorted(list(e) for e in edges),
            "rotation": {str(v): rot for v, rot in rotation.items()},
            "root": ids[(0, 0, 0)],
        }
    )
    return (patch, ids) if drop_links else patch


@pytest.fixture(scope="module")
def squareoct():
    return build_squareoct_patch(6)


@pytest.fixture(scope="module")
def patch37_r5():
    return generate(3, 7, 5)


class TestFlagsAt:
    def test_counts(self, patch44_r6, patch63_r10, torus57):
        assert len(flags_at(Host(patch44_r6), patch44_r6.root)) == 8
        assert len(flags_at(Host(patch63_r10), patch63_r10.root)) == 6
        assert len(flags_at(Host(torus57.graph, 4), 4)) == 8

    def test_incidence_structure_is_a_cycle(self, patch44_r6):
        cyc = _flag_cycle(patch44_r6, patch44_r6.root)
        assert len(cyc) == 2 * patch44_r6.graph.degree(patch44_r6.root)

    def test_patch_margin_guard(self, patch44_r6):
        with pytest.raises(PatchTooSmallError):
            flags_at(Host(patch44_r6), patch44_r6.outer[0])

    def test_flag_validation(self, patch44_r6):
        face = patch44_r6.faces_at(patch44_r6.root)[0]
        other = patch44_r6.faces_at(patch44_r6.root)[1]
        e = face.edges_at(patch44_r6.root)[0]
        with pytest.raises(InputError):
            Flag(10**9, e, face)
        if e not in other.edges:
            with pytest.raises(InputError):
                Flag(patch44_r6.root, e, other)

    def test_flags_that_differ_only_in_face_compare_every_way(self):
        # <= and >= derive from <, so a tie on (vertex, edge) falls to the
        # faces' own order, which defines < alone
        lo, hi = Flag(0, (0, 1), FaceBoundary([0, 1, 2])), Flag(0, (0, 1), FaceBoundary([0, 1, 3]))
        assert lo < hi and lo <= hi and hi > lo and hi >= lo
        assert not (hi < lo or hi <= lo or lo > hi or lo >= hi)

    def test_flag_json_round_trip(self, patch44_r6):
        f = flags_at(Host(patch44_r6), patch44_r6.root)[0]
        assert Flag.from_json_dict(f.to_json_dict()) == f


class TestFundamentalDomain:
    @pytest.mark.parametrize("fixture", ["patch44_r6", "patch63_r10"])
    def test_regular_tessellations_have_one_orbit(self, fixture, request):
        patch = request.getfixturevalue(fixture)
        delta = i_fundamental_domain(patch, 1)
        assert len(delta) == 1

    def test_45_level_two(self, patch45_r5):
        delta = i_fundamental_domain(patch45_r5, 2)
        assert len(delta) == 1

    def test_orbits_confirmed_by_brute_force(self, patch44_r6):
        # oracle: enumerate every automorphism of the depth-1 core the slow
        # way and act on the flags
        core = face_core(Host(patch44_r6), patch44_r6.root, 1)
        adj = adjacency_of(core.rooted.graph)
        autos = brute_rooted_isomorphisms(adj, core.root, adj, core.root)
        flags = flags_at(Host(patch44_r6), patch44_r6.root)
        orbit = {flags[0]}
        from coverkit import Isomorphism

        for m in autos:
            iso = Isomorphism(m, core.root, core.root)
            orbit.add(map_flag(iso, flags[0]))
        assert orbit == set(flags)  # single orbit, so |Delta| = 1

    def test_several_orbits_confirmed_by_brute_force(self, squareoct):
        # the same oracle on the 4.8.8 patch, whose root flags fall into
        # three orbits at depth 1: each flag's orbit is its images under
        # every root automorphism of the core, found the slow way
        from coverkit import Isomorphism

        core = face_core(Host(squareoct), squareoct.root, 1)
        adj = adjacency_of(core.rooted.graph)
        autos = [Isomorphism(m, core.root, core.root) for m in brute_rooted_isomorphisms(adj, core.root, adj, core.root)]
        orbits = {frozenset(map_flag(iso, f) for iso in autos) for f in flags_at(Host(squareoct), squareoct.root)}
        assert len(orbits) == 3
        assert orbits == set(flag_orbit_partition(squareoct, 1))

    def test_connected_sequence(self, squareoct):
        delta = i_fundamental_domain(squareoct, 1)
        assert len(delta) >= 2  # two face lengths can never merge
        for a, b in zip(delta.flags, delta.flags[1:]):
            assert a.incident(b)

    def test_orbit_partition_refines_monotonically(self, patch44_r6, squareoct):
        for patch in (patch44_r6, squareoct):
            p1 = flag_orbit_partition(patch, 1)
            p2 = flag_orbit_partition(patch, 2)
            for orb in p2:
                assert any(orb <= big for big in p1)


class TestStabilize:
    def test_44(self, patch44_r6):
        assert stabilize_n(patch44_r6) == 1

    def test_63(self, patch63_r10):
        assert stabilize_n(patch63_r10) == 1

    def test_45(self, patch45_r5):
        assert stabilize_n(patch45_r5) == 1

    def test_squareoct_has_multiple_orbits(self, squareoct):
        n = stabilize_n(squareoct)
        orbits = flag_orbit_partition(squareoct, n)
        assert len(orbits) >= 2
        # face length is an orbit invariant
        for orb in orbits:
            assert len({len(f.face) for f in orb}) == 1

    def test_increase_radius_error(self):
        from coverkit import generate

        tiny = generate(4, 4, 1)  # too small for the depth-2 cores of level 2
        with pytest.raises(PatchTooSmallError, match="increase radius"):
            stabilize_n(tiny)


class TestColor:
    def test_palette_flags_color_to_own_index(self, patch44_r6):
        delta = i_fundamental_domain(patch44_r6, 1)
        for k, f in enumerate(delta.flags):
            assert color(Coloring(patch44_r6, delta), f) == k

    def test_single_color_everywhere(self, patch44_r10):
        delta = i_fundamental_domain(patch44_r10, 1)
        c = Coloring(patch44_r10, delta)
        for v in [v for v in patch44_r10.graph.vertices if patch44_r10.complete_radius[v] >= 2][:12]:
            for f in flags_at(c.g, v):
                assert color(c, f) == 0

    def test_surjective_and_orbit_constant(self, squareoct):
        n = stabilize_n(squareoct)
        delta = i_fundamental_domain(squareoct, n)
        cols = {}
        for f in flags_at(Host(squareoct), squareoct.root):
            cols.setdefault(color(Coloring(squareoct, delta), f), set()).add(f)
        assert set(cols) == set(range(len(delta)))
        assert sorted(map(frozenset, cols.values())) == sorted(map(frozenset, delta.orbits))

    @pytest.mark.parametrize("fixture", ["patch44_r10", "patch37_r5", "squareoct"])
    def test_root_flags_pulled_through_a_root_automorphism(self, fixture, request):
        # a root flag takes no shortcut: it is pulled to the root like any
        # other flag, and keeps its own orbit index
        patch = request.getfixturevalue(fixture)
        delta = i_fundamental_domain(patch, stabilize_n(patch))
        c = Coloring(patch, delta)
        root_flags = flags_at(c.g, patch.root)
        assert [color(c, f) for f in root_flags] == [delta.orbit_index[f] for f in root_flags]

    @pytest.mark.parametrize("fixture", ["patch44_r10", "patch37_r5", "squareoct"])
    def test_root_flag_on_a_non_face_is_a_defect(self, fixture, request):
        # the boundary of two faces across a root edge is a cycle through
        # the root, but not a face
        patch = request.getfixturevalue(fixture)
        c = Coloring(patch, i_fundamental_domain(patch, 1))
        root = patch.root
        u = patch.rotation[root][0]
        f1, f2 = (f for f in patch.faces_at(root) if edge_key(root, u) in f.edges)
        walk = f2.cycle_from(u, root)[1:] + f1.cycle_from(root, u)[1:]  # root first
        merged = FaceBoundary(walk)
        assert not patch.has_face(merged)
        with pytest.raises(DefectError, match="not a face"):
            color(c, Flag(root, edge_key(root, walk[1]), merged))

    def test_non_transitive_import_diagnosed(self):
        # dropping one link edge merges two octagons into a 14-gon; the
        # import still succeeds (trusted), but colouring a flag near the
        # damage reports the patch as not vertex-transitive there
        damaged, ids = build_squareoct_patch(6, drop_links=[(2, 0)])
        n = 1  # the root area is intact
        delta = i_fundamental_domain(damaged, n)
        victim = ids[(2, 0, 1)]  # on the merged 14-gon
        assert any(len(f.face) == 14 for f in flags_at(Host(damaged), victim))
        with pytest.raises(DefectError, match="not vertex-transitive"):
            for f in flags_at(Host(damaged), victim):
                color(Coloring(damaged, delta), f)

    def test_square_and_octagon_flags_differ(self, squareoct):
        n = stabilize_n(squareoct)
        delta = i_fundamental_domain(squareoct, n)
        c = Coloring(squareoct, delta)
        v = sorted(v for v in squareoct.graph.vertices if squareoct.complete_radius[v] >= 3)[5]
        by_len = {}
        for f in flags_at(c.g, v):
            by_len.setdefault(len(f.face), set()).add(color(c, f))
        assert by_len[4].isdisjoint(by_len[8])


class TestColorInH:
    def test_agrees_with_color_on_g_itself(self, patch44_r10):
        delta = i_fundamental_domain(patch44_r10, 1)
        c = Coloring(patch44_r10, delta)
        v = 7
        for f in flags_at(c.g, v):
            assert color_in_h(c, Host(patch44_r10), f) == color(c, f)

    def test_a_self_cover_blames_the_patch_on_every_path(self):
        # vertex 436 of the damaged 4.8.8 patch has a core that matches no
        # root core.  On the patch as its own target, a host whose source
        # is the patch is the patch side, so color, color_in_h on a Host of
        # the patch, a build seeded there and extend_iso onto it all raise
        # the patch's DefectError
        from coverkit import CoverKitError, CoverRun

        damaged, _ = build_squareoct_patch(6, drop_links=[(2, 0)])
        delta = i_fundamental_domain(damaged, 1)
        at_436, at_root = flags_at(Host(damaged), 436)[0], flags_at(Host(damaged), damaged.root)[0]
        paths = {
            "color": lambda: color(Coloring(damaged, delta), at_436),
            "color_in_h": lambda: color_in_h(Coloring(damaged, delta), Host(damaged, damaged.l_max), at_436),
            "build": lambda: CoverRun(damaged, damaged, f=at_root, flag_h=at_436, n=1).build(),
            "extend_iso": lambda: extend_iso(Coloring(damaged, delta), Host(damaged, damaged.l_max), at_root, at_436, 1),
        }
        for name, path in paths.items():
            with pytest.raises(CoverKitError) as err:
                path()
            want = (DefectError, "patch not vertex-transitive at 436: no depth-1 isomorphism")
            assert (type(err.value), str(err.value)) == want, name

    def test_torus_flags_all_color_zero(self, torus57, patch44_r10):
        delta = i_fundamental_domain(patch44_r10, 1)
        c = Coloring(patch44_r10, delta)
        torus = Host(torus57.graph, 4)
        for x in (0, 9, 17):
            for f in flags_at(torus, x):
                assert color_in_h(c, torus, f) == 0

    def test_every_pullback_gives_same_colors(self, torus57, patch44_r10):
        # the well-definedness lemma, by brute force: every isomorphism of
        # depth-1 cores induces the same colouring of the flags at x
        delta = i_fundamental_domain(patch44_r10, 1)
        x = 11
        target = face_core(Host(torus57.graph, 4), x, 1)
        ref = face_core(Host(patch44_r10), patch44_r10.root, 1)
        isos = rooted_isomorphisms(target.rooted, ref.rooted)
        assert len(isos) == 8
        flags = flags_at(Host(torus57.graph, 4), x)
        colorings = {
            tuple(delta.orbit_index[map_flag(pi, f)] for f in flags) for pi in isos
        }
        assert len(colorings) == 1


class TestWalkPull:
    """A colour is the palette lookup of the flag's face walk carried to
    the root; the reference pull carries the whole flag (`map_flag`) and
    looks it up in `orbit_index`."""

    @staticmethod
    def reference(c, host, f):
        core = face_core(host, f.vertex, c.n)
        iso = rooted_isomorphisms(core.rooted, c.root_core.rooted, limit=1)[0]
        return c.delta.orbit_index[map_flag(iso, f)]

    def test_agrees_with_the_reference_pull(self, patch44_r10, patch37_r5, patch63_r10, squareoct, torus57, klein66):
        # every flag at every vertex that can host a depth-n core: patch
        # flags through color, target flags through color_in_h
        cases = [(p, None) for p in (patch44_r10, patch37_r5, patch63_r10, squareoct)]
        cases += [(patch44_r10, torus57.graph), (patch44_r10, klein66.graph)]
        total = 0
        for patch, h in cases:
            n = stabilize_n(patch)
            c = Coloring(patch, i_fundamental_domain(patch, n))
            if h is None:
                host, pull = c.g, lambda f: color(c, f)
                need = max(dk_ball(c.g, patch.root, n).radius, 2)
                vertices = [v for v in patch.graph.vertices if patch.complete_radius[v] >= need]
            else:
                host = Host(h, patch.l_max)
                pull, vertices = (lambda f: color_in_h(c, host, f)), h.vertices
            for v in vertices:
                for f in flags_at(host, v):
                    assert pull(f) == self.reference(c, host, f), f
                    total += 1
        assert total >= 2000

    def test_builder_walks_pull_the_flag_colours(self, patch44_r10, patch37_r5, squareoct, torus57, klein66):
        # the builder colours each flag from its face walk, listed from the
        # vertex towards the edge's other end; on a colouring of its own,
        # that gives the flag's colour at every vertex of each target, or
        # raises the class and message that color_in_h raises on the Flag,
        # and on a self-cover color too: the host's source names the side,
        # so a self-cover's failures are the patch's DefectErrors.  The
        # 4.8.8 patch with a merged 14-gon, as its own target and as a
        # plain graph, and a walk round the two faces at each edge, which
        # lists no face, make every one of the four errors occur
        from coverkit import CoverKitError

        from .test_builder import squareoct_torus

        def outcome(pull):
            try:
                return pull()
            except CoverKitError as exc:
                return type(exc), str(exc)

        def walks_at(host, x):
            faces = host_faces_at(host, x)
            walks = [f.cycle_from(x, z) for f in faces for e in f.edges_at(x) for z in e if z != x]
            for u in host.graph.neighbors(x):
                f1, f2 = (f for f in faces if edge_key(x, u) in f.edges)
                merged = f2.cycle_from(u, x)[1:] + f1.cycle_from(x, u)[1:]
                if len(set(merged)) == len(merged):
                    walks.append(merged)
            return walks

        damaged, _ = build_squareoct_patch(6, drop_links=[(2, 0)])
        cases = [(patch44_r10, torus57.graph), (patch44_r10, klein66.graph)]
        cases += [(squareoct, squareoct_torus(4, 4)), (patch37_r5, patch37_r5)]
        cases += [(damaged, damaged), (damaged, damaged.graph)]
        pulled, raised = 0, Counter()
        for patch, h in cases:
            n = 1 if patch is damaged else stabilize_n(patch)
            delta = i_fundamental_domain(patch, n)
            walks, flags = Coloring(patch, delta), Coloring(patch, delta)
            host, flag_host = Host(h, patch.l_max), Host(h, patch.l_max)
            pulls = [lambda f: color_in_h(flags, flag_host, f)]
            if h is patch:
                pulls.append(lambda f: color(flags, f))
            if h is patch:
                vertices = [v for v in patch.graph.vertices if patch.is_interior(v)]
            elif h is patch.graph:  # a graph host finds one face at an edge of the patch's rim
                vertices = [v for v in h.vertices if patch.complete_radius[v] >= 2]
            else:
                vertices = h.vertices
            blamed = DefectError if h is patch else HypothesisViolationError
            for x in vertices:
                for walk in walks_at(host, x):
                    got = outcome(lambda: _colour(walks, host, x, walk))
                    for by_flag in pulls:
                        want = outcome(lambda: by_flag(Flag(x, edge_key(x, walk[1]), FaceBoundary(walk))))
                        assert got == want, (x, walk)
                        if isinstance(want, tuple):
                            assert want[0] is blamed, (x, walk, want)
                            raised[want[0], "face" in want[1]] += 1
                        else:
                            pulled += 1
        assert pulled >= 2000
        errors = {(cls, names_face) for cls in (DefectError, HypothesisViolationError) for names_face in (False, True)}
        assert set(raised) == errors, raised

    def test_pull_searches_equal_the_joint_reference(self, patch44_r10, patch37_r5, patch63_r10, squareoct, torus57, klein66):
        # the core of every vertex that can host one, searched against the
        # root core that the Coloring refined once, finds the maps, in
        # order, of the joint refinement run afresh per call
        cases = [(p, None) for p in (patch44_r10, patch37_r5, patch63_r10, squareoct)]
        cases += [(patch44_r10, torus57.graph), (patch44_r10, klein66.graph)]
        searched = 0
        for patch, h in cases:
            n = stabilize_n(patch)
            c = Coloring(patch, i_fundamental_domain(patch, n))
            if h is None:
                host, need = c.g, max(dk_ball(c.g, patch.root, n).radius, 2)
                vertices = [v for v in patch.graph.vertices if patch.complete_radius[v] >= need]
            else:
                host, vertices = Host(h, patch.l_max), h.vertices
            root = c.root_core.rooted
            for v in vertices:
                core = face_core(host, v, n).rooted
                assert assert_same_search(core, root, limit=1) == 1
                assert assert_same_search(core, root) >= 1
                searched += 1
        assert searched >= 500

    def test_root_core_refined_once_per_coloring(self, monkeypatch):
        # inputs of its own: a session fixture's pulls may be kept already,
        # and a kept pull searches nothing, so it refines nothing
        refined = []
        real = local._refine

        def counting(b, table, last=None):
            refined.append(b)
            return real(b, table, last)

        monkeypatch.setattr(local, "_refine", counting)
        patch44, patch37 = generate(4, 4, 10), generate(3, 7, 5)
        for patch, h in ((patch44, make_quotient(QuotientSpec("torus", 5, 7)).graph), (patch37, patch37)):
            c = Coloring(patch, i_fundamental_domain(patch, 1))
            host = Host(h, patch.l_max)
            vertices = [v for v in host.graph.vertices if h is not patch or patch.complete_radius[v] >= 3]
            for v in vertices:
                for f in flags_at(host, v):
                    color(c, f) if host.source is c.patch else color_in_h(c, host, f)
            assert sum(b is c.root_core.rooted for b in refined) == 1
            assert len(vertices) > 20

    def test_non_face_in_h_does_not_pull_back(self, patch44_r10, torus57):
        # the 6-cycle round two adjacent squares of the torus passes through
        # vertex 0, but is not a face; a patch cycle of the same kind is
        # test_root_flag_on_a_non_face_is_a_defect
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 1))
        torus = Host(torus57.graph, 4)
        x, u = 0, torus57.graph.neighbors(0)[0]
        f1, f2 = (f for f in host_faces_at(torus, x) if edge_key(x, u) in f.edges)
        walk = f2.cycle_from(u, x)[1:] + f1.cycle_from(x, u)[1:]  # x first
        flag = Flag(x, edge_key(x, walk[1]), FaceBoundary(walk))
        assert len(flag.face) == 6
        with pytest.raises(HypothesisViolationError, match="does not pull back to a face at the root"):
            color_in_h(c, torus, flag)


class TestHostIdentity:
    def test_one_coloring_keeps_two_targets_apart(self, patch44_r10, torus57, klein66):
        # vertex 3 exists in both targets with different faces: a face or
        # isomorphism memo keyed by vertex id alone would serve the Klein
        # bottle the torus's entries
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 1))
        faces = {}
        for name, inst in (("torus", torus57), ("klein", klein66)):
            host = Host(inst.graph, 4)
            faces[name] = set(host_faces_at(host, 3))
            # the reference is over an equal graph of its own, so it
            # shares no memo with the host of inst.graph
            cold = Graph(inst.graph.vertices, inst.graph.edges)
            assert faces[name] == set(face_boundaries_at(cold, 3, 4))
            flags = flags_at(host, 3)
            assert {f.face for f in flags} == faces[name]
            fresh = Coloring(patch44_r10, c.delta)
            assert [color_in_h(c, host, f) for f in flags] == [
                color_in_h(fresh, Host(cold, 4), f) for f in flags
            ] == [0] * 8
        assert faces["torus"] != faces["klein"]


def _cold_pull(h, l_max, c, x):
    """The core isomorphism at x found the long way: on a graph equal to
    h, so from a memo no other host has touched."""
    cold = Graph(h.vertices, h.edges)
    [iso] = rooted_isomorphisms(face_core(Host(cold, l_max), x, c.n).rooted, c.root_core.rooted, limit=1)
    return iso.mapping


class TestSharedPulls:
    """The colour pulls are kept on the source of each host, by the
    content of the reference: every Coloring of the patch at one level
    reads them, on every run, and nothing else does."""

    def test_dropped_inputs_free_their_pulls_without_the_cycle_collector(self):
        patch = generate(4, 4, 10)
        g = make_quotient(QuotientSpec("torus", 5, 7)).graph
        cov = build_cover(patch, g)
        patch_memo, target_memo = weakref.ref(Host(patch)._memo), weakref.ref(Host(g, patch.l_max)._memo)
        assert patch_memo().isos and target_memo().isos
        gc.disable()
        try:
            del cov
            assert target_memo() is not None  # the target keeps it
            del g
            assert target_memo() is None
            assert patch_memo() is not None
            del patch
            assert patch_memo() is None
        finally:
            gc.enable()

    def test_targets_freed_and_rebuilt_read_only_their_own_pulls(self, patch44_r10):
        # vertex ids repeat from one target to the next, and a freed
        # target's memory is reused for the next; every kept map must be
        # the search of its own target's core
        from .test_pipeline_property import _switched

        delta = i_fundamental_domain(patch44_r10, 1)
        for seed in range(6):
            kind = ("torus", "klein")[seed % 2]
            h = _switched(make_quotient(QuotientSpec(kind, 6, 6)).graph, seed % 3, seed)
            c, host = Coloring(patch44_r10, delta), Host(h, 4)
            assert host._memo.isos == {}
            for v in h.vertices:
                for f in flags_at(host, v):
                    try:
                        color_in_h(c, host, f)
                    except HypothesisViolationError:
                        break
            kept = c._isos[host]
            assert kept and all(iso == _cold_pull(h, 4, c, x) for x, iso in kept.items())
            del c, host, h, kept

    def test_levels_never_share_a_pull(self):
        patch = generate(4, 4, 10)
        h = make_quotient(QuotientSpec("torus", 5, 7)).graph
        host = Host(h, 4)
        colourings = [Coloring(patch, i_fundamental_domain(patch, n)) for n in (1, 2)]
        for c in colourings:
            for f in flags_at(host, 0) + flags_at(host, 9):
                color_in_h(c, host, f)
            for f in flags_at(c.g, 12):
                color(c, f)
        for side in (host, Host(patch)):
            assert sorted(n for n, _, _ in side._memo.isos) == [1, 2]
        one, two = (c._isos[host] for c in colourings)
        assert one is not two and set(one) == set(two) == {0, 9}
        for c, kept in zip(colourings, (one, two)):
            assert all(iso == _cold_pull(h, 4, c, x) for x, iso in kept.items())
            assert all(set(iso) == set(face_core(host, x, c.n).rooted.graph.vertices) for x, iso in kept.items())

    def test_a_failed_search_is_not_kept(self, patch44_r10, hex55):
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 1))
        host = Host(hex55.graph, 6)
        f = flags_at(host, 0)[0]
        for _ in range(2):
            with pytest.raises(HypothesisViolationError, match="h is not 1-locally-G at 0"):
                color_in_h(c, host, f)
        assert c._isos[host] == {}

    @pytest.mark.parametrize("on_the_patch", [False, True])
    def test_vertices_of_one_failing_shape_each_raise_their_own_error(self, on_the_patch, patch44_r10, hex55, monkeypatch):
        # vertices 2, 4 and 6 of a hex torus have cores of one shape, and
        # no square core matches it; so do vertices 176 and 436 of a 4.8.8
        # patch with two links dropped five cells apart, and its root core
        # matches neither.  One search, kept as a failure, and each vertex
        # raises its host's side's class with a message naming it
        import coverkit.flags as flags

        if on_the_patch:
            patch, _ = build_squareoct_patch(6, drop_links=[(2, 0), (-3, 0)])
            c = Coloring(patch, i_fundamental_domain(patch, 1))
            host, vertices = Host(patch), (176, 436)
        else:
            c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 1))
            host, vertices = Host(hex55.graph, 6), (2, 4, 6)
        searched = []
        real = flags.rooted_isomorphisms
        monkeypatch.setattr(flags, "rooted_isomorphisms", lambda a, b, limit: searched.append(a.root) or real(a, b, limit))
        for x in vertices:
            f = flags_at(host, x)[0]
            with pytest.raises(DefectError if on_the_patch else HypothesisViolationError) as err:
                _colour(c, host, x, f.face.cycle_from(x, f.other_end))
            want = f"patch not vertex-transitive at {x}: no depth-1 isomorphism" if on_the_patch else f"h is not 1-locally-G at {x}"
            assert str(err.value) == want
        assert searched == [vertices[0]] and c._isos[host] == {}

    def test_normality_reports_alike_cold_and_warm(self):
        patch = generate(4, 4, 10)
        h = make_quotient(QuotientSpec("torus", 5, 7)).graph
        cov = build_cover(patch, h)
        warm = check_normality(cov, samples=20).to_json_dict()
        for memo in (Host(patch)._memo, cov.h._memo):
            memo.isos.clear()
        assert check_normality(cov, samples=20).to_json_dict() == warm
        assert warm["ok"]


def _pairwise_check(ga, gb, vmap):
    """The reference: every pair of keys, in sorted order."""
    if len(set(vmap.values())) != len(vmap):
        return "extension is not injective on its core"
    keys = sorted(vmap)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if ga.has_edge(a, b) != gb.has_edge(vmap[a], vmap[b]):
                return f"extension does not preserve adjacency on ({a},{b})"
    return None


class TestPartialIsomorphismCheck:
    """extend_iso's last check, called directly: no build or drawn
    target has reached its raises."""

    SQUARE = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])  # a 4-cycle with a pendant at 3

    @staticmethod
    def outcome(vmap, gb=SQUARE):
        try:
            _verify_partial_isomorphism(TestPartialIsomorphismCheck.SQUARE, gb, vmap)
        except HypothesisViolationError as exc:
            return str(exc)
        return None

    def test_a_rotation_of_the_square_passes(self):
        assert self.outcome({0: 1, 1: 2, 2: 3, 3: 0}) is None

    def test_a_map_that_is_not_injective(self):
        assert self.outcome({0: 1, 1: 1}) == "extension is not injective on its core"
        assert self.outcome({0: 0, 1: 2, 2: 2}) == "extension is not injective on its core"

    def test_an_edge_onto_a_non_edge(self):
        assert self.outcome({0: 0, 1: 2}) == "extension does not preserve adjacency on (0,1)"

    def test_a_non_edge_onto_an_edge(self):
        assert self.outcome({0: 0, 2: 1}) == "extension does not preserve adjacency on (0,2)"

    def test_the_first_pair_in_sorted_order_is_named(self):
        # (0,1) is the first of several pairs whose adjacency changes, in
        # sorted order; in the map's own order (2,3) comes first
        assert self.outcome({0: 0, 1: 2, 2: 1, 3: 3, 4: 4}) == "extension does not preserve adjacency on (0,1)"
        assert self.outcome({2: 2, 3: 0, 0: 3, 1: 1}) == "extension does not preserve adjacency on (0,1)"

    def test_agrees_with_every_pair(self):
        import random

        rng = random.Random(7)
        for trial in range(400):
            n = rng.randint(2, 7)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            ga, gb = Graph(range(n), edges), Graph(range(n), [e for e in edges if rng.random() < 0.9])
            keys = rng.sample(range(n), rng.randint(1, n))
            vmap = {k: rng.randrange(n) if rng.random() < 0.1 else v for k, v in zip(keys, rng.sample(range(n), len(keys)))}
            try:
                _verify_partial_isomorphism(ga, gb, vmap)
                got = None
            except HypothesisViolationError as exc:
                got = str(exc)
            assert got == _pairwise_check(ga, gb, vmap), (edges, vmap)


class TestExtendIso:
    def test_identity(self, patch44_r10):
        delta = i_fundamental_domain(patch44_r10, 1)
        c = Coloring(patch44_r10, delta)
        f = flags_at(c.g, patch44_r10.root)[0]
        iso = extend_iso(c, c.g, f, f, 2)
        assert_unique_extension(c.g, c.g, f, iso)
        assert all(k == v for k, v in iso.mapping.items())

    def test_two_interior_vertices_unique_and_facial(self, patch44_r10):
        delta = i_fundamental_domain(patch44_r10, 1)
        c = Coloring(patch44_r10, delta)
        f = flags_at(c.g, patch44_r10.root)[0]
        g2 = flags_at(c.g, 12)[3]
        iso = extend_iso(c, c.g, f, g2, 2)
        assert_unique_extension(c.g, c.g, f, iso)
        assert iso[f.vertex] == g2.vertex
        assert iso.map_cycle(f.face) == g2.face
        for face in patch44_r10.faces_at(patch44_r10.root):
            if all(u in iso.mapping for u in face):
                assert patch44_r10.has_face(iso.map_cycle(face))

    def test_onto_torus_at_depth_one(self, patch44_r10, torus57):
        delta = i_fundamental_domain(patch44_r10, 1)
        c = Coloring(patch44_r10, delta)
        torus = Host(torus57.graph, 4)
        f = flags_at(c.g, patch44_r10.root)[0]
        fh = flags_at(torus, 5)[2]
        iso = extend_iso(c, torus, f, fh, 1)
        assert_unique_extension(c.g, torus, f, iso)
        assert iso[f.vertex] == 5
        assert len(iso.mapping) == 9

    @pytest.mark.parametrize(
        "fixture, vertex_pairs",
        [("patch44_r10", 4), ("patch37_r5", 1), ("patch63_r10", 4), ("patch45_r5", 2)],
    )
    def test_equals_the_propagation(self, fixture, vertex_pairs, request):
        # every flag pair at each sampled pair of vertices: one orbit, so
        # every pair is colour-compatible and all are compared
        patch = request.getfixturevalue(fixture)
        c = Coloring(patch, i_fundamental_domain(patch, 1))
        deep = sorted(v for v in patch.graph.vertices if patch.complete_radius[v] >= 4)
        compared = 0
        for v, w in zip(deep[:vertex_pairs], deep[::-1]):
            for f in flags_at(c.g, v):
                for fh in flags_at(c.g, w):
                    want = extension_by_propagation(c.g, c.g, f, fh, 2)
                    assert extend_iso(c, c.g, f, fh, 2).mapping == want
                    compared += 1
        assert compared == vertex_pairs * (2 * patch.graph.degree(patch.root)) ** 2

    def test_equals_the_propagation_onto_torus(self, patch44_r10, torus57):
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 1))
        torus = Host(torus57.graph, 4)
        deep = sorted(v for v in patch44_r10.graph.vertices if patch44_r10.complete_radius[v] >= 4)
        compared = 0
        for v, x in zip(deep, (0, 11, 17, 34)):
            for f in flags_at(c.g, v):
                for fh in flags_at(torus, x):
                    want = extension_by_propagation(c.g, torus, f, fh, 1)
                    assert extend_iso(c, torus, f, fh, 1).mapping == want
                    compared += 1
        assert compared == 4 * 8 * 8

    @pytest.mark.parametrize(
        "fixture, vertex_pairs",
        [("patch44_r10", 4), ("patch37_r5", 1), ("patch63_r10", 4), ("patch45_r5", 2)],
    )
    def test_searches_equal_the_joint_reference(self, fixture, vertex_pairs, request):
        # the flag pairs of test_equals_the_propagation, each prescribed
        # search against the joint refinement run afresh per call
        patch = request.getfixturevalue(fixture)
        host = Host(patch)
        deep = sorted(v for v in patch.graph.vertices if patch.complete_radius[v] >= 4)
        for v, w in zip(deep[:vertex_pairs], deep[::-1]):
            core_v, core_w = face_core(host, v, 2).rooted, face_core(host, w, 2).rooted
            assert assert_same_search(core_v, core_w) >= 1
            for f in flags_at(host, v):
                for fh in flags_at(host, w):
                    assert assert_same_search(core_v, core_w, prescribed=_prescription(f, fh)) == 1

    def test_rewired_target_rejected_by_both(self, patch44_r10):
        # torus 9x9 with (40,41), (49,50) rewired to (40,50), (41,49): the
        # depth-1 cores at 22 and 39 still pull back, so the colours
        # match, but no depth-2 extension exists there
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 1))
        g = make_quotient(QuotientSpec("torus", 9, 9)).graph
        rewired = Host(Graph(range(81), set(g.edges) - {(40, 41), (49, 50)} | {(40, 50), (41, 49)}), 4)
        f = flags_at(c.g, patch44_r10.root)[0]
        for x in (22, 39):
            for fh in flags_at(rewired, x):
                assert color_in_h(c, rewired, fh) == color(c, f)
                with pytest.raises(HypothesisViolationError):
                    extend_iso(c, rewired, f, fh, 2)
                with pytest.raises(HypothesisViolationError):
                    extension_by_propagation(c.g, rewired, f, fh, 2)

    def test_color_mismatch_rejected(self, squareoct):
        n = stabilize_n(squareoct)
        delta = i_fundamental_domain(squareoct, n)
        c = Coloring(squareoct, delta)
        root_flags = flags_at(c.g, squareoct.root)
        sq = next(f for f in root_flags if len(f.face) == 4)
        oc = next(f for f in root_flags if len(f.face) == 8)
        with pytest.raises(InputError):
            extend_iso(c, c.g, sq, oc, n + 1)

    @pytest.mark.parametrize(
        "m, r, message",
        [
            (
                5,
                3,
                "h is not 3-locally-G at 0: no isomorphism of depth-3 cores carries the flag at 0 onto it, "
                "faces onto faces",
            ),
            (5, 2, "extension does not preserve adjacency on (9,18)"),
            (7, 3, "extension does not preserve adjacency on (25,34)"),
        ],
    )
    def test_rejections_reached_through_the_public_api(self, patch44_r10, m, r, message):
        # a small torus at a depth its cores do not fit: at r = 3 on 5x5 no
        # core isomorphism carries faces onto faces; where one does, a chord
        # among core vertices that is no core edge reaches the final
        # adjacency check, which reads the whole graphs
        n = stabilize_n(patch44_r10)
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, n))
        host = Host(make_quotient(QuotientSpec("torus", m, m)).graph, 4)
        f = c.delta.flags[0]
        fh = min(x for x in flags_at(host, 0) if color_in_h(c, host, x) == color(c, f))
        with pytest.raises(HypothesisViolationError) as exc:
            extend_iso(c, host, f, fh, r)
        assert (n, str(exc.value)) == (1, message)

    def test_unique_extension_sample(self, patch45_r5):
        delta = i_fundamental_domain(patch45_r5, 1)
        c = Coloring(patch45_r5, delta)
        f = flags_at(c.g, patch45_r5.root)[0]
        targets = [v for v in patch45_r5.graph.vertices if patch45_r5.complete_radius[v] >= 4]
        for v in targets[:4]:
            for fh in flags_at(c.g, v)[:2]:
                assert_unique_extension(c.g, c.g, f, extend_iso(c, c.g, f, fh, 2))
