import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from coverkit import (
    Coloring,
    CoverKitError,
    CoverRun,
    FaceBoundary,
    Graph,
    Host,
    HypothesisViolationError,
    InputError,
    QuotientSpec,
    build_cover,
    check_cover,
    check_uniqueness,
    color,
    color_in_h,
    default_seed,
    extend_cover,
    extend_iso,
    flag_orbit_partition,
    flags_at,
    generate,
    i_fundamental_domain,
    import_patch,
    init_cover,
    make_quotient,
    match_face,
    select_next_face,
    stabilize_n,
)
import coverkit.builder as builder
from coverkit.builder import _intersection_path
from coverkit.instances import square_lattice_coordinates
from coverkit.local import dk_ball, face_core, host_faces_at, rooted_isomorphisms
from coverkit.tessellation import enumeration_key, face_enumeration

from .oracles import assert_frontier_cycle, intersection_path_by_adjacency, relabelled


@pytest.fixture(scope="module")
def delta44(patch44_r10):
    return i_fundamental_domain(patch44_r10, 1)


def seed_flag(patch):
    return flags_at(Host(patch), patch.root)[0]


def squareoct_torus(m, n):
    """The 4.8.8 tiling on an m x n torus: a square per lattice cell, its
    corners d = 0..3 joined round it and by link edges to the neighbouring
    cells' squares."""
    ids = {}
    for i in range(m):
        for j in range(n):
            for d in range(4):
                ids[(i, j, d)] = len(ids)
    edges = set()
    for (i, j, d), v in ids.items():
        if d in (0, 2):
            for dd in (1, 3):
                edges.add(tuple(sorted((v, ids[(i, j, dd)]))))
        if d == 0:
            edges.add(tuple(sorted((v, ids[((i + 1) % m, j, 2)]))))
        elif d == 1:
            edges.add(tuple(sorted((v, ids[(i, (j + 1) % n, 3)]))))
    return Graph(range(len(ids)), edges)


def face_at_cell(patch, coords, cell):
    """The patch face whose corners are the given lattice cell."""
    i, j = cell
    where = {c: v for v, c in coords.items()}
    corners = [where[(i, j)], where[(i + 1, j)], where[(i + 1, j + 1)], where[(i, j + 1)]]
    return FaceBoundary(corners)


def u_shape(patch, delta):
    """A U-shaped region of seven lattice cells, built face by face, with
    the two cells it leaves open: the trap, which meets the frontier in
    two disjoint edges, and the cell below it, which meets it in a path."""
    coords = square_lattice_coordinates(patch)
    cells = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (0, 1), (0, 2)]
    faces = [face_at_cell(patch, coords, c) for c in cells]
    c = Coloring(patch, delta)
    f = next(fl for fl in flags_at(c.g, patch.root) if fl.face == faces[0])
    state = init_cover(c, c.g, f, f)
    for face in faces[1:]:
        extend_cover(state, face, face)
    return state, face_at_cell(patch, coords, (1, 2)), face_at_cell(patch, coords, (1, 1))


class TestInitCover:
    def test_identity_seed(self, patch44_r10, delta44):
        f = seed_flag(patch44_r10)
        c = Coloring(patch44_r10, delta44)
        state = init_cover(c, c.g, f, f)
        assert all(k == v for k, v in state.vertex_map.items())
        assert set(state.face_image) == {f.face}
        assert state.frontier == set(f.face.edges)

    def test_all_eight_torus_seeds_valid(self, patch44_r10, delta44, torus57):
        f = seed_flag(patch44_r10)
        images = set()
        torus = Host(torus57.graph, 4)
        for fh in flags_at(torus, 0):
            state = init_cover(Coloring(patch44_r10, delta44), torus, f, fh)
            assert len(state.vertex_map) == 4
            images.add(tuple(sorted(state.vertex_map.items())))
        assert len(images) == 8  # distinct orientations, all legal

    def test_mismatched_face_length_rejected(self, patch44_r10, delta44, hex55):
        f = seed_flag(patch44_r10)
        hexa = Host(hex55.graph, 6)
        fh = flags_at(hexa, 0)[0]
        with pytest.raises(CoverKitError):
            init_cover(Coloring(patch44_r10, delta44), hexa, f, fh)

    def test_wholly_incompatible_target_rejected(self, patch44_r10, hex55):
        with pytest.raises(CoverKitError):
            build_cover(patch44_r10, hex55.graph)


class TestSelectNextFace:
    def test_first_selection_shares_one_edge(self, patch44_r10, delta44):
        from coverkit import face_enumeration

        f = seed_flag(patch44_r10)
        c = Coloring(patch44_r10, delta44)
        state = init_cover(c, c.g, f, f)
        enum = face_enumeration(patch44_r10)
        face = select_next_face(state)
        assert face is not None and face != f.face
        assert len(face.edges & state.frontier) == 1
        others = [
            x
            for x in enum
            if x not in state.face_image
            and x in state.coloring.eligible
            and x.edges & state.frontier
        ]
        assert face == others[0]

    def test_disjoint_intersection_skipped(self, patch44_r10, delta44):
        # the U's trap face must be passed over even when an adversarial
        # enumeration puts it first
        state, trap, fill = u_shape(patch44_r10, delta44)
        assert len(trap.edges & state.frontier) == 2
        state.pending = dict.fromkeys([trap, fill])
        chosen = select_next_face(state)
        assert chosen == fill

    def test_trap_face_rejected_before_the_frontier_changes(self, patch44_r10, delta44):
        # absorbing the trap would split the frontier into two cycles; the
        # builder's local path check refuses it and leaves the frontier as
        # it was, and the whole-frontier oracle refuses the split frontier
        state, trap, _ = u_shape(patch44_r10, delta44)
        before = set(state.frontier)
        with pytest.raises(InputError, match="does not meet the frontier in a path"):
            extend_cover(state, trap, trap)
        assert state.frontier == before
        assert_frontier_cycle(state.frontier)
        with pytest.raises(AssertionError, match="several cycles"):
            assert_frontier_cycle(state.frontier ^ trap.edges)

    def test_absorbed_face_rejected_before_the_frontier_changes(self, patch44_r10, delta44):
        # after one step the seed face meets the frontier in a path again;
        # absorbing it a second time would map it twice
        f = seed_flag(patch44_r10)
        c = Coloring(patch44_r10, delta44)
        state = init_cover(c, c.g, f, f)
        face = select_next_face(state)
        extend_cover(state, face, face)
        before = set(state.frontier)
        with pytest.raises(InputError, match="is not pending"):
            extend_cover(state, f.face, f.face)
        assert state.frontier == before and len(state.face_image) == 2

    def test_exhaustion_on_small_patch(self):
        patch = generate(4, 4, 4)
        cov = build_cover(patch, patch, n=1)
        assert cov.steps + 1 == len(cov.face_image)
        assert set(cov.face_image) == cov.eligible  # everything certified got mapped


class TestEligibleLedger:
    """The eligible faces are read off the faces at the vertices deep
    enough, once per Coloring, and each build, started through
    init_cover, sorts only them: the ledger is the whole face enumeration
    filtered to the eligible faces, and the eligible set is the filter of
    every face of the patch."""

    @pytest.fixture(
        scope="class",
        params=["{3,7}-R5", "{4,4}-R10", "{6,3}-R10", "imported-4.8.8"],
    )
    def patch(self, request):
        from .test_flags import build_squareoct_patch

        if request.param == "imported-4.8.8":
            return build_squareoct_patch(6)
        p, q, radius = {"{3,7}-R5": (3, 7, 5), "{4,4}-R10": (4, 4, 10), "{6,3}-R10": (6, 3, 10)}[request.param]
        return generate(p, q, radius)

    def test_ledger_is_the_filtered_enumeration(self, patch):
        n = stabilize_n(patch)
        f = seed_flag(patch)
        run = CoverRun(patch, patch, f=f, flag_h=f, n=n)
        c = run.coloring
        need = max(dk_ball(c.g, patch.root, n).radius, 2)
        whole = frozenset(x for x in patch.faces if all(patch.complete_radius[v] >= need for v in x))
        assert c.eligible == whole and len(whole) > 20
        for t in (0, 1, 2):
            want = [x for x in face_enumeration(patch, t) if x in whole]
            assert list(init_cover(c, run.host, *run.seed, t).pending) == [x for x in want if x != f.face]

    def test_enumeration_key_has_no_ties(self, patch):
        # the ledger sorts a subset of the faces; with no two keys equal
        # it comes out in the order of the whole enumeration
        for t in (0, 1, 2):
            key = enumeration_key(patch, t)
            assert len({key(f) for f in patch.faces}) == len(patch.faces)

    def test_uniqueness_builds_find_the_eligible_faces_once(self, patch44_r10, torus57, monkeypatch):
        # every build starts through init_cover, and the builds of one run
        # share its colouring's eligible faces
        from coverkit import check_uniqueness

        starts, found = [], []
        start, find = builder.init_cover, Coloring.eligible.func

        def counting_start(c, *args):
            starts.append(c)
            return start(c, *args)

        def counting_find(c):
            found.append(c)
            return find(c)

        eligible = cached_property(counting_find)
        eligible.__set_name__(Coloring, "eligible")
        monkeypatch.setattr(builder, "init_cover", counting_start)
        monkeypatch.setattr(Coloring, "eligible", eligible)
        assert check_uniqueness(patch44_r10, torus57.graph, trials=3).ok
        assert len(starts) == 3 and len(found) == 1
        run = CoverRun(patch44_r10, torus57.graph)
        assert len(found) == 1  # preparing a run finds none
        for t in (0, 1, 2, 0):
            run.build(t)
        assert len(starts) == 7 and len(found) == 2
        assert starts[3:] == [run.coloring] * 4 and found[1] is run.coloring


def _quotient_target(p, q, radius, kind, m, n):
    return lambda: (generate(p, q, radius), make_quotient(QuotientSpec(kind, m, n)).graph)


def _relabelled_target(p, q, radius, kind, m, n, seed):
    def build():
        g = make_quotient(QuotientSpec(kind, m, n)).graph
        return generate(p, q, radius), Graph(g.vertices, relabelled(g, seed)[1])

    return build


def _switched_target(p, q, radius, kind, m, n, switches, seed):
    def build():
        from .test_pipeline_property import _switched

        return generate(p, q, radius), _switched(make_quotient(QuotientSpec(kind, m, n)).graph, switches, seed)

    return build


def _self_cover(p, q, radius):
    def build():
        patch = generate(p, q, radius)
        return patch, patch

    return build


class TestSharedPath:
    @pytest.mark.parametrize(
        "instance",
        [
            _quotient_target(4, 4, 10, "torus", 5, 7),
            _quotient_target(4, 4, 8, "klein", 12, 12),
            _quotient_target(6, 3, 10, "hex_torus", 5, 5),
            _self_cover(3, 7, 6),
            _self_cover(4, 5, 6),
            _self_cover(5, 4, 6),
        ],
        ids=["{4,4}-torus-5x7", "{4,4}-klein-12x12", "{6,3}-hex-5x5", "{3,7}-self", "{4,5}-self", "{5,4}-self"],
    )
    def test_every_pending_face_agrees_with_the_reference(self, instance):
        # the one walk round the face gives the adjacency walk's path, or
        # its None, for every face still pending at every step
        run = CoverRun(*instance())
        for tie_break in (0, 1, 2):
            state = init_cover(run.coloring, run.host, *run.seed, tie_break)
            while True:
                for x in state.pending:
                    assert _intersection_path(x, state) == intersection_path_by_adjacency(x, state), x
                face = select_next_face(state)
                if face is None:
                    break
                extend_cover(state, face, match_face(state, face))
            assert len(state.face_image) > 11


class TestMatchFace:
    def test_single_edge_picks_fresh_side(self, patch44_r10, delta44, torus57):
        c, torus = Coloring(patch44_r10, delta44), Host(torus57.graph, 4)
        f, fh = default_seed(c, torus)
        state = init_cover(c, torus, f, fh)
        face = select_next_face(state)
        image = match_face(state, face)
        assert image != fh.face
        shared = face.edges & state.frontier
        img_shared = {
            tuple(sorted((state.vertex_map[a], state.vertex_map[b]))) for a, b in shared
        }
        assert img_shared <= set(image.edges)
        assert len(image) == len(face)

    def test_identity_run_matches_true_face(self, patch44_r10, delta44):
        f = seed_flag(patch44_r10)
        c = Coloring(patch44_r10, delta44)
        state = init_cover(c, c.g, f, f)
        for _ in range(10):
            face = select_next_face(state)
            image = match_face(state, face)
            assert image == face
            extend_cover(state, face, image)

    def test_longer_path_unique(self, patch44_r10, delta44, torus57):
        c, torus = Coloring(patch44_r10, delta44), Host(torus57.graph, 4)
        f, fh = default_seed(c, torus)
        state = init_cover(c, torus, f, fh)
        saw_long_path = False
        for _ in range(12):
            face = select_next_face(state)
            if len(face.edges & state.frontier) >= 2:
                saw_long_path = True
            extend_cover(state, face, match_face(state, face))
        assert saw_long_path


class TestStepRecord:
    """A step's shared path is found once, where the step chooses its
    face, and read from the step record until a face is absorbed."""

    @pytest.mark.parametrize(
        "build, steps",
        [
            (_quotient_target(4, 4, 16, "torus", 9, 9), 363),
            (_quotient_target(4, 4, 8, "klein", 12, 12), 59),
            (_self_cover(3, 7, 7), 846),
        ],
        ids=["torus 9x9", "klein 12x12", "{3,7} self"],
    )
    def test_one_walk_per_step(self, build, steps, monkeypatch):
        # three walks per step when select, match and extend each found the path
        run = CoverRun(*build())
        calls = dict.fromkeys(["_intersection_path", "select_next_face", "match_face", "extend_cover"], 0)

        def counting(name):
            real = getattr(builder, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(builder, name, counting(name))
        assert run.build().steps == steps
        assert calls == {
            "_intersection_path": steps,
            "select_next_face": steps + 1,
            "match_face": steps,
            "extend_cover": steps,
        }

    def test_match_face_refuses_a_face_off_the_frontier(self, patch44_r10, torus57):
        run = CoverRun(patch44_r10, torus57.graph)
        state = init_cover(run.coloring, run.host, *run.seed)
        chosen = select_next_face(state)
        record = state.step
        far = next(x for x in state.pending if not set(x.cycle) & set(state.vertex_map))
        with pytest.raises(InputError) as err:
            match_face(state, far)
        assert str(err.value) == "face does not meet the frontier in a path"
        assert state.step == record and record[0] == chosen

    def test_match_face_refuses_an_absorbed_face(self, patch44_r10, torus57):
        # after one step the seed face meets the frontier in a path again,
        # so only its absorption can refuse it, as a caller's error
        run = CoverRun(patch44_r10, torus57.graph)
        state = init_cover(run.coloring, run.host, *run.seed)
        face = select_next_face(state)
        extend_cover(state, face, match_face(state, face))
        seed_face = run.seed[0].face
        assert _intersection_path(seed_face, state) is not None
        with pytest.raises(InputError) as err:
            match_face(state, seed_face)
        assert str(err.value) == f"face {seed_face} is not pending"
        assert state.step is None

    def test_an_image_off_the_shared_path_is_refused(self, patch44_r10, torus57):
        # the first three-vertex path, and the other square at the image of
        # its first edge: the one the earlier steps mapped
        run = CoverRun(patch44_r10, torus57.graph)
        state = init_cover(run.coloring, run.host, *run.seed)
        for _ in range(2):
            face = select_next_face(state)
            extend_cover(state, face, match_face(state, face))
        face = select_next_face(state)
        assert state.step == (face, [4, 0, 6])
        right = match_face(state, face)
        first = builder._image(state, (0, 4))
        [wrong] = [b for b in host_faces_at(run.host, state.vertex_map[4]) if first in b.edges and b != right]
        assert len(wrong) == len(face)
        before = dict(state.vertex_map)
        with pytest.raises(HypothesisViolationError) as err:
            extend_cover(state, face, wrong)
        assert str(err.value) == "step 3: image face does not align with the shared path"
        assert state.vertex_map == before and face in state.pending

    @pytest.mark.parametrize("then", ["match_face", "extend_cover"])
    def test_a_stale_record_is_never_used(self, then, patch44_r10, torus57):
        # face a is chosen with path [0, 3]; face b, absorbed by hand
        # instead, puts the edge (0, 6) on the frontier, so a's path is
        # then [3, 0, 6].  The twin absorbs b without choosing a first.
        run = CoverRun(patch44_r10, torus57.graph)
        state, twin = (init_cover(run.coloring, run.host, *run.seed) for _ in range(2))
        for s in (state, twin):
            first = select_next_face(s)
            extend_cover(s, first, match_face(s, first))
        a, b = select_next_face(state), FaceBoundary((0, 4, 7, 6))
        assert state.step == (a, [0, 3]) and b.edges & a.edges
        for s in (state, twin):
            extend_cover(s, b, match_face(s, b))
        assert state.step is None
        image = match_face(twin, a)
        if then == "match_face":
            assert match_face(state, a) == image
            assert state.step == (a, [3, 0, 6])
        extend_cover(state, a, image)
        extend_cover(twin, a, image)
        assert state.vertex_map == twin.vertex_map and state.frontier == twin.frontier


class TestBuildCover:
    def test_identity_cover_is_identity(self, patch44_r10):
        cov = build_cover(patch44_r10, patch44_r10)
        assert all(k == v for k, v in cov.vertex_map.items())

    def test_torus_cover(self, patch44_r10, torus57):
        cov = build_cover(patch44_r10, torus57.graph)
        assert cov.surjective
        assert set(cov.vertex_map.values()) == set(torus57.graph.vertices)
        fibers = {}
        for v in cov.region_interior():
            fibers[cov.vertex_map[v]] = fibers.get(cov.vertex_map[v], 0) + 1
        assert set(fibers) == set(torus57.graph.vertices)
        assert min(fibers.values()) >= 2

    def test_every_step_preserved_colors(self, patch44_r10, torus57):
        cov = build_cover(patch44_r10, torus57.graph)
        assert cov.steps > 100  # always-on checks ran at every one of these

    def test_facial_walks_preserved(self, patch44_r10, torus57):
        cov = build_cover(patch44_r10, torus57.graph)
        for face in sorted(cov.face_image)[:40]:
            image = cov.face_image[face]
            cyc = face.cycle_from(face.cycle[0], face.cycle[1])
            img = [cov.vertex_map[v] for v in cyc]
            assert FaceBoundary(img) == image
            # every length-3 facial walk maps onto a facial walk of the image
            for t in range(len(cyc)):
                w = [img[t], img[(t + 1) % len(cyc)], img[(t + 2) % len(cyc)]]
                assert {tuple(sorted(w[:2])), tuple(sorted(w[1:]))} <= {
                    tuple(sorted(e)) for e in image.edges
                }

    def test_order_independence(self, patch44_r10, torus57):
        base = CoverRun(patch44_r10, torus57.graph).build(0)
        for tb in (1, 2):
            other = CoverRun(patch44_r10, torus57.graph).build(tb)
            assert other.vertex_map == base.vertex_map
            assert other.face_image.keys() == base.face_image.keys()

    def test_prepared_run_rebuilds_like_a_fresh_one(self, patch44_r10, klein66):
        # builds share the run's memoised faces and isomorphisms, so each
        # must give what a run prepared for it alone gives
        run = CoverRun(patch44_r10, klein66.graph)
        for tb in (2, 0, 1):
            first, second = run.build(tb), run.build(tb)
            fresh = CoverRun(patch44_r10, klein66.graph).build(tb)
            assert first.to_json_dict() == second.to_json_dict() == fresh.to_json_dict()
            assert first.log == second.log == fresh.log

    def test_klein_cover(self, patch44_r10, klein66):
        cov = build_cover(patch44_r10, klein66.graph)
        assert cov.surjective

    def test_hex_cover(self, patch63_r10, hex55):
        cov = build_cover(patch63_r10, hex55.graph)
        assert cov.surjective

    def test_multi_color_cover_on_squareoct_tiling(self):
        # two face sizes give a three-flag palette; the whole pipeline must
        # run with genuinely distinct colours in play
        from coverkit import check_normality

        from .test_flags import build_squareoct_patch

        patch = build_squareoct_patch(9)
        n = stabilize_n(patch)
        delta = i_fundamental_domain(patch, n)
        assert len(delta) == 3
        target = squareoct_torus(4, 4)
        cov = build_cover(patch, target, n=n)
        assert cov.surjective
        assert check_cover(cov).ok
        assert check_normality(cov, samples=10).ok

    def test_pentagon_tessellation_self_covers(self):
        from coverkit import check_cover, stabilize_n

        patch = generate(5, 4, 5)
        n = stabilize_n(patch)
        delta = i_fundamental_domain(patch, n)
        assert (n, len(delta)) == (1, 1)
        cov = build_cover(patch, patch, n=n)
        assert all(k == v for k, v in cov.vertex_map.items())
        assert check_cover(cov).ok

    def test_triangular_tessellation_self_covers(self):
        # p = 3 exercises the shortest faces: shared paths close fast and
        # the fresh-side condition fires on triangle corners
        from coverkit import check_cover, stabilize_n

        patch = generate(3, 6, 8)
        n = stabilize_n(patch)
        delta = i_fundamental_domain(patch, n)
        assert (n, len(delta)) == (1, 1)
        cov = build_cover(patch, patch, n=n)
        assert all(k == v for k, v in cov.vertex_map.items())
        assert check_cover(cov).ok
        rotated = build_cover(
            patch,
            patch,
            f=flags_at(Host(patch), patch.root)[0],
            flag_h=flags_at(Host(patch), patch.root)[5],
            n=n,
        )
        vals = list(rotated.vertex_map.values())
        assert len(set(vals)) == len(vals)

    def test_hyperbolic_self_cover_rerooted(self):
        big = generate(4, 5, 8)
        small = generate(4, 5, 4)
        delta = i_fundamental_domain(small, 1)
        f = seed_flag(small)
        big_dist = big.graph.distances_from(big.root)
        target_vertex = sorted(v for v in big.graph.vertices if big_dist[v] == 2)[0]
        fh = flags_at(Host(big), target_vertex)[1]
        cov = build_cover(small, big, f=f, flag_h=fh, n=1)
        vals = list(cov.vertex_map.values())
        assert len(set(vals)) == len(vals)  # injective into the bigger patch
        iso = extend_iso(Coloring(small, delta), Host(big), f, fh, 2)
        overlap = set(iso.mapping) & set(cov.vertex_map)
        assert overlap
        assert all(iso.mapping[u] == cov.vertex_map[u] for u in overlap)


def _relabelled_patch(patch, perm):
    """The patch with each vertex v renamed perm[v], through its JSON."""
    d, r = patch.to_json_dict(), perm.__getitem__
    d.update(
        edges=[[r(u), r(w)] for u, w in d["edges"]],
        rotation={str(r(int(v))): [r(u) for u in rot] for v, rot in d["rotation"].items()},
        root=r(d["root"]),
        faces=[[r(v) for v in c] for c in d["faces"]],
        outer=[r(v) for v in d["outer"]],
        complete_radius={str(r(int(v))): k for v, k in d["complete_radius"].items()},
    )
    return import_patch(d)


def _shuffled(patch, seed):
    perm = list(range(patch.graph.n))
    random.Random(seed).shuffle(perm)
    return perm


def _zero_at_radius(patch, radius):
    """The renaming that swaps 0 with the least vertex of this complete radius."""
    v = min(u for u, k in enumerate(patch.complete_radius) if k == radius)
    perm = list(range(patch.graph.n))
    perm[0], perm[v] = v, 0
    return perm


class TestRelabelledSelfCover:
    """A self-cover of a vertex-transitive, planar, 1-ended patch is the
    identity, however the patch is labelled: the default seed pairs the
    least root flag with itself, since a patch target starts at its root.
    Each relabelled build keeps the step count and the surjective flag of
    the patch as generated."""

    @pytest.mark.parametrize(
        "make, steps, renamings",
        [
            (lambda: generate(4, 4, 10), 111, [(_shuffled, 0), (_shuffled, 1), (_shuffled, 2),
                                              (_zero_at_radius, 0), (_zero_at_radius, 4)]),
            (lambda: generate(6, 3, 10), 26, [(_shuffled, 0), (_shuffled, 1), (_shuffled, 2)]),
            (lambda: generate(3, 7, 5), 111, [(_shuffled, 0), (_shuffled, 1), (_shuffled, 2)]),
        ],
        ids=["{4,4} R=10", "{6,3} R=10", "{3,7} R=5"],
    )
    def test_labels_carry_no_meaning(self, make, steps, renamings):
        patch = make()
        plain = build_cover(patch, patch)
        assert plain.steps == steps and all(k == v for k, v in plain.vertex_map.items())
        for rename, arg in renamings:
            perm = rename(patch, arg)
            p = _relabelled_patch(patch, perm)
            cov = build_cover(p, p)
            assert all(k == v for k, v in cov.vertex_map.items()), (rename.__name__, arg)
            assert set(cov.vertex_map) == {perm[v] for v in plain.vertex_map}
            assert (cov.steps, cov.surjective) == (plain.steps, plain.surjective)

    def test_a_root_far_from_vertex_0(self):
        # the 4.8.8 patch is rooted at 720, and its vertex 0 lies on its rim
        from .test_flags import build_squareoct_patch

        patch = build_squareoct_patch(9)
        assert (patch.root, patch.complete_radius[0]) == (720, 0)
        cov = build_cover(patch, patch)
        assert cov.steps == 420 and all(k == v for k, v in cov.vertex_map.items())


class TestOneSidedSeed:
    """A missing seed flag is completed against the colour of the given
    one, on a 4.8.8 patch whose root flags have colours 0, 1, 0, 1, 2, 2."""

    @pytest.fixture(scope="class")
    def run(self):
        from .test_flags import build_squareoct_patch

        patch = build_squareoct_patch(9)
        n = stabilize_n(patch)
        c = Coloring(patch, i_fundamental_domain(patch, n))
        target = squareoct_torus(4, 4)
        host = Host(target, patch.l_max)
        root_flags = flags_at(c.g, patch.root)
        assert [color(c, f) for f in root_flags] == [0, 1, 0, 1, 2, 2]
        by_color = {}
        for fh in flags_at(host, 0):
            by_color.setdefault(color_in_h(c, host, fh), fh)  # the least of each colour
        return patch, n, target, root_flags, by_color

    def test_given_f_gets_the_least_target_flag_of_its_colour(self, run):
        patch, n, target, root_flags, by_color = run
        cov = build_cover(patch, target, f=root_flags[1], n=n)
        assert cov.seed == (root_flags[1], by_color[1])
        assert cov.surjective and cov.steps == 420 and check_cover(cov).ok

    def test_given_flag_h_gets_the_least_root_flag_of_its_colour(self, run):
        patch, n, target, root_flags, by_color = run
        cov = build_cover(patch, target, flag_h=by_color[1], n=n)
        assert cov.seed == (root_flags[1], by_color[1])
        assert cov.surjective and check_cover(cov).ok

    def test_a_flag_of_the_default_colour_gets_the_default_partner(self, run):
        patch, n, target, root_flags, by_color = run
        default = CoverRun(patch, target, n=n).seed
        assert default == (root_flags[0], by_color[0])
        for f in (root_flags[0], root_flags[2]):
            assert CoverRun(patch, target, f=f, n=n).seed == (f, by_color[0])
        assert CoverRun(patch, target, flag_h=by_color[0], n=n).seed == default


class TestNegativeDetection:
    def test_builder_halts_on_defect_away_from_seed(self, patch44_r10, torus57):
        # rewiring far from the seed lets the build start; it must halt
        # with a diagnostic once the frontier's image reaches the damage,
        # never return a silently wrong map
        from coverkit import Graph, HypothesisViolationError
        from coverkit.graph import edge_key

        g = torus57.graph
        e1, e2 = edge_key(16, 17), edge_key(23, 24)
        bad = Graph(range(35), set(g.edges) - {e1, e2} | {edge_key(16, 24), edge_key(23, 17)})
        assert all(bad.degree(v) == 4 for v in bad.vertices)
        with pytest.raises(HypothesisViolationError, match=r"^h is not 1-locally-G at 9$"):
            build_cover(patch44_r10, bad)

    def test_rewired_torus_detected(self, patch44_r10, torus57):
        from coverkit import Graph, check_cover, is_r_locally

        g = torus57.graph
        e1, e2 = (0, 1), (17, 18)
        assert g.has_edge(*e1) and g.has_edge(*e2)
        edges = set(g.edges) - {e1, e2} | {(0, 18), (1, 17)}
        assert not g.has_edge(0, 18) and not g.has_edge(1, 17)
        bad = Graph(range(35), edges)
        assert all(bad.degree(v) == 4 for v in bad.vertices)

        detected = not is_r_locally(bad, patch44_r10, 2, d_balls=True).ok
        if not detected:
            try:
                cov = build_cover(patch44_r10, bad)
            except CoverKitError:
                detected = True
            else:
                detected = not check_cover(cov).ok
        assert detected


class TestFlagFreeBuild:
    @pytest.mark.parametrize("target", ["torus 9x9", "{3,7} self"])
    def test_a_build_constructs_no_flag(self, target, patch44_r10, monkeypatch):
        # the seed flags exist before the build; every later flag is
        # pulled from its face walk, and a Flag is built only to report
        # a failure
        from coverkit import Flag

        if target == "torus 9x9":
            patch, h = patch44_r10, make_quotient(QuotientSpec("torus", 9, 9)).graph
        else:
            patch = h = generate(3, 7, 5)
        run = CoverRun(patch, h)
        made = []
        real = Flag.__post_init__

        def counting(flag):
            made.append(flag)
            real(flag)

        monkeypatch.setattr(Flag, "__post_init__", counting)
        cov = run.build()
        assert cov.steps > 50 and made == []


def _pulled(host):
    """The vertices of host's source whose core isomorphism is kept, for
    the one reference a fresh input has met."""
    [table] = host._memo.isos.values()
    return set(table)


def _counting_pulls(monkeypatch, pinned=False):
    """The colour pulls' core searches from now on: those in flags that
    pin no vertex (orbit partitions and extend_iso always do).  With
    `pinned`, those that do."""
    import coverkit.flags as flags

    pulls = []
    real = flags.rooted_isomorphisms

    def counting(a, b, limit=None, prescribed=None):
        if (prescribed is not None) == pinned:
            pulls.append(a.root)
        return real(a, b, limit, prescribed)

    monkeypatch.setattr(flags, "rooted_isomorphisms", counting)
    return pulls


class TestColourSearchCount:
    """The colour check's scaling rule, as counts: a first build makes one
    core search per distinct core shape (the core in ranks, rooted), and
    keeps one map per distinct patch vertex and one per distinct image
    vertex, and nothing else that grows with the target.  The inputs keep
    the maps, so a second build, a second run and check_uniqueness make
    no search."""

    @pytest.mark.parametrize(
        "build, shapes, want",
        [
            (_quotient_target(4, 4, 16, "torus", 9, 9), 20, 417 + 81),
            (_quotient_target(4, 4, 8, "klein", 12, 12), 22, 81 + 81),
            (_self_cover(3, 7, 7), 5, 617),
            (_quotient_target(4, 4, 16, "torus", 60, 60), 20, 417 + 417),
        ],
        ids=["torus 9x9", "klein 12x12", "{3,7} self", "torus 60x60"],
    )
    def test_one_search_per_distinct_core_shape(self, build, shapes, want, monkeypatch):
        # one search per distinct vertex (498, 162, 617 and 834) when each
        # vertex searched its own core
        patch, h = build()
        pulls = _counting_pulls(monkeypatch)
        run = CoverRun(patch, h)
        cov = run.build()
        assert len(pulls) == shapes
        mapped = {y for face in cov.face_image for y in face}
        images = {x for face in cov.face_image.values() for x in face}
        if h is patch:  # one host: a vertex is pulled once, on either side
            assert _pulled(run.host) == mapped | images and len(mapped | images) == want
        else:
            assert (_pulled(run.coloring.g), _pulled(run.host)) == (mapped, images)
            assert len(mapped) + len(images) == want
        pulls.clear()
        assert run.build().vertex_map == cov.vertex_map
        assert CoverRun(patch, h).build().vertex_map == cov.vertex_map
        assert pulls == []

    @pytest.mark.parametrize(
        "build",
        [
            _quotient_target(4, 4, 10, "torus", 5, 7),
            _quotient_target(4, 4, 16, "torus", 9, 9),
            _quotient_target(4, 4, 16, "klein", 8, 8),
            _quotient_target(6, 3, 12, "hex_torus", 5, 5),
            _quotient_target(6, 3, 20, "hex_torus", 8, 8),
            _self_cover(3, 7, 7),
            _relabelled_target(4, 4, 16, "torus", 9, 9, 1),
            _switched_target(4, 4, 10, "klein", 7, 8, 1, 0),
        ],
        ids=["torus 5x7", "torus 9x9", "klein 8x8", "hex 5x5", "hex 8x8", "{3,7} self", "relabelled 9x9", "switched klein"],
    )
    def test_every_kept_map_is_the_search_of_its_own_core(self, build):
        # a map carried over from another vertex of the same shape equals
        # the search of the vertex's own core, items in the same order
        patch, h = build()
        run = CoverRun(patch, h)
        try:
            run.build()
        except HypothesisViolationError as exc:
            assert h is not patch and str(exc).startswith("h is not 1-locally-G at ")
        c = run.coloring
        kept = [(host, x, iso) for host, table in c._isos.items() for x, iso in table.items()]
        assert len(kept) > 2 * len(c._shapes)
        for host, x, iso in kept:
            [found] = rooted_isomorphisms(face_core(host, x, c.n).rooted, c.root_core.rooted, limit=1)
            assert list(iso.items()) == list(found.mapping.items()), x

    @pytest.mark.parametrize(
        "build, fails",
        [(_quotient_target(4, 4, 16, "torus", 9, 9), False), (_switched_target(4, 4, 10, "klein", 7, 8, 1, 0), True)],
        ids=["torus 9x9", "switched klein"],
    )
    def test_pulls_in_reverse_order_keep_the_same_maps(self, build, fails):
        # on cold inputs each vertex's map, or its error, does not depend
        # on which vertex of its shape was searched first
        def pull_all(order):
            patch, h = build()
            c = Coloring(patch, i_fundamental_domain(patch, 1))
            host = Host(h, patch.l_max)
            errors = {}
            for x in order(host.graph.vertices):
                try:
                    for f in flags_at(host, x):
                        color_in_h(c, host, f)
                except HypothesisViolationError as exc:
                    errors[x] = str(exc)
            maps = {x: list(iso.items()) for x, iso in c._isos[host].items()}
            return maps, errors, len(c._shapes)

        forward, backward = pull_all(list), pull_all(lambda vs: vs[::-1])
        assert forward == backward
        maps, errors, shapes = forward
        assert shapes < len(maps) and bool(errors) == fails

    def test_the_root_is_part_of_the_shape(self, patch44_r10, monkeypatch):
        # on a 4 x 4 torus every vertex's depth-2 core is the whole torus,
        # one face set in one set of ranks; rooted at each vertex it is a
        # shape of its own, and each vertex fails with its own message
        c = Coloring(patch44_r10, i_fundamental_domain(patch44_r10, 2))
        host = Host(make_quotient(QuotientSpec("torus", 4, 4)).graph, 4)
        assert len({face_core(host, x, 2).faces for x in host.graph.vertices}) == 1
        pulls = _counting_pulls(monkeypatch)
        for x in host.graph.vertices:
            with pytest.raises(HypothesisViolationError) as err:
                color_in_h(c, host, flags_at(host, x)[0])
            assert str(err.value) == f"h is not 2-locally-G at {x}"
        assert len(pulls) == len(c._shapes) == 16 and c._isos[host] == {}

    def test_uniqueness_after_a_build_searches_no_vertex_again(self, monkeypatch):
        # the wide-target pipeline: 162 colour searches in check_uniqueness
        # when each run kept its own
        patch, h = _quotient_target(4, 4, 8, "klein", 12, 12)()
        build_cover(patch, h)
        pulls = _counting_pulls(monkeypatch)
        assert check_uniqueness(patch, h, trials=3).ok
        assert pulls == []


class TestOrbitPartitionCount:
    def test_each_level_is_partitioned_once_per_patch(self, monkeypatch):
        # the wide-target inputs: each run partitioned levels 1, 2 and 1
        # again, 21 pinned searches, and check_uniqueness another 21
        patch, h = _quotient_target(4, 4, 8, "klein", 12, 12)()
        searches = _counting_pulls(monkeypatch, pinned=True)
        cov = build_cover(patch, h)
        assert len(searches) == 14  # levels 1 and 2, once each
        searches.clear()
        assert CoverRun(patch, h).build().vertex_map == cov.vertex_map
        assert check_uniqueness(patch, h, trials=3).ok
        assert searches == []
        kept = flag_orbit_partition(patch, 1)
        assert flag_orbit_partition(patch, 1) == kept and flag_orbit_partition(patch, 1) is not kept


def _hand_built(c, face, image, vertex_map):
    """A partial cover holding only what the colour check reads: the
    colouring, its patch as the host, the vertex map and an empty log."""
    return builder.PartialCover(
        coloring=c,
        host=c.g,
        vertex_map=vertex_map,
        frontier=set(face.edges),
        pending={},
        face_image={face: image},
        domain_edges_at={},
    )


class TestColorCheckErrors:
    """The colour check's errors, class and message, on partial covers
    built by hand on the 4.8.8 patch (three colours at n = 1)."""

    OCTAGON = FaceBoundary((112, 113, 119, 116, 170, 171, 165, 166))

    @pytest.fixture(scope="class")
    def c(self):
        from .test_flags import build_squareoct_patch

        patch = build_squareoct_patch()
        c = Coloring(patch, i_fundamental_domain(patch, 1))
        assert len(c.delta) == 3 and patch.has_face(self.OCTAGON)
        return c

    @pytest.mark.parametrize("step", [1, -1])
    def test_a_rotated_octagon_changes_colour(self, c, step):
        from coverkit import HypothesisViolationError

        cyc = self.OCTAGON.cycle
        state = _hand_built(c, self.OCTAGON, self.OCTAGON, {v: cyc[(i + step) % 8] for i, v in enumerate(cyc)})
        with pytest.raises(HypothesisViolationError) as err:
            builder._check_new_flag_colors(state, self.OCTAGON, self.OCTAGON)
        assert str(err.value) == (
            "step 0: colour of Flag(vertex=112, edge=(112, 113), face=FaceBoundary(112, 113, 119, 116, "
            "170, 171, 165, 166)) is 1 but its image has 2; h violates r-locality"
        )

    @pytest.mark.parametrize("off_image", ["vertex", "edge"])
    def test_an_image_face_without_the_mapped_edge_is_an_input_error(self, c, off_image):
        # the first image flag is at 112 along (112, 113): its face holds
        # neither 112, or 112 but not that edge
        faces = c.patch.faces_at(165) if off_image == "vertex" else c.patch.faces_at(112)
        image = next(f for f in faces if (112, 113) not in f.edges and (off_image == "edge") == (112 in f))
        state = _hand_built(c, self.OCTAGON, image, {v: v for v in self.OCTAGON})
        with pytest.raises(InputError) as err:
            builder._check_new_flag_colors(state, self.OCTAGON, image)
        assert str(err.value) == f"flag edge (112, 113) not on its face {image}"

    def test_the_patch_side_fails_first(self):
        # on a patch that is not vertex-transitive near a merged 14-gon, a
        # flag of that face and its image under the identity in the
        # patch's graph both fail to pull; the patch side is pulled first,
        # so the error is a defect, not the graph target's violation
        from coverkit import DefectError

        from .test_flags import build_squareoct_patch

        damaged, ids = build_squareoct_patch(6, drop_links=[(2, 0)])
        c = Coloring(damaged, i_fundamental_domain(damaged, 1))
        face = next(f for f in damaged.faces_at(ids[(2, 0, 1)]) if len(f) == 14)
        state = _hand_built(c, face, face, {v: v for v in face})
        state.host = Host(damaged.graph, damaged.l_max)
        with pytest.raises(DefectError) as err:
            builder._check_new_flag_colors(state, face, face)
        x = min(face.cycle)
        assert str(err.value) == f"patch not vertex-transitive at {x}: no depth-1 isomorphism"
        with pytest.raises(HypothesisViolationError, match=f"^h is not 1-locally-G at {x}$"):
            builder._colour(Coloring(damaged, c.delta), state.host, x, face.cycle_from(x, face.cycle[1]))


class TestLocalInjectivityErrors:
    """Invariant 2's errors, class and message, on the {4,4} patch.  Two
    edges folded onto one image are reachable through extend_cover; an
    image edge off h, or off the image face, is rejected by the colour
    check first, so those partial covers are built by hand and absorbed
    with the colour check stubbed out: the builder still writes its own
    ledger, and the local injectivity check is the one that fails."""

    SEED_FACE = FaceBoundary((0, 1, 2, 3))

    @pytest.fixture(scope="class")
    def c(self, patch44_r6):
        c = Coloring(patch44_r6, i_fundamental_domain(patch44_r6, 1))
        assert patch44_r6.root == 0 and self.SEED_FACE in patch44_r6.faces_at(0)
        return c

    def _absorb(self, c, image, vertex_map, monkeypatch):
        state = _hand_built(c, self.SEED_FACE, image, vertex_map)
        state.pending, state.face_image = {self.SEED_FACE: None}, {}
        monkeypatch.setattr(builder, "_check_new_flag_colors", lambda *args: None)
        builder._absorb_face(state, self.SEED_FACE, image)

    def test_a_face_folded_onto_its_neighbour_collides(self, c):
        # the face across (0, 1) from the seed face, mapped onto the seed
        # face: its edge (0, 4) lands on the seed face's (0, 3)
        from coverkit import HypothesisViolationError

        f = flags_at(c.g, 0)[0]
        assert f.face == self.SEED_FACE and f.edge == (0, 1)
        state = init_cover(c, c.g, f, f)
        with pytest.raises(HypothesisViolationError) as err:
            extend_cover(state, FaceBoundary((0, 1, 5, 4)), self.SEED_FACE)
        assert type(err.value) is HypothesisViolationError
        assert str(err.value) == "step 1: images of the edges at 0 collide"

    def test_an_image_edge_off_h(self, c, monkeypatch):
        from coverkit import HypothesisViolationError

        assert not c.g.graph.has_edge(0, 30)
        with pytest.raises(HypothesisViolationError) as err:
            self._absorb(c, self.SEED_FACE, {0: 0, 1: 1, 2: 2, 3: 30}, monkeypatch)
        assert type(err.value) is HypothesisViolationError
        assert str(err.value) == "step 0: image edge (0, 30) is not an edge of h"

    def test_an_image_face_without_the_mapped_edges(self, c, monkeypatch):
        from coverkit import HypothesisViolationError

        image = FaceBoundary((0, 3, 8, 6))
        with pytest.raises(HypothesisViolationError) as err:
            self._absorb(c, image, {v: v for v in self.SEED_FACE}, monkeypatch)
        assert type(err.value) is HypothesisViolationError
        assert str(err.value) == (
            "step 0: the edges of FaceBoundary(0, 1, 2, 3) at 0 do not map into its image FaceBoundary(0, 3, 8, 6)"
        )


class TestLocalInjectivityCost:
    @pytest.mark.parametrize("target", ["{3,7} self", "torus 5x7"])
    def test_each_absorbed_face_is_checked_on_its_own_edges(self, target, patch44_r10, torus57, monkeypatch):
        # every processed edge was checked when its face was absorbed, and
        # its image is fixed from then on, so a whole build tests at most
        # the two face edges at each vertex of each absorbed face
        if target == "torus 5x7":
            patch, h = patch44_r10, torus57.graph
        else:
            patch = h = generate(3, 7, 5)
        inside, calls = [False], [0]
        real_check, real_has_edge = builder._check_local_injectivity, Graph.has_edge

        def check(state, face):
            inside[0] = True
            try:
                real_check(state, face)
            finally:
                inside[0] = False

        def has_edge(graph, u, v):
            calls[0] += inside[0]
            return real_has_edge(graph, u, v)

        monkeypatch.setattr(builder, "_check_local_injectivity", check)
        monkeypatch.setattr(Graph, "has_edge", has_edge)
        cov = build_cover(patch, h)
        assert cov.steps > 50 and 0 < calls[0] <= 2 * sum(len(face) for face in cov.face_image)


TAMPER_UNDER_O = """
import sys
from coverkit import Coloring, HypothesisViolationError, flags_at, generate, i_fundamental_domain, init_cover
from coverkit.builder import _assert_no_holes, _check_local_injectivity

if __debug__:
    sys.exit("expected python -O")
patch = generate(4, 4, 6)
c = Coloring(patch, i_fundamental_domain(patch, 1))
f = flags_at(c.g, patch.root)[0]

state = init_cover(c, c.g, f, f)
state.face_image[f.face] = next(b for b in patch.faces_at(patch.root) if b != f.face)
try:
    _check_local_injectivity(state, f.face)
except HypothesisViolationError:
    print("rejected wrong face image")

state = init_cover(c, c.g, f, f)
state.pending[f.face] = None
try:
    _assert_no_holes(state)
except HypothesisViolationError:
    print("rejected skipped face")
"""


class TestInvariantsUnderOptimize:
    def test_tampered_partial_cover_rejected_under_dash_o(self):
        # the builder's invariant checks are explicit raises, not asserts,
        # so python -O cannot strip them
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = subprocess.run(
            [sys.executable, "-O", "-c", TAMPER_UNDER_O], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["rejected wrong face image", "rejected skipped face"]
