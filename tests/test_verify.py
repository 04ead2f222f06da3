import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import coverkit.builder as builder
import coverkit.local as local
from coverkit import (
    Coloring,
    CoverKitError,
    Flag,
    Host,
    InputError,
    QuotientSpec,
    build_cover,
    check_cover,
    check_normality,
    check_uniqueness,
    closed_form_projection,
    deck_generators,
    extend_iso,
    generate,
    make_quotient,
    square_lattice_coordinates,
)
from coverkit.verify import _sample_fiber_pairs


@pytest.fixture(scope="module")
def torus_cover(patch44_r10, torus57):
    return build_cover(patch44_r10, torus57.graph)


@pytest.fixture(scope="module")
def klein_cover(patch44_r10, klein66):
    return build_cover(patch44_r10, klein66.graph)


class TestCheckCover:
    def test_identity_cover_all_fibers_one(self, patch44_r10):
        cov = build_cover(patch44_r10, patch44_r10)
        rep = check_cover(cov)
        assert rep.ok
        fibers = rep.checks[1].info["fibers"]
        assert set(fibers.values()) == {1}

    def test_torus_cover_passes(self, torus_cover):
        rep = check_cover(torus_cover)
        assert rep.ok
        assert rep.checks[0].info["checked"] > 100

    def test_a_cover_of_margin_vertices_alone_is_refused(self, torus_cover):
        # a build maps only faces deep in the patch, so a map of vertices
        # of complete radius 0 alone is built by hand: it would check
        # nothing, yet read as passed
        c = torus_cover
        rim = c.patch.outer[:3]
        assert all(c.patch.complete_radius[v] == 0 for v in rim)
        bare = builder.CoverMap(c.patch, c.h, dict(zip(rim, range(3))), c.seed, c.delta, {}, c.eligible, False)
        with pytest.raises(InputError) as err:
            check_cover(bare)
        assert str(err.value) == "no mapped vertex has complete radius 1 or more"

    def test_perturbed_map_fails_with_witness(self, torus_cover):
        import copy

        broken = copy.copy(torus_cover)
        victim = torus_cover.region_interior()[3]
        vm = dict(torus_cover.vertex_map)
        vm[victim] = (vm[victim] + 1) % 35
        broken.vertex_map = vm
        rep = check_cover(broken)
        assert not rep.ok
        assert victim in rep.checks[0].witnesses or any(
            victim in broken.patch.graph.neighbors(w) for w in rep.checks[0].witnesses
        )


class TestCheckNormality:
    def test_identity_cover_trivially_normal(self, patch44_r10):
        cov = build_cover(patch44_r10, patch44_r10)
        rep = check_normality(cov)
        assert rep.ok

    def test_torus_normal(self, torus_cover):
        rep = check_normality(torus_cover, samples=20)
        assert rep.ok
        info = rep.checks[-1].info
        assert info["orientation_reversing"] == 0
        assert info["orientation_preserving"] == 20

    def test_torus_alphas_match_deck_translations(self, torus_cover, torus57):
        # reconstructed covering transformations are restrictions of the
        # closed-form lattice translations
        patch = torus_cover.patch
        coords = square_lattice_coordinates(patch)
        where = {c: v for v, c in coords.items()}
        from coverkit.verify import _flags_by_image

        c = Coloring(patch, torus_cover.delta)
        pairs = _sample_fiber_pairs(torus_cover, c.g, 20, random.Random(0))
        assert len(pairs) == 20
        from coverkit import face_boundaries_at

        for v, w in pairs:
            hv = torus_cover.vertex_map[v]
            tf = sorted(
                Flag(hv, e, b)
                for b in face_boundaries_at(torus57.graph, hv, 4)
                for e in b.edges_at(hv)
            )[0]
            [f_v], [f_w] = _flags_by_image(torus_cover, v)[tf], _flags_by_image(torus_cover, w)[tf]
            alpha = extend_iso(c, c.g, f_v, f_w, 2)
            dx = coords[w][0] - coords[v][0]
            dy = coords[w][1] - coords[v][1]
            assert dx % 5 == 0 and dy % 7 == 0  # a genuine deck element
            for u, au in alpha.mapping.items():
                assert coords[au] == (coords[u][0] + dx, coords[u][1] + dy)
                assert where[(coords[u][0] + dx, coords[u][1] + dy)] == au

    def test_klein_has_orientation_reversing_alpha(self, klein_cover):
        rep = check_normality(klein_cover, samples=20)
        assert rep.ok
        info = rep.checks[-1].info
        assert info["orientation_reversing"] >= 1
        assert info["orientation_preserving"] >= 1

    def test_exhaustive_mode(self, patch44_r10, torus57):
        # pairs are drawn without replacement until the pools are empty, so
        # a sample larger than the pair count checks all 67 pairs of the cover
        cov = build_cover(patch44_r10, torus57.graph)
        rep = check_normality(cov, samples=10**6)
        assert rep.ok
        assert rep.checks[0].info == {"pairs": 67}
        assert rep.checks[1].info == {"orientation_reversing": 0, "orientation_preserving": 67}

    def test_flags_built_once_per_pair(self, monkeypatch):
        # the flags at both vertices of a pair are grouped by their images
        # once, not searched again for each target flag
        cover = build_cover(generate(4, 4, 16), make_quotient(QuotientSpec("torus", 9, 9)).graph)
        built = []
        real = Flag.__post_init__

        def counting(flag):
            built.append(flag)
            real(flag)

        monkeypatch.setattr(Flag, "__post_init__", counting)
        assert check_normality(cover, samples=20).ok
        assert len(built) <= 1000


def _all_pools_sample(cover, g, samples, rng):
    """The sampler as it was before pools were listed lazily: every pair of
    every fiber is listed before the first draw.  The reference for
    `_sample_fiber_pairs`, which must draw the same pairs."""
    patch = cover.patch
    j_r = local.dk_ball(g, patch.root, cover.delta.level + 1).radius
    core = [v for v in cover.region_interior() if patch.complete_radius[v] >= j_r]
    fibers: dict[int, list[int]] = {}
    for v in core:
        fibers.setdefault(cover.vertex_map[v], []).append(v)
    pools = []
    for hv in sorted(fibers):
        vs = sorted(fibers[hv])
        pools.append([(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])
    pairs = []
    idx = 0
    while len(pairs) < samples and any(pools):
        pool = pools[idx % len(pools)]
        if pool:
            pick = rng.randrange(len(pool))
            pairs.append(pool.pop(pick))
        idx += 1
    return pairs


@pytest.fixture(scope="module")
def torus55_cover():
    return build_cover(generate(4, 4, 16), make_quotient(QuotientSpec("torus", 5, 5)).graph)


class TestFiberSampler:
    @pytest.mark.parametrize("case", ["R=10 onto torus 5x7", "R=16 onto torus 5x5"])
    def test_the_pairs_drawn_are_those_of_the_all_pools_sampler(self, case, request):
        cover = request.getfixturevalue("torus_cover" if case.startswith("R=10") else "torus55_cover")
        g = Host(cover.patch)
        for seed in range(5):
            for samples in (1, 20, 67, 10**6):
                want = _all_pools_sample(cover, g, samples, random.Random(seed))
                assert _sample_fiber_pairs(cover, g, samples, random.Random(seed)) == want, (seed, samples)

    def test_a_small_sample_lists_the_pairs_of_few_fibers(self, torus55_cover, monkeypatch):
        import coverkit.verify as verify

        listed = []
        real = verify._fiber_pairs
        monkeypatch.setattr(verify, "_fiber_pairs", lambda vs: listed.append(vs) or real(vs))
        g = Host(torus55_cover.patch)
        _sample_fiber_pairs(torus55_cover, g, 10**6, random.Random(0))
        assert len(listed) == 25  # a sample of every pair lists every fiber
        listed.clear()
        assert len(_sample_fiber_pairs(torus55_cover, g, 20, random.Random(0))) == 20
        assert 0 < len(listed) <= 20


def _fold_two_faces(cover, x):
    """A copy of the cover in which two faces at x share one image: the
    third neighbour of x in rotation takes the first one's image, and the
    two faces at it take the images of the faces beside them, so every
    flag at x still has an image flag, but no flag at the image of x has
    exactly one preimage."""
    vmap, images = dict(cover.vertex_map), dict(cover.face_image)
    u0, u1, u2, u3 = cover.patch.rotation[x]
    face = lambda a, b: cover.patch.corner_face(x, a, b)
    vmap[u2] = vmap[u0]
    images[face(u1, u2)] = images[face(u0, u1)]
    images[face(u2, u3)] = images[face(u3, u0)]
    return builder.CoverMap(
        cover.patch, cover.h, vmap, cover.seed, cover.delta, images, cover.eligible, cover.surjective
    )


class TestNormalityOnBrokenCovers:
    """check_normality refuses a map whose flags at a sampled vertex do
    not correspond one to one with the flags at its image; each target
    flag is matched at the pair's first vertex, then at its second."""

    @pytest.mark.parametrize("folded", [(0,), (0, 75)])
    def test_the_first_vertex_fails_first(self, torus_cover, folded):
        # the first target flag has 2 preimages at 0; where 75 is folded
        # too, it has none there, but 0 is matched first
        assert _sample_fiber_pairs(torus_cover, Host(torus_cover.patch), 1, random.Random(0)) == [(0, 75)]
        broken = torus_cover
        for x in folded:
            broken = _fold_two_faces(broken, x)
        with pytest.raises(CoverKitError) as err:
            check_normality(broken, samples=1)
        assert type(err.value) is CoverKitError
        assert str(err.value) == (
            "flag Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 8, 7)) has 2 preimages at 0; not a cover"
        )

    def test_a_target_flag_can_fail_at_the_second_vertex(self, torus_cover):
        # the first target flag has its one preimage at 0, and none at 75
        with pytest.raises(CoverKitError) as err:
            check_normality(_fold_two_faces(torus_cover, 75), samples=1)
        assert type(err.value) is CoverKitError
        assert str(err.value) == (
            "flag Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 8, 7)) has 0 preimages at 75; not a cover"
        )


class TestCheckUniqueness:
    def test_identity_seed(self, patch44_r10):
        rep = check_uniqueness(patch44_r10, patch44_r10, trials=3)
        assert rep.ok

    def test_torus(self, patch44_r10, torus57):
        rep = check_uniqueness(patch44_r10, torus57.graph, trials=3)
        assert rep.ok

    def test_hex(self, patch63_r10, hex55):
        rep = check_uniqueness(patch63_r10, hex55.graph, trials=3)
        assert rep.ok

    @pytest.mark.parametrize("trials", [0, 1, 4, 7])
    def test_fewer_than_two_trials_rejected(self, patch44_r10, torus57, monkeypatch, trials):
        # one build compares nothing, and there are only three face
        # enumerations to build from; the run must not even be prepared
        def unprepared(*args, **kwargs):
            raise AssertionError("the run was prepared")

        monkeypatch.setattr(builder, "stabilize_n", unprepared)
        with pytest.raises(InputError, match="trials"):
            check_uniqueness(patch44_r10, torus57.graph, trials=trials)

    def test_prepares_once(self, monkeypatch):
        # a patch and a target for each call: the faces found are kept on
        # them, so a second call on the same ones would find none
        def fresh():
            return generate(4, 4, 10), make_quotient(QuotientSpec("klein", 6, 6)).graph

        calls: Counter = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(builder, "stabilize_n")
        counting(builder, "i_fundamental_domain")
        counting(local, "local_parts")
        build_cover(*fresh())
        one_build = calls["local_parts"]
        calls.clear()
        assert check_uniqueness(*fresh(), trials=3).ok
        assert calls == {
            "stabilize_n": 1,
            "i_fundamental_domain": 1,
            "local_parts": one_build,
        }


def project_flag(proj, h_faces, flag):
    """Push a patch flag through a closed-form projection."""
    from coverkit import FaceBoundary, Flag
    from coverkit.graph import edge_key

    face = FaceBoundary([proj[t] for t in flag.face])
    assert face in h_faces
    return Flag(proj[flag.vertex], edge_key(proj[flag.edge[0]], proj[flag.edge[1]]), face)


class TestDeckOracleAgreement:
    def test_built_equals_closed_form_up_to_deck(self, torus_cover, torus57):
        patch = torus_cover.patch
        coords = square_lattice_coordinates(patch)
        inner = torus_cover.region_interior()
        matches = [
            (dx, dy)
            for dx in range(5)
            for dy in range(7)
            if all(
                torus57.project_square(coords[v][0] + dx, coords[v][1] + dy)
                == torus_cover.vertex_map[v]
                for v in inner
            )
        ]
        assert len(matches) == 1

    @pytest.mark.parametrize("kind", ["torus57", "klein66", "hex55"])
    def test_deck_shifted_seed_reproduces_shifted_projection(self, kind, request, patch44_r10, patch63_r10):
        # build with the seed flag pushed through (projection after a deck
        # translation); by uniqueness the whole map must equal that shifted
        # projection wherever both are defined
        from coverkit import Host, face_boundaries_at, flags_at

        inst = request.getfixturevalue(kind)
        patch = patch63_r10 if kind == "hex55" else patch44_r10
        proj = closed_form_projection(inst, patch)
        tau = deck_generators(inst, patch)[0]
        h_faces = set()
        for x in inst.graph.vertices:
            h_faces.update(face_boundaries_at(inst.graph, x, patch.l_max))
        f0 = flags_at(Host(patch), patch.root)[0]
        shifted = {v: proj[tau[v]] for v in tau}
        flag_h = project_flag(shifted, h_faces, f0)
        cov = build_cover(patch, inst.graph, f=f0, flag_h=flag_h)
        assert cov.surjective
        agree = [v for v in cov.vertex_map if v in tau]
        assert len(agree) > 2 * inst.graph.n // 3
        assert all(cov.vertex_map[v] == shifted[v] for v in agree)

    def test_closed_form_passes_check_cover_shape(self, patch44_r10, torus57):
        proj = closed_form_projection(torus57, patch44_r10)
        g, h = patch44_r10.graph, torus57.graph
        for v in g.vertices:
            if patch44_r10.complete_radius[v] < 1:
                continue
            images = {proj[u] for u in g.neighbors(v)}
            assert images == set(h.neighbors(proj[v]))

    def test_deck_generators_commute(self, patch44_r10, torus57, klein66):
        for inst in (torus57, klein66):
            proj = closed_form_projection(inst, patch44_r10)
            for gen in deck_generators(inst, patch44_r10):
                assert gen
                assert all(proj[gen[v]] == proj[v] for v in gen)


CHECKS_UNDER_O = """
from coverkit import DefectError, Graph, RootedBall, VerificationReport

try:
    VerificationReport().add("x", False)
except DefectError:
    print("rejected failing check without witness")
try:
    RootedBall(Graph([0, 1], [(0, 1)]), 0, 0, {0: 0, 1: 1})
except DefectError:
    print("rejected vertex beyond the radius")
"""


class TestChecksUnderOptimize:
    def test_report_and_ball_checks_survive_dash_o(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = subprocess.run(
            [sys.executable, "-O", "-c", CHECKS_UNDER_O], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "rejected failing check without witness",
            "rejected vertex beyond the radius",
        ]
