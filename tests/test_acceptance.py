"""Acceptance gate: one test per criterion, each printing a PASS line
with its runtime when it completes.  Criteria run end to end on freshly
generated inputs so the stated runtime budgets are honest."""

import json
import random
import time

from coverkit import (
    Coloring,
    CoverKitError,
    CoverRun,
    Flag,
    Graph,
    Host,
    QuotientSpec,
    build_cover,
    check_cover,
    check_K_ball_claim,
    check_normality,
    check_uniqueness,
    dk_ball,
    example_cover_formula,
    extend_iso,
    face_boundaries_at,
    face_core,
    flags_at,
    generate,
    i_fundamental_domain,
    is_r_locally,
    is_vertex_transitive,
    make_quotient,
    rooted_isomorphisms,
    square_lattice_coordinates,
    stabilize_n,
    trace_faces,
)
from coverkit.verify import _flags_by_image, _sample_fiber_pairs

from .oracles import adjacency_of, assert_unique_extension, map_flag, peripheral_cycles_oracle


def report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_euclidean_end_to_end():
    t0 = time.time()
    patch = generate(4, 4, 10)
    torus = make_quotient(QuotientSpec("torus", 5, 7))
    cover = build_cover(patch, torus.graph)  # always-on invariant checks
    assert check_cover(cover).ok
    assert cover.surjective and set(cover.vertex_map.values()) == set(range(35))
    normality = check_normality(cover, samples=20)
    assert normality.ok
    assert normality.checks[0].info["pairs"] == 20

    # the reconstructed covering transformations must be exactly the
    # closed-form deck translations
    coords = square_lattice_coordinates(patch)
    where = {c: v for v, c in coords.items()}
    c = Coloring(patch, cover.delta)
    pairs = _sample_fiber_pairs(cover, c.g, 20, random.Random(0))
    for v, w in pairs:
        hv = cover.vertex_map[v]
        tf = sorted(
            Flag(hv, e, b)
            for b in face_boundaries_at(torus.graph, hv, 4)
            for e in b.edges_at(hv)
        )[0]
        [f_v], [f_w] = _flags_by_image(cover, v)[tf], _flags_by_image(cover, w)[tf]
        alpha = extend_iso(c, c.g, f_v, f_w, 2)
        dx, dy = coords[w][0] - coords[v][0], coords[w][1] - coords[v][1]
        assert dx % 5 == 0 and dy % 7 == 0
        assert all(
            alpha.mapping[u] == where[(coords[u][0] + dx, coords[u][1] + dy)]
            for u in alpha.mapping
        )
    elapsed = time.time() - t0
    assert elapsed < 30
    report(1, elapsed, f"torus cover surjective, {cover.steps} steps, normality on 20 pairs")


def test_criterion_2_klein_bottle():
    t0 = time.time()
    patch = generate(4, 4, 10)
    klein = make_quotient(QuotientSpec("klein", 6, 6))
    cover = build_cover(patch, klein.graph)
    assert check_cover(cover).ok
    assert cover.surjective
    normality = check_normality(cover, samples=20)
    assert normality.ok
    reversing = normality.checks[-1].info["orientation_reversing"]
    assert reversing >= 1
    elapsed = time.time() - t0
    assert elapsed < 30
    report(2, elapsed, f"{reversing} of 20 covering transformations orientation-reversing")


def test_criterion_3_hexagonal():
    t0 = time.time()
    patch = generate(6, 3, 10)
    hexa = make_quotient(QuotientSpec("hex_torus", 5, 5))
    cover = build_cover(patch, hexa.graph)
    assert check_cover(cover).ok
    assert cover.surjective
    assert check_normality(cover, samples=20).ok
    elapsed = time.time() - t0
    assert elapsed < 30
    report(3, elapsed, f"hex cover surjective onto 50 vertices, {cover.steps} steps")


def test_criterion_4_hyperbolic_machinery():
    t0 = time.time()
    patch = generate(4, 5, 5)
    n = stabilize_n(patch)
    delta = i_fundamental_domain(patch, n)
    assert len(delta) == 1
    r = n + 1
    j_r = dk_ball(Host(patch), patch.root, r).radius
    c = Coloring(patch, delta)
    f0 = flags_at(c.g, patch.root)[0]
    eligible = [v for v in patch.graph.vertices if patch.complete_radius[v] >= j_r]
    samples = [
        (v, fh) for v in eligible for fh in flags_at(c.g, v) if (v, fh) != (patch.root, f0)
    ][:50]
    assert len(samples) == 50
    for v, fh in samples:
        assert_unique_extension(c.g, c.g, f0, extend_iso(c, c.g, f0, fh, r))

    cover = build_cover(patch, patch, n=n)
    vals = list(cover.vertex_map.values())
    assert len(set(vals)) == len(vals)
    assert all(k == v for k, v in cover.vertex_map.items())

    other = flags_at(c.g, patch.root)[3]
    twisted = build_cover(patch, patch, f=f0, flag_h=other, n=n)
    vals = list(twisted.vertex_map.values())
    assert len(set(vals)) == len(vals)
    alpha = extend_iso(c, c.g, f0, other, r)
    overlap = set(alpha.mapping) & set(twisted.vertex_map)
    assert overlap
    assert all(twisted.vertex_map[u] == alpha.mapping[u] for u in overlap)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(4, elapsed, f"n={n}, |Delta|=1, 50 unique extensions, self-covers injective")


def test_criterion_5_face_inference_lemma():
    t0 = time.time()
    patch = generate(4, 4, 6)
    torus = make_quotient(QuotientSpec("torus", 5, 7))
    traced = {}
    for w in trace_faces(torus.graph, torus.rotation):
        for v in w:
            traced.setdefault(v, set()).add(frozenset(zip(w, w[1:] + w[:1])))
    torus_vertices = list(torus.graph.vertices)[:10]
    for v in torus_vertices:
        inferred = face_boundaries_at(torus.graph, v, 4)
        assert len(inferred) == 4
        rotation_faces = {
            frozenset(frozenset(e) for e in f) for f in traced[v]
        }
        assert {frozenset(frozenset(e) for e in f.edges) for f in inferred} == rotation_faces
        oracle = peripheral_cycles_oracle(
            adjacency_of(dk_ball(Host(torus.graph, 4), v, 2).graph), v, 4
        )
        assert {frozenset(frozenset(e) for e in f.edges) for f in inferred} == oracle
    interior = [v for v in patch.graph.vertices if patch.complete_radius[v] >= 2][:10]
    assert len(interior) == 10
    for v in interior:
        inferred = face_boundaries_at(patch.graph, v, 4)
        assert set(inferred) == set(patch.faces_at(v))
        assert len(inferred) == 4
    elapsed = time.time() - t0
    report(5, elapsed, "inferred faces match rotation-traced faces at 20 vertices")


def test_criterion_6_color_well_definedness():
    t0 = time.time()
    patch = generate(4, 4, 8)
    torus = make_quotient(QuotientSpec("torus", 5, 7))
    n = stabilize_n(patch)
    delta = i_fundamental_domain(patch, n)
    ref = face_core(Host(patch), patch.root, n)
    torus_host = Host(torus.graph, 4)
    total = 0
    for x in list(torus.graph.vertices)[:5]:
        target = face_core(torus_host, x, n)
        isos = rooted_isomorphisms(target.rooted, ref.rooted)
        assert len(isos) >= 2
        flags = flags_at(torus_host, x)
        colorings = {
            tuple(delta.orbit_index[map_flag(pi, fl)] for fl in flags) for pi in isos
        }
        assert len(colorings) == 1
        total += len(isos)
    elapsed = time.time() - t0
    report(6, elapsed, f"{total} pullback isomorphisms, all inducing one coloring")


def test_criterion_7_uniqueness():
    t0 = time.time()
    patch = generate(4, 4, 10)
    torus = make_quotient(QuotientSpec("torus", 5, 7))
    first = CoverRun(patch, torus.graph).build(0)
    second = CoverRun(patch, torus.graph).build(1)
    blob1 = json.dumps(sorted(first.vertex_map.items())).encode()
    blob2 = json.dumps(sorted(second.vertex_map.items())).encode()
    assert blob1 == blob2
    assert check_uniqueness(patch, torus.graph, trials=3).ok
    elapsed = time.time() - t0
    report(7, elapsed, "vertex maps byte-identical under reversed tie-break")


def test_criterion_8_counterexample_family():
    t0 = time.time()
    from coverkit import make_example_K

    K = make_example_K(6, 4)
    assert not is_vertex_transitive(K.graph)
    claim = check_K_ball_claim(6, 4)
    assert claim.ok
    stated = claim.checks[0].info
    logged = claim.checks[1].info["rho_max"]
    G, KK, cover = example_cover_formula(6, 4, (0, 12))
    for v in G.interior_vertices():
        images = [cover[u] for u in G.graph.neighbors(v)]
        assert len(set(images)) == len(images)
        assert set(images) == set(KK.graph.neighbors(cover[v]))
    elapsed = time.time() - t0
    assert elapsed < 60
    report(
        8,
        elapsed,
        f"K(6,4) not vertex-transitive; balls isomorphic at rho={stated['rho']} "
        f"(max rho'={logged}); formula cover locally bijective",
    )


def test_criterion_9_negative_detection():
    t0 = time.time()
    patch = generate(4, 4, 10)
    torus = make_quotient(QuotientSpec("torus", 5, 7))
    g = torus.graph
    e1, e2 = (0, 1), (17, 18)
    assert g.has_edge(*e1) and g.has_edge(*e2)
    rewired = Graph(range(35), set(g.edges) - {e1, e2} | {(0, 18), (1, 17)})
    assert all(rewired.degree(v) == 4 for v in rewired.vertices)

    locality = is_r_locally(rewired, patch, 2, d_balls=True)
    halted = False
    silent_bad_map = False
    try:
        cov = build_cover(patch, rewired)
    except CoverKitError:
        halted = True
    else:
        silent_bad_map = check_cover(cov).ok
    assert (not locality.ok) or halted
    assert not silent_bad_map
    elapsed = time.time() - t0
    detail = "rejected by locality check" if not locality.ok else "builder halted with diagnostic"
    report(9, elapsed, detail)
