"""Independent post-hoc verification of built covers.

check_cover re-tests the defining property (neighbourhood bijections)
directly on the vertex map, without trusting anything the builder did.
check_normality mirrors the normality argument: for sampled fiber pairs
it checks that corresponding flags have equal colours, reconstructs the
covering transformation through the extension isomorphism, and asserts
that composing with it leaves the cover unchanged wherever defined.
check_uniqueness rebuilds the cover under different deterministic face
enumerations and demands identical vertex maps.
"""

from __future__ import annotations

import random

from .builder import CoverMap, CoverRun
from .errors import CoverKitError, InputError
from .flags import Coloring, Flag, color, color_in_h, extend_iso, flags_at
from .graph import Graph, edge_key
from .local import Host, dk_ball
from .report import VerificationReport
from .tessellation import PlanePatch


def check_cover(cover: CoverMap) -> VerificationReport:
    """The cover property: at every mapped vertex of complete radius 1 or
    more with fully mapped neighbourhood, the edge map to the image
    neighbourhood is a bijection.  Also reports fiber sizes over the
    checked region.  A map with no such radius is an input error: it
    would check nothing, yet read as passed."""
    patch, h = cover.patch, cover.h.graph
    vmap = cover.vertex_map
    if all(patch.complete_radius[v] < 1 for v in vmap):
        raise InputError("no mapped vertex has complete radius 1 or more")
    report = VerificationReport()
    checked = []
    bad = []
    for v in sorted(vmap):
        if patch.complete_radius[v] < 1:
            continue
        nbrs = patch.graph.neighbors(v)
        if any(u not in vmap for u in nbrs):
            continue
        checked.append(v)
        images = [vmap[u] for u in nbrs]
        if len(set(images)) != len(images) or set(images) != set(h.neighbors(vmap[v])):
            bad.append(v)
    report.add(
        "neighbourhood bijections",
        not bad,
        witnesses=bad,
        checked=len(checked),
        margin=1,
    )
    fibers: dict[int, int] = {}
    for v in checked:
        fibers[vmap[v]] = fibers.get(vmap[v], 0) + 1
    report.add(
        "fiber census",
        True,
        fibers={str(k): n for k, n in sorted(fibers.items())},
        distinct_images=len(fibers),
    )
    return report


def _flags_by_image(cover: CoverMap, v: int) -> dict[Flag, list[Flag]]:
    """The flags at v, grouped by their images under the cover."""
    vmap, hv = cover.vertex_map, cover.vertex_map[v]
    by_image: dict[Flag, list[Flag]] = {}
    for face in cover.patch.faces_at(v):
        b = cover.face_image[face]
        for e in face.edges_at(v):
            by_image.setdefault(Flag(hv, edge_key(vmap[e[0]], vmap[e[1]]), b), []).append(Flag(v, e, face))
    return by_image


def _sample_fiber_pairs(cover: CoverMap, g: Host, samples: int, rng: random.Random) -> list[tuple[int, int]]:
    """Deterministic fiber pairs from the processed interior, drawn without
    replacement round-robin across target vertices; g is the patch's host.
    A fiber's pairs are listed when the round first reaches it, so a small
    sample lists the pairs of few fibers."""
    patch = cover.patch
    j_r = dk_ball(g, patch.root, cover.delta.level + 1).radius
    core = [v for v in cover.region_interior() if patch.complete_radius[v] >= j_r]
    fibers: dict[int, list[int]] = {}
    for v in core:
        fibers.setdefault(cover.vertex_map[v], []).append(v)
    members = [sorted(fibers[hv]) for hv in sorted(fibers)]
    pools: list[list[tuple[int, int]] | None] = [None] * len(members)
    left = sum(len(vs) > 1 for vs in members)  # the fibers with a pair not drawn
    pairs: list[tuple[int, int]] = []
    idx = 0
    while len(pairs) < samples and left:
        i = idx % len(pools)
        pool = pools[i]
        if pool is None:
            pool = pools[i] = _fiber_pairs(members[i])
        if pool:
            pick = rng.randrange(len(pool))
            pairs.append(pool.pop(pick))
            if not pool:
                left -= 1
        idx += 1
    return pairs


def _fiber_pairs(vs: list[int]) -> list[tuple[int, int]]:
    """The pairs (a, b), a < b, of the sorted fiber vs, in order."""
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]


def check_normality(cover: CoverMap, samples: int = 20, rng_seed: int = 0) -> VerificationReport:
    """Normality on sampled fiber pairs.

    Tier (a): for every flag of the common image vertex, the two
    preimage flags have equal colours.  Tier (b): the covering
    transformation reconstructed from one matched flag pair commutes
    with the cover wherever both sides are defined.  Each reconstructed
    transformation is classified as orientation-preserving or reversing.
    The target is read through `cover.h`, on a self-cover too.  Its
    faces and the core isomorphisms that colours are pulled through,
    functions of the inputs alone, are read from what earlier calls
    kept on the patch and the target; a vertex no call has searched is
    searched here.  Tier (b)'s extension isomorphism is searched afresh
    for every pair.  A sample of fewer than one pair is an input error:
    it would check nothing, yet read as trivial normality; one at least
    the number of fiber pairs checks every pair, as none is drawn twice.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    patch = cover.patch
    c = Coloring(patch, cover.delta)
    r = c.n + 1
    rng = random.Random(rng_seed)
    report = VerificationReport()
    pairs = _sample_fiber_pairs(cover, c.g, samples, rng)
    if not pairs:
        # all fibers in the checked region are singletons: trivially normal
        report.add("fiber pairs sampled", True, note="all fibers singletons; trivially normal")
        return report
    host = cover.h
    color_bad: list = []
    commute_bad: list = []
    orientations: list[bool] = []
    for v, w in pairs:
        alpha = None
        by_v, by_w = _flags_by_image(cover, v), _flags_by_image(cover, w)
        for tf in flags_at(host, cover.vertex_map[v]):
            hits = by_v.get(tf, []), by_w.get(tf, [])
            for u, found in zip((v, w), hits):
                if len(found) != 1:
                    raise CoverKitError(f"flag {tf} has {len(found)} preimages at {u}; not a cover")
            [f_v], [f_w] = hits
            cv = color(c, f_v)
            cw = color(c, f_w)
            ch = color_in_h(c, host, tf)
            if not (cv == ch == cw):
                color_bad.append((v, w, tf.to_json_dict(), cv, ch, cw))
                continue
            if alpha is None:
                alpha = extend_iso(c, c.g, f_v, f_w, r)
        if alpha is None:
            commute_bad.append((v, w, "no colour-matched flag pair"))
            continue
        for u in sorted(alpha.mapping):
            au = alpha.mapping[u]
            if u in cover.vertex_map and au in cover.vertex_map:
                if cover.vertex_map[au] != cover.vertex_map[u]:
                    commute_bad.append((v, w, u))
                    break
        orientations.append(alpha.is_orientation_reversing(patch.rotation, at=v))
    report.add(
        "fiber flag colours agree",
        not color_bad,
        witnesses=color_bad,
        pairs=len(pairs),
    )
    report.add(
        "covering transformations commute",
        not commute_bad,
        witnesses=commute_bad,
        orientation_reversing=sum(orientations),
        orientation_preserving=len(orientations) - sum(orientations),
    )
    return report


def check_uniqueness(patch: PlanePatch, h: Graph | PlanePatch, trials: int = 3) -> VerificationReport:
    """Rebuild the cover from the default seed under `trials` different
    deterministic face enumerations (tie-break variants) from one
    prepared run and assert identical vertex maps.  There are three
    enumerations, so `trials` must be 2 or 3: one trial would compare
    nothing, yet read as passed, and more would repeat a build, yet count
    it as a trial."""
    if not 2 <= trials <= 3:
        raise InputError(f"trials must be 2 or 3, one per face enumeration, got {trials}")
    run = CoverRun(patch, h)
    report = VerificationReport()
    reference = None
    diff: list = []
    for t in range(trials):
        cov = run.build(t)
        if reference is None:
            reference = cov
            continue
        if cov.vertex_map != reference.vertex_map:
            first = min(
                set(cov.vertex_map) ^ set(reference.vertex_map)
                | {v for v in cov.vertex_map if reference.vertex_map.get(v) != cov.vertex_map[v]}
            )
            diff.append((t, first))
        if cov.face_image.keys() != reference.face_image.keys():
            diff.append((t, "processed face sets differ"))
    report.add("vertex maps identical across enumerations", not diff, witnesses=diff, trials=trials)
    return report
