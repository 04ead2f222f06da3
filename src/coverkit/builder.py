"""Face-by-face construction of the covering map.

Starting from a colour-matched pair of flags, the seed face is mapped,
and then one face at a time is attached along the frontier cycle: the
next face is the enumeration-least one meeting the frontier in a path,
its image is the unique target face containing the image of that path
(with the fresh-side condition breaking the tie when the path is a
single edge), and the extension around the face is forced.  Every step
re-verifies the inductive invariants: colour preservation on the new
flags, local injectivity with rotation preservation, and a face witness
for every mapped edge.  The run stops when no eligible face remains
(patch exhaustion), never by truncating silently.
"""

from __future__ import annotations

from .errors import HypothesisViolationError, InputError
from .flags import (
    Coloring,
    Flag,
    FundamentalDomain,
    _colour,
    color,
    color_in_h,
    flags_at,
    i_fundamental_domain,
    stabilize_n,
)
from .graph import Graph, edge_key
from .local import Host, host_faces_at, require_connected
from .record import Record
from .tessellation import FaceBoundary, PlanePatch, enumeration_key

Edge = tuple[int, int]


class PartialCover(Record):
    """The in-progress map with its frontier, verification ledger and step."""

    coloring: Coloring
    host: Host
    vertex_map: dict[int, int]
    frontier: set[Edge]
    pending: dict[FaceBoundary, None]  # eligible faces not yet absorbed, in enumeration order
    face_image: dict[FaceBoundary, FaceBoundary]  # in the order absorbed, the seed first: step k is entry k + 1
    domain_edges_at: dict[int, dict[Edge, Edge]]  # each processed edge at a vertex, to its fixed image
    step: tuple[FaceBoundary, list[int]] | None = None  # the step in progress: its face and shared path


def _image(state: PartialCover, e: Edge) -> Edge:
    return edge_key(state.vertex_map[e[0]], state.vertex_map[e[1]])


def _check_new_flag_colors(state: PartialCover, face: FaceBoundary, image: FaceBoundary) -> None:
    """Colour preservation (invariant 1) on the flags of the new face.
    Each flag and its image are coloured from their face walks, the
    patch's flag first, with the errors of `color` and `color_in_h`.  A
    Flag is built only to report an image edge off the image face, or
    two colours that differ."""
    c, host, vmap = state.coloring, state.host, state.vertex_map
    for y in sorted(face.cycle):
        x = vmap[y]
        for e in face.edges_at(y):
            z = e[1] if e[0] == y else e[0]
            try:
                walk_h = image.cycle_from(x, vmap[z])
            except InputError:
                Flag(x, _image(state, e), image)  # raises: its edge is not on its face
                raise
            cg = _colour(c, c.g, y, face.cycle_from(y, z))
            ch = _colour(c, host, x, walk_h)
            if cg != ch:
                raise HypothesisViolationError(
                    f"step {len(state.face_image) - 1}: colour of {Flag(y, e, face)} is {cg} but its image has {ch}; "
                    f"h violates r-locality"
                )


def _check_local_injectivity(state: PartialCover, face: FaceBoundary) -> None:
    """Invariant 2 at the new face's vertices: the recorded edge images
    at each stay distinct, and the face's own two edges there map to
    edges of its target face.  Any other edge there was checked with its
    own face, and its image is fixed."""
    h = state.host.graph
    b = state.face_image[face]
    for y in sorted(face.cycle):
        images = state.domain_edges_at[y]
        if len(set(images.values())) != len(images):
            raise HypothesisViolationError(
                f"step {len(state.face_image) - 1}: images of the edges at {y} collide"
            )
        own = [images[e] for e in face.edges_at(y)]
        for img in own:
            if not h.has_edge(*img):
                raise HypothesisViolationError(
                    f"step {len(state.face_image) - 1}: image edge {img} is not an edge of h"
                )
        if not b.edges.issuperset(own):
            raise HypothesisViolationError(
                f"step {len(state.face_image) - 1}: the edges of {face} at {y} do not map into its image {b}"
            )


def _require_seed_faces(c: Coloring, host: Host, f: Flag | None, flag_h: Flag | None) -> None:
    """Each given seed flag's face must be a face of its graph."""
    if f and not c.patch.has_face(f.face) or flag_h and flag_h.face not in host_faces_at(host, flag_h.vertex):
        raise InputError("a seed flag's face is not a face of its graph")


def init_cover(c: Coloring, host: Host, f: Flag, flag_h: Flag, tie_break: int = 0) -> PartialCover:
    """Map the seed face onto the target face in the orientation fixed by
    the flag pair and absorb it like any later face.  Only the eligible
    faces of c wait in the ledger, in face enumeration `tie_break` order;
    they are found before the seed is checked, so a patch too small for
    any is reported first."""
    state = PartialCover(
        coloring=c,
        host=host,
        vertex_map={},
        frontier=set(),
        pending=dict.fromkeys(sorted(c.eligible, key=enumeration_key(c.patch, tie_break))),
        face_image={},
        domain_edges_at={},
    )
    face, image = f.face, flag_h.face
    _require_seed_faces(c, host, f, flag_h)
    cg = color(c, f)
    ch = color_in_h(c, host, flag_h)
    if cg != ch:
        raise InputError(f"seed flags have different colours ({cg} vs {ch})")
    if len(face) != len(image):
        raise InputError("seed faces have different lengths")
    if face not in c.eligible:
        raise InputError("seed face is too close to the patch margin")
    seq_g = face.cycle_from(f.vertex, f.other_end)
    seq_h = image.cycle_from(flag_h.vertex, flag_h.other_end)
    for a, b in zip(seq_g, seq_h):
        state.vertex_map[a] = b
    _absorb_face(state, face, image)
    return state


def _absorb_face(state: PartialCover, face: FaceBoundary, image: FaceBoundary) -> None:
    """Record a face whose vertices are mapped and its edges' images,
    swap its edges into the frontier, end the step record, and re-verify
    the inductive invariants on its flags."""
    state.step = None
    del state.pending[face]
    state.face_image[face] = image
    for e in face.edges:
        img = _image(state, e)
        for y in e:
            state.domain_edges_at.setdefault(y, {})[e] = img
    state.frontier ^= face.edges
    _check_new_flag_colors(state, face, image)
    _check_local_injectivity(state, face)


def _intersection_path(face: FaceBoundary, state: PartialCover) -> list[int] | None:
    """The intersection of the face with the frontier cycle, as a vertex
    path from its lesser end, or None when it is not one nonempty path.
    One walk round the face marks its frontier edges, which must form a
    single run; no face vertex off that run may be on the frontier
    (isolated common vertices disqualify it).  Every frontier edge is a
    processed edge, so a vertex is on the frontier iff one of its
    processed edges is a frontier edge: no step looks at the whole
    frontier."""
    frontier = state.frontier
    if face.edges.isdisjoint(frontier):
        return None
    cyc = face.cycle
    shared = [edge_key(a, b) in frontier for a, b in zip(cyc, cyc[1:] + cyc[:1])]  # edge i leaves cyc[i]
    starts = [i for i, on in enumerate(shared) if on and not shared[i - 1]]
    if len(starts) != 1:
        return None  # the whole face, or several runs
    walk = cyc[starts[0] :] + cyc[: starts[0]]
    m = shared.count(True)
    if any(e in frontier for v in walk[m + 1 :] for e in state.domain_edges_at.get(v, ())):
        return None
    path = list(walk[: m + 1])
    return path if path[0] < path[-1] else path[::-1]


def _step_path(state: PartialCover, face: FaceBoundary) -> list[int]:
    """The face's shared path: the step record's, or found now and recorded."""
    if state.step is None or state.step[0] != face:
        path = _intersection_path(face, state)
        if path is None:
            raise InputError("face does not meet the frontier in a path")
        state.step = (face, path)
    return state.step[1]


def select_next_face(state: PartialCover) -> FaceBoundary | None:
    """The least pending face sharing a path with the frontier, recorded
    with its path as the step.  None means patch exhaustion, a normal end."""
    for face in state.pending:
        path = _intersection_path(face, state)
        if path is not None:
            state.step = (face, path)
            return face
    return None


def match_face(state: PartialCover, face: FaceBoundary) -> FaceBoundary:
    """The unique target face that contains the image of the step's shared
    path, offers a fresh edge at its endpoint, and has the right length.
    A face that is not pending is refused first, as `extend_cover` refuses
    it: an absorbed face can meet the frontier in a path again."""
    if face not in state.pending:
        raise InputError(f"face {face} is not pending")
    path = _step_path(state, face)
    w = path[0]
    cw = state.vertex_map[w]
    img_path_edges = {_image(state, e) for e in zip(path, path[1:])}
    used_at_w = state.domain_edges_at[w].values()
    candidates = []
    for b in host_faces_at(state.host, cw):
        if not img_path_edges <= b.edges:
            continue  # (I)
        if len(b) != len(face):
            continue  # (III)
        if not any(be not in used_at_w for be in b.edges_at(cw)):
            continue  # (II): needs an edge at c(w) not already an image
        candidates.append(b)
    if len(candidates) != 1:
        raise HypothesisViolationError(
            f"step {len(state.face_image)}: {len(candidates)} candidate faces at target "
            f"vertex {cw}; h is not r-locally-G here"
        )
    return candidates[0]


def extend_cover(state: PartialCover, face: FaceBoundary, image: FaceBoundary) -> PartialCover:
    """Map the face onto its image in the orientation the step's shared path
    forces, advance the frontier, and re-verify the inductive invariants.

    The frontier stays one simple cycle, with no whole-frontier check:
    - the seed frontier is a face cycle;
    - suppose the frontier C is a simple cycle and the face D meets it in
      exactly one path P from s to t, with every common vertex on P (what
      `_intersection_path` demands);
    - then C ^ D is the union of the paths C - P and D - P from s to t;
      each has at least one edge, and they share no inner vertex (nor an
      edge, which would lie on P), so C ^ D is a simple cycle;
    - so every step that would break the cycle is rejected with
      InputError before the frontier changes.
    A face that is not pending (absorbed already, or too near the patch
    margin) is rejected the same way, so no face is mapped twice.
    """
    if face not in state.pending:
        raise InputError(f"face {face} is not pending")
    path = _step_path(state, face)
    seq_g = face.cycle_from(path[0], path[1])
    seq_h = image.cycle_from(state.vertex_map[path[0]], state.vertex_map[path[1]])
    for i, (a, b) in enumerate(zip(seq_g, seq_h)):
        if i < len(path):
            if a != path[i] or state.vertex_map[a] != b:
                raise HypothesisViolationError(
                    f"step {len(state.face_image)}: image face does not align with the shared path"
                )
        elif a in state.vertex_map:
            # Unreachable from a build, kept as a guard: the absorbed
            # faces form a disk bounded by the frontier, so a mapped
            # vertex off the frontier has every face absorbed, and
            # `_intersection_path` refuses a face with a frontier vertex
            # off its path.  So no off-path vertex of a pending face is
            # mapped yet.
            if state.vertex_map[a] != b:
                raise HypothesisViolationError(
                    f"step {len(state.face_image)}: vertex {a} already mapped to "
                    f"{state.vertex_map[a]}, face image forces {b}"
                )
        else:
            state.vertex_map[a] = b
    _absorb_face(state, face, image)
    return state


class CoverMap(Record):
    """The finished map on the processed region, with its provenance.

    `h` is the run's Host of the target, on a self-cover too.  A Host
    keeps only its source; what the run learnt of the patch and the
    target (faces and core isomorphisms, functions of them alone) is kept
    on them, so it lives as long as they do, not as long as the map.
    `steps` and `log` read `face_image`."""

    patch: PlanePatch
    h: Host
    vertex_map: dict[int, int]
    seed: tuple[Flag, Flag]
    delta: FundamentalDomain
    face_image: dict[FaceBoundary, FaceBoundary]
    eligible: frozenset[FaceBoundary]
    surjective: bool

    @property
    def steps(self) -> int:
        return len(self.face_image) - 1  # the seed is no step

    @property
    def log(self) -> list[dict]:
        absorbed = list(self.face_image.items())[1:]
        return [{"step": k, "face": list(f.cycle), "image": list(b.cycle)} for k, (f, b) in enumerate(absorbed, 1)]

    def region_interior(self) -> list[int]:
        """Vertices all of whose faces are processed (their whole flag
        neighbourhood is mapped)."""
        patch, done = self.patch, self.face_image
        inner = (v for v in sorted(self.vertex_map) if patch.is_interior(v))
        return [v for v in inner if all(f in done for f in patch.faces_at(v))]

    def to_json_dict(self) -> dict:
        return {
            "map": [[v, self.vertex_map[v]] for v in sorted(self.vertex_map)],
            "seed": {"f": self.seed[0].to_json_dict(), "h": self.seed[1].to_json_dict()},
            "steps": self.steps,
            "surjective": self.surjective,
            "n": self.delta.level,
        }


def default_seed(c: Coloring, host: Host) -> tuple[Flag, Flag]:
    """The least flag of the root, paired with the least colour-matched
    flag of the target's first vertex (`_least_target_flag`)."""
    f = flags_at(c.g, c.patch.root)[0]
    return f, _least_target_flag(c, host, color(c, f))


def _least_target_flag(c: Coloring, host: Host, want: int) -> Flag:
    """The least flag of colour `want` at the target's first vertex: a
    patch host's root, so that a self-cover seeds root on root however
    the patch is labelled, and a graph host's least vertex."""
    if not host.graph.vertices:
        raise InputError("the target graph has no vertices")
    x0 = host.graph.vertices[0] if host.source is host.graph else host.source.root
    for fh in flags_at(host, x0):
        if color_in_h(c, host, fh) == want:
            return fh
    raise HypothesisViolationError(f"no flag at target vertex {x0} matches colour {want}")


class CoverRun:
    """One cover construction from a patch onto a target, prepared once:
    the stabilisation level n (`stabilize_n` finds it when it is not
    given), the palette, the colouring context, the
    target host (`Host(h, patch.l_max)`, a self-cover's too, which finds
    faces only where a build asks; a disconnected target is an
    InputError), and the seed flags: neither given is
    the default seed, a lone flag off its graph's faces is an InputError
    at once, and one on them is paired with the least flag of its colour
    on the other side (`init_cover` checks two given flags).  Each
    `build` runs one face enumeration from this state, through
    `init_cover`; builds share the eligible faces, and every run on the
    inputs shares the faces and isomorphisms kept on them."""

    def __init__(
        self,
        patch: PlanePatch,
        h: Graph | PlanePatch,
        f: Flag | None = None,
        flag_h: Flag | None = None,
        n: int | None = None,
    ):
        if n is None:
            n = stabilize_n(patch)
        self.coloring = c = Coloring(patch, i_fundamental_domain(patch, n))
        self.host = host = Host(h, patch.l_max)
        require_connected(host.graph)
        if f is None and flag_h is None:
            f, flag_h = default_seed(c, host)
        elif flag_h is None:
            _require_seed_faces(c, host, f, None)
            flag_h = _least_target_flag(c, host, color(c, f))
        elif f is None:
            _require_seed_faces(c, host, None, flag_h)
            want = color_in_h(c, host, flag_h)
            f = min(g for g, k in c.delta.orbit_index.items() if k == want)
        self.seed = (f, flag_h)

    def build(self, tie_break: int = 0) -> CoverMap:
        """Drive init/select/match/extend under face enumeration `tie_break`
        until the patch is exhausted.  The map comes with its step log;
        surjectivity onto the target is reported, not required.  Any
        invariant failure raises HypothesisViolationError with the step."""
        c, host = self.coloring, self.host
        state = init_cover(c, host, *self.seed, tie_break)
        while True:
            face = select_next_face(state)
            if face is None:
                break
            image = match_face(state, face)
            extend_cover(state, face, image)
        _assert_no_holes(state)
        # every image is a vertex of a host face, so counting them suffices
        surjective = len(set(state.vertex_map.values())) == host.graph.n
        return CoverMap(
            patch=c.patch,
            h=host,
            vertex_map=state.vertex_map,
            seed=self.seed,
            delta=c.delta,
            face_image=state.face_image,
            eligible=c.eligible,
            surjective=surjective,
        )


def build_cover(
    patch: PlanePatch,
    h: Graph | PlanePatch,
    f: Flag | None = None,
    flag_h: Flag | None = None,
    n: int | None = None,
) -> CoverMap:
    """Prepare a CoverRun and build the cover under the default face
    enumeration."""
    return CoverRun(patch, h, f=f, flag_h=flag_h, n=n).build()


def _assert_no_holes(state: PartialCover) -> None:
    """No pending face may be surrounded by processed faces (each face is
    eventually chosen)."""
    processed_edges = {e for es in state.domain_edges_at.values() for e in es}
    for face in state.pending:
        if face.edges <= processed_edges:
            # Unreachable from a build, kept as a guard: the absorbed
            # faces form a disk D bounded by the frontier cycle C (see
            # `extend_cover`).  An edge inside D already lies on two
            # absorbed faces, and a traced map puts each edge on at most
            # two faces, so a pending face, which is not absorbed, with
            # every edge processed has all its edges on C, and its cycle
            # is C.  That face would then fill the whole other side of C,
            # leaving no room for the patch's outer face.
            raise HypothesisViolationError(f"face {face} was skipped but fully surrounded")
