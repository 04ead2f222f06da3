"""Flags, fundamental domains, and the colour maps.

A flag is an incident (vertex, edge, face-boundary) triple.  The palette
is a fundamental domain at the patch root: a connected sequence of flags
holding one representative per orbit of the local symmetries of the root
neighbourhood at depth n.  The colour of any flag anywhere is the
palette index of its orbit, reached through a root-preserving local
isomorphism; colours of flags in a target graph H are pulled back the
same way (well-defined because any two such isomorphisms differ by a
symmetry that respects the orbit partition).

Local comparisons run on face cores (the subgraph spanned by the faces
within n chain steps, see local.face_core) rather than on raw induced
balls, for two reasons verified empirically: induced balls of hyperbolic
tessellations carry spurious rim automorphisms (swappable leaf pairs)
that make full enumeration infeasible, and induced balls of small
lattice quotients carry wrap chords that no ball of the infinite
tessellation has.  The face core is exactly the structure a covering
map preserves, and on honestly locally-G inputs it carries the same
information as the corresponding ball.
"""

from __future__ import annotations

from functools import cached_property, total_ordering

from .errors import DefectError, HypothesisViolationError, InputError, PatchTooSmallError
from .graph import Graph, edge_key, json_int
from .local import (
    FaceCore,
    Host,
    Isomorphism,
    _assemble,
    _core_faces,
    dk_ball,
    face_core,
    host_faces_at,
    rooted_isomorphisms,
)
from .record import FrozenRecord, Record
from .tessellation import FaceBoundary, PlanePatch


@total_ordering
class Flag(FrozenRecord):
    """An incident triple: vertex u, edge e with u in e, face F with e in F.
    Flags of one class order by (vertex, edge, face)."""

    vertex: int
    edge: tuple[int, int]
    face: FaceBoundary

    def _key(self) -> tuple:
        return (self.vertex, self.edge, self.face)

    def __lt__(self, other: object) -> bool:
        return self._key() < other._key() if other.__class__ is self.__class__ else NotImplemented

    def __post_init__(self) -> None:
        if self.vertex not in self.edge:
            raise InputError(f"flag vertex {self.vertex} not on its edge {self.edge}")
        if self.edge not in self.face.edges:
            raise InputError(f"flag edge {self.edge} not on its face {self.face}")

    @property
    def other_end(self) -> int:
        a, b = self.edge
        return b if self.vertex == a else a

    def incident(self, g: "Flag") -> bool:
        """Two flags at the same vertex are incident if they share the edge
        or the face."""
        return self.vertex == g.vertex and (self.edge == g.edge or self.face == g.face)

    def to_json_dict(self) -> dict:
        return {"v": self.vertex, "e": list(self.edge), "face": list(self.face.cycle)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Flag":
        try:
            a, b = (json_int(x, "flag edge end") for x in d["e"])
            face = FaceBoundary([json_int(x, "flag face vertex") for x in d["face"]])
            return cls(json_int(d["v"], "flag v"), edge_key(a, b), face)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed flag JSON: {exc}") from exc


def flags_at(host: Host, v: int) -> list[Flag]:
    """All flags at v, in canonical order.

    On a patch host the faces are the traced ones (requires
    complete_radius >= 2 so the neighbourhood is trustworthy); on a graph
    host they are inferred peripheral cycles.
    """
    host.require_complete(v, 2)
    out = []
    for f in host_faces_at(host, v):
        for e in f.edges_at(v):
            out.append(Flag(v, e, f))
    return sorted(out)


def _flag_cycle(patch: PlanePatch, v: int) -> list[Flag]:
    """The flags at v in rotation order; incidence makes them a single
    cycle of length 2 deg(v), alternating shared-face and shared-edge
    steps."""
    rot = patch.rotation[v]
    d = len(rot)
    corner = [patch.corner_face(v, rot[i], rot[(i + 1) % d]) for i in range(d)]
    cyc: list[Flag] = []
    for i in range(d):
        e_i = edge_key(v, rot[i])
        cyc.append(Flag(v, e_i, corner[i - 1]))
        cyc.append(Flag(v, e_i, corner[i]))
    # Unreachable: the root, the one v passed here, is interior with complete
    # radius >= 2 (`flag_orbit_partition`).  A repeat needs corner[i-1] ==
    # corner[i], one face with e_{i-1}, e_i and e_{i+1}, three edges at v
    # when deg v >= 3; but a face is a simple cycle, with two.  At an
    # interior vertex of degree 2, `corner_face` has raised "has 2 faces".
    if len(set(cyc)) != 2 * d:
        raise DefectError(f"flags at {v} repeat around its rotation")
    # By construction: cyc[2i], cyc[2i+1] share e_i; cyc[2i+1], cyc[2i+2] corner[i] (mod 2d)
    for i, f in enumerate(cyc):
        if not f.incident(cyc[(i + 1) % (2 * d)]):
            raise DefectError(f"consecutive flags at {v} are not incident")
    return cyc


# ---------------------------------------------------------------------------
# Orbits of flags at the root
# ---------------------------------------------------------------------------

def _walk(f: Flag) -> tuple[int, ...]:
    """The face of f listed from its vertex along its edge; it fixes f."""
    return f.face.cycle_from(f.vertex, f.other_end)


def _prescription(a: Flag, b: Flag) -> dict[int, int] | None:
    """Vertex images forced by mapping flag a to flag b: the face walks
    correspond pointwise."""
    if len(a.face) != len(b.face):
        return None
    return dict(zip(_walk(a), _walk(b)))


def flag_orbit_partition(patch: PlanePatch, i: int) -> list[frozenset[Flag]]:
    """Partition of the root flags into orbits of the depth-i root symmetries.

    Two flags are in the same orbit iff some root-preserving automorphism
    of the depth-i face core maps one to the other carrying vertex, edge,
    and face pointwise.  Orbits are equivalence classes, so each flag, in
    order, is compared only with the first flag of each orbit found so
    far, by a single constrained existence search (never by enumerating
    the full group, which is polluted by rim symmetries on hyperbolic
    balls).  The orbits come out ordered by their least flags.  Each
    level's partition is kept on the patch (`local._FaceMemo.orbits`).
    """
    host = Host(patch)
    known = host._memo.orbits.get(i)
    if known is None:
        core = face_core(host, patch.root, i).rooted
        orbits: list[list[Flag]] = []
        for f in flags_at(host, patch.root):
            for orbit in orbits:
                pres = _prescription(orbit[0], f)
                if pres and rooted_isomorphisms(core, core, limit=1, prescribed=pres):
                    orbit.append(f)
                    break
            else:
                orbits.append([f])
        known = host._memo.orbits[i] = tuple(frozenset(orbit) for orbit in orbits)
    return list(known)


class FundamentalDomain(Record):
    """The palette: one flag per orbit, consecutive flags incident."""

    flags: tuple[Flag, ...]
    level: int
    orbits: tuple[frozenset[Flag], ...]
    orbit_index: dict[Flag, int]

    def __len__(self) -> int:
        return len(self.flags)


def i_fundamental_domain(patch: PlanePatch, i: int) -> FundamentalDomain:
    """A connected sequence of root flags, one per depth-i orbit.

    The sequence follows the rotation at the root: representatives are
    the first occurrences of their orbits along the flag cycle, started
    and oriented so that the representatives come out contiguous (such a
    start exists because the orbit pattern around the cycle is the
    pattern of a cyclic or dihedral action).
    """
    orbits = flag_orbit_partition(patch, i)
    orbit_of: dict[Flag, int] = {}
    for k, orb in enumerate(orbits):
        for f in orb:
            orbit_of[f] = k
    cycle = _flag_cycle(patch, patch.root)
    m = len(cycle)
    starts = sorted(range(m), key=lambda s: cycle[s])
    for s in starts:
        for step in (1, -1):
            walk = [cycle[(s + step * t) % m] for t in range(m)]
            reps: list[Flag] = []
            seen: set[int] = set()
            for f in walk:
                if orbit_of[f] not in seen:
                    seen.add(orbit_of[f])
                    reps.append(f)
            if all(reps[t].incident(reps[t + 1]) for t in range(len(reps) - 1)):
                ordered = tuple(reps)
                rep_of_orbit = {orbit_of[r]: k for k, r in enumerate(ordered)}
                index = {f: rep_of_orbit[orbit_of[f]] for f in cycle}
                return FundamentalDomain(
                    flags=ordered,
                    level=i,
                    orbits=tuple(orbits),
                    orbit_index=index,
                )
    raise DefectError("no connected traversal: impossible for a plane vertex")


_I_MAX, _GUARD = 4, 2  # the stabilisation window, see stabilize_n


def stabilize_n(patch: PlanePatch) -> int:
    """The least n <= _I_MAX whose orbit partition repeats for _GUARD
    consecutive levels (n, n+1, ..., n+_GUARD-1): the stabilisation level
    of every run that is not given n, `cover-kit flags` and `cover` alike.

    The partition can only refine as the depth grows and its size is
    bounded by twice the root degree, so a stable window certifies
    stabilisation at desk scale.  Raises PatchTooSmallError when the
    patch cannot host the cores needed, or when no level up to _I_MAX
    stabilises.
    """
    for n in range(1, _I_MAX + 1):  # levels first found in ascending order; orbits listed by least flag
        if all(flag_orbit_partition(patch, n) == flag_orbit_partition(patch, n + t) for t in range(1, _GUARD)):
            return n
    raise PatchTooSmallError(
        f"orbit partition did not stabilise for {_GUARD} consecutive levels "
        f"within i_max={_I_MAX}; increase radius"
    )


# ---------------------------------------------------------------------------
# Colours
# ---------------------------------------------------------------------------

class Coloring:
    """The colouring context of one run: the patch, its palette delta at
    level n = delta.level, the patch's own Host `g`, and the root's
    depth-n face core, the one reference of every pull (so refined
    once).  A host whose source is the patch is the patch side.  The
    core isomorphisms onto the root core are kept on each host's source
    (`local._FaceMemo.isos`), shared by every Coloring of the patch at
    level n; a Coloring finds a host's table once (`_isos`), and two
    Hosts of one source find the same table.  A vertex met first is
    pulled through the search of its core's shape, made once per
    Coloring for both sides and kept, found or failed, in `_shapes`
    (`_core_map`).  The eligible faces are found once, when first read."""

    def __init__(self, patch: PlanePatch, delta: FundamentalDomain):
        self.patch = patch
        self.delta = delta
        self.n = delta.level
        self.g = Host(patch)
        self._palette = {_walk(f): k for f, k in delta.orbit_index.items()}  # by root flag walk
        self._isos: dict[Host, dict[int, dict[int, int]]] = {}
        self._shapes: dict[tuple, tuple[tuple[int, int], ...] | None] = {}

    @cached_property
    def root_core(self) -> FaceCore:
        return face_core(self.g, self.patch.root, self.n)

    @cached_property
    def eligible(self) -> frozenset[FaceBoundary]:
        """Faces all of whose vertices can host depth-n colour computations:
        complete_radius at least the D_n ball radius guarantees every chain
        vertex of the depth-n core is interior.  They are read off the faces
        at the vertices that qualify, not from a pass over every face.  A
        patch with no such face is too small to start a cover at all."""
        patch = self.patch
        need = max(dk_ball(self.g, patch.root, self.n).radius, 2)
        deep = {v for v, r in enumerate(patch.complete_radius) if r >= need}
        eligible = frozenset(f for v in deep for f in patch.faces_at(v) if deep.issuperset(f.cycle))
        if not eligible:
            raise PatchTooSmallError(
                f"patch too small: no face has complete_radius >= {need} at all its "
                f"vertices; increase radius"
            )
        return eligible


def _colour(c: Coloring, host: Host, x: int, walk: tuple[int, ...]) -> int:
    """The colour of the flag that a face walk from x fixes: the walk
    carried to the root through a root-preserving isomorphism of depth-n
    cores, looked up in the palette.  The carried walk starts at the
    root, so it is the walk of a root flag, a key of the palette, exactly
    when the face it lists is a patch face.  A flag is fixed by its walk,
    so distinct root flags have distinct keys, and the key found is that
    of the root flag onto which the isomorphism carries the flag that the
    walk fixes.  No isomorphism, or a carried walk that is no key, blames
    x's graph: a DefectError when host's source is the patch, else a
    HypothesisViolationError.  Only found isomorphisms are kept per
    vertex; a failed shape is kept on the Coloring, so a failure is found
    once per shape and raised, naming its vertex, each time."""
    isos = c._isos.get(host)
    if isos is None:  # the table of host's source for a root core of this content
        ref = (c.n, c.patch.root, c.root_core.rooted.graph)
        isos = c._isos[host] = host._memo.isos.setdefault(ref, {})
    iso = isos.get(x)
    if iso is None:
        iso = isos[x] = _core_map(c, host, x)
    k = c._palette.get(tuple(map(iso.__getitem__, walk)))
    if k is None:
        if host.source is c.patch:
            raise DefectError(f"image of {FaceBoundary(walk)} at the root is not a face")
        raise HypothesisViolationError(
            f"face {FaceBoundary(walk)} at {x} does not pull back to a face at the root"
        )
    return k


def _core_map(c: Coloring, host: Host, x: int) -> dict[int, int]:
    """The isomorphism of x's depth-n core onto the root core, searched
    once per core shape (`Coloring._shapes`): x's rank and the core's
    face cycles in ranks, sorted, a rank being a vertex's place in id
    order.  A rank keeps the order, so each cycle stays canonical, and
    the faces span the core.  The answer carries over exactly, because
    `rooted_isomorphisms` reads the searched core's ids only through
    their order: it refines the core in id order with the reference's
    intern table, orders its search by (distance, id), and tries
    candidates in the reference's id order.  The intern table, the one
    shared state, gains entries only in searches that end rejected, and
    no accepted search reads them.  So the map kept in ranks, put back
    into x's ids in its kept order, is the map a search of x's own core
    finds, item for item; a failed shape fails at each of its vertices,
    each error naming its own and its side.  The faces are collected by
    face_core's traversal, so a margin is met where face_core meets it."""
    vertices, faces = _core_faces(host, x, c.n)
    ids = sorted(vertices)
    rank = {v: i for i, v in enumerate(ids)}
    shape = (rank[x], tuple(sorted(tuple(map(rank.__getitem__, f.cycle)) for f in faces)))
    if shape not in c._shapes:
        found = rooted_isomorphisms(_assemble(x, faces).rooted, c.root_core.rooted, limit=1)
        c._shapes[shape] = tuple((rank[v], w) for v, w in found[0].mapping.items()) if found else None
    pairs = c._shapes[shape]
    if pairs is None:
        if host.source is c.patch:
            raise DefectError(f"patch not vertex-transitive at {x}: no depth-{c.n} isomorphism")
        raise HypothesisViolationError(f"h is not {c.n}-locally-G at {x}")
    return {ids[r]: w for r, w in pairs}


def color(c: Coloring, f: Flag) -> int:
    """The palette index of the orbit of a patch flag: push f to the root
    through any root-preserving isomorphism of depth-n cores.
    Independent of the choice of isomorphism (tested, not assumed), so a
    root flag is pulled through a root automorphism like any other."""
    return _colour(c, c.g, f.vertex, _walk(f))


def color_in_h(c: Coloring, host: Host, flag_h: Flag) -> int:
    """The colour of a flag of the target graph: pull it back to the root
    through any isomorphism of depth-n cores (the compositions coincide
    for every choice, which is tested, not assumed).  It differs from
    `color` only in taking a host, whose source names the side it blames."""
    return _colour(c, host, flag_h.vertex, _walk(flag_h))


# ---------------------------------------------------------------------------
# The extension isomorphism (rigidity)
# ---------------------------------------------------------------------------

def extend_iso(c: Coloring, host: Host, f: Flag, flag_h: Flag, r: int) -> Isomorphism:
    """The unique colour-compatible local isomorphism around f: the
    isomorphism of depth-r face cores that carries f onto flag_h and each
    core face onto a core face.  At most one exists: a map that carries
    faces onto faces and fixes one face pointwise is forced across each
    shared edge, and the faces of a core are joined through shared edges.
    So the search stops at its first map (limit=1), which must carry the
    faces onto exactly the target core's faces; no map, or one that does
    not, is a hypothesis violation."""
    if color(c, f) != color_in_h(c, host, flag_h):
        raise InputError("colour mismatch between seed flags")
    core_g, core_h = face_core(c.g, f.vertex, r), face_core(host, flag_h.vertex, r)
    pres = _prescription(f, flag_h)
    found = rooted_isomorphisms(core_g.rooted, core_h.rooted, limit=1, prescribed=pres) if pres else []
    if not found or {found[0].map_cycle(F) for F in core_g.faces} != core_h.faces:
        raise HypothesisViolationError(
            f"h is not {r}-locally-G at {flag_h.vertex}: no isomorphism of depth-{r} "
            f"cores carries the flag at {f.vertex} onto it, faces onto faces"
        )
    _verify_partial_isomorphism(c.g.graph, host.graph, found[0].mapping)
    return found[0]


def _verify_partial_isomorphism(ga: Graph, gb: Graph, vmap: dict[int, int]) -> None:
    """vmap is injective and carries the edges among its keys onto the
    edges among its images, in time linear in the edges; a mismatch is
    named by the least pair of keys (a, b), a < b, that it breaks.  The
    keys are core vertices of ga and the images core vertices of gb."""
    inverse = {w: a for a, w in vmap.items()}
    if len(inverse) != len(vmap):
        raise HypothesisViolationError("extension is not injective on its core")
    carried = {edge_key(a, b) for a in vmap for b in ga.neighbors(a) if b in vmap}
    pulled = {edge_key(inverse[w], inverse[z]) for w in inverse for z in gb.neighbors(w) if z in inverse}
    if carried != pulled:
        a, b = min(carried ^ pulled)
        raise HypothesisViolationError(f"extension does not preserve adjacency on ({a},{b})")
