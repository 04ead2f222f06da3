"""Local structure of graphs that look like a plane tessellation.

Faces of a (possibly non-planar) graph H are recovered without any
embedding: a face-boundary at v is a peripheral cycle (induced and
non-separating) of the D_2 ball at v.  D_k balls are the smallest
ordinary balls containing everything reachable by chains of k pairwise
intersecting peripheral cycles.  On top of that sit a rooted-isomorphism
backtracking search and the r-locally-G certification.
"""

from __future__ import annotations

from collections import Counter

from .errors import InputError, PatchTooSmallError
from .graph import Graph, RootedBall, ball, induced_subgraph, local_parts
from .record import Record
from .tessellation import FaceBoundary, PlanePatch

# A peripheral cycle is represented by the same canonical cycle type that
# patches use for their faces, so cycles found in H compare directly with
# traced faces of G.
PeripheralCycle = FaceBoundary


def _chordless_cycles_through(g: Graph, v: int, l_max: int) -> list[FaceBoundary]:
    """All induced cycles through v with at most l_max vertices, untested
    for separation.

    Enumeration is a DFS over chordless paths in ascending id order; each
    cycle is reported once, in canonical rotation.
    """
    found: list[FaceBoundary] = []
    path = [v]
    on_path = {v}
    branches = [iter(g.neighbors(v))]  # the untried neighbours of each path vertex
    while branches:
        for u in branches[-1]:
            if u in on_path:
                continue
            nbrs = g.neighbors(u)
            closes = v in nbrs
            # u meets the tail and, if it closes, v; any other path vertex is a chord
            if len(on_path.intersection(nbrs)) > 1 + closes:
                continue
            if closes and len(path) >= 2:
                # adjacency back to v forces closure here
                if path[1] < u:
                    found.append(FaceBoundary(path + [u]))
                continue
            if len(path) + 1 <= l_max - 1:
                path.append(u)
                on_path.add(u)
                branches.append(iter(nbrs))
                break
        else:
            branches.pop()
            on_path.remove(path.pop())
    return found


def peripheral_cycles_through(g: Graph, v: int, l_max: int) -> list[PeripheralCycle]:
    """All induced non-separating cycles through v with at most l_max
    vertices, sorted.  A cycle whose removal leaves no vertices counts as
    non-separating.
    """
    if v not in g:
        raise InputError(f"unknown vertex {v}")
    return list(Host(g, l_max).chain_cycles(v))


def dk_ball(host: Host, o: int, k: int) -> RootedBall:
    """D_k(o): B_j(o) for the smallest j containing every vertex reachable
    by a chain of <= k pairwise-intersecting peripheral cycles from o.

    The chain cycles are peripheral in all of the host graph
    (`Host.chain_cycles`).  On a patch host every chain vertex must have
    complete surroundings to radius 2 and the final ball must fit inside
    the certified region (PatchTooSmallError otherwise); it never
    silently truncates.
    """
    j, dist = _dk_dist(host, o, k)
    return RootedBall(graph=induced_subgraph(host.graph, dist), root=o, radius=j, dist=dist)


def _dk_dist(host: Host, o: int, k: int) -> tuple[int, dict[int, int]]:
    """D_k(o) as a vertex set: its radius j and the distances from o up
    to j, found by one BFS."""
    g = host.graph
    if o not in g:
        raise InputError(f"unknown vertex {o}")
    if k < 1:
        raise InputError("need k >= 1")
    reach: set[int] = {o}
    frontier: set[int] = {o}
    for _ in range(k):
        level: set[PeripheralCycle] = set()
        for x in sorted(frontier):
            level.update(host.chain_cycles(x))
        new_vertices = {v for c in level for v in c.cycle}
        frontier = new_vertices - reach
        reach |= new_vertices
    # a chain cycle has at most l_max vertices, so each link reaches at
    # most l_max // 2 steps further from o
    dist = g.distances_from(o, limit=k * (host.l_max // 2))
    j = max(dist[x] for x in reach)
    host.require_complete(o, j)
    return j, {x: d for x, d in dist.items() if d <= j}


def face_boundaries_at(h: Graph, v: int, l_max: int) -> list[FaceBoundary]:
    """The face-boundaries of H at v: peripheral cycles of D_2(v;H) through
    v, as host_faces_at finds them on a Host of (h, l_max), which shares
    the faces that every other Host of them has found.  With
    peripheral_cycles_through it is the tests' reference for face
    inference; the package itself infers faces only through a Host."""
    return list(host_faces_at(Host(h, l_max), v))


# ---------------------------------------------------------------------------
# Face cores
# ---------------------------------------------------------------------------

class FaceCore(Record):
    """The subgraph spanned by the faces within n chain steps of a vertex.

    Vertices are the vertices of those faces, edges are the union of
    their edge sets.  This is the part of the graph the flag machinery
    actually sees: unlike the induced ball B_j it contains no wrap
    chords, so it matches across a covering map even when the target is
    a small quotient.
    """

    rooted: RootedBall
    faces: frozenset[FaceBoundary]

    @property
    def root(self) -> int:
        return self.rooted.root


class Host:
    """A graph together with its face-boundaries, vertex by vertex.

    A patch host serves the patch's traced faces, at interior vertices
    only, and its completeness guard; the patch brings its own l_max.  A
    plain graph host infers face-boundaries with cycle length bound l_max
    and has no margin; it answers each face query on its own graph,
    with the D_2 ball as a vertex set, and builds no graph of the ball.

    What a host finds is a function of its source and l_max alone, so
    it is kept on the source, one _FaceMemo per l_max, shared by every
    Host of that source and l_max: the Host each public call makes finds
    the faces earlier calls found.  A memo refers to neither its source
    nor a Host, so a dropped Host is freed at once and a dropped source
    frees its memo, both without the cyclic garbage collector.  A patch
    and its graph keep separate memos, so a patch host and a graph host
    never serve each other's faces.  The memos fill lazily, on patch and
    graph hosts alike: a run touches only the vertices it asks about, so
    a cover build's face work follows its image, not the host's size:
    the component count a verdict adds is the graph's (`Graph.components`).
    """

    def __init__(self, source: Graph | PlanePatch, l_max: int | None = None):
        self.source = source
        if isinstance(source, PlanePatch):
            self.graph, self.l_max = source.graph, source.l_max
            self.require_complete = source.require_complete
            self._find_faces = _traced_faces
        else:
            if l_max is None:
                raise InputError("face enumeration on a Graph needs l_max")
            self.graph, self.l_max = source, l_max
            self.require_complete = _no_margin
            self._find_faces = _inferred_faces
        memos = source._face_memos
        self._memo = memos.get(self.l_max)
        if self._memo is None:
            self._memo = memos[self.l_max] = _FaceMemo()

    def _cycles_at(self, x: int) -> tuple[tuple[FaceBoundary, bool], ...]:
        """The chordless cycles through x with at most l_max vertices,
        sorted, each paired with whether it leaves the host graph
        connected.  Enumerated once per vertex, and each cycle is tested
        once.  C is non-separating when H - C
        has at most one component: the parts of H's component around C,
        plus H's other components, which C leaves whole."""
        memo = self._memo
        cycles = memo.cycles.get(x)
        if cycles is None:
            g, verdicts = self.graph, memo.verdicts
            found = []
            for c in sorted(_chordless_cycles_through(g, x, self.l_max)):
                entry = verdicts.get(c)
                if entry is None:
                    entry = verdicts[c] = (c, local_parts(g, c.cycle) + g.components - 1 <= 1)
                found.append(entry)
            cycles = memo.cycles[x] = tuple(found)
        return cycles

    def chain_cycles(self, x: int) -> tuple[PeripheralCycle, ...]:
        """The peripheral cycles through x in the whole host graph, sorted:
        the links of D-ball chains.  On a patch host x must have complete
        surroundings to radius 2 (PatchTooSmallError otherwise)."""
        self.require_complete(x, 2)
        return tuple(c for c, ok in self._cycles_at(x) if ok)


class _FaceMemo:
    """What the hosts of one source learn at one l_max: the faces at
    each vertex; the chordless cycles through each vertex, each with its
    verdict, from which both the chain cycles and the inferred faces are
    read; each cycle's verdict in the whole graph, kept with the first
    object found for the cycle, so that a cycle met from several
    vertices is one object and sets of cycles match by identity.  A
    verdict looks only near its cycle (`graph.local_parts`) and adds the
    graph's own component count (`Graph.components`), so its cost does
    not grow with the graph.

    It also keeps the colour pulls of every Coloring (`flags._colour`):
    the depth-n core isomorphism found at each vertex, onto a root core
    named by its content, (n, root, root-core graph).  A search is a
    function of the two cores alone, so every Coloring whose reference
    has that content reads the map that the first one found, through
    the search of the vertex's core shape (`flags._core_map`).  The key
    holds the root core's own graph, never a patch, so the memo still
    refers to no source.  On a patch it keeps each level's flag orbit
    partition of the root (`flags.flag_orbit_partition`)."""

    def __init__(self):
        self.faces: dict[int, tuple[FaceBoundary, ...]] = {}
        self.cycles: dict[int, tuple[tuple[FaceBoundary, bool], ...]] = {}
        self.verdicts: dict[FaceBoundary, tuple[FaceBoundary, bool]] = {}
        self.isos: dict[tuple[int, int, Graph], dict[int, dict[int, int]]] = {}
        self.orbits: dict[int, tuple[frozenset, ...]] = {}


def _traced_faces(host: Host, v: int) -> tuple[FaceBoundary, ...]:
    patch = host.source
    if v not in patch.graph:
        raise InputError(f"unknown vertex {v}")
    if not patch.is_interior(v):
        raise PatchTooSmallError(
            f"patch too small: faces at boundary vertex {v} are not all known"
        )
    return patch.faces_at(v)


def _inferred_faces(host: Host, v: int) -> tuple[FaceBoundary, ...]:
    """Peripheral cycles of D_2(v) through v, sorted.  Peripheral here
    means in the ball's own graph, not in all of H as for chain cycles.

    They are read off the host's own chordless cycles through v: those
    inside D_2(v) whose removal leaves at most one part of the ball.
    That is the answer of peripheral_cycles_through(D_2(v), v, l_max)
    without a second search: D_2(v) is an induced ball, so a cycle
    inside it is chordless there exactly when it is chordless in H; and
    a ball is connected, so its component count is 1.

    No graph of the ball is built: the separation search runs on H,
    confined to D_2(v)'s vertices.  Confined so, it sees the same
    vertices and the same adjacency as a search on the induced ball,
    since a vertex's neighbours in the ball are its neighbours in H
    that lie inside it, in the same id order."""
    _, inside = _dk_dist(host, v, 2)
    g = host.graph
    return tuple(
        c
        for c, _ in host._cycles_at(v)
        if all(x in inside for x in c.cycle) and local_parts(g, c.cycle, within=inside) <= 1
    )


def _no_margin(v: int, radius: int) -> None:
    """A plain graph is whole: every neighbourhood in it is complete."""


def host_faces_at(host: Host, v: int) -> tuple[FaceBoundary, ...]:
    """Face-boundaries at v: traced faces on a patch host (v must be
    interior), inferred peripheral cycles on a graph host."""
    known = host._memo.faces
    faces = known.get(v)
    if faces is None:
        faces = known[v] = host._find_faces(host, v)
    return faces


def face_core(host: Host, x: int, n: int) -> FaceCore:
    """Faces within n vertex-sharing chain steps of x, as a rooted subgraph.

    Level 1 holds the faces containing x; level i+1 holds the faces
    meeting any vertex of level i.  On patches every vertex whose faces
    are consulted must be interior (raises PatchTooSmallError otherwise);
    the enumeration never silently truncates.  It is two steps, one
    traversal: `_core_faces` finds the faces and `_assemble` builds the
    core from them (a colour pull runs the first step alone, and the
    second only for a core shape it has not met, `flags._core_map`).
    """
    return _assemble(x, _core_faces(host, x, n)[1])


def _core_faces(host: Host, x: int, n: int) -> tuple[set[int], set[FaceBoundary]]:
    """The vertices and the faces of x's depth-n core.  Each level's
    faces are asked for at its vertices in id order, so the first vertex
    too near a patch margin is the one reported."""
    if n < 1:
        raise InputError("need n >= 1")
    faces: set[FaceBoundary] = set()
    vertices = {x}
    expanded: set[int] = set()
    frontier = [x]
    for level in range(n):
        for w in frontier:
            for fb in host_faces_at(host, w):
                if fb not in faces:
                    faces.add(fb)
                    vertices.update(fb.cycle)
        if level < n - 1:
            expanded.update(frontier)
            frontier = sorted(vertices - expanded)
    return vertices, faces


def _assemble(x: int, faces: set[FaceBoundary]) -> FaceCore:
    """The core rooted at x that the faces span.  Its adjacency is read
    straight off the face cycles; its Graph skips the checks of
    Graph(vertices, edges), which cannot fire here: a FaceBoundary is a
    simple cycle of at least 3 distinct ints, so no edge is a loop, and
    every vertex and edge end comes from a face.  Nor is it counted: each
    face after the first level meets a vertex already reached from x, so
    a core is connected (`as_rooted` refuses one that is not), and only
    hosts, targets and `is_vertex_transitive` read `components`."""
    adj: dict[int, set[int]] = {x: set()}
    for fb in faces:
        c = fb.cycle
        for u, v in zip(c, c[1:] + c[:1]):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return FaceCore(as_rooted(Graph._trusted(adj, components=1), x), frozenset(faces))


# ---------------------------------------------------------------------------
# Rooted isomorphism search
# ---------------------------------------------------------------------------

class Isomorphism(Record):
    """A root-preserving graph isomorphism, stored as a vertex map."""

    mapping: dict[int, int]
    source_root: int
    target_root: int

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def map_cycle(self, c: FaceBoundary) -> FaceBoundary:
        return FaceBoundary([self.mapping[v] for v in c.cycle])

    def is_orientation_reversing(self, rotation: tuple[tuple[int, ...], ...], at: int) -> bool:
        """Whether this self-map carries the cyclic order at `at` onto the
        reverse of the rotation at its image (rather than a rotation of it)."""
        img = tuple(self.mapping[u] for u in rotation[at])
        dst = rotation[self.mapping[at]]
        if _cyclic_equal(img, dst):
            return False
        if _cyclic_equal(img, dst[::-1]):
            return True
        raise InputError(f"image of rotation at {at} is not a rotation either way")


def _cyclic_equal(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if len(a) != len(b):
        return False
    k = len(a)
    return any(all(a[(s + i) % k] == b[i] for i in range(k)) for s in range(k))


def _refine(b: RootedBall, table: dict, last: int | None = None) -> tuple[int, dict] | None:
    """Distance-seeded colour refinement of one rooted graph: the round at
    which it is stable and the colours at that round.

    Round 0 colours a vertex by its distance from the root and its
    degree; round k by its colour at round k - 1 and the sorted colours
    of its neighbours then, interned in `table` under (k, signature).
    So two graphs refined with one table get equal colours exactly where
    one refinement run on both at once would.  The refinement is stable
    at the first round that splits no class, and stays so.  With `last`,
    None when it is not stable by round `last`.
    """
    vertices, adj, dist = b.graph.vertices, b.graph._adj, b.dist
    col = {v: (dist[v], len(adj[v])) for v in vertices}
    classes = len(set(col.values()))
    k = 0
    while True:
        k += 1
        new = {}
        for v in vertices:
            sig = (k, col[v], tuple(sorted([col[u] for u in adj[v]])))
            c = table.get(sig)
            if c is None:
                c = table[sig] = len(table)
            new[v] = c
        count = len(set(new.values()))
        if count == classes:
            return k, new
        if k == last:
            return None
        col, classes = new, count


class Refinement:
    """One side of a rooted-isomorphism search, refined once: the round
    at which its refinement is stable, each vertex's colour there, the
    vertices of each colour in id order and how many there are.  Every
    graph compared with it is refined with its intern table.  A ball is
    immutable, so its Refinement is made on the first search against it
    and kept with it (`_refinement`): a context that compares many
    graphs with one reference ball (the colour pulls of a Coloring, the
    reference of is_r_locally) refines that ball once."""

    def __init__(self, b: RootedBall):
        self.table: dict[tuple, int] = {}
        self.round, self.colors = _refine(b, self.table)
        self.classes: dict[int, list[int]] = {}
        for w in b.graph.vertices:
            self.classes.setdefault(self.colors[w], []).append(w)
        self.counts = Counter(self.colors.values())


def _refinement(b: RootedBall) -> Refinement:
    """b's Refinement, made on the first call and kept in b's own
    attributes.  It does not refer back to b, so a dropped ball is freed
    at once, without the cyclic garbage collector."""
    ref = b.__dict__.get("_refinement")
    if ref is None:
        ref = b.__dict__["_refinement"] = Refinement(b)
    return ref


def as_rooted(g: Graph, root: int) -> RootedBall:
    """View any connected rooted graph through the RootedBall interface so
    the isomorphism search can use its distance refinement."""
    dist = g.distances_from(root)
    if len(dist) != g.n:
        raise InputError("rooted view requires a connected graph")
    return RootedBall(graph=g, root=root, radius=max(dist.values(), default=0), dist=dist)


def rooted_isomorphisms(
    a: RootedBall,
    b: RootedBall,
    limit: int | None = None,
    prescribed: dict[int, int] | None = None,
) -> list[Isomorphism]:
    """All root-preserving isomorphisms a -> b, deterministically ordered.

    Backtracking over vertices in (distance, id) order, with candidates
    restricted by colour refinement.  `prescribed` pins chosen vertex
    images in advance (used for orbit searches under partial
    constraints).  Returns at most `limit` maps; an empty list means no
    isomorphism satisfies the constraints.  b is refined on the first
    search against it only (`_refinement`), so one reference searched
    against many graphs is refined once.

    Each side is refined alone, a with b's intern table, and the search
    rejects when the two stable rounds or the colour multisets differ.
    That is what one refinement run on both graphs at once would decide
    (the tests keep that joint refinement as the reference), and the
    candidates are the same:
    - isomorphic rooted graphs stabilise at the same round with equal
      colour multisets;
    - if one side stabilises at round s and the other at a later round
      t, the joint refinement runs to round t and rejects there: at t
      one class count grows and the other does not, and a colour at one
      round fixes the colour at the round before, so equal multisets at
      t would give equal counts at both t and t - 1;
    - when the rounds are equal, the joint refinement stops at that same
      round with the same partition, and the shared table gives two
      vertices equal colours exactly where the joint run does.
    So the candidate lists, their order and the first map found are
    identical.  Equal colour multisets at the stable round give equal
    (distance, degree) multisets at round 0, so equal edge counts: no
    edge set is needed to reject.
    """
    ga, gb = a.graph, b.graph
    if a.radius != b.radius or ga.n != gb.n:
        return []
    ref = _refinement(b)
    col_b = ref.colors
    refined = (ref.round, col_b) if a is b else _refine(a, ref.table, ref.round)
    if refined is None or refined[0] != ref.round:
        return []
    col_a = refined[1]
    if Counter(col_a.values()) != ref.counts:
        return []
    if col_a[a.root] != col_b[b.root]:
        return []
    pres = dict(prescribed) if prescribed else {}
    pres[a.root] = b.root
    for v, w in pres.items():
        if v not in ga or w not in gb or col_a[v] != col_b[w]:
            return []
    if len(set(pres.values())) != len(pres):
        return []
    by_color, adj_a, adj_b = ref.classes, ga._adj, gb._adj
    # vertices are in id order, so a stable sort by distance orders them by (distance, id)
    order = sorted(pres) + sorted((v for v in ga.vertices if v not in pres), key=a.dist.__getitem__)
    results: list[Isomorphism] = []
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates(v: int):
        """Images of v consistent with the current partial map, lazily."""
        mapped_nbrs = [mapping[u] for u in adj_a[v] if u in mapping]
        for w in [pres[v]] if v in pres else by_color.get(col_a[v], ()):
            if w in used:
                continue
            wn = adj_b[w]
            if len(used.intersection(wn)) != len(mapped_nbrs):
                continue
            if any(x not in wn for x in mapped_nbrs):
                continue
            yield w

    # Depth-first search with one candidate iterator per mapped vertex;
    # stack[i] enumerates the images of order[i].
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if v in mapping:
            used.remove(mapping.pop(v))
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        mapping[v] = w
        used.add(w)
        if len(stack) < len(order):
            stack.append(candidates(order[len(stack)]))
            continue
        results.append(Isomorphism(dict(mapping), a.root, b.root))
        if limit is not None and len(results) >= limit:
            break
    return results


# ---------------------------------------------------------------------------
# r-locally-G certification
# ---------------------------------------------------------------------------

class LocalCheckReport(Record):
    ok: bool
    failures: list[int] | None = None
    mode: str = "ball"

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = []

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures), "mode": self.mode}


def require_connected(h: Graph) -> None:
    """Refuse a target of several components (InputError).  A face is a
    cycle C that leaves H - C connected, so on such a target a cycle is
    a face only where it is a whole component and the rest of H is
    connected: the vertices of a connected part would have no faces, and
    every colour check there would fail."""
    if h.components > 1:
        raise InputError(f"the target graph is not connected: it has {h.components} components")


def is_r_locally(
    h: Graph, g_patch: PlanePatch, r: int, d_balls: bool = False
) -> LocalCheckReport:
    """Check that every ball of radius r in h is isomorphic to the ball of
    radius r at the patch root.

    With d_balls=True the comparison uses depth-r face cores instead: the
    variant the flag machinery and the cover builder rely on, and the one
    that stays meaningful on quotients small enough for induced balls to
    pick up wrap chords.  A target with no vertices is an input error:
    a check of nothing would read as passed; so is a disconnected one
    (`require_connected`).
    """
    if r < 1:
        raise InputError("need r >= 1")
    if not h.vertices:
        raise InputError("the target graph has no vertices")
    require_connected(h)
    if d_balls:
        reference = face_core(Host(g_patch), g_patch.root, r).rooted
        host = Host(h, g_patch.l_max)
        balls = (face_core(host, v, r).rooted for v in h.vertices)
    else:
        reference = g_patch.ball(g_patch.root, r)
        balls = (ball(h, v, r) for v in h.vertices)
    failures = [b.root for b in balls if not rooted_isomorphisms(b, reference, limit=1)]
    return LocalCheckReport(ok=not failures, failures=failures, mode="core" if d_balls else "ball")
