"""Plane patches of regular {p,q} tessellations.

A patch is a finite combinatorial window into the infinite tessellation:
a graph together with a rotation system, the set of traced interior
faces, and a per-vertex `complete_radius` certifying how much of the
infinite graph around each vertex is faithfully present.

Generation is by face completion, not plain BFS: vertices are completed
layer by layer, and completing a vertex closes every face around it.
Each new face is forced by a counting rule: when the face being attached
at a boundary vertex is the last one that vertex still needs, the face
must also absorb that vertex's remaining boundary edge, so the shared
path with the current boundary extends; otherwise a fresh edge is opened.
This keeps every interior vertex at degree q with q faces of length p.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .errors import DefectError, InputError, PatchTooSmallError
from .graph import Graph, RootedBall, ball, edge_key, json_int


class FaceBoundary:
    """A cycle of the underlying graph, canonicalised up to rotation and
    reflection so that equal cycles compare and hash equal."""

    __slots__ = ("cycle", "_edges", "_hash")

    def __init__(self, cycle: Sequence[int]):
        self.cycle: tuple[int, ...] = _simple_cycle(tuple(int(v) for v in cycle))
        self._hash = hash(self.cycle)
        self._edges: frozenset[tuple[int, int]] | None = None

    @classmethod
    def _trusted(cls, cycle: tuple[int, ...]) -> FaceBoundary:
        """A face whose caller vouches that `cycle` is a simple cycle of at
        least three integer vertices.  Nothing is checked."""
        f = cls.__new__(cls)
        f.cycle = _canonical_cycle(cycle)
        f._hash = hash(f.cycle)
        f._edges = None
        return f

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The cycle's edges, built on first use: a run reads the edges of
        few of a large patch's faces."""
        if self._edges is None:
            c, k = self.cycle, len(self.cycle)
            self._edges = frozenset(edge_key(c[i], c[(i + 1) % k]) for i in range(k))
        return self._edges

    def __len__(self) -> int:
        return len(self.cycle)

    def __contains__(self, v: int) -> bool:
        return v in self.cycle

    def __iter__(self):
        return iter(self.cycle)

    def edges_at(self, v: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two cycle edges incident with v, in canonical order."""
        i = self.cycle.index(v)
        k = len(self.cycle)
        a = edge_key(v, self.cycle[(i - 1) % k])
        b = edge_key(v, self.cycle[(i + 1) % k])
        return tuple(sorted((a, b)))  # type: ignore[return-value]

    def cycle_from(self, v: int, towards: int) -> tuple[int, ...]:
        """The cycle listed starting at v, second vertex `towards`."""
        c = self.cycle
        try:
            i = c.index(v)
        except ValueError:
            raise InputError(f"{v} is not on the cycle {c}") from None
        if c[(i + 1) % len(c)] == towards:
            return c[i:] + c[:i]
        if c[i - 1] == towards:
            return c[i::-1] + c[:i:-1]
        raise InputError(f"{towards} is not a cycle neighbour of {v}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceBoundary):
            return NotImplemented
        return self.cycle == other.cycle

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "FaceBoundary") -> bool:
        return (len(self.cycle), self.cycle) < (len(other.cycle), other.cycle)

    def __repr__(self) -> str:
        return f"FaceBoundary{self.cycle}"


_tables = attrgetter("graph", "root", "rotation", "_faces_at", "outer", "complete_radius")  # what == compares


def _simple_cycle(t: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical form of t, a simple cycle of three or more vertices."""
    if len(t) < 3 or len(set(t)) != len(t):
        raise InputError(f"not a simple cycle: {t}")
    return _canonical_cycle(t)


def _canonical_cycle(t: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation or reflection of a cycle of distinct vertices:
    it starts at the least vertex and goes towards its smaller neighbour."""
    i = t.index(min(t))
    if t[i - 1] < t[(i + 1) % len(t)]:
        t, i = t[::-1], len(t) - 1 - i
    return t[i:] + t[:i]


# ---------------------------------------------------------------------------
# Face tracing on a rotation system
# ---------------------------------------------------------------------------

def trace_faces(g: Graph, rotation: dict[int, Sequence[int]]) -> list[tuple[int, ...]]:
    """All closed walks of the next-dart map of (g, rotation).

    The successor of dart (u, v) is (v, w) where w follows u in the cyclic
    rotation at v.  Every directed edge lies in exactly one returned walk;
    the sum of walk lengths is 2|E|.  Classification of walks into interior
    faces and an outer boundary is left to the caller.
    """
    succ: dict[int, dict[int, int]] = {}
    for v in g.vertices:
        try:
            rot = tuple(rotation[v])
        except KeyError:
            raise InputError(f"rotation missing for vertex {v}") from None
        if sorted(rot) != sorted(g.neighbors(v)):
            raise InputError(f"rotation at {v} does not match its adjacency")
        succ[v] = {rot[i]: rot[(i + 1) % len(rot)] for i in range(len(rot))}

    seen: set[tuple[int, int]] = set()
    walks: list[tuple[int, ...]] = []
    for u in g.vertices:
        for v in g.neighbors(u):
            if (u, v) in seen:
                continue
            walk = [u]
            a, b = u, v
            while (a, b) not in seen:
                seen.add((a, b))
                walk.append(b)
                a, b = b, succ[b][a]
            if (a, b) != (u, v):
                raise DefectError("dart orbit did not close on its start")
            walks.append(_canonical_walk(tuple(walk[:-1])))
    return walks


def _canonical_walk(w: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a closed walk to start at its lexicographically least dart."""
    k, m = len(w), min(w, default=None)  # an empty walk stays empty
    best = min(((w[(i + 1) % k], i) for i, v in enumerate(w) if v == m), default=(0, 0))[1]
    return w[best:] + w[:best]


def _is_simple_walk(w: tuple[int, ...]) -> bool:
    return len(set(w)) == len(w)


# ---------------------------------------------------------------------------
# PlanePatch
# ---------------------------------------------------------------------------

class PlanePatch:
    """A finite window into a plane tessellation, on the vertices 0..n-1.

    Attributes:
        graph: the underlying Graph (root 0 for generated patches).
        root: the distinguished origin vertex o.
        rotation: the cyclic neighbour order at each vertex.
        faces: every interior face, as canonical FaceBoundary values.
        outer: the outer boundary walk (an artifact of truncation, never
            treated as a face).
        complete_radius: the largest i such that B_i(v) of the infinite
            tessellation is certified to sit inside the patch, for each v.
        schlafli: (p, q) for generated patches, None for imports.
        l_max: maximum co-degree, the length bound for peripheral-cycle
            search: p, or the longest face of an import.
    Each per-vertex table, also the sorted faces at each vertex and the
    root distances, is a tuple indexed by vertex and filled in one pass:
    generate's two passes over its graph are complete_radius's and the root's.
    """

    def __init__(
        self,
        graph: Graph,
        root: int,
        rotation: Sequence[tuple[int, ...]] | dict[int, tuple[int, ...]],
        faces: Sequence[FaceBoundary],
        outer: tuple[int, ...],
        complete_radius: Sequence[int] | dict[int, int],
        schlafli: tuple[int, int] | None,
    ):
        if root not in graph or (graph.vertices[0], graph.vertices[-1]) != (0, graph.n - 1):
            raise InputError(f"a patch needs the vertices 0..n-1, its root {root} among them")
        self.graph = graph
        self.root = root
        self.rotation: tuple[tuple[int, ...], ...] = tuple(map(rotation.__getitem__, range(graph.n)))
        self.faces: tuple[FaceBoundary, ...] = tuple(faces)
        self.outer = outer
        self.complete_radius: tuple[int, ...] = tuple(map(complete_radius.__getitem__, range(graph.n)))
        self.schlafli = schlafli
        self.l_max = schlafli[0] if schlafli is not None else max(len(f) for f in self.faces)
        # each face goes to its vertices in FaceBoundary's order: by cycle, then stably by length
        order = sorted(self.faces, key=attrgetter("cycle"))
        order.sort(key=len)
        at: list[list[FaceBoundary]] = [[] for _ in graph.vertices]
        for f in order:
            for v in f.cycle:
                at[v].append(f)
        for v, fs in enumerate(at):  # each list goes as its tuple comes
            at[v] = tuple(fs)
        self._faces_at = tuple(at)
        self._dist_from_root = _distances(graph._adj, (root,))  # -1 where the root does not reach
        # what its hosts learn (local.Host): keyed by l_max like a Graph's,
        # so it holds one entry, at the patch's own l_max
        self._face_memos: dict = {}

    # -- basic queries ------------------------------------------------------

    def faces_at(self, v: int) -> tuple[FaceBoundary, ...]:
        if 0 <= v < len(self._faces_at):
            return self._faces_at[v]
        raise KeyError(v)

    def has_face(self, f: FaceBoundary) -> bool:
        """Whether f is a face: a canonical cycle starts at its least vertex."""
        return 0 <= f.cycle[0] < len(self._faces_at) and f in self._faces_at[f.cycle[0]]

    def is_interior(self, v: int) -> bool:
        """Interior vertices have a face in every corner: a face, a simple
        cycle, takes one corner of a vertex, and the outer walk one or more."""
        return len(self.faces_at(v)) == len(self.rotation[v])

    def root_distance(self, v: int) -> int:
        if 0 <= v < len(self._dist_from_root) and self._dist_from_root[v] >= 0:
            return self._dist_from_root[v]
        raise KeyError(v)

    def require_complete(self, v: int, radius: int) -> None:
        if v not in self.graph:
            raise InputError(f"unknown vertex {v}")
        if self.complete_radius[v] < radius:
            raise PatchTooSmallError(
                f"patch too small: vertex {v} has complete_radius "
                f"{self.complete_radius[v]} < {radius}; increase radius"
            )

    def ball(self, v: int, i: int) -> RootedBall:
        """B_i(v), guarded: raises PatchTooSmallError rather than truncate."""
        self.require_complete(v, i)
        return ball(self.graph, v, i)

    def corner_face(self, v: int, a: int, b: int) -> FaceBoundary:
        """The unique face at v containing both edges va and vb."""
        ea, eb = edge_key(v, a), edge_key(v, b)
        hits = [f for f in self.faces_at(v) if ea in f.edges and eb in f.edges]
        if len(hits) != 1:
            raise DefectError(f"corner ({a},{b}) at {v} has {len(hits)} faces")
        return hits[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanePatch):
            return NotImplemented
        return _tables(self) == _tables(other)

    def __repr__(self) -> str:
        s = f"{{{self.schlafli[0]},{self.schlafli[1]}}}" if self.schlafli else "imported"
        return f"PlanePatch({s}, n={self.graph.n}, faces={len(self.faces)})"

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict(rotation=self.rotation)
        d["root"] = self.root
        d["faces"] = sorted([list(f.cycle) for f in self.faces])
        d["outer"] = list(self.outer)
        d["complete_radius"] = {str(v): r for v, r in enumerate(self.complete_radius)}
        if self.schlafli is not None:
            d["schlafli"] = list(self.schlafli)
        return d

    def json_chunks(self) -> Iterator[str]:
        """The text of `json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) + "\n"`, piece by piece: each piece holds at most
        `_BATCH` vertices, edges or faces, so that neither `to_json_dict`
        nor the whole text is built.  Vertex keys are ordered as strings,
        as `sort_keys` orders them ("10" before "2")."""
        g, crad, rot = self.graph, self.complete_radius, self.rotation
        top, inner = _int_lists("  "), _int_lists("    ")
        by_name = sorted(g.vertices, key=str)
        yield '{\n  "complete_radius": '
        yield from _json_block("{}", (f'"{v}": {crad[v]}' for v in by_name))
        yield ',\n  "edges": '
        edge = "[\n      %d,\n      %d\n    ]"
        yield from _json_block("[]", (edge % (u, w) for u in g.vertices for w in g.neighbors(u) if u < w))
        yield ',\n  "faces": '
        yield from _json_block("[]", (inner(c) for c in sorted(f.cycle for f in self.faces)))
        yield f',\n  "n": {g.n},\n  "outer": {top(self.outer)},\n  "root": {self.root},\n  "rotation": '
        yield from _json_block("{}", (f'"{v}": {inner(rot[v])}' for v in by_name))
        if self.schlafli is not None:
            yield f',\n  "schlafli": {top(self.schlafli)}'
        yield "\n}\n"


_BATCH = 1024


def _json_block(brackets: str, items: Iterator[str]) -> Iterator[str]:
    """A JSON array or object (`brackets` "[]" or "{}") of encoded items,
    laid out as `json.dumps(indent=2)` lays out a value of a top-level
    object, `_BATCH` items to a piece."""
    sep = ",\n    "
    batch = list(islice(items, _BATCH))
    if not batch:
        yield brackets
        return
    yield brackets[0] + "\n    " + sep.join(batch)
    while batch := list(islice(items, _BATCH)):
        yield sep + sep.join(batch)
    yield "\n  " + brackets[1]


def _int_lists(pad: str) -> Callable[[tuple[int, ...]], str]:
    """A function that lays out a tuple of ints as `json.dumps(indent=2)`
    lays out a list at indentation `pad`, by one %-template per length."""
    layouts: dict[int, str] = {}

    def layout(xs: tuple[int, ...]) -> str:
        t = layouts.get(len(xs))
        if t is None:
            t = layouts[len(xs)] = "[\n" + ",\n".join([pad + "  %d"] * len(xs)) + "\n" + pad + "]" if xs else "[]"
        return t % xs

    return layout


# ---------------------------------------------------------------------------
# Generation by face completion
# ---------------------------------------------------------------------------

class _PatchBuilder:
    """Mutable state for {p,q} growth.

    Per-vertex state is the rotation arc: the neighbours in rotation
    order, with the outer region sitting between arc[-1] and arc[0].
    Walking the outer boundary, the successor of v is arc_v[0] and the
    predecessor is arc_v[-1].  A boundary vertex with d edges always
    carries d-1 faces (its faces form a fan), so the number of faces a
    vertex still needs determines whether an attaching face shares one
    boundary edge or absorbs the vertex completely.
    """

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.arc: list[list[int]] = []
        self.nfaces: list[int] = []
        self.faces: list[FaceBoundary] = []

    def new_vertex(self) -> int:
        self.arc.append([])
        self.nfaces.append(0)
        return len(self.arc) - 1

    def add_face_at(self, v: int) -> None:
        """Close the next face in the outer corner at v (after arc_v[-1])."""
        p, q, arc, nfaces = self.p, self.q, self.arc, self.nfaces
        last = q - 1  # a vertex with q - 1 faces is absorbed by the next one
        if nfaces[v] > last:
            raise DefectError(f"vertex {v} already carries all its faces")
        if not arc[v]:
            path = [v]  # the root's first face
        else:
            back = [arc[v][-1]]
            while nfaces[back[-1]] == last:
                back.append(arc[back[-1]][-1])
                if len(back) >= p:
                    raise DefectError(f"backward boundary run at {v} reached length {p}")
            fwd: list[int] = []
            if nfaces[v] == last:
                fwd.append(arc[v][0])
                while nfaces[fwd[-1]] == last:
                    fwd.append(arc[fwd[-1]][0])
                    if len(fwd) >= p:
                        raise DefectError(f"forward boundary run at {v} reached length {p}")
            path = back[::-1] + [v] + fwd
        if len(path) > p or len(set(path)) != len(path):
            raise DefectError(f"attaching path {path} is not a simple path of <= {p} vertices")

        chain = list(range(len(arc), len(arc) + p - len(path)))
        left, right = path[0], path[-1]
        cycle = path + chain
        if chain:
            nodes = [right, *chain, left]
            arc.extend([nodes[i], nodes[i + 2]] for i in range(len(chain)))
            nfaces.extend([0] * len(chain))
            arc[right].append(chain[0])
            arc[left].insert(0, chain[-1])
        else:
            if left == right or left in arc[right]:
                raise DefectError("tessellation closed on itself")
            arc[right].append(left)
            arc[left].insert(0, right)

        for x in cycle:
            k = nfaces[x] = nfaces[x] + 1
            if k > q:
                raise DefectError(f"vertex {x} carries more than {q} faces")
            if len(arc[x]) != (q if k == q else k + 1):
                raise DefectError(f"vertex {x} has {len(arc[x])} edges for {k} faces")
        # the path is simple and the chain is new, so the cycle is simple
        self.faces.append(FaceBoundary._trusted(tuple(cycle)))

    def complete_vertex(self, v: int) -> None:
        while self.nfaces[v] < self.q:
            self.add_face_at(v)

    def outer_walk(self) -> tuple[int, ...]:
        """The outer boundary walk, from the least vertex that still needs
        a face: each boundary vertex v is followed by arc_v[0]."""
        walk = [min(v for v, k in enumerate(self.nfaces) if k < self.q)]
        while self.arc[walk[-1]][0] != walk[0]:
            if len(walk) == len(self.arc):
                raise DefectError("the outer walk does not close")
            walk.append(self.arc[walk[-1]][0])
        return _canonical_walk(tuple(walk))

    def graph(self) -> Graph:
        """The patch's graph, read off the arcs without re-validation: the
        ids are arc positions, and add_face_at admits no loop and no repeated
        neighbour and grows each face onto those before (the root's search
        checks the one component).  That the arcs are symmetric is checked."""
        arc = self.arc
        if any(v not in arc[u] for v, a in enumerate(arc) for u in a):
            raise DefectError("the rotation arcs are not symmetric")
        return Graph._trusted(dict(enumerate(arc)), components=1)


def generate(p: int, q: int, R: int) -> PlanePatch:
    """A patch of {p,q} containing the complete ball of radius R at the root.

    Every vertex at distance <= R from the root ends up interior (all q
    faces closed), which certifies complete_radius(root) >= R.
    """
    if p < 3 or q < 3:
        raise InputError("need p >= 3 and q >= 3")
    if R < 1:
        raise InputError("need radius >= 1")
    if (p - 2) * (q - 2) < 4:
        raise InputError(f"{{{p},{q}}} is a spherical/finite tessellation, not 1-ended")

    b = _PatchBuilder(p, q)
    o = b.new_vertex()
    # layer d + 1 is read off layer d: the layers before it are complete,
    # and a complete vertex gains no edge (add_face_at), so no vertex of
    # a later layer can come closer to the root, and the neighbours of
    # layer d lie in layers d - 1, d and d + 1
    prev, layer = [], [o]
    for _ in range(R + 1):
        for v in layer:
            b.complete_vertex(v)
        prev, layer = layer, sorted({u for v in layer for u in b.arc[v]}.difference(prev, layer))

    graph = b.graph()
    rotation = tuple(map(tuple, b.arc))
    faces = b.faces
    outer = b.outer_walk()
    if {v for v, k in enumerate(b.nfaces) if k < q} != set(outer):
        raise DefectError("the complete vertices are not exactly those off the outer walk")
    del b  # its arcs go before the patch builds its tables

    crad = _complete_radius(rotation, outer)
    if crad[o] < R:
        raise DefectError(f"root complete_radius {crad[o]} < requested radius {R}")
    patch = PlanePatch(graph, o, rotation, faces, outer, crad, (p, q))
    if -1 in patch._dist_from_root:
        raise DefectError("the patch is not connected")
    # a face made twice is named before the Euler count, which it also throws off
    if len(set(faces)) != len(faces):
        raise DefectError("generation produced a face twice")
    if graph.n - sum(map(len, rotation)) // 2 + len(faces) + 1 != 2:  # the arcs hold each edge twice
        raise DefectError("the patch and its outer region do not close up into a sphere")
    return patch


def _distances(adj, sources: Sequence[int]) -> list[int]:
    """Each vertex's distance from the nearest of `sources`, in one search
    over adj (adj[v] the neighbours of v in 0..n-1); -1 where none reaches."""
    dist = [-1] * len(adj)
    for s in sources:
        dist[s] = 0
    queue = list(sources)
    for v in queue:  # the queue grows as it is read
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _complete_radius(adj, outer: Sequence[int]) -> tuple[int, ...]:
    """complete_radius(v) = dist(v, outer boundary) - 1, floored at 0."""
    return tuple([d - 1 if d > 1 else 0 for d in _distances(adj, outer)])


# ---------------------------------------------------------------------------
# Deterministic face enumeration
# ---------------------------------------------------------------------------

def face_enumeration(patch: PlanePatch, tie_break: int = 0) -> list[FaceBoundary]:
    """Total order on faces: ascending root distance, then vertex tuple.

    tie_break selects among equally valid deterministic tie-breaking rules
    (0: ascending tuple, 1: descending tuple, 2: reversed tuple); the final
    cover must not depend on the choice, which is tested, not assumed.
    """
    return sorted(patch.faces, key=enumeration_key(patch, tie_break))


def enumeration_key(patch: PlanePatch, tie_break: int):
    """The sort key of face_enumeration.  It depends on a face's vertex
    set alone, and no two faces of a patch have the same vertex set: in
    a plane map, two facial cycles on one vertex set would need a chord
    of one of them, which cuts a vertex off the other's face; and one
    cycle bounding two faces is a whole map, one of whose faces is
    outer.  So the key orders any set of the patch's faces as
    face_enumeration orders them."""

    def key(f: FaceBoundary):
        d = min(map(patch.root_distance, f.cycle))
        t = tuple(sorted(f.cycle))
        if tie_break == 0:
            return (d, t)
        if tie_break == 1:
            return (d, tuple(-v for v in t))
        if tie_break == 2:
            return (d, t[::-1])
        raise InputError(f"unknown tie_break {tie_break}")

    return key


# ---------------------------------------------------------------------------
# Import / export
# ---------------------------------------------------------------------------

def import_patch(source: dict | str | os.PathLike) -> PlanePatch:
    """Load a patch from JSON: a dict, or the name or path of a file.

    Needs vertices, edges, a rotation for every vertex, and a root.  Faces
    are traced from the rotation; the closed-up map must be spherical
    (V - E + F = 2) or the rotation is rejected as non-planar.  No
    vertex-transitivity verification is performed: imports are trusted.
    A declared schlafli {p,q} must match the face lengths and interior
    degrees.  A source of another type, an unreadable file, and JSON that
    is not an object raise InputError, as does a malformed field of any
    kind, including a vertex key not written as str(v); a map with no
    interior face raises PatchTooSmallError.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON, or nested too deep
            raise InputError(f"cannot read patch {source}: {exc}") from exc
    else:
        d = source
    if not isinstance(d, dict):
        raise InputError(f"a patch is a JSON object, got {type(d).__name__}")
    g = Graph.from_json_dict(d)
    if "rotation" not in d:
        raise InputError("patch JSON is missing the rotation system")
    try:
        rotation = {
            _vertex_key(v, "rotation"): tuple(json_int(u, "rotation entry") for u in rot)
            for v, rot in d["rotation"].items()
        }
        root = json_int(d["root"], "patch root")
        declared_outer = None if d.get("outer") is None else [json_int(v, "outer vertex") for v in d["outer"]]
        declared_faces = (
            {_simple_cycle(tuple(json_int(v, "face vertex") for v in c)) for c in d["faces"]} if "faces" in d else None
        )
        declared_crad = (
            {
                _vertex_key(v, "complete_radius"): json_int(r, "complete_radius value")
                for v, r in d["complete_radius"].items()
            }
            if "complete_radius" in d
            else None
        )
        schlafli = tuple(json_int(k, "schlafli entry") for k in d["schlafli"]) if "schlafli" in d else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed patch JSON: {exc}") from exc
    if schlafli is not None and (len(schlafli) != 2 or min(schlafli) < 3):
        raise InputError(f"schlafli must be two integers >= 3, got {list(schlafli)}")
    if root not in g:
        raise InputError(f"root {root} is not a vertex")
    if set(rotation) != set(g.vertices):
        raise InputError("rotation must cover every vertex")

    walks = trace_faces(g, rotation)
    euler = g.n - sum(map(len, walks)) // 2 + len(walks)  # the walks hold each edge twice
    if euler != 2:
        raise InputError(
            f"non-planar rotation: closed-up Euler count {euler} != 2 (genus > 0)"
        )
    outer = _pick_outer(walks, declared_outer)
    faces = []
    for w in walks:
        if w == outer:
            continue
        if not _is_simple_walk(w):
            raise InputError(f"interior walk {w} is not a simple cycle")
        if len(w) < 3:  # a lone edge's walk, traced beside a component of higher genus
            raise InputError(f"not a simple cycle: {w}")
        faces.append(FaceBoundary._trusted(w))
    if not faces:
        raise PatchTooSmallError("patch too small: the traced map has no interior face")
    if declared_faces is not None and declared_faces != {f.cycle for f in faces}:
        raise InputError("declared faces disagree with the traced faces")
    if schlafli is not None:
        _check_schlafli(g, faces, set(outer), schlafli)

    crad = _complete_radius(g._adj, outer)
    if declared_crad is not None and declared_crad != dict(enumerate(crad)):
        raise InputError("declared complete_radius disagrees with recomputation")
    return PlanePatch(g, root, rotation, faces, outer, crad, schlafli)


def _vertex_key(key, what: str) -> int:
    """A JSON object key naming a vertex: exactly str(v).  `int()` alone
    would read "1_0" as 10 and " 3", "+5" or "01" as numbers, and "01"
    would silently overwrite "1"."""
    v = int(key)
    if str(v) != key:
        raise InputError(f"{what} key {key!r} is not a vertex id")
    return v


def _check_schlafli(
    g: Graph, faces: list[FaceBoundary], outer: set[int], schlafli: tuple[int, ...]
) -> None:
    """A declared {p,q} must match the traced faces (length p) and the
    interior degrees (q): it sets l_max for every face search."""
    p, q = schlafli
    for f in faces:
        if len(f) != p:
            raise InputError(f"schlafli declares p = {p} but face {f.cycle} has length {len(f)}")
    for v in g.vertices:
        if v not in outer and g.degree(v) != q:
            raise InputError(f"schlafli declares q = {q} but interior vertex {v} has degree {g.degree(v)}")


def _pick_outer(walks: list[tuple[int, ...]], declared) -> tuple[int, ...]:
    if declared is not None:
        target = _canonical_walk(tuple(int(v) for v in declared))
        for w in walks:
            if w == target:
                return w
        raise InputError("declared outer walk was not traced from the rotation")
    non_simple = [w for w in walks if not _is_simple_walk(w)]
    if len(non_simple) == 1:
        return non_simple[0]
    if len(non_simple) > 1:
        raise InputError("several non-simple walks; cannot identify the outer boundary")
    return max(walks, key=lambda w: (len(w), w))
