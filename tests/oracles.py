"""Independent brute-force oracles.

Everything here but `assert_unique_extension`,
`intersection_path_by_adjacency`, `extension_by_propagation`, `map_flag`
and `joint_rooted_isomorphisms` is deliberately written from scratch against plain adjacency
dicts, so it shares no code path with the library: coordinate models of the square lattice, exhaustive cycle
enumeration, 3-connectivity by trying every cut of at most two
vertices, a naive isomorphism backtracker, a walk round the builder's
frontier, a trace of every walk of a patch's rotation system, and cycle
canonical forms by trying every rotation.  The shared-path reference
reads the builder's state, but finds the path another way: an adjacency
dict of the shared edges, walked between its two ends.  The extension
reference reads the library's face cores, but builds the map another
way: face by face across shared edges, where the library searches.
The reference colour pull `map_flag` carries a whole flag, its face
re-canonicalised, for lookup in the palette's `orbit_index`, where the
library looks up the carried face walk.  The joint search
`joint_rooted_isomorphisms` is the library's former search, which
refined both graphs at once in every call, where the library refines
each graph alone and the reference side once per run.
Expected values asserted in the tests are computed by these oracles, not
copied from the implementation.  Two helpers build inputs rather than
check outputs: `hub_patch`, a planar map with long faces, and
`relabelled`, a seeded renaming of a graph's vertices.  The lattice
symmetries are found by trying every small integer matrix on the unit
steps.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from itertools import combinations, product

from coverkit.errors import DefectError, HypothesisViolationError, InputError
from coverkit.flags import Flag
from coverkit.graph import edge_key, induced_subgraph
from coverkit.local import Isomorphism, as_rooted, face_core, rooted_isomorphisms
from coverkit.tessellation import FaceBoundary

Coord = tuple[int, int]


def z2_ball(radius: int) -> tuple[set[Coord], set[frozenset[Coord]], dict[Coord, int]]:
    """The ball of the integer lattice: vertices, edges, BFS distances."""
    verts = {
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    }
    edges = set()
    for (x, y) in verts:
        for (dx, dy) in ((1, 0), (0, 1)):
            if (x + dx, y + dy) in verts:
                edges.add(frozenset({(x, y), (x + dx, y + dy)}))
    dist = {c: abs(c[0]) + abs(c[1]) for c in verts}
    return verts, edges, dist


def z2_faces_at(c: Coord) -> list[tuple[Coord, ...]]:
    """The four unit squares of the lattice incident with c."""
    x, y = c
    out = []
    for (ax, ay) in ((0, 0), (-1, 0), (0, -1), (-1, -1)):
        sx, sy = x + ax, y + ay
        out.append(((sx, sy), (sx + 1, sy), (sx + 1, sy + 1), (sx, sy + 1)))
    return out


def bfs_distances(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def connected_after_removal(adj: dict, removed: set) -> bool:
    rest = [v for v in adj if v not in removed]
    if not rest:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rest)


def is_three_connected(graph) -> bool:
    """Brute-force vertex-cut search over all sets of size <= 2, on the
    adjacency dict of a coverkit Graph."""
    adj = adjacency_of(graph)
    if len(adj) < 4:
        raise InputError("3-connectivity check needs at least 4 vertices")
    return all(
        connected_after_removal(adj, set(cut))
        for size in range(3)
        for cut in combinations(sorted(adj), size)
    )


def all_cycles_through(adj: dict, v, max_len: int) -> set[frozenset]:
    """Every simple cycle through v with at most max_len vertices, as a
    frozenset of frozenset edges (orientation-free)."""
    cycles: set[frozenset] = set()

    def walk(path: list) -> None:
        tail = path[-1]
        for u in adj[tail]:
            if u == v and len(path) >= 3:
                cyc = frozenset(
                    frozenset({path[i], path[(i + 1) % len(path)]}) for i in range(len(path))
                )
                cycles.add(cyc)
            elif u not in path and len(path) < max_len:
                walk(path + [u])

    walk([v])
    return cycles


def cycle_vertices(cycle_edges: frozenset) -> set:
    return {x for e in cycle_edges for x in e}


def is_induced_cycle(adj: dict, cycle_edges: frozenset) -> bool:
    verts = sorted(cycle_vertices(cycle_edges))
    for a, b in combinations(verts, 2):
        if b in adj[a] and frozenset({a, b}) not in cycle_edges:
            return False
    return all(
        sum(1 for e in cycle_edges if v in e) == 2 for v in verts
    )


def peripheral_cycles_oracle(adj: dict, v, max_len: int) -> set[frozenset]:
    """Induced non-separating cycles through v, the slow way."""
    out = set()
    for cyc in all_cycles_through(adj, v, max_len):
        if is_induced_cycle(adj, cyc) and connected_after_removal(adj, cycle_vertices(cyc)):
            out.add(cyc)
    return out


def brute_rooted_isomorphisms(adj_a: dict, root_a, adj_b: dict, root_b, limit=None) -> list[dict]:
    """Naive backtracking over BFS layers: no refinement, only degree and
    distance pruning.  Meant for small graphs only."""
    da, db = bfs_distances(adj_a, root_a), bfs_distances(adj_b, root_b)
    if len(da) != len(adj_a) or len(db) != len(adj_b) or len(adj_a) != len(adj_b):
        return []
    order = sorted(adj_a, key=lambda v: (da[v], str(v)))
    results: list[dict] = []
    mapping: dict = {}
    used: set = set()

    def bt(i: int) -> bool:
        if i == len(order):
            results.append(dict(mapping))
            return limit is not None and len(results) >= limit
        v = order[i]
        for w in sorted(adj_b, key=str):
            if w in used or da[v] != db[w] or len(adj_a[v]) != len(adj_b[w]):
                continue
            ok = all(
                (u in mapping) <= (mapping.get(u) in adj_b[w]) for u in adj_a[v]
            ) and sum(1 for u in adj_a[v] if u in mapping) == sum(
                1 for u in adj_b[w] if u in used
            )
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if bt(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    bt(0)
    return results


def adjacency_of(graph) -> dict:
    """Adjacency dict of a coverkit Graph, for feeding the oracles."""
    return {v: set(graph.neighbors(v)) for v in graph.vertices}


def assert_frontier_cycle(frontier) -> None:
    """The frontier edges form one simple cycle: every vertex has degree
    two, and the walk from the least vertex visits all of them.  An
    explicit raise, so the check stays live under python -O."""
    adj: dict = {}
    for a, b in frontier:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    bad = sorted(v for v, nb in adj.items() if len(nb) != 2)
    if not adj or bad:
        raise AssertionError(f"frontier is not a simple cycle: degree other than 2 at {bad}")
    start = min(adj)
    prev, v, length = start, adj[start][0], 1
    while v != start:
        a, b = adj[v]
        prev, v, length = v, b if a == prev else a, length + 1
    if length != len(adj):
        raise AssertionError(f"frontier splits into several cycles; one has {length} of {len(adj)} vertices")


def intersection_path_by_adjacency(face, state) -> list | None:
    """The builder's shared path found the slow way: gather the face's
    frontier edges and its vertices on the frontier, build the adjacency
    of those edges, and walk from the lesser of its two ends.  None unless
    the edges form one path through every such vertex."""
    frontier = state.frontier
    common_edges = face.edges & frontier
    if not common_edges:
        return None
    common_vertices = {
        v for v in face.cycle if any(e in frontier for e in state.domain_edges_at.get(v, ()))
    }
    adj: dict = {v: [] for v in common_vertices}
    for a, b in common_edges:
        if a not in adj or b not in adj:
            return None
        adj[a].append(b)
        adj[b].append(a)
    ends = [v for v, nb in adj.items() if len(nb) == 1]
    if len(ends) != 2 or any(len(nb) > 2 for nb in adj.values()):
        return None
    path = [min(ends)]
    prev = None
    while True:
        nxt = [u for u in adj[path[-1]] if u != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(common_vertices) or len(path) != len(common_edges) + 1:
        return None
    return path


def brute_canonical_cycle(t: tuple) -> tuple:
    """The least of all rotations and reflections of a cycle."""
    return min(s[i:] + s[:i] for s in (t, t[::-1]) for i in range(len(t)))


def outer_walk_by_tracing(patch) -> tuple:
    """The whole-map search for a patch's outer walk: trace every orbit
    of the next-dart map (u, v) -> (v, w), w following u in the rotation
    at v, keep the one walk that is not a face, and start it at its least
    dart."""
    succ = {v: {rot[i - 1]: rot[i] for i in range(len(rot))} for v, rot in enumerate(patch.rotation)}
    faces = {brute_canonical_cycle(f.cycle) for f in patch.faces}
    seen: set = set()
    leftovers = []
    for u in sorted(succ):
        for v in patch.rotation[u]:
            walk, a, b = [], u, v
            while (a, b) not in seen:
                seen.add((a, b))
                walk.append(a)
                a, b = b, succ[b][a]
            if walk and brute_canonical_cycle(tuple(walk)) not in faces:
                leftovers.append(tuple(walk))
    if len(leftovers) != 1:
        raise AssertionError(f"{len(leftovers)} traced walks are not faces; expected one")
    w = leftovers[0]
    return min((w[i:] + w[:i] for i in range(len(w))), key=lambda t: t[:2])


def assert_unique_extension(g, h, f, iso) -> None:
    """The rigidity cross-check of an extension isomorphism: re-enumerate,
    with the library's own search, the rooted isomorphisms between the
    cores induced on iso's domain in host g and its image in host h that
    agree with iso on the face of flag f, and demand exactly one."""
    dom = as_rooted(induced_subgraph(g.graph, iso.mapping.keys()), iso.source_root)
    img = as_rooted(induced_subgraph(h.graph, iso.mapping.values()), iso.target_root)
    pres = {s: iso.mapping[s] for s in f.face.cycle}
    found = rooted_isomorphisms(dom, img, limit=2, prescribed=pres)
    assert len(found) == 1, f"{len(found)} extensions carry {f} onto its image; expected exactly one"


def map_flag(iso, f):
    """The reference colour pull: flag f carried through the vertex map
    `iso` as a new Flag; a root flag of the palette, looked up in
    `orbit_index`, when the carried face is a face at the root."""
    return Flag(iso[f.vertex], edge_key(iso[f.edge[0]], iso[f.edge[1]]), FaceBoundary([iso[v] for v in f.face]))


def hub_patch(k: int) -> dict:
    """Patch JSON of three k-vertex spokes from a hub (vertex 0, the
    root), whose ends are joined in the declared outer triangle: a
    subdivided K4 with three interior faces of 2k + 1 vertices each."""
    spokes = [[1 + i * k + j for j in range(k)] for i in range(3)]
    ends = [s[-1] for s in spokes]
    edges, rotation = [], {0: [s[0] for s in spokes]}
    for i, spoke in enumerate(spokes):
        path = [0] + spoke
        edges += [[a, b] for a, b in zip(path, path[1:])]
        edges.append(sorted((ends[i], ends[(i + 1) % 3])))
        for j in range(1, k):
            rotation[path[j]] = [path[j - 1], path[j + 1]]
        rotation[ends[i]] = [path[-2], ends[(i - 1) % 3], ends[(i + 1) % 3]]
    return {
        "n": 3 * k + 1,
        "edges": sorted(edges),
        "rotation": {str(v): r for v, r in rotation.items()},
        "root": 0,
        "outer": ends,
    }


def relabelled(graph, seed: int) -> tuple[list, list]:
    """A seeded permutation perm of a graph on 0..n-1 (perm[v] is the new
    name of v) and the graph's edges renamed through it."""
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in graph.edges]


_SQUARE_UNITS = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})
_TRIANGULAR_UNITS = _SQUARE_UNITS | {(1, -1), (-1, 1)}


def lattice_projections(inst, coords: dict, root_image: int) -> list[dict]:
    """Every map v -> proj(alpha(coords[v])) from a patch onto a flat
    quotient, alpha a symmetry of the plane lattice taking the root to a
    point over the quotient vertex root_image.  By uniqueness a correct
    cover whose root lands on root_image is one of them.

    A lattice point (x, y, c) sits at (3x + c, 3y + c): the square lattice
    has class 0 only; the honeycomb's class-0 points form a triangular
    lattice and its class-1 point (x, y, 1) is the centre of the triangle
    (x, y), (x + 1, y), (x, y + 1).  A symmetry is z -> Lz + t with L
    keeping the unit steps (8 matrices on the square lattice, 12 on the
    triangular one); an L that does not keep the honeycomb leaves some
    point off it, and its map is dropped.  One lift of root_image serves
    for t: two lifts differ by a deck map, which the projection forgets.
    """
    n = inst.spec.n
    classes = 2 if inst.spec.kind == "hex_torus" else 1
    units = _SQUARE_UNITS if classes == 1 else _TRIANGULAR_UNITS
    rest, c0 = divmod(root_image, classes)
    tx, ty = 3 * (rest // n) + c0, 3 * (rest % n) + c0  # the lift in the fundamental domain
    maps = []
    for a, b, c, d in product((-1, 0, 1), repeat=4):
        if {(a * x + b * y, c * x + d * y) for x, y in units} != units:
            continue
        image = {}
        for v, (x, y, cls) in coords.items():
            px, py = 3 * x + cls, 3 * y + cls
            qx, qy = a * px + b * py + tx, c * px + d * py + ty
            cls = qx % 3
            if cls >= classes or qy % 3 != cls:
                break
            image[v] = inst._project(((qx - cls) // 3, (qy - cls) // 3, cls))
        else:
            maps.append(image)
    return maps


def extension_by_propagation(g, h, f, flag_h, r: int) -> dict:
    """The extension isomorphism built face by face, for comparison with
    the library's prescribed core search: map f's face onto flag_h's
    pointwise, then cross each shared edge of the depth-r face core of f's
    vertex in host g onto the one further face of the image edge in the
    depth-r core of flag_h's vertex in host h.  Each step is forced, so
    the vertex map is unique by construction; a step that cannot close
    consistently raises HypothesisViolationError, and an edge on more
    than two faces of g's core a DefectError.  Reads the cores through
    `face_core`; the propagation itself is from scratch."""
    v, x = f.vertex, flag_h.vertex
    faces_g = face_core(g, v, r).faces
    faces_h = face_core(h, x, r).faces

    vmap: dict = {}

    def assign(a, b) -> None:
        if vmap.get(a, b) != b:
            raise HypothesisViolationError(f"extension conflict at {a}: {vmap[a]} vs {b}")
        vmap[a] = b

    def align(face_g, face_h, a, b) -> None:
        if len(face_g) != len(face_h):
            raise HypothesisViolationError(f"face length mismatch {len(face_g)} vs {len(face_h)} at {a}")
        for s, t in zip(face_g.cycle_from(a, b), face_h.cycle_from(vmap[a], vmap[b])):
            assign(s, t)

    assign(v, x)
    assign(f.other_end, flag_h.other_end)
    align(f.face, flag_h.face, v, f.other_end)
    mapped = {f.face: flag_h.face}
    queue = deque([f.face])
    while queue:
        fg = queue.popleft()
        fh = mapped[fg]
        for e in sorted(fg.edges):
            others = [F for F in faces_g if e in F.edges and F != fg]
            if not others:
                continue
            if len(others) != 1:
                raise DefectError(f"edge {e} lies on more than two faces")
            face2 = others[0]
            ie = edge_key(vmap[e[0]], vmap[e[1]])
            h_others = [B for B in faces_h if ie in B.edges and B != fh]
            if face2 in mapped:
                if mapped[face2] != fh and mapped[face2] not in h_others:
                    raise HypothesisViolationError(f"faces across edge {e} map inconsistently")
                continue
            if len(h_others) != 1:
                raise HypothesisViolationError(
                    f"expected exactly one further face on the image edge {ie}, found {len(h_others)}"
                )
            align(face2, h_others[0], e[0], e[1])
            mapped[face2] = h_others[0]
            queue.append(face2)
    return vmap


def joint_refinement(a, b) -> tuple[dict, dict]:
    """Distance-seeded colour refinement run jointly on both balls.

    Colours are shared across the two graphs, so equal colour means
    locally indistinguishable; real isomorphisms preserve them.
    """
    ga, gb = a.graph, b.graph
    col_a = {v: (a.dist[v], ga.degree(v)) for v in ga.vertices}
    col_b = {v: (b.dist[v], gb.degree(v)) for v in gb.vertices}
    while True:
        table: dict[tuple, int] = {}

        def recolor(g, col: dict) -> dict:
            out = {}
            for v in g.vertices:
                sig = (col[v], tuple(sorted(col[u] for u in g.neighbors(v))))
                if sig not in table:
                    table[sig] = len(table)
                out[v] = table[sig]
            return out

        na, nb = recolor(ga, col_a), recolor(gb, col_b)
        if len(set(na.values())) == len(set(col_a.values())) and len(
            set(nb.values())
        ) == len(set(col_b.values())):
            return na, nb
        col_a, col_b = na, nb


def joint_rooted_isomorphisms(a, b, limit=None, prescribed=None) -> list:
    """The reference search: the library's backtracking with candidates
    from `joint_refinement`, refined afresh in every call."""
    ga, gb = a.graph, b.graph
    if a.radius != b.radius or ga.n != gb.n or len(ga.edges) != len(gb.edges):
        return []
    col_a, col_b = joint_refinement(a, b)
    if Counter(col_a.values()) != Counter(col_b.values()):
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
    by_color: dict = {}
    for w in gb.vertices:
        by_color.setdefault(col_b[w], []).append(w)
    order = sorted(pres) + sorted((v for v in ga.vertices if v not in pres), key=lambda v: (a.dist[v], v))
    results: list = []
    mapping: dict = {}
    used: set = set()

    def candidates(v):
        mapped_nbrs = [mapping[u] for u in ga.neighbors(v) if u in mapping]
        for w in [pres[v]] if v in pres else by_color.get(col_a[v], ()):
            if w in used:
                continue
            wn = gb.neighbors(w)
            if sum(1 for x in wn if x in used) != len(mapped_nbrs):
                continue
            if any(x not in wn for x in mapped_nbrs):
                continue
            yield w

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


def assert_same_search(a, b, limit=None, prescribed=None) -> int:
    """The library's search and the joint reference find the same maps in
    the same order; returns how many."""
    got = [i.mapping for i in rooted_isomorphisms(a, b, limit, prescribed)]
    want = [i.mapping for i in joint_rooted_isomorphisms(a, b, limit, prescribed)]
    if got != want:
        raise AssertionError(f"{len(got)} maps against the joint reference's {len(want)}, or another order")
    return len(got)
