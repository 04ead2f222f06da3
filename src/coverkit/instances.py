"""Finite test targets with known covers.

Lattice quotients (tori, twisted tori, Klein bottles, hexagonal tori)
come with closed-form projections and deck transformations, which serve
as independent oracles for everything the cover builder produces.  The
second family is the connected double-grid graph K(l,k): two toroidal
grids, one with a rerouted level, fully cross-joined level by level.  It
has isomorphic balls of a large radius around every vertex yet is not
vertex-transitive, and it is covered by a genuinely vertex-transitive
double cylinder.
"""

from __future__ import annotations

from collections import deque

from .errors import DefectError, InputError
from .graph import Graph, ball
from .local import as_rooted, rooted_isomorphisms
from .record import FrozenRecord, Record
from .report import VerificationReport
from .tessellation import PlanePatch


class _Lattice(FrozenRecord):
    """A planar lattice, described once.  `steps[c][t]` is the coordinate
    step (dx, dy) taken from a vertex of class c across rotation position
    t.  A lattice point is (x, y, class), and a step from class c lands in
    class c + 1 (mod the number of classes): the square lattice has one
    class, and every hexagonal edge joins the two classes."""

    name: str
    schlafli: tuple[int, int]
    steps: tuple[tuple[tuple[int, int], ...], ...]


_SQUARE = _Lattice("square", (4, 4), (((1, 0), (0, 1), (-1, 0), (0, -1)),))
_HEX = _Lattice("hex", (6, 3), (((0, 0), (-1, 0), (0, -1)), ((0, 0), (1, 0), (0, 1))))


class QuotientSpec(FrozenRecord):
    """A flat quotient of the square or hexagonal lattice."""

    kind: str  # torus | twisted_torus | klein | hex_torus
    m: int
    n: int
    s: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("torus", "twisted_torus", "klein", "hex_torus"):
            raise InputError(f"unknown quotient kind {self.kind!r}")
        if self.m < 3 or self.n < 3:
            raise InputError("quotient dimensions must be at least 3 to stay simple")


class QuotientInstance:
    """The quotient graph plus its closed-form projection from the lattice.

    The lattice points (x, y, c) with 0 <= x < m and 0 <= y < n are the
    quotient's vertices, numbered (x * n + y) * classes + c; each vertex's
    rotation lists its lattice steps in order.
    """

    def __init__(self, spec: QuotientSpec):
        self.spec = spec
        self._lattice = _HEX if spec.kind == "hex_torus" else _SQUARE
        m, n, steps = spec.m, spec.n, self._lattice.steps
        classes = len(steps)
        # away from the domain's edge a step is a fixed shift of the vertex number
        shifts = [
            [(dx * n + dy) * classes + (c + 1) % classes - c for dx, dy in row] for c, row in enumerate(steps)
        ]
        rotation: dict[int, tuple[int, ...]] = {}
        for x in range(m):
            for y in range(n):
                inside = 0 < x < m - 1 and 0 < y < n - 1  # no step is longer than 1 in x or y
                for c, row in enumerate(steps):
                    v = (x * n + y) * classes + c
                    rotation[v] = tuple(
                        map(v.__add__, shifts[c])
                        if inside
                        else [self._project((x + dx, y + dy, (c + 1) % classes)) for dx, dy in row]
                    )
        edges = [(v, u) for v, nbrs in rotation.items() for u in nbrs if v < u]
        self.graph = Graph(range(m * n * classes), edges)
        if sum(map(self.graph.degree, self.graph.vertices)) != sum(map(len, rotation.values())):
            raise InputError("degenerate quotient (a loop or a double edge); enlarge dimensions")
        self.rotation = rotation

    def _project(self, point: tuple[int, int, int]) -> int:
        """Canonical quotient vertex of the lattice point (x, y, class)."""
        x, y, c = point
        m, n = self.spec.m, self.spec.n
        if self.spec.kind == "twisted_torus":
            x -= y // n * self.spec.s  # (x, y) ~ (x + s, y + n)
        elif self.spec.kind == "klein" and x // m % 2:
            y = -y  # (x, y) ~ (x + m, -y)
        return ((x % m) * n + y % n) * len(self._lattice.steps) + c

    def project_square(self, x: int, y: int) -> int:
        """Canonical quotient vertex of the lattice point (x, y)."""
        return self._project((x, y, 0))

    def to_json_dict(self) -> dict:
        labels = {"kind": self.spec.kind, "m": self.spec.m, "n": self.spec.n, "s": self.spec.s}
        return self.graph.to_json_dict(rotation=self.rotation, labels=labels)


def make_quotient(spec: QuotientSpec) -> QuotientInstance:
    return QuotientInstance(spec)


# ---------------------------------------------------------------------------
# Lattice coordinates of generated patches
# ---------------------------------------------------------------------------

class _Inconsistent(Exception):
    pass


def square_lattice_coordinates(patch: PlanePatch) -> dict[int, tuple[int, int]]:
    """Coordinates (x, y) for a generated {4,4} patch."""
    return {v: (x, y) for v, (x, y, _) in _lattice_coordinates(patch, _SQUARE).items()}


def hex_lattice_coordinates(patch: PlanePatch) -> dict[int, tuple[int, int, int]]:
    """Axial coordinates (a, b, class) for a generated {6,3} patch."""
    return _lattice_coordinates(patch, _HEX)


def _lattice_coordinates(patch: PlanePatch, lattice: _Lattice) -> dict[int, tuple[int, int, int]]:
    if patch.schlafli != lattice.schlafli:
        p, q = lattice.schlafli
        raise InputError(f"{lattice.name} coordinates need a {{{p},{q}}} patch")
    for sense in (1, -1):
        try:
            return _propagate(patch, lattice, sense)
        except _Inconsistent:
            continue
    raise DefectError(f"patch rotation admits no {lattice.name}-lattice coordinates")


def _propagate(patch: PlanePatch, lattice: _Lattice, sense: int) -> dict[int, tuple[int, int, int]]:
    """Root at (0, 0, 0), its first rotation position taking step 0.
    Consecutive rotation positions take consecutive step indices, and the
    reverse of an edge takes the step index whose step undoes it."""
    steps = lattice.steps
    classes, degree = len(steps), len(steps[0])
    undo = [[steps[(c + 1) % classes].index((-dx, -dy)) for dx, dy in row] for c, row in enumerate(steps)]
    g = patch.graph
    coord = {patch.root: (0, 0, 0)}
    step_of: dict[tuple[int, int], int] = {}

    def set_steps(v: int, u: int, d: int) -> None:
        # linear offsets along the rotation arc: valid for interior
        # vertices (full cycle) and boundary vertices (contiguous fan,
        # where the outer gap may span several positions)
        rot = patch.rotation[v]
        k = rot.index(u)
        for t, w in enumerate(rot):
            dt = (d + sense * (t - k)) % degree
            if step_of.setdefault((v, w), dt) != dt:
                raise _Inconsistent

    set_steps(patch.root, patch.rotation[patch.root][0], 0)
    queue = deque([patch.root])
    while queue:
        v = queue.popleft()
        x, y, c = coord[v]
        for u in g.neighbors(v):
            d = step_of[(v, u)]
            dx, dy = steps[c][d]
            cu = (x + dx, y + dy, (c + 1) % classes)
            if u in coord:
                if coord[u] != cu:
                    raise _Inconsistent
            else:
                coord[u] = cu
                queue.append(u)
            back = undo[c][d]
            if (u, v) in step_of:
                if step_of[(u, v)] != back:
                    raise _Inconsistent
            else:
                set_steps(u, v, back)
    if len(set(coord.values())) != len(coord):
        raise _Inconsistent
    return coord


def closed_form_projection(inst: QuotientInstance, patch: PlanePatch) -> dict[int, int]:
    """The canonical covering map patch -> quotient, via lattice coordinates.

    Checked to be locally bijective at every certified interior vertex
    before being returned.
    """
    coords = _lattice_coordinates(patch, inst._lattice)
    proj = {v: inst._project(coords[v]) for v in patch.graph.vertices}
    for v in patch.graph.vertices:
        if patch.complete_radius[v] < 1:
            continue
        images = {proj[u] for u in patch.graph.neighbors(v)}
        if len(images) != patch.graph.degree(v) or images != set(
            inst.graph.neighbors(proj[v])
        ):
            raise DefectError(f"closed-form projection is not locally bijective at {v}")
    return proj


def deck_generators(inst: QuotientInstance, patch: PlanePatch) -> list[dict[int, int]]:
    """Generating covering transformations, restricted to the patch.

    Each generator is a partial vertex map (defined where the translated
    point is still inside the patch); composing with the closed-form
    projection leaves it unchanged.
    """
    m, n, kind = inst.spec.m, inst.spec.n, inst.spec.kind
    if kind == "klein":  # a glide reflection and a translation
        moves = [lambda p: (p[0] + m, -p[1], p[2]), lambda p: (p[0], p[1] + n, p[2])]
    else:  # two translations; the twisted torus shifts x as it wraps y
        s = inst.spec.s if kind == "twisted_torus" else 0
        moves = [lambda p: (p[0] + m, p[1], p[2]), lambda p: (p[0] + s, p[1] + n, p[2])]
    coords = _lattice_coordinates(patch, inst._lattice)
    where = {c: v for v, c in coords.items()}
    gens = []
    for mv in moves:
        gens.append({v: where[mv(c)] for v, c in coords.items() if mv(c) in where})
    return gens


# ---------------------------------------------------------------------------
# The counterexample family K(l, k)
# ---------------------------------------------------------------------------

class ExampleK(Record):
    """Two toroidal l-by-k grids, the second with one rerouted level,
    cross-joined completely at every level."""

    l: int
    k: int
    graph: Graph
    labels: dict[int, tuple[str, int, int]]

    def x(self, i: int, j: int) -> int:
        return (i % self.l) * self.k + (j % self.k)

    def y(self, i: int, j: int) -> int:
        return self.l * self.k + self.x(i, j)

    def to_json_dict(self) -> dict:
        labels = {str(v): list(lab) for v, lab in self.labels.items()}
        return self.graph.to_json_dict(labels=labels)


def make_example_K(l: int, k: int) -> ExampleK:
    if l < 3 or k < 3:
        raise InputError("need l >= 3 and k >= 3")
    kk = ExampleK(l, k, Graph((), ()), {})  # numbers the vertices; graph and labels follow
    x, y = kk.x, kk.y
    edges = []
    for i in range(l):
        for j in range(k):
            edges += [(x(i, j), x(i + 1, j)), (x(i, j), x(i, j + 1)), (y(i, j), y(i, j + 1))]
            edges.append((y(0, j), y(1, j + 1)) if i == 0 else (y(i, j), y(i + 1, j)))  # level 0 is rerouted
            edges += [(x(i, j), y(i, jj)) for jj in range(k)]
    kk.graph = g = Graph(range(2 * l * k), edges)
    for v in g.vertices:
        if g.degree(v) != 4 + k:
            raise DefectError(f"vertex {v} has degree {g.degree(v)}")
    grid = [(i, j) for i in range(l) for j in range(k)]
    kk.labels = {x(i, j): ("x", i, j) for i, j in grid} | {y(i, j): ("y", i, j) for i, j in grid}
    return kk


class ExampleG(Record):
    """A window of the double cylinder: two copies of the Z x Z/k grid,
    cross-joined at equal heights."""

    k: int
    z_lo: int
    z_hi: int
    graph: Graph
    labels: dict[int, tuple[int, int, int]]

    def vid(self, c: int, z: int, j: int) -> int:
        if not (self.z_lo <= z <= self.z_hi):
            raise InputError(f"height {z} outside window")
        return ((z - self.z_lo) * 2 + c) * self.k + (j % self.k)

    def interior_vertices(self) -> list[int]:
        return [
            self.vid(c, z, j)
            for z in range(self.z_lo + 1, self.z_hi)
            for c in (0, 1)
            for j in range(self.k)
        ]


def make_example_G_patch(k: int, z_range: tuple[int, int]) -> ExampleG:
    if k < 3:
        raise InputError("need k >= 3")
    z_lo, z_hi = z_range
    if z_hi <= z_lo:
        raise InputError("empty height range")
    heights = range(z_lo, z_hi + 1)
    window = ExampleG(k, z_lo, z_hi, Graph((), ()), {})  # numbers the vertices; graph and labels follow
    vid = window.vid
    edges = []
    for z in heights:
        for c in (0, 1):
            for j in range(k):
                edges.append((vid(c, z, j), vid(c, z, j + 1)))
                if z < z_hi:
                    edges.append((vid(c, z, j), vid(c, z + 1, j)))
        edges += [(vid(0, z, j), vid(1, z, jj)) for j in range(k) for jj in range(k)]
    window.graph = Graph(range(2 * k * len(heights)), edges)
    window.labels = {vid(c, z, j): (c, z, j) for z in heights for c in (0, 1) for j in range(k)}
    return window


def example_cover_formula(l: int, k: int, z_range: tuple[int, int]) -> tuple[ExampleG, ExampleK, dict[int, int]]:
    """The closed-form cover from the double cylinder window onto K(l,k).

    Copy one lands on the plain grid; copy two lands on the rerouted grid
    with the width coordinate advanced once per completed wrap, counting
    reroute crossings (a crossing happens on the height step z -> z+1
    whenever z is a multiple of l).  The formula is machine-validated by
    exhaustive edge checking before being returned.
    """
    z_lo, z_hi = z_range
    if z_hi - z_lo < 2 * l:
        raise InputError("height range must wrap the length at least twice")
    gpatch = make_example_G_patch(k, z_range)
    kk = make_example_K(l, k)

    def crossings(z: int) -> int:
        return -((-z) // l)  # ceil(z / l)

    cover: dict[int, int] = {}
    for v, (c, z, j) in gpatch.labels.items():
        if c == 0:
            cover[v] = kk.x(z % l, j)
        else:
            cover[v] = kk.y(z % l, (j + crossings(z)) % k)

    for u, w in gpatch.graph.sorted_edges():
        if not kk.graph.has_edge(cover[u], cover[w]):
            raise DefectError(
                f"cover formula broken: edge ({gpatch.labels[u]},{gpatch.labels[w]}) "
                f"maps to a non-edge of K"
            )
    return gpatch, kk, cover


# ---------------------------------------------------------------------------
# Transitivity and the ball claim
# ---------------------------------------------------------------------------

# the largest graph is_vertex_transitive searches, one vertex at a time
_TRANSITIVITY_LIMIT = 400


def is_vertex_transitive(g: Graph) -> bool:
    """Brute force: does some automorphism move vertex 0 to every vertex?"""
    if g.n > _TRANSITIVITY_LIMIT:
        raise InputError(f"graph too large for brute-force transitivity ({g.n} > {_TRANSITIVITY_LIMIT})")
    if g.n <= 1:
        return True
    if not g.is_connected():
        return False
    ref = as_rooted(g, g.vertices[0])
    return all(rooted_isomorphisms(as_rooted(g, w), ref, limit=1) for w in g.vertices[1:])


def graph_diameter(g: Graph) -> int:
    diam = 0
    for v in g.vertices:
        dist = g.distances_from(v)
        if len(dist) != g.n:
            raise InputError("diameter of a disconnected graph")
        diam = max(diam, max(dist.values()))
    return diam


def check_K_ball_claim(l: int, k: int) -> VerificationReport:
    """All balls of radius diam(K) - 1 - floor(l/2) around vertices of
    K(l,k) are isomorphic; the empirically maximal such radius is logged."""
    kk = make_example_K(l, k)
    g = kk.graph
    diam = graph_diameter(g)
    rho = diam - 1 - l // 2
    report = VerificationReport()

    def all_balls_isomorphic(radius: int) -> tuple[bool, int | None]:
        ref = ball(g, g.vertices[0], radius)
        unlike = (w for w in g.vertices[1:] if not rooted_isomorphisms(ball(g, w, radius), ref, limit=1))
        witness = next(unlike, None)
        return witness is None, witness

    if rho >= 0:
        ok, witness = all_balls_isomorphic(rho)
        report.add(
            "balls isomorphic at stated radius",
            ok,
            witnesses=[] if ok else [witness],
            diameter=diam,
            rho=rho,
        )
    else:
        report.add("balls isomorphic at stated radius", False, witnesses=["rho negative"], rho=rho)
    rho_max = -1
    for radius in range(0, diam + 1):
        ok, _ = all_balls_isomorphic(radius)
        if not ok:
            break
        rho_max = radius
    report.add("maximal isomorphic-ball radius", rho_max >= max(rho, 0), rho_max=rho_max)
    return report
