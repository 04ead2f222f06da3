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
from dataclasses import dataclass

from .errors import DefectError, InputError
from .graph import Graph, ball, edge_key
from .local import as_rooted, rooted_isomorphisms
from .report import VerificationReport
from .tessellation import PlanePatch

_SQ_STEP = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class QuotientSpec:
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
    """The quotient graph plus its closed-form projection from the lattice."""

    def __init__(self, spec: QuotientSpec):
        self.spec = spec
        if spec.kind == "hex_torus":
            self._build_hex()
        else:
            self._build_square()

    # -- square-lattice kinds -------------------------------------------------

    def _sq_id(self, i: int, j: int) -> int:
        return i * self.spec.n + j

    def project_square(self, x: int, y: int) -> int:
        """Canonical quotient vertex of the lattice point (x, y)."""
        m, n, s = self.spec.m, self.spec.n, self.spec.s
        if self.spec.kind == "torus":
            return self._sq_id(x % m, y % n)
        if self.spec.kind == "twisted_torus":
            kwrap = y // n
            return self._sq_id((x - kwrap * s) % m, y % n)
        # klein: (x, y) ~ (x + m, -y) ~ (x, y + n)
        q = x // m
        yy = y if q % 2 == 0 else -y
        return self._sq_id(x % m, yy % n)

    def _build_square(self) -> None:
        m, n = self.spec.m, self.spec.n
        edges = set()
        rotation: dict[int, tuple[int, ...]] = {}
        for i in range(m):
            for j in range(n):
                v = self._sq_id(i, j)
                nbrs = [self.project_square(i + dx, j + dy) for dx, dy in _SQ_STEP]
                if len(set(nbrs)) != 4 or v in nbrs:
                    raise InputError(f"degenerate quotient at ({i},{j}); enlarge dimensions")
                rotation[v] = tuple(nbrs)
                for u in nbrs:
                    edges.add(edge_key(v, u))
        self.graph = Graph(range(m * n), edges)
        self.rotation = rotation

    # -- hexagonal torus -------------------------------------------------------

    def _hex_id(self, a: int, b: int, sigma: int) -> int:
        return 2 * ((a % self.spec.m) * self.spec.n + (b % self.spec.n)) + sigma

    def _build_hex(self) -> None:
        m, n = self.spec.m, self.spec.n
        edges = set()
        rotation = {}
        for a in range(m):
            for b in range(n):
                v0 = self._hex_id(a, b, 0)
                n0 = (self._hex_id(a, b, 1), self._hex_id(a - 1, b, 1), self._hex_id(a, b - 1, 1))
                v1 = self._hex_id(a, b, 1)
                n1 = (self._hex_id(a, b, 0), self._hex_id(a + 1, b, 0), self._hex_id(a, b + 1, 0))
                rotation[v0] = n0
                rotation[v1] = n1
                for u in n0:
                    edges.add(edge_key(v0, u))
        self.graph = Graph(range(2 * m * n), edges)
        self.rotation = rotation

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
    """Coordinates for a generated {4,4} patch: root at (0,0), edge
    directions propagated through the rotation (consecutive rotation
    positions turn by one quarter)."""
    if patch.schlafli != (4, 4):
        raise InputError("square coordinates need a {4,4} patch")
    for sense in (1, -1):
        try:
            return _propagate_square(patch, sense)
        except _Inconsistent:
            continue
    raise DefectError("patch rotation admits no square-lattice coordinates")


def _propagate_square(patch: PlanePatch, sense: int) -> dict[int, tuple[int, int]]:
    g = patch.graph
    coord = {patch.root: (0, 0)}
    direction: dict[tuple[int, int], int] = {}

    def set_dirs(v: int, u: int, d: int) -> None:
        # linear offsets along the rotation arc: valid for interior
        # vertices (full cycle) and boundary vertices (contiguous fan,
        # where the outer gap may span several quarter-turns)
        rot = patch.rotation[v]
        k = rot.index(u)
        for t, w in enumerate(rot):
            dt = (d + sense * (t - k)) % 4
            if direction.setdefault((v, w), dt) != dt:
                raise _Inconsistent

    set_dirs(patch.root, patch.rotation[patch.root][0], 0)
    queue = deque([patch.root])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            d = direction[(v, u)]
            cu = (coord[v][0] + _SQ_STEP[d][0], coord[v][1] + _SQ_STEP[d][1])
            if u in coord:
                if coord[u] != cu:
                    raise _Inconsistent
            else:
                coord[u] = cu
                queue.append(u)
            back = (d + 2) % 4
            if (u, v) in direction:
                if direction[(u, v)] != back:
                    raise _Inconsistent
            else:
                set_dirs(u, v, back)
    if len(set(coord.values())) != len(coord):
        raise _Inconsistent
    return coord


_HEX_OFF0 = ((0, 0), (-1, 0), (0, -1))  # class-0 vertex (a,b) reaches class-1 at these offsets
_HEX_OFF1 = ((0, 0), (1, 0), (0, 1))


def hex_lattice_coordinates(patch: PlanePatch) -> dict[int, tuple[int, int, int]]:
    """Axial coordinates (a, b, class) for a generated {6,3} patch."""
    if patch.schlafli != (6, 3):
        raise InputError("hex coordinates need a {6,3} patch")
    for sense in (1, -1):
        try:
            return _propagate_hex(patch, sense)
        except _Inconsistent:
            continue
    raise DefectError("patch rotation admits no hex-lattice coordinates")


def _propagate_hex(patch: PlanePatch, sense: int) -> dict[int, tuple[int, int, int]]:
    g = patch.graph
    coord: dict[int, tuple[int, int, int]] = {patch.root: (0, 0, 0)}
    etype: dict[tuple[int, int], int] = {}

    def set_types(v: int, u: int, t0: int) -> None:
        rot = patch.rotation[v]
        k = rot.index(u)
        for t, w in enumerate(rot):
            tt = (t0 + sense * (t - k)) % 3
            if etype.setdefault((v, w), tt) != tt:
                raise _Inconsistent

    set_types(patch.root, patch.rotation[patch.root][0], 0)
    queue = deque([patch.root])
    while queue:
        v = queue.popleft()
        a, b, sigma = coord[v]
        for u in g.neighbors(v):
            t = etype[(v, u)]
            off = _HEX_OFF0[t] if sigma == 0 else _HEX_OFF1[t]
            cu = (a + off[0], b + off[1], 1 - sigma)
            if u in coord:
                if coord[u] != cu:
                    raise _Inconsistent
            else:
                coord[u] = cu
                queue.append(u)
            if (u, v) in etype:
                if etype[(u, v)] != t:
                    raise _Inconsistent
            else:
                set_types(u, v, t)
    if len(set(coord.values())) != len(coord):
        raise _Inconsistent
    return coord


def closed_form_projection(inst: QuotientInstance, patch: PlanePatch) -> dict[int, int]:
    """The canonical covering map patch -> quotient, via lattice coordinates.

    Checked to be locally bijective at every certified interior vertex
    before being returned.
    """
    if inst.spec.kind == "hex_torus":
        coords = hex_lattice_coordinates(patch)
        proj = {v: inst._hex_id(*coords[v]) for v in patch.graph.vertices}
    else:
        coords = square_lattice_coordinates(patch)
        proj = {v: inst.project_square(*coords[v]) for v in patch.graph.vertices}
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
    spec = inst.spec
    if spec.kind == "hex_torus":
        coords = hex_lattice_coordinates(patch)
        moves = [lambda c: (c[0] + spec.m, c[1], c[2]), lambda c: (c[0], c[1] + spec.n, c[2])]
    else:
        coords = square_lattice_coordinates(patch)
        if spec.kind == "torus":
            moves = [lambda c: (c[0] + spec.m, c[1]), lambda c: (c[0], c[1] + spec.n)]
        elif spec.kind == "twisted_torus":
            moves = [lambda c: (c[0] + spec.m, c[1]), lambda c: (c[0] + spec.s, c[1] + spec.n)]
        else:  # klein: a glide reflection and a translation
            moves = [lambda c: (c[0] + spec.m, -c[1]), lambda c: (c[0], c[1] + spec.n)]
    where = {c: v for v, c in coords.items()}
    gens = []
    for mv in moves:
        gens.append({v: where[mv(c)] for v, c in coords.items() if mv(c) in where})
    return gens


# ---------------------------------------------------------------------------
# The counterexample family K(l, k)
# ---------------------------------------------------------------------------

@dataclass
class ExampleK:
    """Two toroidal l-by-k grids, the second with one rerouted level,
    cross-joined completely at every level."""

    l: int
    k: int
    graph: Graph
    labels: dict[int, tuple[str, int, int]]

    def x(self, i: int, j: int) -> int:
        return (i % self.l) * self.k + (j % self.k)

    def y(self, i: int, j: int) -> int:
        return self.l * self.k + (i % self.l) * self.k + (j % self.k)

    def to_json_dict(self) -> dict:
        labels = {str(v): list(lab) for v, lab in self.labels.items()}
        return self.graph.to_json_dict(labels=labels)


def make_example_K(l: int, k: int) -> ExampleK:
    if l < 3 or k < 3:
        raise InputError("need l >= 3 and k >= 3")
    nk = l * k

    def x(i, j):
        return (i % l) * k + (j % k)

    def y(i, j):
        return nk + (i % l) * k + (j % k)

    edges = set()
    for i in range(l):
        for j in range(k):
            edges.add(edge_key(x(i, j), x(i + 1, j)))
            edges.add(edge_key(x(i, j), x(i, j + 1)))
            edges.add(edge_key(y(i, j), y(i, j + 1)))
            if i == 0:
                edges.add(edge_key(y(0, j), y(1, j + 1)))  # rerouted level
            else:
                edges.add(edge_key(y(i, j), y(i + 1, j)))
            for jj in range(k):
                edges.add(edge_key(x(i, j), y(i, jj)))
    g = Graph(range(2 * nk), edges)
    for v in g.vertices:
        if g.degree(v) != 4 + k:
            raise DefectError(f"vertex {v} has degree {g.degree(v)}")
    labels = {x(i, j): ("x", i, j) for i in range(l) for j in range(k)}
    labels.update({y(i, j): ("y", i, j) for i in range(l) for j in range(k)})
    return ExampleK(l, k, g, labels)


@dataclass
class ExampleG:
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

    def vid(c, z, j):
        return ((z - z_lo) * 2 + c) * k + (j % k)

    edges = set()
    for z in heights:
        for c in (0, 1):
            for j in range(k):
                edges.add(edge_key(vid(c, z, j), vid(c, z, j + 1)))
                if z < z_hi:
                    edges.add(edge_key(vid(c, z, j), vid(c, z + 1, j)))
        for j in range(k):
            for jj in range(k):
                edges.add(edge_key(vid(0, z, j), vid(1, z, jj)))
    g = Graph(range(2 * k * len(heights)), edges)
    labels = {vid(c, z, j): (c, z, j) for z in heights for c in (0, 1) for j in range(k)}
    return ExampleG(k, z_lo, z_hi, g, labels)


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

    for (u, w) in gpatch.graph.edges:
        if not kk.graph.has_edge(cover[u], cover[w]):
            raise DefectError(
                f"cover formula broken: edge ({gpatch.labels[u]},{gpatch.labels[w]}) "
                f"maps to a non-edge of K"
            )
    return gpatch, kk, cover


# ---------------------------------------------------------------------------
# Transitivity and the ball claim
# ---------------------------------------------------------------------------

def is_vertex_transitive(g: Graph, size_guard: int = 400) -> bool:
    """Brute force: does some automorphism move vertex 0 to every vertex?"""
    if g.n > size_guard:
        raise InputError(f"graph too large for brute-force transitivity ({g.n} > {size_guard})")
    if g.n <= 1:
        return True
    if not g.is_connected():
        return False
    v0 = g.vertices[0]
    ref = as_rooted(g, v0)
    for w in g.vertices[1:]:
        if not rooted_isomorphisms(as_rooted(g, w), ref, limit=1):
            return False
    return True


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
        for w in g.vertices[1:]:
            if not rooted_isomorphisms(ball(g, w, radius), ref, limit=1):
                return False, w
        return True, None

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
