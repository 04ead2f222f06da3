"""Finite simple undirected graphs with stable integer vertex identifiers.

Vertex ids survive every derived construction (balls, induced subgraphs),
so local searches can always refer back to the host graph.  Everything is
immutable after construction and all iteration is in ascending id order,
which makes every operation in the package deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Iterable, Iterator

from .errors import DefectError, InputError
from .record import FrozenRecord

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def json_int(value, what: str) -> int:
    """An integer field of loaded JSON.  Bools and floats are refused, not
    truncated: `int()` would read true as 1 and 35.9 as 35."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


class Graph:
    """Immutable simple undirected graph over integer vertex ids.

    A graph is its sorted adjacency: every query, `==` and the hash read
    it, and `edges` is a new set read off it each time it is asked for.
    `components` is counted where the graph is made; `_face_memos` holds
    what its hosts learn of its faces, by cycle length bound (`local.Host`)."""

    __slots__ = ("_vertices", "_adj", "_face_memos", "components")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        vs = sorted({int(v) for v in vertices})
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for u, w in edges:
            if u == w:
                raise InputError(f"loop edge at vertex {u}")
            if u not in adj or w not in adj:
                raise InputError(f"edge ({u},{w}) uses an unknown vertex")
            adj[u].add(w)
            adj[w].add(u)
        self._vertices: tuple[int, ...] = tuple(vs)
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(sorted(adj[v])) for v in vs}
        self._face_memos: dict = {}
        self.components: int = component_count(self)

    @classmethod
    def _trusted(cls, adj: dict[int, Iterable[int]], components: int | None = None) -> Graph:
        """A graph read off an adjacency that its caller vouches for:
        integer vertices, symmetric, no loops, no repeated neighbour, and
        `components` components if given.  Nothing is checked: generated
        patches, face cores and balls are built this way."""
        g = cls.__new__(cls)
        g._vertices = tuple(sorted(adj))
        g._adj = {v: tuple(sorted(adj[v])) for v in g._vertices}
        g._face_memos = {}
        g.components = component_count(g) if components is None else components
        return g

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built anew on each read: the graph keeps none."""
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list[Edge]:
        """The edges (u, w) with u < w, in order, read off the sorted
        adjacency."""
        return [(u, w) for u in self._vertices for w in self._adj[u] if u < w]

    def distances_from(self, o: int, limit: int | None = None) -> dict[int, int]:
        """BFS distances from o; vertices beyond `limit` are omitted."""
        if o not in self._adj:
            raise InputError(f"unknown vertex {o}")
        dist = {o: 0}
        queue = deque([o])
        while queue:
            v = queue.popleft()
            d = dist[v]
            if limit is not None and d == limit:
                continue
            for u in self._adj[v]:
                if u not in dist:
                    dist[u] = d + 1
                    queue.append(u)
        return dist

    def is_connected(self) -> bool:
        return self.components <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(self._adj.values())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self._adj.values())) // 2})"

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(
        self,
        rotation: dict[int, tuple[int, ...]] | None = None,
        labels: dict | None = None,
    ) -> dict:
        """Graph JSON: dense 0-based vertices, edges with u < v."""
        if self._vertices != tuple(range(self.n)):
            raise InputError("only graphs with dense 0-based ids are serialisable")
        d: dict = {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}
        if rotation is not None:
            d["rotation"] = {str(v): list(rotation[v]) for v in self._vertices}
        if labels is not None:
            d["labels"] = {str(k): v for k, v in labels.items()}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Graph":
        try:
            n = json_int(d["n"], "graph n")
            edges = [(json_int(u, "edge end"), json_int(v, "edge end")) for u, v in d["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc
        if n < 0:
            raise InputError(f"graph n must be >= 0, got {n}")
        return cls(range(n), edges)


class RootedBall(FrozenRecord):
    """B_i(o): the induced subgraph on vertices at distance <= i from o.
    `==` and the hash leave `dist` out.  A ball keeps an instance
    `__dict__`, where `local` stores its colour refinement."""

    graph: Graph
    root: int
    radius: int
    dist: dict[int, int]

    def __post_init__(self) -> None:
        if any(d > self.radius for d in self.dist.values()):
            raise DefectError(f"ball of radius {self.radius} holds a vertex farther out")

    def _key(self) -> tuple:
        return (self.graph, self.root, self.radius)

    @property
    def n(self) -> int:
        return self.graph.n


def ball(g: Graph, o: int, i: int) -> RootedBall:
    """The ball B_i(o; g): BFS to depth i, then induced subgraph."""
    if i < 0:
        raise InputError("ball radius must be >= 0")
    dist = g.distances_from(o, limit=i)
    return RootedBall(graph=induced_subgraph(g, dist.keys()), root=o, radius=i, dist=dist)


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Induced subgraph on s, keeping original vertex ids.  Its edges are
    read off the neighbours of s, so the cost does not grow with g, and
    they are not checked again: g is already a valid graph."""
    keep = set(s)
    for v in keep:
        if v not in g:
            raise InputError(f"unknown vertex {v} in subgraph request")
    adj = g._adj
    return Graph._trusted({u: [w for w in adj[u] if w in keep] for u in keep})


def is_connected_excluding(g: Graph, removed: Iterable[int]) -> bool:
    """True iff g minus `removed` has at most one connected component.

    An empty remainder counts as connected.
    """
    gone = set(removed)
    for v in gone:
        if v not in g:
            raise InputError(f"unknown vertex {v}")
    rest = [v for v in g.vertices if v not in gone]
    if not rest:
        return True
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in gone and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(rest)


def component_count(g: Graph) -> int:
    """The number of connected components of g, found in one pass."""
    seen: set[int] = set()
    count = 0
    for v in g.vertices:
        if v not in seen:
            count += 1
            seen.update(g.distances_from(v))
    return count


def local_parts(
    g: Graph, removed: Iterable[int], *, within: Container[int] | None = None
) -> int:
    """How many components of g minus `removed` touch `removed`: 0, 1, or
    2 for two or more.  The answer is found near `removed`, without
    scanning the rest of g.

    With `within` (a set or mapping of vertices of g, holding `removed`)
    every seed and search step stays inside it, so the answer is that
    for the subgraph of g induced on `within`, without building it: the
    search meets the same vertices, in the same order, as on that
    subgraph.

    Every component of g - removed that touches `removed` holds a vertex
    of N, the neighbours of `removed` outside it, so the count is that of
    the classes of N under "joined by a path avoiding `removed`".  A
    search is grown from each vertex of N in turn, one vertex per turn,
    and two searches merge when one reaches a vertex the other has
    found.  One search left means 1.  A search that runs dry while
    another remains has scanned a whole component, and another exists,
    so the answer is 2.  Taking turns bounds that work by |N| times the
    smallest such component, however large g is; on a face, the
    searches merge within a few dozen vertices.

    With a connected set C removed (a cycle, say), g - C is connected
    exactly when local_parts(g, C) + g.components - 1 <= 1: the
    components of g that miss C survive whole.  That equals
    is_connected_excluding(g, C) on every graph.
    """
    adj = g._adj
    inside = adj if within is None else within
    gone = set(removed)
    for v in gone:
        if v not in adj:
            raise InputError(f"unknown vertex {v}")
    seeds = sorted({u for v in gone for u in adj[v] if u in inside} - gone)
    if len(seeds) < 2:
        return len(seeds)
    # owner[v] is the search that found v; link[i] leads from search i to
    # the search it merged into, and ends at a search still running
    owner = {s: i for i, s in enumerate(seeds)}
    link = list(range(len(seeds)))
    queues = [deque([s]) for s in seeds]
    running = len(seeds)
    while True:
        for i in range(len(seeds)):
            if link[i] != i:
                continue
            queue = queues[i]
            if not queue:
                return 2
            for u in adj[queue.popleft()]:
                if u in gone or u not in inside:
                    continue
                j = owner.get(u)
                if j is None:
                    owner[u] = i
                    queue.append(u)
                    continue
                while link[j] != j:
                    link[j] = j = link[link[j]]
                if j != i:
                    link[j] = i
                    running -= 1
                    if running == 1:
                        return 1
                    queue.extend(queues[j])
