import gc
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit import (
    DefectError,
    FaceBoundary,
    Flag,
    Graph,
    InputError,
    ball,
    build_cover,
    check_cover,
    check_normality,
    face_enumeration,
    generate,
    import_patch,
    rooted_isomorphisms,
    trace_faces,
)
import coverkit.graph as graph
import coverkit.tessellation as tessellation
from coverkit.graph import RootedBall
from coverkit.tessellation import _BATCH, _is_simple_walk, _json_block, _PatchBuilder

from .oracles import brute_canonical_cycle, hub_patch, outer_walk_by_tracing, z2_ball
from .test_golden import GEN_FILES


class TestFaceBoundary:
    def test_canonical_under_rotation_and_reflection(self):
        a = FaceBoundary([2, 3, 0, 1])
        b = FaceBoundary([1, 0, 3, 2])
        c = FaceBoundary([0, 2, 1, 3])
        assert a == b  # rotation and reflection of the same cycle
        assert a != c  # different cyclic structure on the same vertices

    def test_rejects_degenerate(self):
        with pytest.raises(InputError):
            FaceBoundary([0, 1])
        with pytest.raises(InputError):
            FaceBoundary([0, 1, 1])

    def test_cycle_from_both_directions(self):
        f = FaceBoundary([0, 1, 2, 3])
        assert f.cycle_from(1, 2) == (1, 2, 3, 0)
        assert f.cycle_from(1, 0) == (1, 0, 3, 2)
        assert f.cycle_from(0, 3) == (0, 3, 2, 1) and f.cycle_from(3, 0) == (3, 0, 1, 2)

    def test_cycle_from_off_the_cycle_is_an_input_error(self):
        f = FaceBoundary([0, 1, 2, 3])
        with pytest.raises(InputError, match="not a cycle neighbour"):
            f.cycle_from(1, 3)
        with pytest.raises(InputError, match="not on the cycle"):
            f.cycle_from(4, 0)

    @given(st.lists(st.integers(min_value=-5, max_value=60), min_size=3, max_size=12, unique=True))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_canonical_form_is_the_least_rotation_or_reflection(self, cycle):
        assert FaceBoundary(cycle).cycle == brute_canonical_cycle(tuple(cycle))


class TestGenerate:
    def test_44_radius2_matches_oracle(self):
        p = generate(4, 4, 2)
        verts, edges, _ = z2_ball(2)
        b = ball(p.graph, p.root, 2)
        assert b.n == len(verts)
        assert len(b.graph.edges) == len(edges)
        assert len(p.faces_at(p.root)) == 4
        assert all(len(f) == 4 for f in p.faces_at(p.root))

    def test_44_ball_isomorphic_to_coordinate_model(self, patch44_r6):
        verts, edges, dist = z2_ball(3)
        ids = {c: i for i, c in enumerate(sorted(verts))}
        oracle = Graph(ids.values(), [(ids[a], ids[b]) for a, b in map(tuple, map(sorted, edges))])
        ob = RootedBall(graph=oracle, root=ids[(0, 0)], radius=3, dist={ids[c]: d for c, d in dist.items()})
        pb = ball(patch44_r6.graph, patch44_r6.root, 3)
        assert rooted_isomorphisms(pb, ob, limit=1)

    def test_63_root(self):
        p = generate(6, 3, 1)
        assert p.graph.degree(p.root) == 3
        assert len(p.faces_at(p.root)) == 3
        assert all(len(f) == 6 for f in p.faces_at(p.root))

    def test_45_grows_hyperbolically(self):
        p = generate(4, 5, 6)
        dist = p.graph.distances_from(p.root)
        sizes = [sum(1 for d in dist.values() if d <= i) for i in range(7)]
        assert sizes[3] > 25  # strictly above the Euclidean value
        assert all(sizes[i + 1] / sizes[i] > 1.3 for i in range(3, 6))

    def test_spherical_rejected(self):
        with pytest.raises(InputError):
            generate(3, 3, 2)
        with pytest.raises(InputError):
            generate(4, 3, 2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(InputError):
            generate(2, 7, 2)
        with pytest.raises(InputError):
            generate(4, 4, 0)

    @pytest.mark.parametrize("p,q", [(4, 4), (6, 3), (3, 6), (4, 5), (5, 4), (3, 7)])
    def test_interior_invariants(self, p, q):
        patch = generate(p, q, 2)
        for v in patch.graph.vertices:
            if patch.complete_radius[v] >= 1:
                assert patch.graph.degree(v) == q
                faces = patch.faces_at(v)
                assert len(faces) == q
                assert all(len(f) == p for f in faces)

    @pytest.mark.parametrize("p,q", [(4, 4), (6, 3), (4, 5)])
    def test_nesting(self, p, q):
        big = generate(p, q, 3)
        small = generate(p, q, 2)
        inner = {v for v, d in big.graph.distances_from(big.root).items() if d <= 2}
        small_inner = {
            v for v, d in small.graph.distances_from(small.root).items() if d <= 2
        }
        assert inner == small_inner  # identical ids: deterministic construction prefix
        for v in sorted(inner):
            if big.complete_radius[v] >= 1 and small.complete_radius[v] >= 1:
                assert big.rotation[v] == small.rotation[v]

    @pytest.mark.parametrize("p,q,R", [(4, 4, 6), (6, 3, 5), (3, 7, 4), (5, 4, 4), (7, 3, 5)])
    def test_outer_is_the_traced_walk_that_is_not_a_face(self, p, q, R):
        patch = generate(p, q, R)
        assert patch.outer == outer_walk_by_tracing(patch)

    def test_complete_radius_certificate(self, patch44_r6):
        p = patch44_r6
        assert p.complete_radius[p.root] >= 6
        for v in p.graph.vertices:
            r = p.complete_radius[v]
            if r >= 1:
                for u, d in p.graph.distances_from(v, limit=r).items():
                    assert p.is_interior(u) or d == r


class TestStructuralChecks:
    # explicit raises, not asserts: they hold under python -O as well
    def test_corner_without_a_face_is_a_defect(self, patch44_r6):
        v = patch44_r6.root
        rot = patch44_r6.rotation[v]
        with pytest.raises(DefectError, match="has 0 faces"):
            patch44_r6.corner_face(v, rot[0], rot[2])  # opposite edges share no face

    def test_face_beyond_the_vertex_degree_is_a_defect(self):
        b = _PatchBuilder(4, 4)
        v = b.new_vertex()
        b.complete_vertex(v)
        with pytest.raises(DefectError, match="already carries all its faces"):
            b.add_face_at(v)

    def test_asymmetric_arc_is_a_defect(self):
        b = _PatchBuilder(4, 4)
        v = b.new_vertex()
        b.complete_vertex(v)
        assert b.graph().n == len(b.arc)
        b.arc[v].pop()  # v's last neighbour still lists v
        with pytest.raises(DefectError, match="^the rotation arcs are not symmetric$"):
            b.graph()

    @staticmethod
    def _plant(monkeypatch, defect):
        """Run `defect` on the builder's faces once, after the fifth face."""
        real, planted = _PatchBuilder.add_face_at, []

        def add_face_at(self, v):
            real(self, v)
            if len(self.faces) == 5 and not planted:
                planted.append(defect(self.faces))

        monkeypatch.setattr(_PatchBuilder, "add_face_at", add_face_at)

    def test_a_face_made_twice_is_named_before_the_euler_count(self, monkeypatch):
        # the duplicate throws the Euler count off by one as well
        self._plant(monkeypatch, lambda faces: faces.append(faces[-1]))
        with pytest.raises(DefectError, match="^generation produced a face twice$"):
            generate(3, 7, 3)

    @pytest.mark.parametrize("plant", ["complete on the walk", "incomplete off it"])
    def test_the_interior_is_exactly_what_lies_off_the_outer_walk(self, monkeypatch, plant):
        real = _PatchBuilder.outer_walk

        def outer_walk(self):
            walk = real(self)
            if plant == "complete on the walk":
                self.nfaces[walk[0]] = self.q
            else:
                self.nfaces[0] -= 1  # the root, which is interior
            return walk

        monkeypatch.setattr(_PatchBuilder, "outer_walk", outer_walk)
        with pytest.raises(DefectError, match="^the complete vertices are not exactly those off the outer walk$"):
            generate(3, 7, 3)

    def test_a_vertex_the_root_does_not_reach_is_a_defect(self, monkeypatch):
        # the patch's graph is stated connected; its search from the root checks it
        real = tessellation._distances

        def distances(adj, sources):
            dist = real(adj, sources)
            if tuple(sources) == (0,):
                dist[-1] = -1
            return dist

        monkeypatch.setattr(tessellation, "_distances", distances)
        with pytest.raises(DefectError, match="^the patch is not connected$"):
            generate(3, 7, 3)

    def test_a_lost_face_breaks_the_euler_count(self, monkeypatch):
        self._plant(monkeypatch, lambda faces: faces.pop())
        with pytest.raises(DefectError, match="^the patch and its outer region do not close up into a sphere$"):
            generate(3, 7, 3)


def _count_edge_set_reads(monkeypatch) -> list:
    """From now on, each read of any Graph's `edges` adds an entry."""
    reads: list = []
    edges = Graph.edges.fget
    monkeypatch.setattr(Graph, "edges", property(lambda g: reads.append(g) or edges(g)))
    return reads


class TestGenerationCost:
    """What generation costs, in counts that do not depend on the machine."""

    def test_two_passes_over_the_graph(self, monkeypatch):
        # one search from the outer walk (complete_radius) and one from the
        # root (the root distances, which also show the graph connected):
        # no component count and no other search over the whole patch
        passes = []

        def wrap(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                passes.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        wrap(graph, "component_count")
        wrap(Graph, "distances_from")
        wrap(tessellation, "_distances")
        patch = generate(3, 7, 5)
        assert passes == ["_distances", "_distances"]
        assert patch.graph.components == 1

    def test_bytes_held_per_vertex(self):
        # every per-vertex table is a tuple indexed by vertex, with no dict
        # spine; 818 bytes a vertex with dicts, on Python 3.11
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            patch = generate(3, 7, 7)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held / patch.graph.n <= 700


class TestTrustedBuild:
    """A generated patch is built from trusted parts; the order and the
    content of what it holds are those of the validating constructors."""

    def test_generate_skips_the_validating_constructors(self, monkeypatch):
        calls = []
        for cls in (FaceBoundary, Graph):
            real = cls.__init__

            def counting(self, *args, _real=real, _name=cls.__name__):
                calls.append(_name)
                _real(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        patch = generate(3, 7, 5)
        assert len(patch.faces) > 500 and calls == []

    def test_import_builds_each_traced_face_once_and_no_edge_set(self, monkeypatch):
        # a traced walk is checked simple where it is traced, so its face is
        # built trusted, and the Euler count reads the walk lengths; declared
        # faces are compared as canonical tuples (see TestImportExport), and
        # a quotient counts its degrees, not its edges
        from coverkit import QuotientSpec, make_quotient

        p = generate(3, 7, 4)
        doc = p.to_json_dict()
        del doc["faces"]
        built = []
        real = FaceBoundary.__init__
        monkeypatch.setattr(FaceBoundary, "__init__", lambda f, cycle: built.append(cycle) or real(f, cycle))
        reads = _count_edge_set_reads(monkeypatch)
        assert import_patch(doc) == p
        make_quotient(QuotientSpec("klein", 6, 6))
        assert built == [] and reads == []

    def test_a_lone_edge_beside_a_torus_is_no_face(self):
        # a 3x3 torus grid (V - E + F = 0) and a lone edge (2) pass the
        # Euler count together; the edge's walk is simple, but two
        # vertices are no cycle
        at = lambda x, y: x % 3 * 3 + y % 3
        rotation = {at(x, y): [at(x + 1, y), at(x, y + 1), at(x - 1, y), at(x, y - 1)] for x in range(3) for y in range(3)}
        rotation.update({9: [10], 10: [9]})
        edges = sorted({tuple(sorted((v, u))) for v, rot in rotation.items() for u in rot})
        doc = {"n": 11, "edges": edges, "rotation": {str(v): r for v, r in rotation.items()}, "root": 0}
        with pytest.raises(InputError) as err:
            import_patch(doc)
        assert str(err.value) == "not a simple cycle: (9, 10)"

    @pytest.mark.parametrize("case", ["{3,7} R=4", "{4,5} R=3", "{6,3} R=6", "{4,4} R=6", "hub 12", "4.8.8"])
    def test_faces_at_is_the_sorted_faces_through_the_vertex(self, case):
        if case == "hub 12":
            patch = import_patch(hub_patch(12))
        elif case == "4.8.8":
            from .test_flags import build_squareoct_patch

            patch = build_squareoct_patch(3)
        else:
            p, q = map(int, case[1:4].split(","))
            patch = generate(p, q, int(case.split("R=")[1]))
        for v in patch.graph.vertices:
            assert patch.faces_at(v) == tuple(sorted(f for f in patch.faces if v in f.cycle)), v
        if case == "4.8.8":
            assert {len(f) for f in patch.faces} == {4, 8}

    def test_trusted_face_is_the_validated_one(self):
        for cycle in [(5, 2, 9), (3, 1, 4, 7), (9, 8, 1, 6, 2)]:
            f = FaceBoundary._trusted(cycle)
            g = FaceBoundary(cycle)
            assert (f.cycle, hash(f), f.edges) == (g.cycle, hash(g), g.edges)

    def test_the_hyperbolic_path_builds_no_edge_set(self, monkeypatch):
        # a Graph keeps no edge set, and generation, a self-cover and its
        # checks walk the adjacency only: none of them asks for one
        assert "_edges" not in Graph.__slots__
        reads = _count_edge_set_reads(monkeypatch)
        patch = generate(3, 7, 6)
        cov = build_cover(patch, patch)
        assert check_cover(cov).ok and check_normality(cov).ok
        assert reads == []
        assert len(patch.graph.edges) == sum(map(len, patch.rotation)) // 2

    def test_exporting_a_patch_builds_no_edge_set(self, monkeypatch):
        # to_json_dict lists the edges off the sorted adjacency
        patch = generate(3, 7, 5)
        reads = _count_edge_set_reads(monkeypatch)
        d = patch.to_json_dict()
        assert reads == [] and len(d["edges"]) == len(patch.graph.edges)

    def test_l_max_is_kept_by_the_patch(self):
        imported = import_patch(hub_patch(12))
        assert imported.schlafli is None
        assert vars(imported)["l_max"] == max(len(f) for f in imported.faces)
        assert vars(generate(4, 5, 2))["l_max"] == 4


def _derived_case(case):
    if case == "hub 12":
        return import_patch(hub_patch(12))
    if case == "4.8.8":
        from .test_flags import build_squareoct_patch

        return build_squareoct_patch(3)
    p, q = map(int, case[1:4].split(","))
    return generate(p, q, int(case.split("R=")[1]))


def _merged_cycle(f1, f2):
    """The boundary of two faces that share one path: the edges of either
    face but not both, walked round."""
    nxt: dict = {}
    for u, w in f1.edges ^ f2.edges:
        nxt.setdefault(u, []).append(w)
        nxt.setdefault(w, []).append(u)
    walk = [min(nxt)]
    while len(walk) < len(nxt):
        walk.append(next(u for u in nxt[walk[-1]] if u not in walk[-2:]))
    return FaceBoundary(walk)


class TestDerivedAnswers:
    """A patch keeps one per-vertex face table, and face membership and
    interiority are read off it: each answer is that of the sets it
    replaced."""

    CASES = ["{3,7} R=5", "{4,4} R=8", "{6,3} R=6", "{4,5} R=4", "hub 12", "4.8.8"]

    @pytest.mark.parametrize("case", CASES)
    def test_interior_is_off_the_outer_walk(self, case):
        patch = _derived_case(case)
        outer = set(patch.outer)
        for v in patch.graph.vertices:
            assert patch.is_interior(v) == (v not in outer), v
        assert 0 < len(outer) < patch.graph.n

    @pytest.mark.parametrize("case", CASES)
    def test_has_face_answers_as_the_face_set(self, case):
        patch = _derived_case(case)
        assert all(patch.has_face(f) for f in patch.faces)
        assert all(patch.has_face(FaceBoundary(f.cycle[::-1])) for f in patch.faces)
        # two faces sharing one path: the boundary of their union is a
        # cycle of the patch, and no face
        f1 = patch.faces_at(patch.root)[0]
        f2 = next(
            f for v in f1 for f in patch.faces_at(v)
            if f != f1 and len(set(f1.cycle) & set(f.cycle)) == len(f1.edges & f.edges) + 1
        )
        merged = _merged_cycle(f1, f2)
        assert all(patch.graph.has_edge(*e) for e in merged.edges)
        assert not patch.has_face(merged)
        # a cycle through an id that is not a vertex, least or not
        top = max(patch.graph.vertices)
        assert not patch.has_face(FaceBoundary((-1, *f1.cycle[:2])))
        assert not patch.has_face(FaceBoundary((*f1.cycle[:2], top + 1)))
        assert not patch.has_face(FaceBoundary((top + 1, top + 2, top + 3)))

    def test_a_seed_flag_off_the_patch_is_refused(self):
        patch = generate(4, 4, 6)
        far = max(patch.graph.vertices) + 1
        off = Flag(far, (far, far + 1), FaceBoundary((far, far + 1, far + 2, far + 3)))
        with pytest.raises(InputError, match="^a seed flag's face is not a face of its graph$"):
            build_cover(patch, patch, f=off, n=1)

    def test_patches_equal_by_their_faces(self):
        a, b = generate(4, 5, 3), generate(4, 5, 3)
        assert a == b and a._faces_at is not b._faces_at
        imported = import_patch(a.to_json_dict())
        assert imported == a


class TestTraceFaces:
    def test_c4_bounds_two_faces(self):
        g = Graph(range(4), [(i, (i + 1) % 4) for i in range(4)])
        rot = {v: tuple(g.neighbors(v)) for v in g.vertices}
        walks = trace_faces(g, rot)
        assert len(walks) == 2
        assert all(len(w) == 4 and _is_simple_walk(w) for w in walks)

    def test_patch_euler_count(self, patch44_r6):
        p = patch44_r6
        walks = trace_faces(p.graph, p.rotation)
        assert p.graph.n - len(p.graph.edges) + len(walks) == 2
        assert len(walks) == len(p.faces) + 1

    def test_torus_euler_count(self):
        from coverkit import QuotientSpec, make_quotient

        t = make_quotient(QuotientSpec("torus", 4, 4))
        walks = trace_faces(t.graph, t.rotation)
        assert len(walks) == 16
        assert all(len(w) == 4 for w in walks)
        assert 16 - 32 + len(walks) == 0

    def test_darts_partition(self, patch63_r10):
        p = patch63_r10
        walks = trace_faces(p.graph, p.rotation)
        assert sum(len(w) for w in walks) == 2 * len(p.graph.edges)

    def test_bad_rotation_rejected(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            trace_faces(g, {0: (1,), 1: (0,), 2: (1,)})


class TestFaceEnumeration:
    def test_root_faces_first(self, patch44_r6):
        order = face_enumeration(patch44_r6)
        assert set(order[:4]) == set(patch44_r6.faces_at(patch44_r6.root))

    def test_deterministic(self, patch44_r6):
        assert face_enumeration(patch44_r6) == face_enumeration(patch44_r6)

    def test_distance_monotone(self, patch63_r10):
        p = patch63_r10
        order = face_enumeration(p)
        dist = [min(p.root_distance(v) for v in f) for f in order]
        assert dist == sorted(dist)
        near = [f for f in p.faces if min(p.root_distance(v) for v in f) <= 2]
        assert set(order[: len(near)]) == set(near)

    def test_tie_breaks_are_permutations(self, patch44_r6):
        base = face_enumeration(patch44_r6, tie_break=0)
        for tb in (1, 2):
            other = face_enumeration(patch44_r6, tie_break=tb)
            assert set(other) == set(base)
            assert other != base


class TestImportExport:
    def test_round_trip(self):
        p = generate(4, 4, 3)
        doc = json.loads(json.dumps(p.to_json_dict()))
        q = import_patch(doc)
        assert q == p

    def test_missing_rotation_rejected(self):
        p = generate(4, 4, 2)
        doc = p.to_json_dict()
        del doc["rotation"]
        with pytest.raises(InputError):
            import_patch(doc)

    def test_torus_rejected_by_euler(self):
        from coverkit import QuotientSpec, make_quotient

        t = make_quotient(QuotientSpec("torus", 4, 4))
        doc = t.to_json_dict()
        doc["root"] = 0
        with pytest.raises(InputError, match="non-planar"):
            import_patch(doc)

    def test_loads_from_a_file_name_and_a_path(self, tmp_path):
        p = generate(4, 4, 3)
        f = tmp_path / "g.json"
        f.write_text(json.dumps(p.to_json_dict()), encoding="utf-8")
        assert import_patch(f) == p
        assert import_patch(str(f)) == p

    @pytest.mark.parametrize("source", [[], None, 3, 2.5, b"g.json"], ids=repr)
    def test_source_of_another_type_rejected(self, source):
        # an int is not opened as a file descriptor
        with pytest.raises(InputError, match="a patch is a JSON object"):
            import_patch(source)

    def test_unreadable_file_rejected(self, tmp_path):
        names = ("no", "dir", "bad", "latin", "deep")
        missing, directory, bad_json, not_utf8, deep = (tmp_path / name for name in names)
        directory.mkdir()
        bad_json.write_text("{not json", encoding="utf-8")
        not_utf8.write_bytes(b"\xff\xfe{")
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        for f in (missing, directory, bad_json, not_utf8, deep):
            with pytest.raises(InputError, match="cannot read patch"):
                import_patch(f)

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"g.json"'])
    def test_file_holding_json_that_is_not_an_object_rejected(self, tmp_path, text):
        f = tmp_path / "g.json"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="a patch is a JSON object"):
            import_patch(f)

    @pytest.mark.parametrize("key", ["1_0", " 3", "+5", "01"])
    @pytest.mark.parametrize("field", ["rotation", "complete_radius"])
    def test_non_canonical_vertex_key_rejected(self, field, key):
        # int() reads each key as a vertex; "01" is added next to "1",
        # which it would silently overwrite
        doc = generate(4, 4, 2).to_json_dict()
        entries, vertex = doc[field], str(int(key))
        entries[key] = entries[vertex] if key == "01" else entries.pop(vertex)
        with pytest.raises(InputError, match=f"^{re.escape(field)} key {re.escape(repr(key))} is not a vertex id$"):
            import_patch(doc)

    def test_declared_faces_checked(self):
        p = generate(4, 4, 2)
        doc = p.to_json_dict()
        doc["faces"] = doc["faces"][:-1]
        with pytest.raises(InputError):
            import_patch(doc)

    def test_declared_faces_are_compared_as_cycles(self, monkeypatch):
        # a declared face is read as a canonical tuple, in any rotation or
        # direction, and never built through the validating constructor
        p = generate(3, 7, 5)
        doc = p.to_json_dict()
        doc["faces"] = [c[1:] + c[:1] if i % 2 else c[::-1] for i, c in enumerate(doc["faces"])]
        built = []
        real = FaceBoundary.__init__
        monkeypatch.setattr(FaceBoundary, "__init__", lambda f, cycle: built.append(cycle) or real(f, cycle))
        assert import_patch(doc) == p and built == []
        doc["faces"] = doc["faces"][1:]
        with pytest.raises(InputError, match="^declared faces disagree with the traced faces$"):
            import_patch(doc)

    @pytest.mark.parametrize("face", [[0, 1, 0], [0, 1]])
    def test_a_declared_face_that_is_no_simple_cycle_is_named_before_tracing(self, face):
        doc = generate(4, 4, 2).to_json_dict()
        doc["faces"] = [face, *doc["faces"]]
        doc["rotation"]["0"] = doc["rotation"]["0"][:-1]  # tracing would refuse this
        with pytest.raises(InputError, match="^" + re.escape(f"not a simple cycle: {tuple(face)}") + "$"):
            import_patch(doc)


def _written_patch(case):
    if case in GEN_FILES:
        args = case.split()
        return generate(int(args[1]), int(args[3]), int(args[5]))
    if case == "no schlafli":
        doc = generate(4, 4, 3).to_json_dict()
        del doc["schlafli"]
        return import_patch(doc)
    return _derived_case(case)


class TestPatchWriter:
    """`gen` writes a patch through `PlanePatch.json_chunks`, whose text is
    that of the dict `to_json_dict` would build, dumped as the CLI dumps
    every other artifact."""

    @pytest.mark.parametrize("case", [*GEN_FILES, "hub 12", "4.8.8", "no schlafli"])
    def test_the_text_is_the_dumped_dict(self, case):
        patch = _written_patch(case)
        pieces = list(patch.json_chunks())
        assert "".join(pieces) == json.dumps(patch.to_json_dict(), indent=2, sort_keys=True) + "\n"
        items = 2 * patch.graph.n + len(patch.faces) + len(patch.graph.sorted_edges())
        assert len(pieces) >= items / _BATCH  # streamed in batches, not one string
        assert ('\n  "schlafli": ' in pieces[-2]) == (patch.schlafli is not None)

    @pytest.mark.parametrize("count", [0, 1, _BATCH, _BATCH + 1, 2 * _BATCH + 5])
    def test_a_block_of_any_length(self, count):
        items = list(range(count))
        text = "".join(_json_block("[]", (str(i) for i in items)))
        assert text == json.dumps({"a": items}, indent=2)[len('{\n  "a": ') : -len("\n}")]

    def test_vertex_keys_are_ordered_as_strings(self):
        # "10" sorts before "2", in complete_radius and rotation alike
        patch = generate(4, 4, 2)
        text = "".join(patch.json_chunks())
        assert patch.graph.n > 10
        for field in ("complete_radius", "rotation"):
            section = text[text.index(f'"{field}": {{'):]
            keys = re.findall(r'^    "(\d+)": ', section[: section.index("\n  }")], flags=re.M)
            assert keys == sorted(map(str, patch.graph.vertices)) and keys.index("10") < keys.index("2")


@given(st.integers(min_value=3, max_value=6), st.data())
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
def test_random_rotations_partition_darts(n, data):
    import random as _random

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(pairs), min_size=n - 1, unique=True))
    g = Graph(range(n), picks)
    seed = data.draw(st.integers(min_value=0, max_value=999))
    rng = _random.Random(seed)
    rot = {}
    for v in g.vertices:
        nb = list(g.neighbors(v))
        rng.shuffle(nb)
        rot[v] = tuple(nb)
    walks = trace_faces(g, rot)
    darts = [(w[i], w[(i + 1) % len(w)]) for w in walks for i in range(len(w))]
    assert len(darts) == 2 * len(g.edges)
    assert len(set(darts)) == len(darts)
