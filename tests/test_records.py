"""The record contract: every `coverkit.record.Record` subclass in the
package, found by walking its modules, so a new record is covered (or
fails `test_every_record_has_a_sample`) without a line here.  Each
record is built positionally and by keyword, with and without its
defaults, and its `repr`, `==`, hash, ordering, frozenness and checks
are pinned."""

import importlib
import pkgutil

import pytest

import coverkit
from coverkit import DefectError, FaceBoundary, Graph, InputError
from coverkit.record import FrozenRecord, Record


def _walk_records() -> list[type]:
    found = {}
    for info in pkgutil.iter_modules(coverkit.__path__):
        module = importlib.import_module(f"coverkit.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, Record)
                and obj not in (Record, FrozenRecord)
                and obj.__module__ == module.__name__
            ):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _walk_records()

F012, F013 = FaceBoundary([0, 1, 2]), FaceBoundary([0, 1, 3])
FLAG = coverkit.Flag(0, (0, 1), F012)
G2 = Graph(range(2), [(0, 1)])
G3 = Graph(range(3), [(0, 1), (1, 2)])
BALL = coverkit.RootedBall(G2, 0, 1, {0: 0, 1: 1})

# Per record: `a` and `b` give every field in constructor order, each `b`
# value valid with the other fields of `a`; `defaults` are the values a
# record built from `a`'s required fields alone reads; `repr` is that of
# the record built from `a`.  Fields the records never check take plain
# stand-ins.
SAMPLES = {
    "Flag": dict(
        a={"vertex": 0, "edge": (0, 1), "face": F012},
        b={"vertex": 1, "edge": (0, 2), "face": F013},
        defaults={},
        repr="Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 2))",
    ),
    "FundamentalDomain": dict(
        a={"flags": (FLAG,), "level": 1, "orbits": (frozenset({FLAG}),), "orbit_index": {FLAG: 0}},
        b={"flags": (), "level": 2, "orbits": (), "orbit_index": {}},
        defaults={},
        repr=(
            "FundamentalDomain(flags=(Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 2)),), level=1, "
            "orbits=(frozenset({Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 2))}),), "
            "orbit_index={Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 2)): 0})"
        ),
    ),
    "RootedBall": dict(
        a={"graph": G2, "root": 0, "radius": 1, "dist": {0: 0, 1: 1}},
        b={"graph": G3, "root": 1, "radius": 2, "dist": {0: 1, 1: 0}},
        defaults={},
        repr="RootedBall(graph=Graph(n=2, m=1), root=0, radius=1, dist={0: 0, 1: 1})",
    ),
    "_Lattice": dict(
        a={"name": "square", "schlafli": (4, 4), "steps": (((1, 0), (0, 1)),)},
        b={"name": "hex", "schlafli": (6, 3), "steps": ()},
        defaults={},
        repr="_Lattice(name='square', schlafli=(4, 4), steps=(((1, 0), (0, 1)),))",
    ),
    "QuotientSpec": dict(
        a={"kind": "torus", "m": 3, "n": 4, "s": 0},
        b={"kind": "klein", "m": 5, "n": 6, "s": 2},
        defaults={"s": 0},
        repr="QuotientSpec(kind='torus', m=3, n=4, s=0)",
    ),
    "ExampleK": dict(
        a={"l": 3, "k": 4, "graph": G2, "labels": {0: ("x", 0, 0)}},
        b={"l": 5, "k": 6, "graph": G3, "labels": {}},
        defaults={},
        repr="ExampleK(l=3, k=4, graph=Graph(n=2, m=1), labels={0: ('x', 0, 0)})",
    ),
    "ExampleG": dict(
        a={"k": 3, "z_lo": -1, "z_hi": 1, "graph": G2, "labels": {0: (0, -1, 0)}},
        b={"k": 4, "z_lo": 0, "z_hi": 2, "graph": G3, "labels": {}},
        defaults={},
        repr="ExampleG(k=3, z_lo=-1, z_hi=1, graph=Graph(n=2, m=1), labels={0: (0, -1, 0)})",
    ),
    "FaceCore": dict(
        a={"rooted": BALL, "faces": frozenset({F012})},
        b={"rooted": "ball", "faces": frozenset()},
        defaults={},
        repr=(
            "FaceCore(rooted=RootedBall(graph=Graph(n=2, m=1), root=0, radius=1, dist={0: 0, 1: 1}), "
            "faces=frozenset({FaceBoundary(0, 1, 2)}))"
        ),
    ),
    "Isomorphism": dict(
        a={"mapping": {0: 1, 1: 0}, "source_root": 0, "target_root": 1},
        b={"mapping": {}, "source_root": 2, "target_root": 3},
        defaults={},
        repr="Isomorphism(mapping={0: 1, 1: 0}, source_root=0, target_root=1)",
    ),
    "LocalCheckReport": dict(
        a={"ok": True, "failures": [], "mode": "ball"},
        b={"ok": False, "failures": [3], "mode": "core"},
        defaults={"failures": [], "mode": "ball"},
        repr="LocalCheckReport(ok=True, failures=[], mode='ball')",
    ),
    "CheckResult": dict(
        a={"name": "cover", "passed": True, "witnesses": [], "info": {}},
        b={"name": "uniqueness", "passed": False, "witnesses": [1], "info": {"n": 1}},
        defaults={"witnesses": [], "info": {}},
        repr="CheckResult(name='cover', passed=True, witnesses=[], info={})",
    ),
    "VerificationReport": dict(
        a={"checks": []},
        b={"checks": ["check"]},
        defaults={"checks": []},
        repr="VerificationReport(checks=[])",
    ),
    "PartialCover": dict(
        a={
            "coloring": "c",
            "host": "h",
            "vertex_map": {0: 0},
            "frontier": {(0, 1)},
            "pending": {F012: None},
            "face_image": {F013: F013},
            "domain_edges_at": {0: {(0, 1): (0, 1)}},
            "step": None,
        },
        b={
            "coloring": "c2",
            "host": "h2",
            "vertex_map": {},
            "frontier": set(),
            "pending": {},
            "face_image": {},
            "domain_edges_at": {},
            "step": (F012, [0, 1]),
        },
        defaults={"step": None},
        repr=(
            "PartialCover(coloring='c', host='h', vertex_map={0: 0}, frontier={(0, 1)}, "
            "pending={FaceBoundary(0, 1, 2): None}, face_image={FaceBoundary(0, 1, 3): FaceBoundary(0, 1, 3)}, "
            "domain_edges_at={0: {(0, 1): (0, 1)}}, step=None)"
        ),
    ),
    "CoverMap": dict(
        a={
            "patch": "g",
            "h": "h",
            "vertex_map": {0: 0},
            "seed": (FLAG, FLAG),
            "delta": "delta",
            "face_image": {F012: F012},
            "eligible": frozenset({F012}),
            "surjective": True,
        },
        b={
            "patch": "g2",
            "h": "h2",
            "vertex_map": {},
            "seed": (),
            "delta": "delta2",
            "face_image": {},
            "eligible": frozenset(),
            "surjective": False,
        },
        defaults={},
        repr=(
            "CoverMap(patch='g', h='h', vertex_map={0: 0}, seed=(Flag(vertex=0, edge=(0, 1), "
            "face=FaceBoundary(0, 1, 2)), Flag(vertex=0, edge=(0, 1), face=FaceBoundary(0, 1, 2))), "
            "delta='delta', face_image={FaceBoundary(0, 1, 2): FaceBoundary(0, 1, 2)}, "
            "eligible=frozenset({FaceBoundary(0, 1, 2)}), surjective=True)"
        ),
    ),
}

FROZEN = {"Flag", "RootedBall", "_Lattice", "QuotientSpec"}
HASH_LEAVES_OUT = {"RootedBall": {"dist"}}


def name_of(cls: type) -> str:
    return cls.__qualname__


def fields(cls: type) -> dict:
    return SAMPLES[cls.__qualname__]["a"]


def required(cls: type) -> dict:
    defaults = SAMPLES[cls.__qualname__]["defaults"]
    return {k: v for k, v in fields(cls).items() if k not in defaults}


def read(rec) -> dict:
    return {name: getattr(rec, name) for name in SAMPLES[type(rec).__qualname__]["a"]}


def test_every_record_has_a_sample():
    assert [name_of(cls) for cls in RECORDS] == sorted(SAMPLES)
    assert {name_of(cls) for cls in RECORDS if issubclass(cls, FrozenRecord)} == FROZEN


@pytest.mark.parametrize("cls", RECORDS, ids=name_of)
class TestRecordContract:
    def test_constructed_positionally_and_by_keyword(self, cls):
        a = fields(cls)
        by_position, by_keyword = cls(*a.values()), cls(**a)
        assert read(by_position) == a and read(by_keyword) == a
        first, rest = list(a)[0], {k: v for k, v in a.items() if k != list(a)[0]}
        assert read(cls(a[first], **rest)) == a

    def test_defaults_fill_what_is_left_out(self, cls):
        sample = SAMPLES[name_of(cls)]
        req = required(cls)
        for rec in (cls(*req.values()), cls(**req)):
            assert read(rec) == req | sample["defaults"]
        for name, value in sample["b"].items():
            if name in sample["defaults"]:
                assert getattr(cls(**req, **{name: value}), name) == value

    def test_default_lists_and_dicts_are_fresh(self, cls):
        req = required(cls)
        one, two = cls(**req), cls(**req)
        for name, default in SAMPLES[name_of(cls)]["defaults"].items():
            if isinstance(default, (list, dict)):
                assert getattr(one, name) == default and getattr(one, name) is not getattr(two, name)
                assert getattr(cls(**req, **{name: None}), name) == default

    def test_malformed_calls_are_type_errors(self, cls):
        a = fields(cls)
        with pytest.raises(TypeError):
            cls(*a.values(), "extra")
        with pytest.raises(TypeError):
            cls(**a, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*a.values(), **{list(a)[0]: list(a.values())[0]})
        if required(cls):
            with pytest.raises(TypeError):
                cls()

    def test_repr(self, cls):
        assert repr(cls(*fields(cls).values())) == SAMPLES[name_of(cls)]["repr"]

    def test_equality_and_hash(self, cls):
        a, b = fields(cls), SAMPLES[name_of(cls)]["b"]
        rec = cls(**a)
        assert rec == cls(**a) and not (rec != cls(**a))
        assert rec.__eq__(1) is NotImplemented and rec != 1 and rec != "x"
        left_out = HASH_LEAVES_OUT.get(name_of(cls), set())
        for name in a:
            other = cls(**(a | {name: b[name]}))
            assert (rec == other) is (name in left_out), name
        if name_of(cls) in FROZEN:
            key = tuple(v for k, v in a.items() if k not in left_out)
            assert hash(rec) == hash(cls(**a)) == hash(key)
            for name in left_out:
                assert hash(cls(**(a | {name: b[name]}))) == hash(rec)
        else:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(rec)

    def test_ordering(self, cls):
        rec = cls(**fields(cls))
        if cls is coverkit.Flag:
            return  # TestFlagOrdering
        for op in ("<", "<=", ">", ">="):
            with pytest.raises(TypeError, match=f"'{op}' not supported between instances of '{name_of(cls)}'"):
                eval(f"rec {op} rec")

    def test_assignment_and_deletion(self, cls):
        a = fields(cls)
        rec = cls(**a)
        name = list(a)[0]
        if name_of(cls) in FROZEN:
            for target in (name, "not_a_field"):
                with pytest.raises(AttributeError) as exc:
                    setattr(rec, target, 1)
                assert str(exc.value) == f"cannot assign to field {target!r}"
                with pytest.raises(AttributeError) as exc:
                    delattr(rec, target)
                assert str(exc.value) == f"cannot delete field {target!r}"
            assert read(rec) == a
        else:
            setattr(rec, name, "changed")
            assert getattr(rec, name) == "changed"
            for name in required(cls):
                delattr(rec, name)
                assert not hasattr(rec, name)


class TestFlagOrdering:
    """Flags of one class order by (vertex, edge, face); against another
    type each comparison is NotImplemented, so Python raises."""

    PAIRS = [
        (coverkit.Flag(0, (0, 1), F012), coverkit.Flag(1, (0, 1), F012)),
        (coverkit.Flag(0, (0, 1), F012), coverkit.Flag(0, (0, 2), F012)),
        (coverkit.Flag(1, (1, 2), F012), coverkit.Flag(2, (0, 2), F012)),
    ]

    def test_the_four_orderings(self):
        for lo, hi in self.PAIRS:
            assert lo < hi and lo <= hi and hi > lo and hi >= lo
            assert not (hi < lo or hi <= lo or lo > hi or lo >= hi)
            for f in (lo, hi):
                assert f <= f and f >= f and not (f < f or f > f)
        assert sorted(f for pair in self.PAIRS for f in pair)[0] == coverkit.Flag(0, (0, 1), F012)

    def test_comparison_with_an_int_raises(self):
        for op in ("<", "<=", ">", ">="):
            with pytest.raises(TypeError) as exc:
                eval(f"FLAG {op} 1")
            assert str(exc.value) == f"'{op}' not supported between instances of 'Flag' and 'int'"
            assert getattr(FLAG, {"<": "__lt__", "<=": "__le__", ">": "__gt__", ">=": "__ge__"}[op])(1) is NotImplemented


class TestRecordChecks:
    """The checks records make as they are built, with their messages in
    the order they are made."""

    @staticmethod
    def message(error: type, build) -> str:
        with pytest.raises(error) as exc:
            build()
        return str(exc.value)

    def test_flag(self):
        Flag = coverkit.Flag
        assert self.message(InputError, lambda: Flag(2, (0, 1), F012)) == "flag vertex 2 not on its edge (0, 1)"
        assert self.message(InputError, lambda: Flag(0, (0, 3), F012)) == (
            "flag edge (0, 3) not on its face FaceBoundary(0, 1, 2)"
        )
        assert self.message(InputError, lambda: Flag(face=F012, edge=(0, 3), vertex=2)) == (
            "flag vertex 2 not on its edge (0, 3)"
        )

    def test_rooted_ball(self):
        RootedBall = coverkit.RootedBall
        assert self.message(DefectError, lambda: RootedBall(G2, 0, 1, {0: 0, 1: 2})) == (
            "ball of radius 1 holds a vertex farther out"
        )
        assert self.message(DefectError, lambda: RootedBall(G2, 0, 0, dist={0: 0, 1: 1})) == (
            "ball of radius 0 holds a vertex farther out"
        )

    def test_quotient_spec(self):
        QuotientSpec = coverkit.QuotientSpec
        assert self.message(InputError, lambda: QuotientSpec("sphere", 3, 3)) == "unknown quotient kind 'sphere'"
        assert self.message(InputError, lambda: QuotientSpec("torus", 2, 5)) == (
            "quotient dimensions must be at least 3 to stay simple"
        )
        assert self.message(InputError, lambda: QuotientSpec("torus", 3, n=2, s=1)) == (
            "quotient dimensions must be at least 3 to stay simple"
        )
        assert self.message(InputError, lambda: QuotientSpec("sphere", 2, 2)) == "unknown quotient kind 'sphere'"


def test_graph_iterates_its_vertices_and_a_face_shows_its_cycle():
    assert list(G3) == [0, 1, 2] and list(Graph((), ())) == []
    assert repr(FaceBoundary([2, 0, 1])) == "FaceBoundary(0, 1, 2)"
