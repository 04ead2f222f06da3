import hashlib
import json

import pytest

import coverkit.cli as cli
import coverkit.flags
from coverkit import QuotientSpec, generate, make_quotient
from coverkit.cli import main

from .oracles import hub_patch
from .test_builder import squareoct_torus
from .test_flags import build_squareoct_patch


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_patch(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(["gen", "--p", "4", "--q", "4", "--radius", "4", "-o", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["root"] == 0 and doc["schlafli"] == [4, 4]

    def test_idempotent_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--p", "6", "--q", "3", "--radius", "3", "-o", str(a)], capsys)
        run(["gen", "--p", "6", "--q", "3", "--radius", "3", "-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_spherical_exit_2(self, tmp_path, capsys):
        code, _, err = run(["gen", "--p", "3", "--q", "3", "--radius", "2", "-o", str(tmp_path / "x.json")], capsys)
        assert code == 2
        assert "not 1-ended" in err


class TestInstance:
    def test_torus(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(["instance", "torus", "--m", "5", "--n", "7", "-o", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 35

    def test_paper_k(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        code, _, _ = run(["instance", "paper-k", "--l", "6", "--k", "4", "-o", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 48 and doc["labels"]["0"] == ["x", 0, 0]

    def test_degenerate_exit_2(self, tmp_path, capsys):
        code, _, _ = run(["instance", "torus", "--m", "2", "--n", "7", "-o", str(tmp_path / "t.json")], capsys)
        assert code == 2


class TestInternalError:
    def test_unhandled_exception_exit_4(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_instance", broken)
        code, out, err = run(["instance", "torus", "--m", "5", "--n", "7", "-o", str(tmp_path / "t.json")], capsys)
        assert code == 4 and out == ""
        diag = json.loads(err)  # the whole of stderr is one JSON diagnostic
        assert diag["error"] == "internal"
        assert diag["message"] == "RuntimeError: boom"
        assert diag["traceback"][-1] == "RuntimeError: boom"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    g, t = d / "g.json", d / "t57.json"
    assert main(["gen", "--p", "4", "--q", "4", "--radius", "10", "-o", str(g)]) == 0
    assert main(["instance", "torus", "--m", "5", "--n", "7", "-o", str(t)]) == 0
    return d, g, t


class TestPipeline:
    def test_cover_then_verify(self, artifacts, capsys):
        d, g, t = artifacts
        c = d / "c.json"
        code, _, _ = run(["cover", "--g", str(g), "--h", str(t), "-o", str(c)], capsys)
        assert code == 0
        doc = json.loads(c.read_text())
        assert doc["surjective"] is True
        code, out, _ = run(
            ["verify", "--cover", str(c), "--g", str(g), "--h", str(t), "--normality"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] and rep["rebuild_matches_file"] and rep["normality"]["ok"]

    def test_check_local_modes(self, artifacts, capsys):
        d, g, t = artifacts
        code, out, _ = run(["check-local", "--h", str(t), "--g", str(g), "--r", "2", "--d-balls"], capsys)
        assert code == 0 and json.loads(out)["ok"]
        code, out, _ = run(["check-local", "--h", str(t), "--g", str(g), "--r", "2"], capsys)
        assert code == 1 and not json.loads(out)["ok"]

    @pytest.mark.parametrize("mode", [[], ["--d-balls"]], ids=["balls", "cores"])
    def test_check_local_radius_zero_exit_2(self, artifacts, capsys, mode):
        # radius 0 compares single vertices, which checks nothing
        d, g, t = artifacts
        code, out, err = run(["check-local", "--h", str(t), "--g", str(g), "--r", "0", *mode], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "input", "message": "need r >= 1"}

    @pytest.mark.parametrize("mode", [[], ["--d-balls"]], ids=["balls", "cores"])
    def test_check_local_on_an_empty_target_exit_2(self, artifacts, capsys, mode):
        # a target with no vertices offers nothing to check, as in cover
        d, g, t = artifacts
        empty = d / "empty_h.json"
        empty.write_text(json.dumps({"n": 0, "edges": []}))
        code, out, err = run(["check-local", "--h", str(empty), "--g", str(g), "--r", "1", *mode], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "input", "message": "the target graph has no vertices"}

    def test_check_local_report_on_long_faces(self, tmp_path, capsys):
        # the hub patch's three faces have 11 vertices each; the report
        # digest was recorded before faces were read off the host's own
        # cycles (exit 1: every vertex but the hub fails)
        hub = tmp_path / "hub.json"
        hub.write_text(json.dumps(hub_patch(5)))
        code, out, _ = run(["check-local", "--h", str(hub), "--g", str(hub), "--r", "1", "--d-balls"], capsys)
        assert code == 1
        assert json.loads(out)["failures"] == list(range(1, 16))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "08332b20f57c76526ed11e9abc612c5ebd2ab5845300d741a35709052b52948e"
        )

    def test_a_disconnected_target_has_no_faces(self, artifacts, capsys):
        # two disjoint 5x7 tori: every short cycle leaves the other torus
        # as a second part, so no cycle is peripheral and no vertex has a
        # face; both commands refuse the target as an input error, which
        # names its component count, before any colour is compared
        d, g, t = artifacts
        torus = json.loads(t.read_text())
        n = torus["n"]
        two = d / "two_tori.json"
        two.write_text(json.dumps({"n": 2 * n, "edges": torus["edges"] + [[u + n, w + n] for u, w in torus["edges"]]}))
        refused = {"error": "input", "message": "the target graph is not connected: it has 2 components"}
        code, out, err = run(["cover", "--g", str(g), "--h", str(two), "-o", str(d / "two_cover.json")], capsys)
        assert (code, out, json.loads(err)) == (2, "", refused)
        assert not (d / "two_cover.json").exists()
        for d_balls in ([], ["--d-balls"]):
            code, out, err = run(["check-local", "--h", str(two), "--g", str(g), "--r", "2", *d_balls], capsys)
            assert (code, out, json.loads(err)) == (2, "", refused)

    def test_flags_stabilize(self, artifacts, capsys):
        d, g, t = artifacts
        code, out, _ = run(["flags", "--g", str(g)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 1 and doc["delta_size"] == 1

    def test_flags_override_n(self, artifacts, capsys):
        d, g, t = artifacts
        code, out, _ = run(["flags", "--g", str(g), "--n", "2"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_cover_with_explicit_seed(self, artifacts, capsys):
        d, g, t = artifacts
        c1, c2 = d / "s1.json", d / "s2.json"
        code, _, _ = run(["cover", "--g", str(g), "--h", str(t), "-o", str(c1)], capsys)
        assert code == 0
        seed = json.loads(c1.read_text())["seed"]
        code, _, _ = run(
            [
                "cover", "--g", str(g), "--h", str(t),
                "--seed-f", json.dumps(seed["f"]), "--seed-h", json.dumps(seed["h"]),
                "-o", str(c2),
            ],
            capsys,
        )
        assert code == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_one_sided_seed_builds_and_verifies(self, tmp_path, capsys):
        # the 4.8.8 root flags have colours 0, 1, 0, 1, 2, 2: --seed-f alone,
        # of colour 1, gets a target flag of colour 1 as its partner
        from coverkit import Host, flags_at

        patch = build_squareoct_patch(9)
        g, t, c = tmp_path / "g.json", tmp_path / "t.json", tmp_path / "c.json"
        g.write_text(json.dumps(patch.to_json_dict()))
        t.write_text(json.dumps(squareoct_torus(4, 4).to_json_dict()))
        f = flags_at(Host(patch), patch.root)[1].to_json_dict()
        code, _, _ = run(["cover", "--g", str(g), "--h", str(t), "--seed-f", json.dumps(f), "-o", str(c)], capsys)
        assert code == 0
        doc = json.loads(c.read_text())
        assert doc["seed"]["f"] == f and doc["surjective"] is True
        code, out, _ = run(["verify", "--cover", str(c), "--g", str(g), "--h", str(t)], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_inputs_never_mutated(self, artifacts, capsys):
        d, g, t = artifacts
        before = g.read_bytes(), t.read_bytes()
        run(["cover", "--g", str(g), "--h", str(t), "-o", str(d / "tmp.json")], capsys)
        assert (g.read_bytes(), t.read_bytes()) == before

    def test_patch_too_small_exit_3(self, tmp_path, capsys):
        # a {7,3} R=2 patch hosts the level-1 palette but not the cores of
        # level 2, so no level can be shown to repeat
        g = tmp_path / "small.json"
        run(["gen", "--p", "7", "--q", "3", "--radius", "2", "-o", str(g)], capsys)
        code, out, err = run(["flags", "--g", str(g)], capsys)
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "patch-too-small",
            "message": "patch too small: faces at boundary vertex 3 are not all known",
        }
        assert run(["flags", "--g", str(g), "--n", "1"], capsys)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["flags", "--g", "{g}"],
            ["cover", "--g", "{g}", "--h", "{t}", "-o", "{d}/c.json"],
            ["check-local", "--h", "{t}", "--g", "{g}", "--r", "2", "--d-balls"],
        ],
        ids=["flags", "cover", "check-local"],
    )
    def test_patch_without_faces_exit_3(self, artifacts, tmp_path, capsys, argv):
        # a lone edge traces one walk, the outer one: there is no face
        _, _, t = artifacts
        g = tmp_path / "edge.json"
        g.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "rotation": {"0": [1], "1": [0]}, "root": 0}))
        argv = [a.format(g=g, t=t, d=tmp_path) for a in argv]
        code, _, err = run(argv, capsys)
        assert code == 3
        assert json.loads(err)["error"] == "patch-too-small"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run(["flags", "--g", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_imported_patch_through_flags(self, tmp_path, capsys):
        # a user-supplied vertex-transitive plane graph with two face sizes
        patch = build_squareoct_patch(6)
        path = tmp_path / "squareoct.json"
        path.write_text(json.dumps(patch.to_json_dict()))
        code, out, _ = run(["flags", "--g", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["delta_size"] == 3
        lengths = sorted(len(f["face"]) for f in doc["delta"])
        assert lengths == [4, 8, 8]

    def test_a_degree_2_root_fails_at_its_corner(self, tmp_path, capsys):
        # a new vertex 141 on the root edge (0,3) of a {4,4} R=6 patch, as
        # the root: both of its faces hold both of its edges, so the
        # corner check refuses it before the flag cycle could repeat a flag
        doc = generate(4, 4, 6).to_json_dict()
        new, rotation = doc["n"], doc["rotation"]
        rotation["0"] = [new if u == 3 else u for u in rotation["0"]]
        rotation["3"] = [new if u == 0 else u for u in rotation["3"]]
        rotation[str(new)] = [0, 3]
        sub = tmp_path / "subdivided.json"
        sub.write_text(json.dumps({
            "n": new + 1,
            "edges": [e for e in doc["edges"] if e != [0, 3]] + [[0, new], [3, new]],
            "rotation": rotation,
            "root": new,
        }))
        code, out, err = run(["flags", "--g", str(sub)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "verification", "message": "corner (0,3) at 141 has 2 faces"}

    def test_no_eligible_face_exit_3(self, artifacts, tmp_path, capsys):
        # every face of a {4,4} R=3 patch touches a vertex of complete_radius < 2
        g = tmp_path / "g3.json"
        assert main(["gen", "--p", "4", "--q", "4", "--radius", "3", "-o", str(g)]) == 0
        _, _, t = artifacts
        code, _, err = run(["cover", "--g", str(g), "--h", str(t), "-o", str(tmp_path / "c.json")], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "patch-too-small"

    def test_margin_seed_exit_2(self, artifacts, capsys):
        # a colour-matched seed pair whose patch face has a vertex at
        # complete_radius 1: the patch is large enough, the seed is not
        d, g, t = artifacts
        f = {"v": 81, "e": [81, 109], "face": [81, 109, 141, 113]}
        fh = {"v": 0, "e": [0, 1], "face": [0, 1, 8, 7]}
        assert min(json.loads(g.read_text())["complete_radius"][str(v)] for v in f["face"]) == 1
        code, _, err = run(
            [
                "cover", "--g", str(g), "--h", str(t),
                "--seed-f", json.dumps(f), "--seed-h", json.dumps(fh),
                "-o", str(d / "m.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "too close to the patch margin" in json.loads(err)["message"]


def _cover_with_int_map(d, g, t):
    cov = d / "c5.json"
    assert main(["cover", "--g", str(g), "--h", str(t), "-o", str(cov)]) == 0
    doc = json.loads(cov.read_text())
    doc["map"] = 5
    cov.write_text(json.dumps(doc))
    return ["verify", "--cover", str(cov), "--g", str(g), "--h", str(t)]


def _cover_with_unparsable_seed(d, g, t):
    return ["cover", "--g", str(g), "--h", str(t), "--seed-f", "notjson", "-o", str(d / "x.json")]


def _cover_with_seed_face_not_in_target(d, g, t):
    fh = {"v": 0, "e": [0, 1], "face": [0, 1, 2, 3]}  # a path of the torus, closed up
    return ["cover", "--g", str(g), "--h", str(t), "--seed-h", json.dumps(fh), "-o", str(d / "x.json")]


def _cover_onto_empty_graph(d, g, t):
    empty = d / "empty.json"
    empty.write_text(json.dumps({"n": 0, "edges": []}))
    return ["cover", "--g", str(g), "--h", str(empty), "-o", str(d / "x.json")]


def _verify_argv(d, g, t, *options):
    cov = d / "cv.json"
    if not cov.exists():
        assert main(["cover", "--g", str(g), "--h", str(t), "-o", str(cov)]) == 0
    return ["verify", "--cover", str(cov), "--g", str(g), "--h", str(t), *options]


def _verify_with_zero_samples(d, g, t):
    # the fibres of this cover hold 2 to 4 vertices: an empty sample
    # must not read as trivial normality
    return _verify_argv(d, g, t, "--normality", "--samples", "0")


def _verify_with_negative_samples(d, g, t):
    return _verify_argv(d, g, t, "--normality", "--samples", "-1")


def _with(path, out, change):
    """A copy of the JSON file at path, written to out after change(doc)."""
    doc = json.loads(path.read_text())
    change(doc)
    out.write_text(json.dumps(doc))
    return str(out)


def _verify_changed_cover(d, g, t, change):
    argv = _verify_argv(d, g, t)
    argv[2] = _with(d / "cv.json", d / "changed_cover.json", change)
    return argv


def _cover_changed_target(d, g, t, change):
    return ["cover", "--g", str(g), "--h", _with(t, d / "changed_t.json", change), "-o", str(d / "x.json")]


def _verify_with_float_n(d, g, t):
    # a bool or a float where an integer is due is refused, not truncated
    return _verify_changed_cover(d, g, t, lambda doc: doc.update(n=1.7))


def _verify_with_bool_n(d, g, t):
    return _verify_changed_cover(d, g, t, lambda doc: doc.update(n=True))


def _verify_with_float_seed_vertex(d, g, t):
    return _verify_changed_cover(d, g, t, lambda doc: doc["seed"]["f"].update(v=0.0))


def _cover_onto_float_n(d, g, t):
    return _cover_changed_target(d, g, t, lambda doc: doc.update(n=35.9))


def _cover_onto_float_edge_end(d, g, t):
    def change(doc):
        doc["edges"][0][0] = 0.0

    return _cover_changed_target(d, g, t, change)


def _cover_from_float_root(d, g, t):
    patch = _with(g, d / "changed_g.json", lambda doc: doc.update(root=0.4))
    return ["cover", "--g", patch, "--h", str(t), "-o", str(d / "x.json")]


def _check_local_on_negative_n(d, g, t):
    empty = _with(t, d / "negative_n.json", lambda doc: doc.update(n=-1, edges=[]))
    return ["check-local", "--h", empty, "--g", str(g), "--r", "1"]


def _check_local_on_deeply_nested_json(d, g, t):
    deep = d / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return ["check-local", "--h", str(deep), "--g", str(g), "--r", "1"]


def _check_local_on_non_utf8_file(d, g, t):
    latin = d / "latin.json"
    latin.write_bytes(b'{"n": 1, "edges": [], "name": "\xe9"}')
    return ["check-local", "--h", str(latin), "--g", str(g), "--r", "1"]


class TestBadInputs:
    @pytest.mark.parametrize(
        "make_argv",
        [
            _cover_with_int_map,
            _cover_with_unparsable_seed,
            _cover_with_seed_face_not_in_target,
            _cover_onto_empty_graph,
            _verify_with_zero_samples,
            _verify_with_negative_samples,
            _verify_with_float_n,
            _verify_with_bool_n,
            _verify_with_float_seed_vertex,
            _cover_onto_float_n,
            _cover_onto_float_edge_end,
            _cover_from_float_root,
            _check_local_on_negative_n,
            _check_local_on_deeply_nested_json,
            _check_local_on_non_utf8_file,
        ],
    )
    def test_input_error_exit_2(self, artifacts, capsys, make_argv):
        code, _, err = run(make_argv(*artifacts), capsys)
        assert code == 2
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("option", ["--seed-h", "--seed-f"])
    def test_a_lone_seed_flag_off_its_faces_exit_2(self, artifacts, capsys, option):
        # no flag of the hex torus has a colour of the {4,4} patch, so
        # looking up the missing seed flag would fail (exit 1); a lone
        # flag off its graph's faces is refused before any lookup
        d, g, _ = artifacts
        hex_torus = d / "hex55.json"
        if not hex_torus.exists():
            assert main(["instance", "hex-torus", "--m", "5", "--n", "5", "-o", str(hex_torus)]) == 0
        flag = json.dumps({"v": 0, "e": [0, 1], "face": [0, 1, 2]})
        argv = ["cover", "--g", str(g), "--h", str(hex_torus), option, flag, "-o", str(d / "x.json")]
        code, stdout, err = run(argv, capsys)
        assert code == 2 and stdout == ""
        assert json.loads(err) == {"error": "input", "message": "a seed flag's face is not a face of its graph"}


class TestVerifyMargin:
    @pytest.mark.parametrize("margin", ["0", "1", "100"])
    def test_the_margin_is_not_an_option(self, artifacts, capsys, margin):
        # check_cover checks every vertex of complete radius 1 or more; the
        # option that set another margin is gone, so argparse refuses it
        with pytest.raises(SystemExit) as done:
            main(_verify_argv(*artifacts, "--margin", margin))
        assert done.value.code == 2
        assert "unrecognized arguments: --margin" in capsys.readouterr().err

    def test_the_report_keeps_margin_1(self, artifacts, capsys):
        code, out, _ = run(_verify_argv(*artifacts), capsys)
        bijections = json.loads(out)["cover"]["checks"][0]
        assert code == 0 and bijections["name"] == "neighbourhood bijections"
        assert bijections["info"]["margin"] == 1 and bijections["info"]["checked"] > 100


class TestOneNormalitySampler:
    def test_exhaustive_is_not_an_option(self, artifacts, capsys):
        # a sample at least the pair count checks every pair, so the
        # option that asked for every pair is gone and argparse refuses it
        with pytest.raises(SystemExit) as done:
            main(_verify_argv(*artifacts, "--normality", "--exhaustive"))
        assert done.value.code == 2
        assert "unrecognized arguments: --exhaustive" in capsys.readouterr().err

    def test_a_large_sample_checks_every_pair(self, artifacts, capsys):
        code, out, _ = run(_verify_argv(*artifacts, "--normality", "--samples", "1000000"), capsys)
        normality = json.loads(out)["normality"]
        assert code == 0 and normality["ok"]
        assert normality["checks"][0]["info"] == {"pairs": 67}


class TestFlagsAndCoverAgree:
    """`flags` finds n as `cover` does, through `stabilize_n`, so the two
    commands read the same palette; --n is the one override of both.  The
    stabilisation window is fixed, so its former options exit 2."""

    # sha256 of the `flags --g P` output, each recorded from `flags --g P
    # --stabilize` before the window options were removed; a target of
    # None is the patch itself, read as a plain graph
    CASES = {
        "{4,4} R=10": (lambda: generate(4, 4, 10), lambda: make_quotient(QuotientSpec("torus", 5, 7)).graph,
                       "974edb4c35b0ed348d6f9ffc38bab4542172609aa7e093aceccb13975a68d90a"),
        "{6,3} R=10": (lambda: generate(6, 3, 10), lambda: make_quotient(QuotientSpec("hex_torus", 5, 5)).graph,
                       "a658149787484f07aabc20d34053af153a871a341f97600865b72f775b676deb"),
        "{3,7} R=4": (lambda: generate(3, 7, 4), None,
                      "50e1ead295d4d3ad5248030a1c946b54c16d6561596561c71d12a69b50fec229"),
        "{4,5} R=4": (lambda: generate(4, 5, 4), None,
                      "dc309ad59f492f94d2684c1fa8e19acc8151c82ac40870297c2b6e7ae8caca06"),
        "4.8.8 R=9": (lambda: build_squareoct_patch(9), lambda: squareoct_torus(4, 4),
                      "ace10f6b2c7719adcf1a1c9bd8c389aaac7059fa4e13199182eab9aa2b0030b3"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_prints_the_n_that_cover_writes(self, case, tmp_path, capsys):
        make_patch, make_target, digest = self.CASES[case]
        g, c = tmp_path / "g.json", tmp_path / "c.json"
        g.write_text(json.dumps(make_patch().to_json_dict()))
        h = g
        if make_target is not None:
            h = tmp_path / "h.json"
            h.write_text(json.dumps(make_target().to_json_dict()))
        code, out, _ = run(["flags", "--g", str(g)], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        assert run(["cover", "--g", str(g), "--h", str(h), "-o", str(c)], capsys)[0] == 0
        assert json.loads(out)["n"] == json.loads(c.read_text())["n"]

    def test_both_commands_read_n_from_stabilize_n(self, artifacts, capsys, monkeypatch):
        # a level-1 partition made to differ from level 2 moves the
        # stabilised n to 2 in both commands, and --n still overrides it
        d, g, t = artifacts
        real = coverkit.flags.flag_orbit_partition
        monkeypatch.setattr(coverkit.flags, "flag_orbit_partition", lambda p, i: () if i == 1 else real(p, i))
        code, out, _ = run(["flags", "--g", str(g)], capsys)
        assert code == 0 and json.loads(out)["n"] == 2
        assert run(["cover", "--g", str(g), "--h", str(t), "-o", str(d / "n2.json")], capsys)[0] == 0
        assert json.loads((d / "n2.json").read_text())["n"] == 2
        assert json.loads(run(["flags", "--g", str(g), "--n", "3"], capsys)[1])["n"] == 3

    @pytest.mark.parametrize("option", [["--stabilize"], ["--i-max", "4"], ["--guard", "2"]], ids=lambda o: o[0])
    def test_the_window_is_not_an_option(self, artifacts, capsys, option):
        _, g, _ = artifacts
        with pytest.raises(SystemExit) as done:
            main(["flags", "--g", str(g), *option])
        assert done.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class TestUnwritableOutput:
    # an output path in a missing directory, or one that is a directory,
    # is the caller's mistake: exit 2 with an input diagnostic, not a
    # traceback
    @pytest.mark.parametrize("cmd", ["gen", "instance", "cover"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_input_error_exit_2(self, artifacts, tmp_path, capsys, cmd, where):
        _, g, t = artifacts
        out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        argv = {
            "gen": ["gen", "--p", "4", "--q", "4", "--radius", "3"],
            "instance": ["instance", "torus", "--m", "5", "--n", "7"],
            "cover": ["cover", "--g", str(g), "--h", str(t)],
        }[cmd]
        code, stdout, err = run([*argv, "-o", str(out)], capsys)
        assert code == 2 and stdout == ""
        diag = json.loads(err)
        assert diag["error"] == "input" and "traceback" not in diag
        assert diag["message"].startswith(f"cannot write {out}: ")


class TestMalformedPatch:
    @pytest.mark.parametrize("cmd", ["check-local", "cover"])
    @pytest.mark.parametrize("field, key", [("rotation", "1_0"), ("rotation", "01"), ("complete_radius", "+5")])
    def test_non_canonical_vertex_key_exit_2(self, tmp_path, capsys, cmd, field, key):
        g, t, bad = tmp_path / "g.json", tmp_path / "t.json", tmp_path / "bad.json"
        assert main(["gen", "--p", "4", "--q", "4", "--radius", "2", "-o", str(g)]) == 0
        assert main(["instance", "torus", "--m", "5", "--n", "7", "-o", str(t)]) == 0
        doc = json.loads(g.read_text())
        entries, vertex = doc[field], str(int(key))
        entries[key] = entries[vertex] if key == "01" else entries.pop(vertex)
        bad.write_text(json.dumps(doc))
        extra = ["-o", str(tmp_path / "c.json")] if cmd == "cover" else ["--r", "1"]
        code, stdout, err = run([cmd, "--g", str(bad), "--h", str(t), *extra], capsys)
        assert code == 2 and stdout == ""
        diag = json.loads(err)
        assert diag["error"] == "input" and diag["message"] == f"{field} key '{key}' is not a vertex id"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("complete_radius", "x"),
            ("schlafli", 5),
            ("schlafli", ["x", 4]),
            ("schlafli", [4]),
            ("faces", 7),
            ("faces", [[0, 1, "x"]]),
            ("outer", 3),
            ("outer", ["a"]),
            ("rotation", [1, 2]),
            ("schlafli", [3, 4]),
            ("schlafli", [4, 5]),
        ],
    )
    def test_input_error_exit_2(self, tmp_path, capsys, field, value):
        g = tmp_path / "g.json"
        assert main(["gen", "--p", "4", "--q", "4", "--radius", "3", "-o", str(g)]) == 0
        doc = json.loads(g.read_text())
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["flags", "--g", str(bad)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "input"
