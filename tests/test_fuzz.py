"""Mutated JSON inputs through the command line.

A valid graph, patch or cover file has one of its values replaced by
arbitrary JSON, or deleted, and is fed to `cli.main`.  The program may
refuse it (exit 1, 2 or 3) or accept it (exit 0), but it must never fail
with an internal error (exit 4).  Hypothesis runs derandomized, so the
examples are the same on every run.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from coverkit.cli import main  # noqa: E402

EXIT_CODES = {0, 1, 2, 3}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 80) | st.floats(-2, 80) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)

FUZZ = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _slots(box: list) -> list[tuple]:
    """Every (container, key) of the document held in box[0], the slot of
    the whole document first."""
    out, stack = [], [(box, 0)]
    while stack:
        parent, key = stack.pop()
        out.append((parent, key))
        node = parent[key]
        if isinstance(node, dict):
            stack.extend((node, k) for k in node)
        elif isinstance(node, list):
            stack.extend((node, i) for i in range(len(node)))
    return out


@st.composite
def mutated(draw, text: str):
    """The JSON text with one slot replaced, or deleted: a top-level
    field half of the time, any slot at all otherwise."""
    box = [json.loads(text)]
    slots = _slots(box)
    top = [s for s in slots if s[0] is box[0]]
    parent, key = draw(st.sampled_from(top) | st.sampled_from(slots))
    if parent is not box and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(box[0])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    g, t, c = d / "g.json", d / "t.json", d / "c.json"
    assert main(["gen", "--p", "4", "--q", "4", "--radius", "5", "-o", str(g)]) == 0
    assert main(["instance", "torus", "--m", "5", "--n", "7", "-o", str(t)]) == 0
    assert main(["cover", "--g", str(g), "--h", str(t), "-o", str(c)]) == 0
    return d, g, t, c


def _run(files, doc: str, argv) -> tuple[int, str]:
    """The exit code and the stderr of the command, with the mutated
    document in place of BAD."""
    bad = files[0] / "bad.json"
    bad.write_text(doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(bad) if a == "BAD" else a for a in argv])
    return code, err.getvalue()


class TestMutatedInputs:
    @FUZZ
    @given(data=st.data())
    def test_graph(self, files, data):
        d, g, t, _ = files
        doc = data.draw(mutated(t.read_text()))
        code, err = _run(files, doc, ["cover", "--g", str(g), "--h", "BAD", "-o", str(d / "out.json")])
        assert code in EXIT_CODES, err

    @FUZZ
    @given(data=st.data())
    def test_patch(self, files, data):
        d, g, t, _ = files
        doc = data.draw(mutated(g.read_text()))
        code, err = _run(files, doc, ["cover", "--g", "BAD", "--h", str(t), "-o", str(d / "out.json")])
        assert code in EXIT_CODES, err

    @FUZZ
    @given(data=st.data())
    def test_cover(self, files, data):
        _, g, t, c = files
        doc = data.draw(mutated(c.read_text()))
        code, err = _run(files, doc, ["verify", "--cover", "BAD", "--g", str(g), "--h", str(t)])
        assert code in EXIT_CODES, err
