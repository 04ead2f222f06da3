import pytest

import coverkit.builder as builder
from coverkit import QuotientSpec, generate, make_quotient

pytest.register_assert_rewrite("tests.oracles")

from .oracles import assert_frontier_cycle, intersection_path_by_adjacency  # noqa: E402 (imported once the hook is set)


@pytest.fixture(autouse=True, scope="session")
def frontier_oracle():
    """Every build in the suite checks the whole frontier after every
    absorbed face, the seed included; the builder itself checks only the
    absorbed face's shared path.  The step record must hold that face
    with the adjacency-walk reference path (none for the seed, whose
    frontier is empty), so a stale or missing record fails.  The same
    check holds the ledger to account: the pending and the absorbed faces
    split the eligible ones.  Explicit raises, so the checks stay live
    under python -O."""
    absorb = builder._absorb_face

    def checked(state, face, image):
        want = intersection_path_by_adjacency(face, state)
        if state.step != (None if want is None else (face, want)):
            raise AssertionError(f"the step record is {state.step}; the reference path of {face} is {want}")
        absorb(state, face, image)
        assert_frontier_cycle(state.frontier)
        pending, absorbed = set(state.pending), set(state.face_image)
        if pending & absorbed or pending | absorbed != state.coloring.eligible:
            raise AssertionError("the pending and the absorbed faces do not split the eligible ones")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "_absorb_face", checked)
        yield


@pytest.fixture(scope="session")
def patch44_r6():
    return generate(4, 4, 6)


@pytest.fixture(scope="session")
def patch44_r10():
    return generate(4, 4, 10)


@pytest.fixture(scope="session")
def patch63_r10():
    return generate(6, 3, 10)


@pytest.fixture(scope="session")
def patch45_r5():
    return generate(4, 5, 5)


@pytest.fixture(scope="session")
def torus57():
    return make_quotient(QuotientSpec("torus", 5, 7))


@pytest.fixture(scope="session")
def torus67():
    return make_quotient(QuotientSpec("torus", 6, 7))


@pytest.fixture(scope="session")
def klein66():
    return make_quotient(QuotientSpec("klein", 6, 6))


@pytest.fixture(scope="session")
def hex55():
    return make_quotient(QuotientSpec("hex_torus", 5, 5))
