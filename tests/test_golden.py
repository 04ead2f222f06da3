"""Golden digests of the lattice quotients, their closed-form oracles and
the generated patches.

Each quotient digest is the sha256 of an output recorded before the
square and hexagonal lattices shared one description; any drift in the
instance files, the projections, the deck maps or the lattice
coordinates shows here.  `_digest` keeps dict order, so a reordered map
fails too.  The first four `gen` digests were recorded before the
generator built its patch through the trusted constructors, the other
five before it grew each layer from the one before instead of a BFS
over the whole patch.
"""

import hashlib
import json

import pytest

from coverkit import (
    DefectError,
    InputError,
    PlanePatch,
    QuotientSpec,
    closed_form_projection,
    deck_generators,
    hex_lattice_coordinates,
    make_quotient,
    square_lattice_coordinates,
)
from coverkit.cli import main


def _digest(obj) -> str:
    if isinstance(obj, dict):
        obj = list(obj.items())
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


INSTANCE_FILES = {
    "torus --m 5 --n 7":
        "06fc92e796af0625d9b149050eb1143ac2cf7557bbcafdeea9c50bdc6e29e8e9",
    "torus --m 3 --n 3":
        "d8dc0b31c7420fe6551decf87338427e2141db6975ed7fd7cfbd42d879a987cd",
    "klein --m 6 --n 6":
        "98ac9491998cda4f4bf6c5fb253dc6e866e7516d0d24114ee609be7486f9b9e5",
    "klein --m 3 --n 4":
        "0823fd4e84e2f1eb383fc2beb34e8cbcd33baa172055f027ff2935352ee647e1",
    "klein --m 12 --n 12":
        "ac6d13f79fb281eabb7ca1b010bd6259d8a4bec0a24fecf69d730f5268f3e18b",
    "twisted --m 5 --n 5 --s 2":
        "1bb5b5815d2ef54bd7793d9f4f4151d6ee2895faa0545b3351d6e1b25b622bae",
    "twisted --m 4 --n 6 --s -3":
        "3004c9f07cc07ded30528e25ee0888460b4792080b3ae5be70f43c840d7f2ce4",
    "hex-torus --m 5 --n 5":
        "c0b8d48d501c84695c5ab6d4b19378daf7231a178f96f23b1e55fdb8dbb18d39",
    "hex-torus --m 3 --n 4":
        "3e9871161a646fabfae17ab61ca397f4d590f6654cbf14f7c9242a3e7dd8490f",
    "paper-k --l 6 --k 4":
        "f421e429855a3b1697fb4c375238f6bb5217da28221b47c781d686986d772ccb",
}


@pytest.mark.parametrize("case", sorted(INSTANCE_FILES))
def test_instance_file_bytes(case, tmp_path):
    out = tmp_path / "inst.json"
    assert main(["instance", *case.split(), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INSTANCE_FILES[case]


GEN_FILES = {
    "--p 3 --q 7 --radius 7":
        "82718a140f9c3faec77b91fa1b1ddd20121139aa15cf590f89ae41a04b6ab576",
    "--p 4 --q 4 --radius 16":
        "6563e0b39d5d2958c59bca445427b52f3f93d45d5425031b0cce9ec30b8f5595",
    "--p 6 --q 3 --radius 12":
        "e23195d3782870b28dc9dde447dce69a3b15c9664346949f2db8c9971d96bd19",
    "--p 4 --q 5 --radius 5":
        "84bad98cca0e6144064593f963e4b053e448796b739996b64188b35593053c1d",
    "--p 5 --q 4 --radius 4":
        "3c0e29e97caa1392f49016a56c27d6d6fb2e624a17c1f2289a17d948d1bcb79b",
    "--p 7 --q 3 --radius 6":
        "91059525329b75a10d7e0f670b9c4dead6a030fa1f88bc64673e8f3d47e70f0a",
    "--p 3 --q 8 --radius 4":
        "8aa4bfd140a8bbdc00911e8514ac042f95cabac183fc82bb97eba67d5a44db7c",
    "--p 4 --q 4 --radius 1":
        "db79b62cc045ba3298d3f9f93a68b502ff2a159ee82f7c2973488fe10a825981",
    "--p 3 --q 7 --radius 1":
        "d8c45a457b7d768dc38c3d280bb1d7e4b2fbf82a1ff0cf2097bf858b32b62840",
}


@pytest.mark.parametrize("case", list(GEN_FILES))
def test_gen_file_bytes(case, tmp_path):
    out = tmp_path / "patch.json"
    assert main(["gen", *case.split(), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_FILES[case]


SQUARE_SPECS = {  # spec: (projection digest, deck maps digest)
    QuotientSpec("torus", 5, 7): (
        "c1cc1d29802e01b8fdf58e36b22d781a8365fdb3c7e2c714bfd2d9529727b9b8",
        "54f1fd7e931dac1e3c2ddc78ae68c9dcff48af3e979f2f605a5e2b932111cb66",
    ),
    QuotientSpec("klein", 6, 6): (
        "d2c8198ecd3a8d0ebf8e8bb55458055a62b33fe6a9bdd2bbeaff7be269611473",
        "744607627a2e1ac727797a3ad5f29e08ebfc395b7ed981ed24c9bdd8f9e184fc",
    ),
    QuotientSpec("twisted_torus", 5, 5, 2): (
        "6a9af6c4f43e3b2468a5c6ccd90ce67c428ce16ef9c81eed91023e84da6b0a52",
        "041ecb4e57be0b7fdd7b1a1c00618edfcb082f6d4937ac0d55693fccc3829af8",
    ),
}


@pytest.mark.parametrize("spec", list(SQUARE_SPECS), ids=lambda spec: f"{spec.kind}-{spec.m}x{spec.n}")
def test_square_projection_and_deck_maps(spec, patch44_r10):
    want_proj, want_deck = SQUARE_SPECS[spec]
    inst = make_quotient(spec)
    assert _digest(closed_form_projection(inst, patch44_r10)) == want_proj
    assert _digest([list(g.items()) for g in deck_generators(inst, patch44_r10)]) == want_deck


def test_hex_projection_and_deck_maps(patch63_r10, hex55):
    assert _digest(closed_form_projection(hex55, patch63_r10)) == (
        "6447062c17278263de3ed397bbdb6aaae1eb79b82780e25bd5031964d62fb7f3"
    )
    assert _digest([list(g.items()) for g in deck_generators(hex55, patch63_r10)]) == (
        "547cdfe996ddf409b8b59138c960d9fb8fb4b771f3c122010063536e5c6a5238"
    )


def test_lattice_coordinates(patch44_r10, patch63_r10):
    assert _digest(square_lattice_coordinates(patch44_r10)) == (
        "3c5c432f6d1abd5a8eef4b897bd7330e33839dfe823e3b3ec26ce6f8dfc2efde"
    )
    assert _digest(hex_lattice_coordinates(patch63_r10)) == (
        "c7c7b38757ef4515c99a272ff2ec6e527cc8ac28195934e0d6036bb42bbac9d0"
    )


def test_project_square(torus57, klein66):
    tw = make_quotient(QuotientSpec("twisted_torus", 5, 5, 2))
    points = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]
    got = [[inst.project_square(x, y) for x, y in points] for inst in (torus57, klein66, tw)]
    assert _digest(got) == "0520483ee3491488843cb8347b06b05cb2e5f872e1fdaeb2782210060c04684a"


def test_errors_keep_their_class_and_message(patch44_r10, patch63_r10, hex55, torus57):
    with pytest.raises(InputError, match=r"^square coordinates need a \{4,4\} patch$"):
        square_lattice_coordinates(patch63_r10)
    with pytest.raises(InputError, match=r"^hex coordinates need a \{6,3\} patch$"):
        hex_lattice_coordinates(patch44_r10)
    with pytest.raises(InputError, match=r"^hex coordinates need a \{6,3\} patch$"):
        closed_form_projection(hex55, patch44_r10)
    with pytest.raises(InputError, match=r"^square coordinates need a \{4,4\} patch$"):
        deck_generators(torus57, patch63_r10)
    with pytest.raises(InputError, match=r"^quotient dimensions must be at least 3 to stay simple$"):
        make_quotient(QuotientSpec("hex_torus", 3, 2))
    with pytest.raises(InputError, match=r"^unknown quotient kind 'hex'$"):
        make_quotient(QuotientSpec("hex", 3, 3))


@pytest.mark.parametrize("schlafli", [(4, 4), (6, 3)])
def test_bent_rotation_admits_no_coordinates(schlafli, patch44_r10, patch63_r10):
    patch = patch44_r10 if schlafli == (4, 4) else patch63_r10
    rotation = list(patch.rotation)
    first, second, *rest = rotation[patch.root]
    rotation[patch.root] = (second, first, *rest)
    bent = PlanePatch(
        patch.graph, patch.root, rotation, patch.faces, patch.outer, patch.complete_radius, patch.schlafli
    )
    coordinates, name = (
        (square_lattice_coordinates, "square") if schlafli == (4, 4) else (hex_lattice_coordinates, "hex")
    )
    with pytest.raises(DefectError, match=f"^patch rotation admits no {name}-lattice coordinates$"):
        coordinates(bent)
