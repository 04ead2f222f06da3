"""coverkit: covering maps from plane tessellations onto locally
isomorphic graphs.

Generate finite patches of regular {p,q} tessellations, infer the facial
structure of locally planar graphs without an embedding, colour flags via
fundamental domains, build covering maps face by face, and verify the
results (cover property, uniqueness, normality) against independent
oracles.
"""

__version__ = "0.1.0"

from .builder import (
    CoverMap,
    CoverRun,
    PartialCover,
    build_cover,
    default_seed,
    extend_cover,
    init_cover,
    match_face,
    select_next_face,
)
from .errors import (
    CoverKitError,
    DefectError,
    HypothesisViolationError,
    InputError,
    PatchTooSmallError,
)
from .flags import (
    Coloring,
    Flag,
    FundamentalDomain,
    color,
    color_in_h,
    extend_iso,
    flag_orbit_partition,
    flags_at,
    i_fundamental_domain,
    stabilize_n,
)
from .graph import (
    Graph,
    RootedBall,
    ball,
    induced_subgraph,
    is_connected_excluding,
)
from .instances import (
    ExampleG,
    ExampleK,
    QuotientInstance,
    QuotientSpec,
    check_K_ball_claim,
    closed_form_projection,
    deck_generators,
    example_cover_formula,
    hex_lattice_coordinates,
    is_vertex_transitive,
    make_example_G_patch,
    make_example_K,
    make_quotient,
    square_lattice_coordinates,
)
from .local import (
    FaceCore,
    Host,
    Isomorphism,
    LocalCheckReport,
    dk_ball,
    face_boundaries_at,
    face_core,
    is_r_locally,
    peripheral_cycles_through,
    rooted_isomorphisms,
)
from .report import CheckResult, VerificationReport
from .tessellation import (
    FaceBoundary,
    PlanePatch,
    face_enumeration,
    generate,
    import_patch,
    trace_faces,
)
from .verify import check_cover, check_normality, check_uniqueness
