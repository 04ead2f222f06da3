"""Exception types shared across the package.

The CLI maps these onto process exit codes: InputError -> 2,
PatchTooSmallError -> 3, HypothesisViolationError and DefectError -> 1;
any other exception is an internal error, exit code 4.
"""


class CoverKitError(Exception):
    """Base class for all coverkit errors."""


class InputError(CoverKitError):
    """Malformed or out-of-range input (bad file, bad parameters)."""


class PatchTooSmallError(CoverKitError):
    """A computation needed more of the tessellation than the patch holds.

    Raised instead of silently truncating; the remedy is to regenerate
    with a larger radius.
    """


class HypothesisViolationError(CoverKitError):
    """The target graph failed a check that holds for genuinely locally-G
    inputs (missing or ambiguous face match, color mismatch, broken
    invariant during cover extension)."""


class DefectError(CoverKitError):
    """Structural defect in a patch: an automorphism or local isomorphism
    mapped a face to a non-face.  Indicates a bad import rather than a bad
    cover target."""
