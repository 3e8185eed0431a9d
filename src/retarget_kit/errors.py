"""Exception hierarchy shared across the package.

Two broad families: ValidationError for bad inputs (malformed files,
mismatched shapes, unresolvable names) and NumericError for failures that
arise during computation. The CLI maps these to exit codes 2 and 3.
"""


class RetargetKitError(Exception):
    pass


class ValidationError(RetargetKitError):
    pass


class NumericError(RetargetKitError):
    pass


# --- rotations ---------------------------------------------------------


class DegenerateBone(ValidationError):
    """Bone vector too short to define a direction."""


class RankDeficient(ValidationError):
    """Point sets do not pin down a unique rotation."""


class DegenerateFrame(ValidationError):
    """A zero quaternion, a zero axis at a nonzero angle, or a matrix not in SO(3)."""


# --- skeleton ----------------------------------------------------------


class PoseMismatch(ValidationError):
    """Pose vector length does not match the skeleton DoF count."""


# --- retarget ----------------------------------------------------------


class UnresolvableCorrespondence(ValidationError):
    """Correspondence names a marker/joint that does not exist."""


class NonFiniteObjective(NumericError):
    """Retargeting objective evaluated to NaN or infinity."""


# --- vq / metrics ------------------------------------------------------


class DimensionMismatch(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class MissingHeights(ValidationError):
    pass


class DegenerateSample(ValidationError):
    """Too few rows to estimate a covariance."""


class TooFewSamples(ValidationError):
    pass


class GroupTooSmall(ValidationError):
    pass


class PoolTooLarge(ValidationError):
    pass


# --- io ----------------------------------------------------------------


class MissingContactMarkers(ValidationError):
    """Skeleton lacks the heel/toe markers needed for contact features."""


class ParseError(ValidationError):
    def __init__(self, path, location, reason):
        self.path = str(path)
        self.location = location
        self.reason = reason
        super().__init__(f"{path}: {location}: {reason}")


class SchemaVersionError(ValidationError):
    pass
