"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`KimuraError`, so callers
can catch domain failures without swallowing programming errors.  Errors that
have a natural witness (a point, a face, a parameter value) carry it in the
message and, where useful, as attributes.
"""

from __future__ import annotations


class KimuraError(Exception):
    """Base class for all package-specific errors."""


# --- geometry ---------------------------------------------------------------


class PointOutsideDomain(KimuraError):
    """A point violates the domain constraints beyond tolerance."""


class NotOnFace(KimuraError):
    """Restriction requested at a face the point does not lie on."""


class BoundaryEvaluation(KimuraError):
    """The weighted density diverges at a boundary point (weight < 1)."""


# --- operator ----------------------------------------------------------------


class NotClean(KimuraError):
    """A face weight neither vanishes identically nor is bounded below.

    Attributes
    ----------
    face : int
        Offending face index (1-based).
    witnesses : list
        Face points where the weight vanishes partially / changes sign.
    """

    def __init__(self, message: str, face: int | None = None, witnesses=None):
        super().__init__(message)
        self.face = face
        self.witnesses = list(witnesses) if witnesses is not None else []


class FaceNotTangent(KimuraError):
    """Restriction requested at a face that is not tangent."""


# --- sde ----------------------------------------------------------------------


class NonFinite(KimuraError):
    """A simulated state became NaN or infinite."""


class MaxStepsExceeded(KimuraError):
    """The step guard tripped before the horizon was reached."""


# --- estimators ----------------------------------------------------------------


class EmptyBin(KimuraError):
    """A doubling window contains zero mass; the ratio is undefined."""


# --- pde -----------------------------------------------------------------------


class LinearSolveFailure(KimuraError):
    """A linear system solve failed or exceeded its residual tolerance."""


class GridTooCoarse(KimuraError):
    """Too few interior nodes near the face for the one-sided stencil."""


class IncompatibleData(KimuraError):
    """Boundary data violates the compatibility condition (zeta(0) != 0)."""


# --- verify ----------------------------------------------------------------------


class NoValidH(KimuraError):
    """No scale H made the w2 barrier inequality hold down to the floor."""


class NoValidParams(KimuraError):
    """No (beta, k) made the w1 barrier inequality hold within budget."""


# --- cli -------------------------------------------------------------------------


class ConfigInvalid(KimuraError):
    """The run configuration failed schema validation.

    Attributes
    ----------
    field : str
        Dotted path of the offending field, or '' for document-level problems.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field
