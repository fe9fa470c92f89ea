"""Exception types shared across the package.

Every error raised on purpose by spherelab derives from ``SpherelabError`` so
callers can catch the whole family at once; a failed computation, as opposed
to bad input, raises a ``NumericFailure`` (the CLI's exit 3, not 2).  A few
exceptions carry payload (offending face indices, a flow trace, a descent
residual) because the caller is expected to report those numbers rather than
merely note the failure.
"""

from __future__ import annotations


class SpherelabError(Exception):
    """Base class for all package-specific errors."""


class NumericFailure(SpherelabError):
    """A computation ran on valid input and failed to converge or resolve."""


class DimensionMismatch(SpherelabError):
    """Objects from spheres of different ambient dimension were combined."""


class ZeroVector(SpherelabError):
    """A direction was requested from a vector of (numerically) zero length."""


class AntipodalPair(SpherelabError):
    """The logarithm map is not defined for an antipodal pair of points."""


class DegenerateFrame(SpherelabError):
    """A tangent frame is numerically rank-deficient."""


class NonOrthonormalBasis(SpherelabError):
    """An operation required an orthonormal basis and did not get one."""


class MeshInvariantError(SpherelabError):
    """A surface mesh violates one of its structural invariants."""


class DegenerateTriangle(SpherelabError):
    """A face has (numerically) collinear vertices or zero area."""


class FieldMeshMismatch(SpherelabError):
    """A per-vertex field does not match the mesh it was paired with."""


class InsufficientNeighborhood(NumericFailure):
    """A vertex has too few neighbors for the requested local fit."""


class IllConditionedFit(NumericFailure):
    """A local least-squares fit is too ill-conditioned to trust."""


class NonpositiveWillmore(SpherelabError):
    """A conformal-class invariant was requested for W <= 0."""


class ModulusOutOfRange(SpherelabError):
    """Elliptic-integral modulus outside [0, 1)."""


class NotMinimalAtResolution(NumericFailure):
    """A builder that promises a minimal surface failed its own check."""


class NonOrientableSource(SpherelabError):
    """An operation requiring an oriented surface received a non-orientable one."""


class WeldFailure(NumericFailure):
    """Vertex identification during a weld exceeded tolerance or was inconsistent."""


class WrongEuler(SpherelabError):
    """An assembled surface has an unexpected Euler characteristic."""


class TriangleViolation(DegenerateTriangle):
    """Edge lengths break the triangle inequality on some faces."""

    def __init__(self, message: str, faces=None):
        super().__init__(message)
        self.faces = [] if faces is None else list(faces)


class StalledDescent(NumericFailure):
    """Plateau descent plateaued above tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int, mesh=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.mesh = mesh


class NonConvergence(NumericFailure):
    """A flow or the Plateau descent used its step budget without reaching
    tolerance; a flow's error carries the trace."""

    def __init__(self, message: str, trace=None, state=None):
        super().__init__(message)
        self.trace = trace
        self.state = state


class StepTooLarge(SpherelabError):
    """Requested integrator step violates the stability bound."""


class ClosestPointAmbiguous(NumericFailure):
    """A tube-field query sits on a ridge between surface sheets that disagree."""


class SurfaceNotFixed(NumericFailure):
    """Transported surface particles ended off the curved surface."""
