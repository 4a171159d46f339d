"""Exception hierarchy for geometric precondition failures.

Every error raised on bad input derives from GeometryError, which is a
ValueError, so callers that do not care about the fine-grained reason can
catch the usual thing.  The CLI maps GeometryError to exit code 2.
"""

from __future__ import annotations


class GeometryError(ValueError):
    """Base class for precondition and invariant failures."""


class NonConvex(GeometryError):
    """Vertex list or constraint set does not describe a strictly convex body."""


class Unbounded(GeometryError):
    """Constraint set admits points arbitrarily far away."""


class EmptyInterior(GeometryError):
    """Constraint set has no interior point."""


class ExteriorBase(GeometryError):
    """Ray base point is not interior to the body."""


class ExteriorPoint(GeometryError):
    """Metric evaluation requested at a point outside the open body."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct are closer than the coincidence tolerance."""


class DimensionUnsupported(GeometryError):
    """Operation is defined only in the plane (or the dimensions disagree)."""


class OffChord(GeometryError):
    """Point does not lie on the chord line within tolerance."""


class BadOrder(GeometryError):
    """Collinear points are not in the required order along their line."""


class NegativeParameter(GeometryError):
    """Ray or sphere parameter must be positive."""


class DistanceMismatch(GeometryError):
    """Two points that must be equidistant from the base are not."""


class BadRadii(GeometryError):
    """Radius pair violates its required inequality."""


class BallNotContained(GeometryError):
    """Small ball is not contained in the large ball."""


class NotOnBoundary(GeometryError):
    """Segment that must lie on the boundary leaves it."""


class ArcReachViolation(GeometryError):
    """Arc does not contain a point at the required distance from its start."""


class ArcMarchExhausted(GeometryError):
    """Arc marching took more steps than its cap without reaching the arc end."""


class SimplexExhausted(GeometryError):
    """Linear program took more pivots than its cap without reaching an optimum."""


class DegenerateRay(GeometryError):
    """Ray direction cannot be derived because the two points coincide."""


class SamplingExhausted(GeometryError):
    """Rejection sampler ran out of draws before filling its request."""
