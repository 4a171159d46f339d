"""Bounded convex bodies and their boundary oracles.

A body is an open bounded convex subset of R^n given in one of four forms:
a strictly convex polygon (2-D, counterclockwise vertices), an ellipsoid,
a Euclidean ball, or an intersection of halfspaces.  Everything downstream
(the projective metric, sphere decompositions, probes) only talks to bodies
through three primitives:

* ``signed_gap``     negative inside, about zero on the boundary,
* ``ray_exit``       length to the boundary along a unit direction,
* ``bounding_box``   a covering axis-aligned box.

``ray_exit`` is exact (closed form) for every kind.  Polygons and halfspace
intersections share one formula in their constraint slacks
``s_i(p) = b_i - n_i . p``: the exit along unit ``u`` is
``1 / max_i (n_i . u / s_i(p))``.  A generic bisection oracle on
``signed_gap`` is exposed as ``boundary_hit_bisect`` to cross-check the
closed forms.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateRay,
    DimensionUnsupported,
    EmptyInterior,
    ExteriorBase,
    ExteriorPoint,
    NonConvex,
    Unbounded,
)

# Point coincidence tolerance (absolute).
TAU_P = 1e-12
# Direction-parallelism tolerance for 2x2 line solves (on unit directions).
TAU_PAR = 1e-12
# Boundary band half-width, relative to the Euclidean diameter of the body.
REL_BOUNDARY_TOL = 1e-10
# Cap on the inscribed radius in the interior-seed LP, so an unbounded
# halfspace set still yields a seed and is rejected by the support-box LPs.
SEED_RADIUS_CAP = 1e7


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def as_point(x: Sequence[float] | np.ndarray, dim: int | None = None) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be a flat coordinate sequence, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.shape[0] != dim:
        raise DimensionUnsupported(f"expected a {dim}-D point, got {p.shape[0]}-D")
    return p


def as_direction(u: Sequence[float] | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return a unit vector, normalizing the input.  Zero vectors are rejected."""
    v = as_point(u, dim)
    norm = float(np.linalg.norm(v))
    if norm <= TAU_P:
        raise DegenerateRay("direction vector has (near) zero length")
    return v / norm


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class ConvexBody(ABC):
    """Open bounded convex body with vectorized boundary oracles."""

    kind: str = "abstract"
    strictly_convex: bool = False

    def __init__(self, dimension: int, warnings: tuple[str, ...] = ()):
        self.dimension = int(dimension)
        self.warnings = warnings

    # -- primitives -------------------------------------------------------

    @abstractmethod
    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        """Signed boundary measure for points ``P`` of shape (m, n).

        Negative inside, positive outside.  Near the boundary the magnitude
        approximates the Euclidean gap (radial gap for ellipsoids, which is
        within a bounded factor of the true clearance).
        """

    @abstractmethod
    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Exit length s > 0 with P + s U on the boundary, rows interior."""

    @abstractmethod
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Covering axis-aligned box as (lower, upper) corner arrays."""

    @abstractmethod
    def interior_seed(self) -> np.ndarray:
        """Some point well inside the body."""

    # -- shared helpers ----------------------------------------------------

    def euclidean_diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def boundary_tol(self) -> float:
        return REL_BOUNDARY_TOL * self.euclidean_diameter()

    def classify_many(self, P: np.ndarray) -> np.ndarray:
        """Vector of -1 (interior), 0 (boundary band), +1 (exterior)."""
        gap = self.signed_gap(np.asarray(P, dtype=float))
        tol = self.boundary_tol()
        out = np.zeros(gap.shape, dtype=int)
        out[gap < -tol] = -1
        out[gap > tol] = 1
        return out

    def contains_interior(self, P: np.ndarray) -> np.ndarray:
        return self.signed_gap(np.asarray(P, dtype=float)) < -self.boundary_tol()

    def outline(self, n: int = 256) -> np.ndarray:
        """Closed boundary polyline (2-D bodies), counterclockwise, shape (n, 2)."""
        if self.dimension != 2:
            raise DimensionUnsupported("outline is only defined in the plane")
        seed = self.interior_seed()
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        P = np.broadcast_to(seed, U.shape)
        s = self.ray_exit(P, U)
        return P + s[:, None] * U


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _constraint_gap(N: np.ndarray, b: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Largest constraint violation ``max_i (n_i . p - b_i)`` per row of P."""
    G = np.atleast_2d(P) @ N.T
    G -= b
    return G.max(axis=1)


def _constraint_exit(N: np.ndarray, b: np.ndarray, P: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Exit lengths from rows of P along unit rows of U for ``N x <= b``.

    Row k exits at ``1 / max_i (n_i . u_k / s_i(p_k))`` with slacks
    ``s_i(p) = b_i - n_i . p``.  Computed in place: one (m, constraints)
    buffer for the slacks and one for the ratios.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    S = P @ N.T
    np.subtract(b, S, out=S)
    if not np.all(S.min(axis=1) > 0.0):
        raise ExteriorBase("ray base is not interior to the constraints")
    G = U @ N.T
    np.divide(G, S, out=G)
    rate = G.max(axis=1)
    if not np.all(rate > 0.0):
        raise ExteriorBase("ray does not exit the body")
    return 1.0 / rate


class Polygon(ConvexBody):
    """Strictly convex polygon from counterclockwise vertices.

    Clockwise input is reversed silently and recorded in ``warnings``.
    Repeated or collinear vertices raise NonConvex.
    """

    kind = "polygon"
    strictly_convex = False

    def __init__(self, vertices: Sequence[Sequence[float]] | np.ndarray):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2:
            raise DimensionUnsupported("polygon vertices must be an (m, 2) array")
        if V.shape[0] < 3:
            raise NonConvex("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(V)):
            raise ValueError("polygon vertices have non-finite coordinates")

        e_prev = np.roll(V, -1, axis=0) - V
        e_next = np.roll(e_prev, -1, axis=0)
        turns = _cross2(e_prev, e_next)
        scale = np.linalg.norm(e_prev, axis=1) * np.linalg.norm(e_next, axis=1)
        if np.any(scale <= TAU_P):
            raise NonConvex("polygon has coincident consecutive vertices")
        warnings: tuple[str, ...] = ()
        if np.all(turns < -1e-12 * scale):
            V = V[::-1].copy()
            warnings = ("clockwise vertex order was reversed",)
            e_prev = np.roll(V, -1, axis=0) - V
            e_next = np.roll(e_prev, -1, axis=0)
            turns = _cross2(e_prev, e_next)
            scale = np.linalg.norm(e_prev, axis=1) * np.linalg.norm(e_next, axis=1)
        if not np.all(turns > 1e-12 * scale):
            raise NonConvex("vertices are not in strictly convex position")

        super().__init__(2, warnings)
        self.vertices = _read_only(V)
        edges = np.roll(V, -1, axis=0) - V
        lengths = np.linalg.norm(edges, axis=1)
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
        self._normals = _read_only(normals)
        self._offsets = _read_only(np.einsum("ij,ij->i", normals, V))
        d = V[:, None, :] - V[None, :, :]
        self._diameter = float(np.sqrt((d * d).sum(axis=2).max()))

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        return _constraint_gap(self._normals, self._offsets, P)

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> np.ndarray:
        return _constraint_exit(self._normals, self._offsets, P, U)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def interior_seed(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def euclidean_diameter(self) -> float:
        return self._diameter


class Disk(ConvexBody):
    """Euclidean ball of positive radius (any dimension)."""

    kind = "disk"
    strictly_convex = True

    def __init__(self, center: Sequence[float], radius: float):
        c = as_point(center)
        r = float(radius)
        if not (r > 0.0 and math.isfinite(r)):
            raise EmptyInterior("disk radius must be positive and finite")
        super().__init__(c.shape[0])
        self.center = _read_only(c)
        self.radius = r

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        return np.linalg.norm(P - self.center, axis=1) - self.radius

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        q = P - self.center
        beta = np.einsum("ij,ij->i", q, U)
        gamma = np.einsum("ij,ij->i", q, q) - self.radius**2
        disc = beta * beta - gamma
        if np.any(disc < 0.0) or np.any(gamma > 0.0):
            raise ExteriorBase("ray base lies outside the disk")
        return -beta + np.sqrt(disc)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def interior_seed(self) -> np.ndarray:
        return self.center.copy()

    def euclidean_diameter(self) -> float:
        return 2.0 * self.radius


class Ellipsoid(ConvexBody):
    """Ellipsoid with given center, semi-axes and rotation.

    In the plane the rotation is an angle in radians.  In higher dimension
    an orthogonal matrix may be supplied; the default is axis-aligned.
    """

    kind = "ellipsoid"
    strictly_convex = True

    def __init__(
        self,
        center: Sequence[float],
        semi_axes: Sequence[float],
        rotation: float | Sequence[Sequence[float]] | None = None,
    ):
        c = as_point(center)
        axes = np.asarray(semi_axes, dtype=float)
        if axes.shape != c.shape:
            raise DimensionUnsupported("semi-axis count must match the center dimension")
        if not np.all(axes > 0.0) or not np.all(np.isfinite(axes)):
            raise EmptyInterior("semi-axes must be positive and finite")
        n = c.shape[0]
        if rotation is None:
            Q = np.eye(n)
        elif np.isscalar(rotation):
            if n != 2:
                raise DimensionUnsupported("scalar rotation angle only makes sense in 2-D")
            a = float(rotation)
            Q = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        else:
            Q = np.asarray(rotation, dtype=float)
            if Q.shape != (n, n):
                raise DimensionUnsupported("rotation matrix shape must match the dimension")
            if not np.allclose(Q @ Q.T, np.eye(n), atol=1e-10):
                raise ValueError("rotation matrix is not orthogonal")
        super().__init__(n)
        self.center = _read_only(c)
        self.semi_axes = _read_only(axes)
        self.rotation = _read_only(Q)
        # body coords -> unit-ball coords
        self._to_unit = _read_only((Q / axes[None, :]).T)

    def _unit_coords(self, P: np.ndarray) -> np.ndarray:
        return (P - self.center) @ self._to_unit.T

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        q = P - self.center
        w = q @ self._to_unit.T
        m = np.linalg.norm(w, axis=1)
        r = np.linalg.norm(q, axis=1)
        deep = m < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = r * (m - 1.0) / m
        return np.where(deep, -float(self.semi_axes.min()), gap)

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        w = self._unit_coords(P)
        v = U @ self._to_unit.T
        A = np.einsum("ij,ij->i", v, v)
        B = np.einsum("ij,ij->i", w, v)
        C = np.einsum("ij,ij->i", w, w) - 1.0
        disc = B * B - A * C
        if np.any(C > 0.0) or np.any(disc < 0.0):
            raise ExteriorBase("ray base lies outside the ellipsoid")
        return (-B + np.sqrt(disc)) / A

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        M = self.rotation * self.semi_axes[None, :]
        ext = np.linalg.norm(M, axis=1)
        return self.center - ext, self.center + ext

    def interior_seed(self) -> np.ndarray:
        return self.center.copy()

    def euclidean_diameter(self) -> float:
        return 2.0 * float(self.semi_axes.max())


class HalfspacePolytope(ConvexBody):
    """Intersection of halfspaces ``normal . x <= offset``.

    Validation finds a Chebyshev-style interior seed by linear programming,
    then the covering box by one LP per axis direction; an unbounded support
    raises Unbounded.  The boundary oracle is the closed-form constraint-slack
    exit shared with ``Polygon``.
    """

    kind = "polytope"
    strictly_convex = False

    def __init__(self, normals: Sequence[Sequence[float]] | np.ndarray, offsets: Sequence[float] | np.ndarray):
        N = np.asarray(normals, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if N.ndim != 2 or N.shape[0] != b.shape[0]:
            raise ValueError("need one offset per normal row")
        if not (np.all(np.isfinite(N)) and np.all(np.isfinite(b))):
            raise ValueError("halfspace data has non-finite entries")
        norms = np.linalg.norm(N, axis=1)
        if np.any(norms <= TAU_P):
            raise ValueError("zero-length halfspace normal")
        N = N / norms[:, None]
        b = b / norms
        n = N.shape[1]
        super().__init__(n)
        self._normals = _read_only(N)
        self._offsets = _read_only(b)

        self._seed = _read_only(self._chebyshev_seed())
        lo, hi = self._support_box()
        self._box = (_read_only(lo), _read_only(hi))

    def _chebyshev_seed(self) -> np.ndarray:
        from scipy.optimize import linprog

        n = self.dimension
        m = self._normals.shape[0]
        # maximize r subject to n_i . x + r <= b_i, 0 <= r <= cap
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A = np.hstack([self._normals, np.ones((m, 1))])
        bounds = [(None, None)] * n + [(0.0, SEED_RADIUS_CAP)]
        res = linprog(c, A_ub=A, b_ub=self._offsets, bounds=bounds, method="highs")
        if res.status == 2 or not res.success:
            raise EmptyInterior("halfspace intersection has no interior point")
        r = float(res.x[-1])
        if r <= 1e-12 * max(1.0, float(np.abs(self._offsets).max())):
            raise EmptyInterior("halfspace intersection has empty interior (flat feasible set)")
        return np.asarray(res.x[:-1], dtype=float)

    def _support_box(self) -> tuple[np.ndarray, np.ndarray]:
        from scipy.optimize import linprog

        n = self.dimension
        lo = np.empty(n)
        hi = np.empty(n)
        bounds = [(None, None)] * n
        for axis in range(n):
            c = np.zeros(n)
            c[axis] = 1.0
            res = linprog(c, A_ub=self._normals, b_ub=self._offsets, bounds=bounds, method="highs")
            if not res.success:
                raise Unbounded(f"support in -e_{axis} direction is unbounded")
            lo[axis] = res.x[axis]
            res = linprog(-c, A_ub=self._normals, b_ub=self._offsets, bounds=bounds, method="highs")
            if not res.success:
                raise Unbounded(f"support in +e_{axis} direction is unbounded")
            hi[axis] = res.x[axis]
        return lo, hi

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        return _constraint_gap(self._normals, self._offsets, P)

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> np.ndarray:
        return _constraint_exit(self._normals, self._offsets, P, U)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self._box

    def interior_seed(self) -> np.ndarray:
        return self._seed.copy()


def _bisect_exit(body: ConvexBody, P: np.ndarray, U: np.ndarray, hi0: float) -> np.ndarray:
    """Vectorized bisection for the boundary crossing along rows of (P, U).

    Brackets [0, hi] with P interior and P + hi U exterior, then halves until
    the bracket is narrower than the body's boundary tolerance.
    """
    m = P.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, hi0)
    # ensure the upper end is outside (hi0 covers the body from interior bases)
    for _ in range(8):
        outside = body.signed_gap(P + hi[:, None] * U) > 0.0
        if np.all(outside):
            break
        hi = np.where(outside, hi, hi * 2.0)
    tol = body.boundary_tol()
    iters = max(16, int(math.ceil(math.log2(max(hi.max(), tol) / tol))) + 2)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = body.signed_gap(P + mid[:, None] * U) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


# -- module-level operations -------------------------------------------------


@dataclass(frozen=True)
class Chord:
    """Oriented boundary chord: ``tail`` sits behind x, ``head`` beyond y."""

    tail: np.ndarray
    head: np.ndarray

    def reversed(self) -> "Chord":
        return Chord(self.head, self.tail)


def classify(body: ConvexBody, p: Sequence[float]) -> Region:
    """Locate a point relative to the body within the boundary tolerance."""
    q = as_point(p, body.dimension)
    code = int(body.classify_many(q[None, :])[0])
    return {-1: Region.INTERIOR, 0: Region.BOUNDARY, 1: Region.EXTERIOR}[code]


def boundary_hit(body: ConvexBody, p: Sequence[float], u: Sequence[float]) -> np.ndarray:
    """First boundary point of the ray from interior ``p`` along ``u``."""
    q = as_point(p, body.dimension)
    v = as_direction(u, body.dimension)
    if classify(body, q) is not Region.INTERIOR:
        raise ExteriorBase("boundary_hit requires an interior base point")
    s = float(body.ray_exit(q[None, :], v[None, :])[0])
    return q + s * v


def boundary_hit_bisect(body: ConvexBody, p: Sequence[float], u: Sequence[float]) -> np.ndarray:
    """Generic bisection boundary oracle, usable on any body kind.

    Exists to cross-check the closed-form oracles; agreement is part of the
    test suite.
    """
    q = as_point(p, body.dimension)
    v = as_direction(u, body.dimension)
    if classify(body, q) is not Region.INTERIOR:
        raise ExteriorBase("boundary_hit requires an interior base point")
    s = float(_bisect_exit(body, q[None, :], v[None, :], 1.01 * body.euclidean_diameter())[0])
    return q + s * v


def chord_through(body: ConvexBody, x: Sequence[float], y: Sequence[float]) -> Chord:
    """Boundary chord through interior points x, y, ordered tail, x, y, head."""
    px = as_point(x, body.dimension)
    py = as_point(y, body.dimension)
    if float(np.linalg.norm(px - py)) <= TAU_P:
        raise CoincidentPoints("chord endpoints coincide within tolerance")
    for p in (px, py):
        if classify(body, p) is not Region.INTERIOR:
            raise ExteriorPoint("chord_through requires interior points")
    tail = boundary_hit(body, px, px - py)
    head = boundary_hit(body, py, py - px)
    return Chord(_read_only(tail), _read_only(head))


def is_strictly_convex(body: ConvexBody) -> bool:
    """Whether the boundary contains no straight segment."""
    return body.strictly_convex


def line_intersection(
    p1: Sequence[float],
    d1: Sequence[float],
    p2: Sequence[float],
    d2: Sequence[float],
) -> np.ndarray | None:
    """Intersection of two lines in the plane, or None when (anti)parallel."""
    a1 = as_point(p1, 2)
    a2 = as_point(p2, 2)
    u1 = as_direction(d1, 2)
    u2 = as_direction(d2, 2)
    den = float(_cross2(u1, u2))
    if abs(den) < TAU_PAR:
        return None
    t = float(_cross2(a2 - a1, u2)) / den
    return a1 + t * u1


def validate_body(spec: dict) -> ConvexBody:
    """Build a validated body from its JSON-style description."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("body description must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "polygon":
        return Polygon(spec["vertices"])
    if kind == "disk":
        return Disk(spec["center"], spec["radius"])
    if kind == "ellipse":
        return Ellipsoid(spec["center"], spec["semi_axes"], spec.get("rotation_rad"))
    if kind == "polytope":
        halves = spec["halfspaces"]
        normals = [h["normal"] for h in halves]
        offsets = [h["offset"] for h in halves]
        return HalfspacePolytope(normals, offsets)
    raise ValueError(f"unknown body type {kind!r}")


def load_body(path: str) -> ConvexBody:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_body(json.load(fh))
