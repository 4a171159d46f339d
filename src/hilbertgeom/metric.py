"""Projective (Hilbert) metric on a bounded convex body.

For distinct interior points x, y the line through them meets the boundary
at tail and head with order tail, x, y, head, and

    d(x, y) = log( |x head| |y tail| / (|x tail| |y head|) ).

Straight segments realize the distance, so rays, spheres and balls can be
parametrized in closed form once the two boundary exits of a base point are
known: the point at distance t along a unit direction sits at the Euclidean
parameter

    s(t) = a b (1 - exp(-t)) / (a + b exp(-t)),

where a and b are the backward and forward exit lengths of the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    TAU_P,
    TAU_PAR,
    Chord,
    ConvexBody,
    Region,
    as_direction,
    as_point,
    chord_through,
    classify,
    line_intersection,
    _cross2,
    _read_only,
)
from .errors import (
    BadOrder,
    CollinearInput,
    DimensionUnsupported,
    DistanceMismatch,
    ExteriorPoint,
    NegativeParameter,
    OffChord,
)

MODE_CONCURRENT = "concurrent"
MODE_PARALLEL = "parallel"


def cross_ratio(x, y, chord: Chord) -> float:
    """Cross ratio of (tail, x, y, head) along a common line, always >= 1.

    Raises OffChord when x or y strays from the chord line and BadOrder when
    the order along the line is not tail, x, y, head (x = y is allowed).
    """
    px = as_point(x)
    py = as_point(y)
    tail = np.asarray(chord.tail, dtype=float)
    head = np.asarray(chord.head, dtype=float)
    axis = head - tail
    length = float(np.linalg.norm(axis))
    if length <= TAU_P:
        raise OffChord("chord endpoints coincide")
    e = axis / length
    tol = TAU_P * max(1.0, length)

    tx = float(np.dot(px - tail, e))
    ty = float(np.dot(py - tail, e))
    off_x = float(np.linalg.norm(px - (tail + tx * e)))
    off_y = float(np.linalg.norm(py - (tail + ty * e)))
    if max(off_x, off_y) > tol:
        raise OffChord(f"point is {max(off_x, off_y):.3e} away from the chord line")
    if tx < -tol or ty > length + tol or tx > ty + tol:
        raise BadOrder("expected order tail, x, y, head along the chord")

    x_tail = float(np.linalg.norm(px - tail))
    y_head = float(np.linalg.norm(py - head))
    if x_tail <= TAU_P or y_head <= TAU_P:
        raise BadOrder("cross ratio point coincides with a chord endpoint")
    x_head = float(np.linalg.norm(px - head))
    y_tail = float(np.linalg.norm(py - tail))
    return (x_head * y_tail) / (x_tail * y_head)


def distance(body: ConvexBody, x, y) -> float:
    """Hilbert distance between interior points (0 for coincident input)."""
    px = as_point(x, body.dimension)
    py = as_point(y, body.dimension)
    for p in (px, py):
        if classify(body, p) is not Region.INTERIOR:
            raise ExteriorPoint("distance is defined for interior points only")
    if float(np.linalg.norm(px - py)) <= TAU_P:
        return 0.0
    return math.log(cross_ratio(px, py, chord_through(body, px, py)))


def distance_pairs(body: ConvexBody, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise distances for interior point arrays of shape (m, n).

    Fast path without precondition checks; callers guarantee interior rows.
    Agrees with ``distance`` to machine precision.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    diff = X - Y
    r = np.linalg.norm(diff, axis=1)
    out = np.zeros(r.shape)
    live = r > TAU_P
    if not np.any(live):
        return out
    U = diff[live] / r[live, None]
    s_back = body.ray_exit(X[live], U)       # behind x, seen from y
    s_fwd = body.ray_exit(Y[live], -U)       # beyond y
    rl = r[live]
    out[live] = np.log1p(rl / s_back) + np.log1p(rl / s_fwd)
    return out


@dataclass(frozen=True)
class RaySpec:
    """Unit-speed chord data at a base point: exits a (backward), b (forward)."""

    base: np.ndarray
    direction: np.ndarray
    a: float
    b: float


def ray_spec(body: ConvexBody, base, direction) -> RaySpec:
    """Cache the two boundary exits of an interior base along a direction."""
    o = as_point(base, body.dimension)
    u = as_direction(direction, body.dimension)
    if classify(body, o) is not Region.INTERIOR:
        raise ExteriorPoint("ray base must be interior")
    b = float(body.ray_exit(o[None, :], u[None, :])[0])
    a = float(body.ray_exit(o[None, :], -u[None, :])[0])
    return RaySpec(_read_only(o), _read_only(u), a, b)


def _ray_param(a, b, t):
    """Euclidean parameter of the point at Hilbert distance t along a ray,
    clamped strictly below the forward exit b (large t rounds onto it)."""
    et = np.exp(-np.asarray(t, dtype=float))
    return np.minimum(a * b * (1.0 - et) / (a + b * et), np.nextafter(b, 0.0))


def ray_points(body: ConvexBody, P: np.ndarray, U: np.ndarray, t) -> np.ndarray:
    """Points at Hilbert distance t (scalar or per row) from interior rows P
    along unit rows U; unchecked fast path, parameter clamped below the exit."""
    b = body.ray_exit(P, U)
    a = body.ray_exit(P, -U)
    return P + _ray_param(a, b, t)[:, None] * U


def ray_point(ray: RaySpec, t: float) -> np.ndarray:
    """Point at Hilbert distance t >= 0 from the ray base (parameter clamped below the exit)."""
    if t < 0.0:
        raise NegativeParameter("ray parameter must be >= 0")
    s = float(_ray_param(ray.a, ray.b, float(t)))
    return ray.base + s * ray.direction


def sphere_point(body: ConvexBody, o, theta: float, t: float) -> np.ndarray:
    """Point of the Hilbert sphere of radius t > 0 about o in direction theta (2-D)."""
    if body.dimension != 2:
        raise DimensionUnsupported("sphere_point is defined in the plane only")
    if t <= 0.0:
        raise NegativeParameter("sphere radius must be positive")
    u = np.array([math.cos(theta), math.sin(theta)])
    return ray_point(ray_spec(body, o, u), t)


def sphere_points(body: ConvexBody, o, thetas: np.ndarray, ts) -> np.ndarray:
    """Vectorized sphere sampler: rows are points at radius ts[k] (or scalar t)."""
    o = as_point(o, 2)
    thetas = np.asarray(thetas, dtype=float)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return ray_points(body, np.broadcast_to(o, U.shape), U, ts)


@dataclass(frozen=True)
class BallBoundary:
    """Sampled metric sphere: polyline vertices at uniform angles about the center."""

    center: np.ndarray
    radius: float
    samples: np.ndarray


def ball_boundary(body: ConvexBody, center, t: float, n: int) -> BallBoundary:
    """Sample the Hilbert sphere of radius t about center at n uniform angles."""
    if n < 3:
        raise ValueError("need at least 3 boundary samples")
    c = as_point(center, 2)
    thetas = 2.0 * math.pi * np.arange(n) / n
    pts = sphere_points(body, c, thetas, float(t))
    return BallBoundary(_read_only(c), float(t), _read_only(pts))


def geodesic_defect(body: ConvexBody, x, y, lam: float) -> float:
    """|d(x,z) + d(z,y) - d(x,y)| for z on the segment; zero when segments are geodesic."""
    if not 0.0 < lam < 1.0:
        raise ValueError("interpolation parameter must be in (0, 1)")
    px = as_point(x, body.dimension)
    py = as_point(y, body.dimension)
    z = px + lam * (py - px)
    return abs(distance(body, px, z) + distance(body, z, py) - distance(body, px, py))


@dataclass(frozen=True)
class ConcurrencyReport:
    mode: str
    defect: float
    meeting_point: np.ndarray | None
    # smallest pairwise direction cross product; near-parallel concurrent
    # configurations (tiny but nonzero) are ill-conditioned for the scatter
    min_cross: float


def concurrency_defect(body: ConvexBody, o, a2, b2) -> ConcurrencyReport:
    """Check that the three equidistance lines meet at one point or are parallel.

    Given interior o and two points a2, b2 at the same distance from o, the
    chords through (o, a2) and (o, b2) give boundary triples a1, a2-line,
    a3 and b1, b3.  The lines a1 b1, a2 b2, a3 b3 either meet at a single
    point outside the closed body or form a parallel family.  The defect is
    the scatter of the pairwise intersections (concurrent mode) or the
    largest direction mismatch (parallel mode).
    """
    if body.dimension != 2:
        raise DimensionUnsupported("concurrency check is a planar construction")
    po = as_point(o, 2)
    pa = as_point(a2, 2)
    pb = as_point(b2, 2)
    va = pa - po
    vb = pb - po
    if abs(float(_cross2(va, vb))) <= 1e-12 * float(np.linalg.norm(va) * np.linalg.norm(vb)):
        raise CollinearInput("o, a2, b2 must not be collinear")
    da = distance(body, po, pa)
    db = distance(body, po, pb)
    if abs(da - db) > 1e-9:
        raise DistanceMismatch(f"|d(o,a2) - d(o,b2)| = {abs(da - db):.3e} exceeds 1e-9")

    ca = chord_through(body, po, pa)   # tail behind o, head beyond a2
    cb = chord_through(body, po, pb)
    ends = [(ca.tail, cb.tail), (pa, pb), (ca.head, cb.head)]
    dirs = []
    for p, q in ends:
        sep = float(np.linalg.norm(np.asarray(q) - np.asarray(p)))
        if sep <= TAU_P:
            raise CollinearInput("degenerate configuration: paired chord endpoints coincide")
        dirs.append((np.asarray(q) - np.asarray(p)) / sep)

    crosses = [abs(float(_cross2(dirs[i], dirs[j]))) for i, j in ((0, 1), (0, 2), (1, 2))]
    if min(crosses) < TAU_PAR:
        # a genuinely parallel family has all three mismatches near zero;
        # anything else left here is a violation and shows up in the defect
        return ConcurrencyReport(MODE_PARALLEL, max(crosses), None, min(crosses))

    pts = []
    for (i, j), (pi, pj) in (((0, 1), (ends[0][0], ends[1][0])), ((0, 2), (ends[0][0], ends[2][0])), ((1, 2), (ends[1][0], ends[2][0]))):
        hit = line_intersection(pi, dirs[i], pj, dirs[j])
        pts.append(hit)
    scatter = max(
        float(np.linalg.norm(pts[0] - pts[1])),
        float(np.linalg.norm(pts[0] - pts[2])),
        float(np.linalg.norm(pts[1] - pts[2])),
    )
    meeting = (pts[0] + pts[1] + pts[2]) / 3.0
    return ConcurrencyReport(MODE_CONCURRENT, scatter, _read_only(meeting), min(crosses))


def projective_transfer_defect(rng: np.random.Generator) -> float:
    """Cross-ratio disagreement for one random perspective configuration.

    Draws four ordered points on a source line and maps them to a target
    line, through a random center for half the draws and along a fixed
    parallel direction for the rest.  Returns |source cr - target cr|;
    a perspective map preserves the cross-ratio, so this measures only
    numerical error.  Ill-conditioned draws (grazing projections, huge
    cross-ratios) are rejected and redrawn.
    """
    while True:
        pA = rng.uniform(-1.0, 1.0, 2)
        dA = rng.normal(size=2)
        dA /= np.linalg.norm(dA)
        pB = rng.uniform(-1.0, 1.0, 2) + rng.normal(size=2) * 2.0
        dB = rng.normal(size=2)
        dB /= np.linalg.norm(dB)
        ts = np.sort(rng.uniform(-3.0, 3.0, 4))
        if np.min(np.diff(ts)) < 0.2:
            continue
        P = pA + ts[:, None] * dA

        concurrent = rng.uniform() < 0.5
        if concurrent:
            c = rng.uniform(-6.0, 6.0, 2)
            rays = P - c
            norms = np.linalg.norm(rays, axis=1)
            if np.min(norms) < 0.5:
                continue
            if np.min(np.abs(_cross2(rays / norms[:, None], dB))) < 0.1:
                continue
            Q = [line_intersection(c, r, pB, dB) for r in rays]
        else:
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            if abs(float(_cross2(v, dB))) < 0.1 or abs(float(_cross2(v, dA))) < 0.1:
                continue
            Q = [line_intersection(p, v, pB, dB) for p in P]
        if any(q is None for q in Q):
            continue
        q = np.array(Q)

        cr_src = cross_ratio(P[1], P[2], Chord(tail=P[0], head=P[3]))
        num = float(np.linalg.norm(q[1] - q[3]) * np.linalg.norm(q[2] - q[0]))
        den = float(np.linalg.norm(q[1] - q[0]) * np.linalg.norm(q[2] - q[3]))
        if den <= 1e-12:
            continue
        cr_dst = num / den
        if not (1e-2 < cr_dst < 1e2):
            continue
        return abs(cr_src - cr_dst)
