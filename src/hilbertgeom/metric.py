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

import functools
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
    projective_image,
    _along,
    _angle_rows,
    _cross2,
    _norms,
    _read_only,
)
from .errors import (
    BadOrder,
    CoincidentPoints,
    DimensionUnsupported,
    DistanceMismatch,
    ExteriorPoint,
    NegativeParameter,
    OffChord,
)


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
    Each distance comes from the body's ``pair_distances``; rows closer than
    TAU_P read 0.  Agrees with ``distance`` to machine precision.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    live = _norms(X, Y) > TAU_P
    if live.all():   # the usual case, without the masked copies
        return body.pair_distances(X, Y)
    out = np.zeros(live.shape)
    if live.any():
        out[live] = body.pair_distances(np.compress(live, X, axis=0), np.compress(live, Y, axis=0))
    return out


@functools.lru_cache(maxsize=8)
def _triu(m: int) -> tuple[np.ndarray, ...]:
    """``np.triu_indices(m, k=1)`` as read-only arrays, built once per row
    count (the audits and the piece diameters repeat a few counts)."""
    idx = np.triu_indices(m, k=1)
    for i in idx:
        i.flags.writeable = False
    return idx


def pairwise_distances(body: ConvexBody, P: np.ndarray) -> np.ndarray:
    """Distances of all row pairs i < j of P, in ``np.triu_indices`` order.

    One ``distance_pairs`` call with its preconditions; empty for fewer
    than two rows.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    ii, jj = _triu(len(P))
    return distance_pairs(body, np.take(P, ii, axis=0), np.take(P, jj, axis=0))


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
    a, b = body.ray_exit(o[None, :], u[None, :])
    return RaySpec(_read_only(o), _read_only(u), float(a[0]), float(b[0]))


def _ray_param(a, b, t):
    """Euclidean parameter of the point at Hilbert distance t along a ray,
    clamped strictly below the forward exit b (large t rounds onto it)."""
    et = np.exp(-np.asarray(t, dtype=float))
    return np.minimum(a * b * (1.0 - et) / (a + b * et), np.nextafter(b, 0.0))


def ray_points(body: ConvexBody, P: np.ndarray, U: np.ndarray, t) -> np.ndarray:
    """Points at Hilbert distance t (scalar or per row) from interior rows P
    along unit rows U; unchecked fast path, parameter clamped below the exit."""
    a, b = body.ray_exit(P, U)
    return _along(P, _ray_param(a, b, t), U)


def ray_point(ray: RaySpec, t: float) -> np.ndarray:
    """Point at Hilbert distance t >= 0 from the ray base (parameter clamped below the exit)."""
    if t < 0.0:
        raise NegativeParameter("ray parameter must be >= 0")
    s = float(_ray_param(ray.a, ray.b, float(t)))
    return ray.base + s * ray.direction


def sphere_points(body: ConvexBody, o, thetas: np.ndarray, ts) -> np.ndarray:
    """Vectorized sphere sampler: rows are points at radius ts[k] (or scalar t)."""
    U = _angle_rows(thetas)
    return ray_points(body, np.broadcast_to(as_point(o, 2), U.shape), U, ts)


@dataclass(frozen=True)
class ConcurrencyRows:
    """Row-wise results of ``concurrency_defects``.

    ``rejected`` marks rows where o, a2, b2 are collinear or two paired
    chord endpoints coincide; every other field is NaN there.
    ``min_cross`` is the smallest pairwise direction cross product: nearly
    but not exactly parallel lines meet far away, which makes the scatter
    ill-conditioned.  ``meeting`` is NaN on parallel rows.
    """

    rejected: np.ndarray
    parallel: np.ndarray
    defect: np.ndarray
    min_cross: np.ndarray
    meeting: np.ndarray


_LINE_PAIRS = ((0, 1), (0, 2), (1, 2))


def concurrency_defects(body: ConvexBody, O, A2, B2) -> ConcurrencyRows:
    """Check that three equidistance lines meet at one point or are parallel.

    Given interior o and two points a2, b2 at the same distance from o, the
    chords through (o, a2) and (o, b2) give boundary triples a1, a2-line,
    a3 and b1, b3.  The lines a1 b1, a2 b2, a3 b3 either meet at a single
    point outside the closed body or form a parallel family.  The defect is
    the scatter of the pairwise intersections (concurrent rows) or the
    largest direction mismatch (parallel rows).  O, A2 and B2 hold one
    configuration per row of (m, 2) arrays.

    The checks run in this order: collinear rows are flagged, then
    every other row must be interior (ExteriorPoint) with |d(o,a2) - d(o,b2)|
    <= 1e-9 (DistanceMismatch) and a2, b2 apart from o (CoincidentPoints);
    rows whose paired chord endpoints coincide are flagged, and the rest are
    parallel when their smallest direction cross is below TAU_PAR.
    """
    if body.dimension != 2:
        raise DimensionUnsupported("concurrency check is a planar construction")
    O, A2, B2 = (np.atleast_2d(np.asarray(P, dtype=float)) for P in (O, A2, B2))
    m = O.shape[0]
    VA, VB = A2 - O, B2 - O
    NA, NB = np.linalg.norm(VA, axis=1), np.linalg.norm(VB, axis=1)
    rejected = np.abs(_cross2(VA, VB)) <= 1e-12 * (NA * NB)
    live = np.flatnonzero(~rejected)
    o, a, b = O[live], A2[live], B2[live]
    for P in (o, a, b):
        body.require_interior(P, "distance is defined for interior points only")
    gap = np.abs(distance_pairs(body, o, a) - distance_pairs(body, o, b))
    if np.any(gap > 1e-9):
        first = float(gap[np.argmax(gap > 1e-9)])
        raise DistanceMismatch(f"|d(o,a2) - d(o,b2)| = {first:.3e} exceeds 1e-9")
    if np.any(NA[live] <= TAU_P) or np.any(NB[live] <= TAU_P):
        raise CoincidentPoints("chord endpoints coincide within tolerance")

    UA = VA[live] / NA[live, None]
    UB = VB[live] / NB[live, None]
    # tails behind o, the pair a2, b2, heads beyond a2 and b2
    ends = [(o - body.ray_exit(o, UA)[0][:, None] * UA, o - body.ray_exit(o, UB)[0][:, None] * UB),
            (a, b),
            (a + body.ray_exit(a, UA)[1][:, None] * UA, b + body.ray_exit(b, UB)[1][:, None] * UB)]
    D = [q - p for p, q in ends]
    seps = np.stack([np.linalg.norm(d, axis=1) for d in D])
    ok = np.all(seps > TAU_P, axis=0)
    rejected[live[~ok]] = True
    live = live[ok]
    starts = [p[ok] for p, _ in ends]
    dirs = [d[ok] / sep[ok, None] for d, sep in zip(D, seps)]

    crosses = np.abs(np.stack([_cross2(dirs[i], dirs[j]) for i, j in _LINE_PAIRS]))
    min_cross = crosses.min(axis=0)
    # a genuinely parallel family has all three mismatches near zero;
    # anything else left there is a violation and shows up in the defect
    par = min_cross < TAU_PAR
    defect = crosses.max(axis=0)
    c = ~par
    hits = []
    for i, j in _LINE_PAIRS:
        t = _cross2(starts[j][c] - starts[i][c], dirs[j][c]) / _cross2(dirs[i][c], dirs[j][c])
        hits.append(starts[i][c] + t[:, None] * dirs[i][c])
    defect[c] = np.max([np.linalg.norm(hits[i] - hits[j], axis=1) for i, j in _LINE_PAIRS], axis=0)

    rows = ConcurrencyRows(rejected, np.zeros(m, dtype=bool), np.full(m, np.nan),
                           np.full(m, np.nan), np.full((m, 2), np.nan))
    rows.parallel[live] = par
    rows.defect[live] = defect
    rows.min_cross[live] = min_cross
    rows.meeting[live[c]] = (hits[0] + hits[1] + hits[2]) / 3.0
    return rows


def _unit_rows(V: np.ndarray) -> np.ndarray:
    return V / np.linalg.norm(V, axis=1)[:, None]


def projective_transfer_defect(body: ConvexBody, rng: np.random.Generator, n: int) -> np.ndarray:
    """|d_{T K}(Tx, Ty) - d_K(x, y)| on n pairs of the body K under one random
    projective map T.

    T is ``x -> (A x + t) / (w . x + 1)``: A is the Q of a Gaussian's QR with
    its columns stretched by factors in [0.5, 2], so cond(A) <= 4;
    t = 0.3 scale N(0, 1); and w is uniform in +-0.5 / (dim scale), where scale
    is the largest |coordinate| of the body's box, so ``w . x + 1 >= 1/2`` on
    the box.  The Hilbert metric is projectively invariant, so each defect
    measures only numerical error.  x and y are drawn from the Hilbert ball
    B(seed, sampling.INNER_RADIUS) about the body's interior seed.
    """
    from . import sampling  # sampling imports this module, so bind it late

    dim = body.dimension
    scale = float(np.abs(np.concatenate(body.bounding_box())).max())
    T = np.eye(dim + 1)
    T[:dim, :dim] = np.linalg.qr(rng.normal(size=(dim, dim)))[0] * rng.uniform(0.5, 2.0, dim)
    T[:dim, dim] = 0.3 * scale * rng.normal(size=dim)
    T[dim, :dim] = rng.uniform(-0.5, 0.5, dim) / (dim * scale)
    P = sampling.sample_ball(body, body.interior_seed(), sampling.INNER_RADIUS, 2 * n, rng)
    H = P @ T[:, :dim].T + T[:, dim]
    TX, TY = np.split(H[:, :dim] / H[:, dim:], 2)
    X, Y = np.split(P, 2)
    return np.abs(distance_pairs(projective_image(body, T), TX, TY) - distance_pairs(body, X, Y))
