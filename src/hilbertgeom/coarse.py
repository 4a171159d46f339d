"""Coarse-geometry probes: contraction maps, packings, boundary coronas.

The quantitative heart is the contraction constant

    D(r, R) = (exp(r) - 1) / (exp(2R) - 1),        0 < r < 2R,

which pulls a ball of radius R into the ball of radius r about any of its
points, and bounds every 2-epsilon-separated subset of a radius-R ball by
1 / D(epsilon, R + epsilon)^n points.  The corona probes measure Euclidean
gaps between points that stay within bounded Hilbert distance of each other,
which is the observable that separates strictly convex boundaries from
boundaries with straight pieces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bodies import ConvexBody, as_point, _angle_rows, _coords, _norms, _read_only, _sq_norms
from .errors import BadOrder, BadRadii, BallNotContained, NotOnBoundary
from .metric import distance, distance_pairs, ray_points, sphere_points
from .sampling import ball_candidates, sample_ball

# Largest x with e^x finite in float64 (about 709.78).
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# greedy_packing filters a pool by Euclidean distance only above this many
# rows: one distance_pairs call costs some 60-80 us before its first row, so
# on the planar bench bodies the filter's own numpy calls cost more than
# they save below about 500-1,000 rows (the 64-gon's rows, far dearer, gain
# from about 100)
_FILTER_MIN_POOL = 1000


def contraction_constant(r: float, R: float) -> float:
    """D = (e^r - 1)/(e^{2R} - 1); requires 0 < r < 2R so that D < 1."""
    if not (0.0 < r < 2.0 * R):
        raise BadRadii(f"need 0 < r < 2R, got r={r!r}, R={R!r}")
    if 2.0 * R > _LOG_FLOAT_MAX:
        raise BadRadii(f"e^(2R) exceeds the float64 maximum for R={R!r} > {_LOG_FLOAT_MAX / 2:.6f}")
    return math.expm1(r) / math.expm1(2.0 * R)


@dataclass(frozen=True)
class ContractionReport:
    R: float
    r: float
    D: float
    samples: int
    max_violation: float

    def to_dict(self) -> dict:
        return {
            "R": self.R,
            "r": self.r,
            "D": self.D,
            "samples": self.samples,
            "max_violation": self.max_violation,
        }


def verify_contraction(
    body: ConvexBody,
    ball_center,
    R: float,
    x,
    r: float,
    samples: int,
    seed: int = 0,
) -> ContractionReport:
    """Sampled check that y -> x + D (y - x) maps B(center, R) into B(x, r).

    Requires B(x, r) to sit inside B(center, R), checked via the triangle
    inequality d(center, x) + r <= R.  The violation of a sample y is
    d(x, f(y)) - r; the report carries the maximum (or -r when samples=0,
    the empty maximum being vacuous).
    """
    c = as_point(ball_center, body.dimension)
    px = as_point(x, body.dimension)
    D = contraction_constant(r, R)
    if distance(body, c, px) + r > R + 1e-9:
        raise BallNotContained("B(x, r) is not contained in B(center, R)")
    if samples <= 0:
        return ContractionReport(R, r, D, 0, -r)
    rng = np.random.default_rng(seed)
    Y = sample_ball(body, c, R, samples, rng)
    F = np.empty_like(Y)  # px + D (Y - px), one coordinate column at a time
    for j, p in enumerate(px):
        col = F[:, j]
        np.subtract(Y[:, j], p, out=col)
        col *= D
        col += p
    d = distance_pairs(body, np.broadcast_to(px, F.shape), F)
    return ContractionReport(R, r, D, samples, float(np.max(d) - r))


@dataclass(frozen=True)
class PackingReport:
    center: tuple[float, ...]
    R: float
    epsilon: float
    count: int
    bound: float
    trials: int
    seed: int
    points: np.ndarray

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "R": self.R,
            "epsilon": self.epsilon,
            "count": self.count,
            "bound": self.bound,
            "trials": self.trials,
            "seed": self.seed,
            "points": [list(p) for p in self.points],
        }


def greedy_packing(
    body: ConvexBody,
    center,
    R: float,
    epsilon: float,
    trials: int,
    seed: int,
) -> PackingReport:
    """Greedy 2-epsilon-separated subset of B(center, R) from box-rejection draws.

    The packing is seeded with the center, so the count is at least 1.  The
    reported bound is 1 / D^n with D = contraction_constant(epsilon, R +
    epsilon); the count can never exceed it.

    While the pool holds more than ``_FILTER_MIN_POOL`` rows, each accept
    measures only the pool rows a Euclidean bound cannot clear.
    On a chord a, x, y, b of a body of Euclidean diameter at most L, with
    rho = |x - y|, d(x, y) = log1p(rho / |a x|) + log1p(rho / |y b|) and
    |a x| + |y b| <= L - rho; both terms are convex, so
    d(x, y) >= 2 log1p(2 rho / (L - rho)), which exceeds 2 epsilon once
    rho > L e / (2 + e), e = expm1(epsilon).  Rows beyond that radius (with
    a relative margin of 1e-9 on its square) are kept unmeasured, and the
    accepts are those of measuring every row.
    """
    c = as_point(center, body.dimension)
    Dn = contraction_constant(epsilon, R + epsilon) ** body.dimension
    if Dn * sys.float_info.max < 1.0:
        raise BadRadii(f"packing bound 1/D^{body.dimension} exceeds the float64 maximum at R={R!r}")
    bound = 1.0 / Dn
    rng = np.random.default_rng(seed)
    cands = ball_candidates(body, c, R, trials, rng)

    # Greedy in draw order: accept a candidate iff it clears every earlier
    # accept.  Equivalently, each accept eliminates its 2-epsilon neighbourhood
    # from the remaining pool, so one batched distance call per accept, on
    # the rows within Euclidean reach of it once the pool is large, suffices.
    e = math.expm1(epsilon)
    reach2 = (body.euclidean_diameter() * e / (2.0 + e)) ** 2 * (1.0 + 1e-9)
    chosen = np.empty((len(cands) + 1, body.dimension))
    chosen[0] = c
    k = 1
    pool = cands
    last = c
    while len(pool):
        if len(pool) > _FILTER_MIN_POOL:
            near = np.flatnonzero(_sq_norms(_coords(pool, last)) <= reach2)
            keep = np.ones(len(pool), dtype=bool)
            if near.size:
                rows = np.take(pool, near, axis=0)
                keep[near] = distance_pairs(body, np.broadcast_to(last, rows.shape), rows) > 2.0 * epsilon
        else:
            keep = distance_pairs(body, np.broadcast_to(last, pool.shape), pool) > 2.0 * epsilon
        pool = np.compress(keep, pool, axis=0)
        if not len(pool):
            break
        last = pool[0]
        chosen[k] = last
        k += 1
        pool = pool[1:]
    return PackingReport(
        center=tuple(float(v) for v in c),
        R=float(R),
        epsilon=float(epsilon),
        count=k,
        bound=bound,
        trials=int(trials),
        seed=int(seed),
        points=_read_only(chosen[:k]),
    )


@dataclass(frozen=True)
class CoronaProbeReport:
    delta: float
    C: float
    probe_radii: tuple[float, ...]
    sup_euclidean_gap: tuple[float, ...]
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "C": self.C,
            "probe_radii": list(self.probe_radii),
            "sup_euclidean_gap": list(self.sup_euclidean_gap),
            "samples": self.samples,
            "seed": self.seed,
        }

    def rows(self) -> list[dict]:
        return [
            {"radius": rho, "sup_euclidean_gap": g}
            for rho, g in zip(self.probe_radii, self.sup_euclidean_gap)
        ]


def _annulus_points(body: ConvexBody, o: np.ndarray, rho: float, samples: int, rng) -> np.ndarray:
    thetas = rng.uniform(0.0, 2.0 * math.pi, samples)
    return sphere_points(body, o, thetas, rng.uniform(rho, rho + 1.0, samples))


def _hilbert_steps(body: ConvexBody, X: np.ndarray, steps: np.ndarray, rng) -> np.ndarray:
    """Move each row of X a given Hilbert distance in a fresh random direction."""
    U = _angle_rows(rng.uniform(0.0, 2.0 * math.pi, X.shape[0]))
    return ray_points(body, X, U, steps)


def corona_probe(
    body: ConvexBody,
    o,
    delta: float,
    C: float,
    radii: Sequence[float],
    samples: int,
    seed: int,
) -> CoronaProbeReport:
    """Largest Euclidean gap among pairs at bounded Hilbert distance, per radius.

    For each probe radius rho the sampler draws x in the annulus
    rho <= d(o, x) <= rho + 1 and y a Hilbert step of at most C from x, and
    records sup |x - y| over the draws.  Gaps that die out as rho grows are
    the signature of a strictly convex boundary; gaps that persist witness a
    straight boundary piece.
    """
    po = as_point(o, 2)
    rng = np.random.default_rng(seed)
    sups = []
    for rho in radii:
        X = _annulus_points(body, po, float(rho), samples, rng)
        steps = rng.uniform(0.0, C, samples) if C > 0 else np.zeros(samples)
        Y = _hilbert_steps(body, X, steps, rng)
        sups.append(float(np.max(_norms(X, Y))))
    return CoronaProbeReport(
        delta=float(delta),
        C=float(C),
        probe_radii=tuple(float(r) for r in radii),
        sup_euclidean_gap=tuple(sups),
        samples=int(samples),
        seed=int(seed),
    )


def flat_boundary_ray_bound(body: ConvexBody, alpha, beta, xi, eta) -> float:
    """Distance bound log(|xi beta| |eta alpha| / (|xi alpha| |eta beta|)).

    alpha, beta span a straight boundary piece (membership is checked on a
    sample of the segment); xi, eta are interior points of that segment with
    |alpha xi| < |alpha eta|.  Pairs of points on the rays from a base
    through xi and eta cut by lines parallel to the segment stay within this
    Hilbert distance of each other at every radius.
    """
    a = as_point(alpha, body.dimension)
    b = as_point(beta, body.dimension)
    lam = np.linspace(0.0, 1.0, 33)
    off = np.flatnonzero(body.classify_many(a + lam[:, None] * (b - a)) != 0)
    if off.size:
        raise NotOnBoundary(f"segment point at fraction {lam[off[0]]:.3f} is not on the boundary")

    axis = b - a
    length = float(np.linalg.norm(axis))
    e = axis / length
    tol = 1e-9 * max(1.0, length)
    x, y = as_point(xi), as_point(eta)
    tx = float(np.dot(x - a, e))
    ty = float(np.dot(y - a, e))
    off_x = float(np.linalg.norm(x - (a + tx * e)))
    off_y = float(np.linalg.norm(y - (a + ty * e)))
    if max(off_x, off_y) > tol:
        raise BadOrder("xi and eta must lie on the segment")
    if not (0.0 + tol < tx < ty - tol < length - tol):
        raise BadOrder("need alpha, xi, eta, beta strictly ordered along the segment")

    num = float(np.linalg.norm(x - b) * np.linalg.norm(y - a))
    den = float(np.linalg.norm(x - a) * np.linalg.norm(y - b))
    return math.log(num / den)


def higson_defect(
    body: ConvexBody,
    f: Callable[[np.ndarray], float],
    C: float,
    rho: float,
    samples: int,
    seed: int,
    base=None,
) -> float:
    """Sampled sup of |f(x) - f(y)| over pairs with d(x, y) <= C, d(o, x) >= rho.

    Boundary-continuous f with vanishing defect as rho grows is the Higson
    condition; fields that separate the ends of a straight boundary piece
    keep the defect bounded away from zero.
    """
    po = body.interior_seed() if base is None else as_point(base, 2)
    rng = np.random.default_rng(seed)
    X = _annulus_points(body, po, float(rho), samples, rng)
    steps = rng.uniform(0.0, C, samples) if C > 0 else np.zeros(samples)
    Y = _hilbert_steps(body, X, steps, rng)
    return max([0.0] + [abs(float(f(x)) - float(f(y))) for x, y in zip(X, Y)])
