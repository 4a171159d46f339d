"""Concentric-sphere arc decompositions and the bounded-multiplicity cover.

Fix an interior base point o and a step R > 0.  The metric sphere of radius
i R about o is a topological circle, parametrized by the Euclidean angle of
the ray from o.  Each sphere is decomposed into arcs satisfying two sampled
conditions:

* reach: the arc contains a point at distance >= R from its start,
* spread: the arc has diameter <= 4R.

Arcs are produced by marching the first radius-R crossing from the arc
start, merging a short tail into the previous arc, and erasing one cut when
the arc count comes out even, so every decomposition has an odd number of
arcs per parent arc.  Markers alternate between kinds X and Y; radial
projection between consecutive spheres is the identity on angles, so a
marker of one level lifts to the next level at the exact same angle with
the opposite kind.  Pieces of the cover are the angular sectors between
consecutive X markers, bounded by two spheres and two radial segments, plus
the central ball.  The construction keeps the multiplicity of metric
r-balls at 3 or below once R > 4r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bodies import ConvexBody, Region, as_point, classify, _read_only
from .errors import (
    ArcReachViolation,
    BadRadii,
    DegenerateRay,
    DimensionUnsupported,
    ExteriorPoint,
    NegativeParameter,
)
from .metric import _ray_param, distance_pairs, ray_point, ray_spec

TWO_PI = 2.0 * math.pi
# angular bisection tolerance for marker placement
ANGLE_TOL = 1e-10
# grid resolution for sampled reach scans and marker marching
N_ARC = 512
# pairwise sample count for sampled arc/piece diameters
N_DIAM = 128


def arc_tolerance(R: float) -> float:
    """Acceptance slack for sampled arc conditions, 1e-6 relative to R."""
    return 1e-6 * R


def _norm_angle(theta: float) -> float:
    t = math.fmod(theta, TWO_PI)
    return t + TWO_PI if t < 0.0 else t


class SphereField:
    """The rays from one interior base point of a planar body, by angle; uncached."""

    def __init__(self, body: ConvexBody, o):
        if body.dimension != 2:
            raise DimensionUnsupported("sphere decompositions are planar")
        self.body = body
        self.o = as_point(o, 2)
        if classify(body, self.o) is not Region.INTERIOR:
            raise ExteriorPoint("decomposition base point must be interior")

    def exits(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backward and forward exit lengths (a, b) of the rays at angles thetas."""
        thetas = np.asarray(thetas, dtype=float)
        U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        O = np.broadcast_to(self.o, U.shape)
        return self.body.ray_exit(O, -U), self.body.ray_exit(O, U)

    def points(self, thetas: np.ndarray, ts) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        a, b = self.exits(thetas)
        U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        return self.o + _ray_param(a, b, ts)[:, None] * U

    def point(self, theta: float, t: float) -> np.ndarray:
        return self.points(np.array([theta]), float(t))[0]

    def dist_from(self, p: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return distance_pairs(self.body, np.broadcast_to(p, Q.shape), Q)


@dataclass(frozen=True)
class SphereLevel:
    """Metric sphere number ``index`` about ``base``, radius exactly index * R."""

    index: int
    radius: float
    body: ConvexBody
    base: np.ndarray

    def field(self) -> SphereField:
        return SphereField(self.body, self.base)


@dataclass(frozen=True)
class Marker:
    angle: float       # in [0, 2 pi)
    kind: str          # "X" or "Y"
    ordinal: int       # index among markers of the same kind, by angle


@dataclass(frozen=True)
class ArcDecomposition:
    """Alternating marker cycle on one sphere level."""

    level: SphereLevel
    markers: tuple[Marker, ...]

    def __post_init__(self):
        m = self.markers
        if len(m) < 2 or len(m) % 2 != 0:
            raise ValueError(f"marker count must be even and >= 2, got {len(m)}")
        angles = [mk.angle for mk in m]
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValueError("marker angles must be strictly increasing")
        if angles[0] < 0.0 or angles[-1] >= TWO_PI:
            raise ValueError("marker angles must be normalized into [0, 2 pi)")
        kinds = [mk.kind for mk in m]
        for a, b in zip(kinds, kinds[1:] + kinds[:1]):
            if a == b or a not in ("X", "Y"):
                raise ValueError("marker kinds must alternate X, Y around the circle")

    def angles(self) -> np.ndarray:
        return np.array([mk.angle for mk in self.markers])

    def x_markers(self) -> list[Marker]:
        return [mk for mk in self.markers if mk.kind == "X"]

    def y_markers(self) -> list[Marker]:
        return [mk for mk in self.markers if mk.kind == "Y"]

    def arcs(self) -> list[tuple[float, float]]:
        """Consecutive marker arcs as (start, unwrapped end), CCW, wrapping once."""
        a = [mk.angle for mk in self.markers]
        out = []
        for i in range(len(a)):
            lo = a[i]
            hi = a[(i + 1) % len(a)]
            if hi <= lo:
                hi += TWO_PI
            out.append((lo, hi))
        return out


def project_between_levels(body: ConvexBody, o, x, t_target: float) -> np.ndarray:
    """Slide x along its ray from o to the point at distance t_target from o.

    Angle-preserving by construction; this is the radial projection that
    matches markers of consecutive sphere levels.
    """
    po = as_point(o, 2)
    px = as_point(x, 2)
    if t_target <= 0.0:
        raise NegativeParameter("target radius must be positive")
    if float(np.linalg.norm(px - po)) <= 1e-12:
        raise DegenerateRay("cannot project the base point itself")
    return ray_point(ray_spec(body, po, px - po), float(t_target))


def first_marker(
    level: SphereLevel,
    start_angle: float,
    end_angle: float,
    R: float,
    *,
    grid: int = N_ARC,
    angle_tol: float = ANGLE_TOL,
) -> float | None:
    """First angle on the arc whose sphere point is at distance R from the start.

    Scans a uniform grid and refines the bracket by bisection; assumes only
    continuity of the distance along the arc.  Returns None when the sampled
    arc never reaches distance R from its start.
    """
    field = level.field()
    width = end_angle - start_angle
    if width <= 0.0:
        return None
    thetas = start_angle + width * np.arange(grid + 1) / grid
    pts = field.points(thetas, level.radius)
    d = field.dist_from(pts[0], pts)
    hits = np.nonzero(d >= R)[0]
    if hits.size == 0 or hits[0] == 0:
        return None
    k = int(hits[0])
    lo, hi = float(thetas[k - 1]), float(thetas[k])
    p0 = pts[0]
    while hi - lo > angle_tol:
        mid = 0.5 * (lo + hi)
        dm = float(field.dist_from(p0, field.point(mid, level.radius)[None, :])[0])
        if dm >= R:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def decompose_arc(
    level: SphereLevel,
    start_angle: float,
    end_angle: float,
    R: float,
    *,
    grid: int = N_ARC,
    angle_tol: float = ANGLE_TOL,
) -> list[float]:
    """Interior cut angles splitting the arc into an odd number of good arcs.

    March the first radius-R crossing repeatedly; a tail that never reaches
    R is merged into the previous arc (erasing the last cut), and if the arc
    count comes out even the first cut is erased.  Every resulting arc then
    reaches R from its start, and the 4R spread bound holds with margin because marched arcs keep
    all points within R of their start.
    """
    if end_angle - start_angle <= 0.0:
        raise ValueError("arc must have positive width")
    pts = [start_angle]
    for _ in range(100000):
        theta = first_marker(level, pts[-1], end_angle, R, grid=grid, angle_tol=angle_tol)
        if theta is None:
            if len(pts) == 1:
                raise ArcReachViolation(
                    f"arc [{start_angle:.6f}, {end_angle:.6f}] at radius {level.radius:g} "
                    f"never reaches distance {R:g} from its start"
                )
            pts.pop()          # merge the short tail into the previous arc
            pts.append(end_angle)
            break
        if end_angle - theta <= angle_tol:
            pts.append(end_angle)
            break
        pts.append(theta)
    else:
        raise RuntimeError("arc marching failed to terminate")

    if (len(pts) - 1) % 2 == 0:
        pts.pop(1)             # erase the first cut to make the count odd
    return pts[1:-1]


def _assemble(level: SphereLevel, angle_kind_pairs: list[tuple[float, str]]) -> ArcDecomposition:
    pairs = sorted(angle_kind_pairs)
    seen: dict[str, int] = {"X": 0, "Y": 0}
    markers = []
    for angle, kind in pairs:
        markers.append(Marker(angle=angle, kind=kind, ordinal=seen[kind]))
        seen[kind] += 1
    return ArcDecomposition(level=level, markers=tuple(markers))


def initial_decomposition(
    body: ConvexBody,
    o,
    R: float,
    *,
    theta0: float = 0.0,
    grid: int = N_ARC,
) -> ArcDecomposition:
    """Decompose the first sphere, split into halves at theta0 and theta0 + pi.

    The two half arcs always reach R (their endpoints are antipodal,
    hence 2R apart), so each is decomposed on its own and the marker kinds
    alternate starting with X at theta0.
    """
    if R <= 0.0:
        raise NegativeParameter("sphere step R must be positive")
    level = SphereLevel(index=1, radius=R, body=body, base=_read_only(as_point(o, 2)))
    try:
        cuts1 = decompose_arc(level, theta0, theta0 + math.pi, R, grid=grid)
        cuts2 = decompose_arc(level, theta0 + math.pi, theta0 + TWO_PI, R, grid=grid)
    except ArcReachViolation as e:
        raise ArcReachViolation(f"level 1 with R={R:g}: {e}") from e
    ordered = [theta0, *cuts1, theta0 + math.pi, *cuts2]
    pairs = [(_norm_angle(t), "X" if i % 2 == 0 else "Y") for i, t in enumerate(ordered)]
    if len(pairs) % 2 != 0:
        raise RuntimeError("internal: initial marker count came out odd")
    return _assemble(level, pairs)


def refine_level(dec: ArcDecomposition, R: float, *, grid: int = N_ARC) -> ArcDecomposition:
    """Lift a decomposition to the next sphere and re-decompose each lifted arc.

    Lifting is the identity on angles.  Every lifted arc inherits its reach
    because distances along rays grow with the radius, each is split into an
    odd number of arcs, and the lift of each marker therefore receives the
    opposite kind, which is exactly the interleaving the multiplicity bound
    needs.  A ArcReachViolation here means the inputs were inconsistent.
    """
    lower = dec.level
    upper = SphereLevel(
        index=lower.index + 1,
        radius=(lower.index + 1) * R,
        body=lower.body,
        base=lower.base,
    )
    marks = dec.markers
    M = len(marks)
    start = next(i for i, mk in enumerate(marks) if mk.kind == "Y")

    new_pairs: list[tuple[float, str]] = []
    flip = {"X": "Y", "Y": "X"}
    kind = "X"                   # the lift of a Y marker opens the walk
    for j in range(M):
        i0 = (start + j) % M
        i1 = (start + j + 1) % M
        lo = marks[i0].angle
        hi = marks[i1].angle
        if hi <= lo:
            hi += TWO_PI
        if kind != flip[marks[i0].kind]:
            raise RuntimeError("internal: lifted marker kind does not alternate correctly")
        try:
            cuts = decompose_arc(upper, lo, hi, R, grid=grid)
        except ArcReachViolation as e:
            raise ArcReachViolation(
                f"level {upper.index} with R={R:g}: lifted arc lost its reach ({e})"
            ) from e
        new_pairs.append((marks[i0].angle, kind))   # exact angle copy of the lift
        for c in cuts:
            kind = flip[kind]
            new_pairs.append((_norm_angle(c), kind))
        kind = flip[kind]
    if len(new_pairs) % 2 != 0:
        raise RuntimeError("internal: refined marker count came out odd")
    return _assemble(upper, new_pairs)


def refine_to_depth(body: ConvexBody, o, R: float, levels: int, *, grid: int = N_ARC) -> list[ArcDecomposition]:
    """Decompositions of spheres 1..levels, each admissible over the previous."""
    if levels < 1:
        raise ValueError("need at least one level")
    decs = [initial_decomposition(body, o, R, grid=grid)]
    for _ in range(levels - 1):
        decs.append(refine_level(decs[-1], R, grid=grid))
    return decs


def is_admissible_over(upper: ArcDecomposition, lower: ArcDecomposition) -> bool:
    """Every lower marker lifts to an upper marker at the same angle, kind swapped.

    This is the direction the multiplicity argument uses: corners of lower
    pieces land exactly on upper markers.  New cut markers introduced above
    project into arc interiors below, so no containment holds the other way.
    """
    table = {mk.angle: mk.kind for mk in upper.markers}
    flip = {"X": "Y", "Y": "X"}
    return all(table.get(mk.angle) == flip[mk.kind] for mk in lower.markers)


def refinement_arc_counts(upper: ArcDecomposition, lower: ArcDecomposition) -> list[int]:
    """Sub-arc count of each lower marker arc in the refinement; all odd."""
    ua = upper.angles()
    la = [mk.angle for mk in lower.markers]
    counts = []
    for i in range(len(la)):
        lo = la[i]
        hi = la[(i + 1) % len(la)]
        if hi > lo:
            inside = np.count_nonzero((ua > lo) & (ua < hi))
        else:
            inside = np.count_nonzero(ua > lo) + np.count_nonzero(ua < hi)
        counts.append(int(inside) + 1)
    return counts


def initial_half_counts(dec: ArcDecomposition, theta0: float = 0.0) -> tuple[int, int]:
    """Arc counts of the two starting half circles; both odd by construction."""
    off = (dec.angles() - _norm_angle(theta0)) % TWO_PI
    c1 = int(np.count_nonzero(off < math.pi))
    return c1, len(dec.markers) - c1


# -- sampled audits ----------------------------------------------------------


def arc_start_reach(
    dec_level: SphereLevel,
    start_angle: float,
    end_angle: float,
    *,
    grid: int = N_ARC,
) -> float:
    """Sampled max distance from the arc start; every marked arc needs this >= R."""
    field = dec_level.field()
    thetas = start_angle + (end_angle - start_angle) * np.arange(grid + 1) / grid
    pts = field.points(thetas, dec_level.radius)
    return float(field.dist_from(pts[0], pts).max())


def arc_sampled_diameter(
    dec_level: SphereLevel,
    start_angle: float,
    end_angle: float,
    *,
    n: int = N_DIAM,
) -> float:
    """Sampled Hilbert diameter of the arc; the spread bound needs this <= 4R."""
    field = dec_level.field()
    thetas = start_angle + (end_angle - start_angle) * np.arange(n + 1) / n
    pts = field.points(thetas, dec_level.radius)
    ii, jj = np.triu_indices(len(pts), k=1)
    return float(distance_pairs(field.body, pts[ii], pts[jj]).max())


def decomposition_audit(dec: ArcDecomposition, R: float, *, grid: int = N_ARC, n_diam: int = N_DIAM) -> list[dict]:
    """Per-arc reach and spread samples, one row per marker arc."""
    rows = []
    for lo, hi in dec.arcs():
        rows.append(
            {
                "level": dec.level.index,
                "start": lo,
                "end": hi,
                "start_reach": arc_start_reach(dec.level, lo, hi, grid=grid),
                "diameter": arc_sampled_diameter(dec.level, lo, hi, n=n_diam),
            }
        )
    return rows


# -- cover pieces ------------------------------------------------------------


@dataclass(frozen=True)
class CoverPiece:
    """Angular sector between consecutive X markers and two sphere levels.

    Level 0 is the central ball: full angle, radii [0, R].  Other levels are
    bounded by the inner arc at level * R, the outer (lifted) arc at
    (level + 1) * R, and two radial geodesic sides at the X marker angles.
    """

    level: int
    ordinal: int
    theta_start: float
    width: float
    r_inner: float
    r_outer: float
    body: ConvexBody
    base: np.ndarray

    @property
    def theta_end(self) -> float:
        return self.theta_start + self.width

    def contains(self, t: float, theta: float, tol: float = 1e-9) -> bool:
        """Membership in radial coordinates (t, theta) about the base."""
        if not (self.r_inner - tol <= t <= self.r_outer + tol):
            return False
        if self.level == 0:
            return True
        off = _norm_angle(theta - self.theta_start)
        return off <= self.width + tol or off >= TWO_PI - tol

    def boundary_samples(self, n: int) -> np.ndarray:
        """Boundary points (arcs and radial sides); the count depends only on n."""
        field = SphereField(self.body, self.base)
        n_arc = max(4, n * 3 // 8)
        n_side = max(2, (n - 2 * n_arc) // 2)
        total = 2 * (n_arc + 1) + 2 * n_side
        if self.level == 0:
            thetas = self.theta_start + self.width * np.arange(total) / total
            return field.points(thetas, self.r_outer)
        thetas = self.theta_start + self.width * np.arange(n_arc + 1) / n_arc
        inner = field.points(thetas, self.r_inner)
        outer = field.points(thetas, self.r_outer)
        ts = np.linspace(self.r_inner, self.r_outer, n_side + 2)[1:-1]
        side1 = field.points(np.full(ts.shape, self.theta_start), ts)
        side2 = field.points(np.full(ts.shape, self.theta_end), ts)
        return np.vstack([inner, outer, side1, side2])


def build_cover(body: ConvexBody, o, R: float, levels: int, *, grid: int = N_ARC) -> list[CoverPiece]:
    """Cover pieces: the central ball plus the sectors of levels 1..levels."""
    return pieces_from_decompositions(body, o, R, refine_to_depth(body, o, R, levels, grid=grid))


def pieces_from_decompositions(
    body: ConvexBody, o, R: float, decs: Sequence[ArcDecomposition]
) -> list[CoverPiece]:
    base = _read_only(as_point(o, 2))
    pieces = [
        CoverPiece(
            level=0, ordinal=0, theta_start=0.0, width=TWO_PI,
            r_inner=0.0, r_outer=R, body=body, base=base,
        )
    ]
    for dec in decs:
        xs = dec.x_markers()
        for j, mk in enumerate(xs):
            nxt = xs[(j + 1) % len(xs)]
            width = _norm_angle(nxt.angle - mk.angle)
            if width <= 0.0:
                width = TWO_PI
            pieces.append(
                CoverPiece(
                    level=dec.level.index,
                    ordinal=j,
                    theta_start=mk.angle,
                    width=width,
                    r_inner=dec.level.radius,
                    r_outer=dec.level.radius + R,
                    body=body,
                    base=base,
                )
            )
    return pieces


def piece_diameter(piece: CoverPiece, n: int = 64) -> float:
    """Sampled Hilbert diameter over >= 64 boundary samples."""
    if n < 64:
        raise ValueError("piece diameter sampling needs at least 64 points")
    pts = piece.boundary_samples(n)
    ii, jj = np.triu_indices(len(pts), k=1)
    return float(distance_pairs(piece.body, pts[ii], pts[jj]).max())


@dataclass(frozen=True)
class MultiplicityReport:
    r: float
    R: float
    trials: int
    seed: int
    max_count: int
    histogram: dict[int, int]
    samples_per_piece: int

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "R": self.R,
            "trials": self.trials,
            "seed": self.seed,
            "max_count": self.max_count,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "samples_per_piece": self.samples_per_piece,
        }


def multiplicity_probe(
    pieces: Sequence[CoverPiece],
    r: float,
    trials: int,
    seed: int,
    *,
    samples_per_piece: int = 32,
) -> MultiplicityReport:
    """Count pieces met by random metric r-balls; requires R > 4r.

    A piece is counted when the ball center lies inside it or within
    distance r of its sampled boundary, so the count is a lower bound for
    the true multiplicity and can only miss grazing contacts.
    """
    if not pieces:
        raise ValueError("empty cover")
    ball = next(p for p in pieces if p.level == 0)
    R = ball.r_outer
    if not R > 4.0 * r:
        raise BadRadii(f"multiplicity probe requires R > 4r, got R={R:g}, r={r:g}")
    body = ball.body
    base = ball.base
    field = SphereField(body, base)

    samples = np.stack([p.boundary_samples(samples_per_piece) for p in pieces])
    bands = np.array([[p.r_inner, p.r_outer] for p in pieces])
    t_max = max(p.r_outer for p in pieces)

    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, trials)
    ts = rng.uniform(0.0, t_max, trials)
    centers = field.points(thetas, ts)

    hist: dict[int, int] = {}
    max_count = 0
    m = samples.shape[1]
    for x, t, theta in zip(centers, ts, thetas):
        cand = np.nonzero((bands[:, 0] - r - 1e-9 <= t) & (t <= bands[:, 1] + r + 1e-9))[0]
        count = 0
        if cand.size:
            block = samples[cand].reshape(-1, 2)
            d = distance_pairs(body, np.broadcast_to(x, block.shape), block).reshape(cand.size, m)
            near = d.min(axis=1) <= r
            for local_i, pi in enumerate(cand):
                if near[local_i] or pieces[pi].contains(t, theta):
                    count += 1
        hist[count] = hist.get(count, 0) + 1
        max_count = max(max_count, count)
    return MultiplicityReport(
        r=float(r), R=float(R), trials=int(trials), seed=int(seed),
        max_count=max_count, histogram=hist, samples_per_piece=samples_per_piece,
    )


# -- ray comparison helpers (shared by verification suites) ------------------


def ray_pair_distances(body: ConvexBody, o, theta1: float, theta2: float, ts: np.ndarray) -> np.ndarray:
    """d(l1(t), l2(t)) along two unit-speed rays from o, for each t in ts."""
    field = SphereField(body, o)
    ts = np.asarray(ts, dtype=float)
    P = field.points(np.full(ts.shape, float(theta1)), ts)
    Q = field.points(np.full(ts.shape, float(theta2)), ts)
    return distance_pairs(body, P, Q)


def footprint_diameter(
    body: ConvexBody,
    o,
    ball_center,
    r: float,
    level_radius: float,
    samples: int,
    seed: int,
) -> float:
    """Sampled diameter of the radial projection of B(center, r) onto a sphere."""
    from .sampling import sample_ball

    rng = np.random.default_rng(seed)
    pts = sample_ball(body, ball_center, r, samples, rng)
    po = as_point(o, 2)
    diffs = pts - po
    angles = np.arctan2(diffs[:, 1], diffs[:, 0])
    field = SphereField(body, po)
    proj = field.points(angles, level_radius)
    ii, jj = np.triu_indices(len(proj), k=1)
    return float(distance_pairs(body, proj[ii], proj[jj]).max())
