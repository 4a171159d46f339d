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
the opposite kind.  Every level is built by that lift: level 0 is the base
point with two markers, Y at 0 and X at pi.  Pieces of the cover are the
angular sectors between consecutive X markers, bounded by two spheres and
two radial segments, plus the central ball.  The construction keeps the
multiplicity of metric r-balls at 3 or below once R > 4r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bodies import (SLACK_BLOCK, ConvexBody, Region, as_point, classify, _along, _angle_rows,
                     _read_only, _sq_norms)
from .errors import (
    ArcMarchExhausted,
    ArcReachViolation,
    BadRadii,
    DimensionUnsupported,
    ExteriorPoint,
    NegativeParameter,
)
from .metric import _ray_param, distance_pairs, pairwise_distances

TWO_PI = 2.0 * math.pi
# angular bisection tolerance for marker placement
ANGLE_TOL = 1e-10
# grid resolution for sampled reach scans and marker marching
N_ARC = 512
# markers test d >= R (1 - TIE_REL): near flat faces d is R up to rounding over whole arcs
TIE_REL = 1e-12
# cap on bisection halvings per marker (not oracle rounds); the width and
# split tests usually end it first
MAX_HALVINGS = 64
# bisection halvings per oracle round of first_marker: one call evaluates the
# 2**TREE_DEPTH - 1 midpoints below each open bracket
TREE_DEPTH = 4
# rows per oracle call in the batched marker scans of first_marker and in
# svgout.render_cover
# (bisection rounds are not split: 2**TREE_DEPTH - 1 rows per open bracket)
ROW_BUDGET = 4096
# pairwise sample count for sampled arc diameters
N_DIAM = 128
# boundary samples per piece in the multiplicity probe
PROBE_SAMPLES = 32
# cap on first-marker steps per decompose_arc call
MAX_MARCH_STEPS = 100000


def arc_tolerance(R: float) -> float:
    """Acceptance slack for sampled arc conditions, 1e-6 relative to R."""
    return 1e-6 * R


def _norm_angle(theta: float) -> float:
    t = math.fmod(theta, TWO_PI)
    return t + TWO_PI if t < 0.0 else t


class SphereField:
    """The rays from one interior base point of a planar body, by angle; uncached.
    Every level and piece of one cover holds the same field, so ``o`` is read-only."""

    def __init__(self, body: ConvexBody, o):
        if body.dimension != 2:
            raise DimensionUnsupported("sphere decompositions are planar")
        self.body = body
        self.o = _read_only(as_point(o, 2))
        if classify(body, self.o) is not Region.INTERIOR:
            raise ExteriorPoint("decomposition base point must be interior")

    def exits(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward and forward exit lengths (a, b) of the rays at angles
        thetas, and the unit rows U of those rays."""
        U = _angle_rows(thetas)
        a, b = self.body.ray_exit(np.broadcast_to(self.o, U.shape), U)
        return a, b, U

    def points(self, thetas: np.ndarray, ts) -> np.ndarray:
        a, b, U = self.exits(thetas)
        return _along(self.o, _ray_param(a, b, ts), U)

    def dist_from(self, p: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return distance_pairs(self.body, np.broadcast_to(p, Q.shape), Q)


@dataclass(frozen=True)
class SphereLevel:
    """Metric sphere number ``index`` about the field's base, radius exactly
    index * R; level 0 is the base point.  The levels of one cover share
    their ``field``."""

    index: int
    radius: float
    field: SphereField


@dataclass(frozen=True)
class Marker:
    angle: float       # in [0, 2 pi)
    kind: str          # "X" or "Y"


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


def first_marker(level: SphereLevel, starts, ends, R: float) -> np.ndarray:
    """First angle on each arc whose sphere point is at distance R from the arc start.

    Arc k runs from ``starts[k]`` to ``ends[k]`` and is scanned on the grid
    angles ``s + (e - s) * j / N_ARC``, j = 1..N_ARC (j = 0 is the start, at
    distance 0), in blocks of grid columns.  A block is N_ARC columns wide,
    halved while the open arcs do not fit in one oracle call of ROW_BUDGET
    rows, down to N_ARC**2 // ROW_BUDGET columns, so an arc takes at most
    ROW_BUDGET // N_ARC blocks; arcs that still do not fit share several
    calls.  An arc leaves the scan with the block that holds its first
    distance >= R (1 - TIE_REL), and that first bracket crossing it is
    refined by bisection.  Each oracle round evaluates, for all open
    brackets at once, the midpoints of the next TREE_DEPTH levels of the
    bisection tree below them, then takes up to TREE_DEPTH halvings down
    that tree.  A bracket closes once it is no wider than ANGLE_TOL, after
    MAX_HALVINGS halvings, or when its midpoint no longer splits it, so each
    arc follows the same steps as one halving per round, whatever else is in
    the batch.  Assumes only continuity of the distance along the arc.
    Holds NaN for an arc that is empty, whose start already reads distance
    >= R (R <= 0), or whose sampled points never reach distance R from its
    start.
    """
    field = level.field
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    ends = np.atleast_1d(np.asarray(ends, dtype=float))
    lo = np.full(starts.shape, np.nan)
    hi = np.full(starts.shape, np.nan)
    p0 = np.zeros((starts.size, 2))
    scan = np.nonzero((ends > starts) & (R > 0.0))[0]
    if scan.size:
        p0[scan] = field.points(starts[scan], level.radius)
    col = 1
    while scan.size and col <= N_ARC:
        width = N_ARC
        while width > N_ARC * N_ARC // ROW_BUDGET and width * scan.size > ROW_BUDGET:
            width //= 2
        cols = np.arange(col, min(col + width, N_ARC + 1))
        per_call = max(1, ROW_BUDGET // width)
        done = np.zeros(scan.size, dtype=bool)
        for c in range(0, scan.size, per_call):
            k = scan[c:c + per_call]
            s, e = starts[k], ends[k]
            thetas = s[:, None] + (e - s)[:, None] * cols / N_ARC
            d = field.dist_from(np.repeat(p0[k], cols.size, axis=0),
                                field.points(thetas.ravel(), level.radius))
            hit = d.reshape(thetas.shape) >= R * (1.0 - TIE_REL)
            got = hit.any(axis=1)
            j, s, e = k[got], s[got], e[got]
            first = cols[hit[got].argmax(axis=1)]
            lo[j] = s + (e - s) * (first - 1) / N_ARC
            hi[j] = s + (e - s) * first / N_ARC
            done[c:c + per_call] = got
        scan = scan[~done]
        col += cols.size

    live = np.nonzero(hi - lo > ANGLE_TOL)[0]
    halvings = 0
    while live.size and halvings < MAX_HALVINGS:
        depth = min(TREE_DEPTH, MAX_HALVINGS - halvings)
        L, H = lo[live], hi[live]
        up = _crossing_tree(field, level.radius, R, p0[live], L, H, depth).ravel()
        walking = np.ones(live.size, dtype=bool)
        step = 2**(depth - 1)
        at = np.arange(step - 1, up.size, 2 * step - 1)   # the midpoint of each [L, H] in up
        for _ in range(depth):
            mid = 0.5 * (L + H)
            walking &= (L < mid) & (mid < H)
            u = up[at]
            np.copyto(H, mid, where=walking & u)
            np.copyto(L, mid, where=walking & ~u)
            step //= 2
            at += np.where(u, -step, step)
            walking &= H - L > ANGLE_TOL
        halvings += depth
        lo[live], hi[live] = L, H
        live = live[walking]
    return 0.5 * (lo + hi)


def _crossing_tree(field: SphereField, radius: float, R: float, p0, lo, hi, depth: int) -> np.ndarray:
    """``d(p0, point(mid)) >= R (1 - TIE_REL)`` at the midpoint of every
    bracket in the first ``depth`` levels of bisection below each [lo, hi],
    one oracle call for all.

    Row k holds bracket k's 2**depth - 1 midpoints in angle order: column
    2**(depth - 1) - 1 is the midpoint of [lo, hi], and the midpoints of the
    two halves of a bracket at level i of the tree (the root is level 0) sit
    2**(depth - 2 - i) columns below and above its own.  The midpoints fill
    one array level by level, each between the two ends it halves, formed
    from the bracket ends exactly as the bisection forms them.
    """
    n = 2**depth
    E = np.empty((lo.size, n + 1))
    E[:, 0], E[:, n] = lo, hi
    while n > 1:                            # the brackets of a level end every n columns
        E[:, n // 2::n] = 0.5 * (E[:, :-1:n] + E[:, n::n])
        n //= 2
    thetas = E[:, 1:-1]
    d = field.dist_from(np.repeat(p0, thetas.shape[1], axis=0), field.points(thetas.ravel(), radius))
    return d.reshape(thetas.shape) >= R * (1.0 - TIE_REL)


def decompose_arc(level: SphereLevel, starts, ends, R: float) -> list[list[float]]:
    """Interior cut angles splitting each arc into an odd number of good arcs.

    Arc k runs from ``starts[k]`` to ``ends[k]``; one list of cuts is
    returned per arc.  Each arc marches the first radius-R crossing
    repeatedly, all arcs in lockstep with one ``first_marker`` call per
    step; a crossing within ANGLE_TOL of the arc end closes the arc there.
    A tail that never reaches R is merged into the previous arc (erasing
    the last cut), and if the arc count comes out even the first cut is
    erased.  Every resulting arc then reaches R from its start, and
    the 4R spread bound holds with margin because marched arcs keep all
    points within R of their start.  An arc that never reaches R at all
    raises ArcReachViolation, naming the lowest-index such arc.  Arcs still
    open after MAX_MARCH_STEPS steps raise ArcMarchExhausted.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    ends = np.atleast_1d(np.asarray(ends, dtype=float))
    if np.any(ends - starts <= 0.0):
        raise ValueError("arc must have positive width")
    pts = [[s] for s in starts.tolist()]
    live = list(range(len(pts)))
    for _ in range(MAX_MARCH_STEPS):
        if not live:
            break
        thetas = first_marker(level, [pts[i][-1] for i in live], ends[live], R).tolist()
        still = []
        for i, theta in zip(live, thetas):   # live is in index order
            end = float(ends[i])
            if math.isnan(theta) and len(pts[i]) == 1:
                raise ArcReachViolation(
                    f"arc [{starts[i]:.6f}, {ends[i]:.6f}] at radius {level.radius:g} "
                    f"never reaches distance {R:g} from its start"
                )
            if math.isnan(theta):
                pts[i][-1] = end       # merge the short tail into the previous arc
            elif end - theta <= ANGLE_TOL:
                pts[i].append(end)
            else:
                pts[i].append(theta)
                still.append(i)
        live = still
    if live:
        raise ArcMarchExhausted(
            f"{len(live)} arc(s) at radius {level.radius:g} still open after "
            f"{MAX_MARCH_STEPS} marching steps"
        )

    for p in pts:
        if (len(p) - 1) % 2 == 0:
            p.pop(1)           # erase the first cut to make the count odd
    return [p[1:-1] for p in pts]


def initial_decomposition(body: ConvexBody, o, R: float) -> ArcDecomposition:
    """Decompose the first sphere: the lift of a two-marker level 0.

    Level 0 is the base point with Y at angle 0 and X at pi, so the lift
    splits sphere 1 into the halves [0, pi] and [pi, 2 pi].  Both always
    reach R (their endpoints are antipodal, hence 2R apart), each is
    decomposed on its own, and the marker kinds alternate starting with X
    at angle 0.  The cover's one ``SphereField`` is built here.
    """
    if R <= 0.0:
        raise NegativeParameter("sphere step R must be positive")
    base = SphereLevel(index=0, radius=0.0, field=SphereField(body, o))
    return _lift(ArcDecomposition(base, (Marker(0.0, "Y"), Marker(math.pi, "X"))), R)


def refine_level(dec: ArcDecomposition, R: float) -> ArcDecomposition:
    """Lift a decomposition to the next sphere and re-decompose each lifted arc.

    Lifting is the identity on angles.  Every lifted arc inherits its reach
    because distances along rays grow with the radius, each is split into an
    odd number of arcs, and the lift of each marker therefore receives the
    opposite kind, which is exactly the interleaving the multiplicity bound
    needs.  An ArcReachViolation here means the inputs were inconsistent.
    """
    return _lift(dec, R)


def _lift(dec: ArcDecomposition, R: float) -> ArcDecomposition:
    """The lift behind both ``initial_decomposition`` and ``refine_level``;
    private, so building level 1 makes no ``refine_level`` call."""
    lower = dec.level
    upper = SphereLevel(index=lower.index + 1, radius=(lower.index + 1) * R, field=lower.field)
    marks = dec.markers
    M = len(marks)
    start = next(i for i, mk in enumerate(marks) if mk.kind == "Y")
    walk = [marks[(start + j) % M] for j in range(M + 1)]
    los = [mk.angle for mk in walk[:-1]]
    his = [b.angle if b.angle > a.angle else b.angle + TWO_PI for a, b in zip(walk, walk[1:])]
    try:
        cut_lists = decompose_arc(upper, los, his, R)
    except ArcReachViolation as e:
        raise ArcReachViolation(
            f"level {upper.index} with R={R:g}: lifted arc lost its reach ({e})"
        ) from e

    new_pairs: list[tuple[float, str]] = []
    flip = {"X": "Y", "Y": "X"}
    kind = "X"                   # the lift of a Y marker opens the walk
    for mk, cuts in zip(walk, cut_lists):
        if kind != flip[mk.kind]:
            raise RuntimeError("internal: lifted marker kind does not alternate correctly")
        new_pairs.append((mk.angle, kind))   # exact angle copy of the lift
        for c in cuts:
            kind = flip[kind]
            new_pairs.append((_norm_angle(c), kind))
        kind = flip[kind]
    if len(new_pairs) % 2 != 0:
        raise RuntimeError("internal: refined marker count came out odd")
    return ArcDecomposition(upper, tuple(Marker(angle, kind) for angle, kind in sorted(new_pairs)))


def refine_to_depth(body: ConvexBody, o, R: float, levels: int) -> list[ArcDecomposition]:
    """Decompositions of spheres 1..levels, each admissible over the previous."""
    if levels < 1:
        raise ValueError("need at least one level")
    decs = [initial_decomposition(body, o, R)]
    for _ in range(levels - 1):
        decs.append(refine_level(decs[-1], R))
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


def initial_half_counts(dec: ArcDecomposition) -> tuple[int, int]:
    """Arc counts of the two starting half circles; both odd by construction."""
    c1 = int(np.count_nonzero(dec.angles() < math.pi))
    return c1, len(dec.markers) - c1


# -- sampled audits ----------------------------------------------------------


def decomposition_audit(dec: ArcDecomposition, R: float) -> list[dict]:
    """Per-arc reach and spread samples, one row per marker arc.

    ``start_reach`` is the max distance from the arc start over N_ARC + 1
    uniform angles (needs >= R); ``diameter`` is the Hilbert diameter over
    N_DIAM + 1 uniform angles (needs <= 4R).  Arcs are sampled one by one.
    """
    field = dec.level.field
    rows = []
    for lo, hi in dec.arcs():
        reach = field.points(lo + (hi - lo) * np.arange(N_ARC + 1) / N_ARC, dec.level.radius)
        spread = field.points(lo + (hi - lo) * np.arange(N_DIAM + 1) / N_DIAM, dec.level.radius)
        rows.append({"level": dec.level.index, "start": lo, "end": hi,
                     "start_reach": float(field.dist_from(reach[0], reach).max()),
                     "diameter": float(pairwise_distances(field.body, spread).max())})
    return rows


# -- cover pieces ------------------------------------------------------------


@dataclass(frozen=True)
class CoverPiece:
    """Angular sector between consecutive X markers and two sphere levels.

    Level 0 is the central ball: full angle, radii [0, R].  Other levels are
    bounded by the inner arc at level * R, the outer (lifted) arc at
    (level + 1) * R, and two radial geodesic sides at the X marker angles.
    The pieces of one cover share its ``field``.
    """

    level: int
    ordinal: int
    theta_start: float
    width: float
    r_inner: float
    r_outer: float
    field: SphereField

    @property
    def theta_end(self) -> float:
        return self.theta_start + self.width

    def contains(self, t: float, theta: float, tol: float = 1e-9) -> bool:
        """Membership in radial coordinates (t, theta) about the base."""
        return bool(_in_sectors(t, theta, self.r_inner, self.r_outer,
                                self.theta_start, self.width, self.level == 0, tol))

    def boundary_samples(self, n: int) -> np.ndarray:
        """Boundary points (arcs, then radial sides); the count depends only on n."""
        angles, radii = _sample_rays(*_piece_table([self]), n)
        return self.field.points(angles[0], radii[0])


def _in_sectors(t, theta, r_inner, r_outer, theta_start, width, full, tol: float = 1e-9):
    """Membership of radial coordinates (t, theta) in pieces with the given
    bands, start angles and widths (``full``: the whole angle); broadcasts."""
    off = np.fmod(theta - theta_start, TWO_PI)
    off = np.where(off < 0.0, off + TWO_PI, off)
    in_band = (r_inner - tol <= t) & (t <= r_outer + tol)
    return in_band & (full | (off <= width + tol) | (off >= TWO_PI - tol))


def _piece_table(pieces: Sequence[CoverPiece]) -> tuple[np.ndarray, ...]:
    """Start angles, widths, inner and outer radii and level-0 flags of the pieces."""
    return tuple(np.array(col) for col in zip(*[
        (p.theta_start, p.width, p.r_inner, p.r_outer, p.level == 0) for p in pieces]))


def _sample_rays(start, width, r_in, r_out, full, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample angles and radii of every piece, one row per piece.

    A sector row holds the inner arc and the outer arc at n_arc + 1 angles
    each, then n_side points on each radial side, strictly between the two
    radii and equally spaced as ``np.linspace`` spaces them; a ``full`` row
    (the central ball) holds its outer circle at the same total count.
    """
    n_arc = max(4, n * 3 // 8)
    n_side = max(2, (n - 2 * n_arc) // 2)
    m = 2 * (n_arc + 1) + 2 * n_side
    start, width = start[:, None], width[:, None]
    r_in, r_out = r_in[:, None], r_out[:, None]
    arc = start + width * np.arange(n_arc + 1) / n_arc
    side = r_in + np.arange(1, n_side + 1) * ((r_out - r_in) / (n_side + 1))
    angles = np.hstack([arc, arc, np.repeat(start, n_side, axis=1),
                        np.repeat(start + width, n_side, axis=1)])
    radii = np.hstack([np.repeat(r_in, n_arc + 1, axis=1), np.repeat(r_out, n_arc + 1, axis=1),
                       side, side])
    angles[full] = start[full] + width[full] * np.arange(m) / m
    radii[full] = r_out[full]
    return angles, radii


def build_cover(body: ConvexBody, o, R: float, levels: int) -> list[CoverPiece]:
    """Cover pieces: the central ball plus the sectors of levels 1..levels."""
    return pieces_from_decompositions(body, o, R, refine_to_depth(body, o, R, levels))


def pieces_from_decompositions(
    body: ConvexBody, o, R: float, decs: Sequence[ArcDecomposition]
) -> list[CoverPiece]:
    """The central ball and each level's sectors, all holding the field of
    ``decs``, which must be on (body, o); a new field when ``decs`` is empty."""
    field = decs[0].level.field if decs else SphereField(body, o)
    if (field.body is not body or not np.array_equal(field.o, np.asarray(o, dtype=float))
            or any(d.level.field is not field for d in decs)):
        raise ValueError("the decompositions must share one field on (body, o)")
    pieces = [CoverPiece(level=0, ordinal=0, theta_start=0.0, width=TWO_PI,
                         r_inner=0.0, r_outer=R, field=field)]
    for dec in decs:
        xs = dec.x_markers()
        for j, mk in enumerate(xs):
            width = _norm_angle(xs[(j + 1) % len(xs)].angle - mk.angle)
            if width <= 0.0:
                width = TWO_PI
            pieces.append(CoverPiece(level=dec.level.index, ordinal=j, theta_start=mk.angle,
                                     width=width, r_inner=dec.level.radius,
                                     r_outer=dec.level.radius + R, field=field))
    return pieces


def piece_diameter(piece: CoverPiece, n: int = 64) -> float:
    """Sampled Hilbert diameter over >= 64 boundary samples."""
    if n < 64:
        raise ValueError("piece diameter sampling needs at least 64 points")
    return float(pairwise_distances(piece.field.body, piece.boundary_samples(n)).max())


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
    pieces: Sequence[CoverPiece], r: float, trials: int, seed: int
) -> MultiplicityReport:
    """Count pieces met by random metric r-balls; requires R > 4r.

    A piece is counted when the ball center lies inside it or within
    distance r of its ``boundary_samples(PROBE_SAMPLES)``, so
    the count is a lower bound for the true multiplicity and can only miss
    grazing contacts.

    Whether a piece is a candidate depends only on its radial band
    (r_inner, r_outer), which must lie within r + 1e-9 of the trial radius
    T = d(o, x).  The pieces are grouped by band, each trial is tested
    against the few distinct bands, and (trial, piece) pairs are formed
    only for the bands that pass.  A pair whose center lies inside the
    piece is counted without distance evaluation.  Two exact bounds prune
    the rest:

    * a pair is skipped when 2 log1p(g / D) > r + 1e-9, where g is the
      Euclidean distance from the center to the bounding box of the
      piece's samples and D the body's Euclidean diameter, since
      d(x, y) >= 2 log1p(|x - y| / D);
    * a sample s at radius t_s is skipped when |T - t_s| > r + 1e-9, since
      d(x, s) >= |d(o, x) - d(o, s)| by the triangle inequality.

    The remaining samples of a block of SLACK_BLOCK // len(pieces) trials
    are measured in one ``distance_pairs`` call.
    """
    if not pieces:
        raise ValueError("empty cover")
    ball = next((p for p in pieces if p.level == 0), None)
    if ball is None:
        raise ValueError("cover has no central ball")
    R = ball.r_outer
    if not R > 4.0 * r:
        raise BadRadii(f"multiplicity probe requires R > 4r, got R={R:g}, r={r:g}")
    field = ball.field
    body = field.body

    starts, widths, r_in, r_out, full = _piece_table(pieces)
    angles, radii = _sample_rays(starts, widths, r_in, r_out, full, PROBE_SAMPLES)
    samples = field.points(angles.ravel(), radii.ravel()).reshape(*angles.shape, 2)
    box_lo, box_hi = samples.min(axis=1), samples.max(axis=1)
    flat_samples = samples.reshape(-1, 2)
    diameter = body.euclidean_diameter()
    # pieces grouped by band: band k holds pieces by_band[first[k]:first[k + 1]]
    bands, band_of = np.unique(np.stack([r_in, r_out], axis=1), axis=0, return_inverse=True)
    band_of = band_of.ravel()
    by_band = np.argsort(band_of, kind="stable")
    first = np.concatenate([[0], np.cumsum(np.bincount(band_of))])

    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, trials)
    ts = rng.uniform(0.0, r_out.max(), trials)
    centers = field.points(thetas, ts)

    counts = np.zeros(trials, dtype=int)
    block = max(1, SLACK_BLOCK // len(pieces))
    for c in range(0, trials, block):
        T = ts[c:c + block, None]
        ti, bi = np.nonzero((bands[:, 0] - r - 1e-9 <= T) & (T <= bands[:, 1] + r + 1e-9))
        size = first[bi + 1] - first[bi]
        rank = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        ti = np.repeat(ti + c, size)
        pi = by_band[np.repeat(first[bi], size) + rank]
        inside = _in_sectors(ts[ti], thetas[ti], r_in[pi], r_out[pi], starts[pi], widths[pi], full[pi])
        met = np.compress(inside, ti)
        ti, pi = np.compress(~inside, ti), np.compress(~inside, pi)
        X = np.take(centers, ti, axis=0)
        G = np.maximum(np.maximum(np.take(box_lo, pi, axis=0) - X, X - np.take(box_hi, pi, axis=0)), 0.0)
        keep = 2.0 * np.log1p(np.sqrt(_sq_norms(G.T)) / diameter) <= r + 1e-9
        ti, pi = np.compress(keep, ti), np.compress(keep, pi)
        k, s = np.nonzero(np.abs(ts[ti, None] - radii[pi]) <= r + 1e-9)
        near = np.zeros(ti.size, dtype=bool)
        near[k[distance_pairs(body, np.take(centers, ti[k], axis=0),
                              np.take(flat_samples, pi[k] * samples.shape[1] + s, axis=0)) <= r]] = True
        counts[c:c + block] = np.bincount(np.concatenate([met, ti[near]]) - c, minlength=T.shape[0])

    hist: dict[int, int] = {}
    for count in counts.tolist():
        hist[count] = hist.get(count, 0) + 1
    max_count = max(hist, default=0)
    return MultiplicityReport(
        r=float(r), R=float(R), trials=int(trials), seed=int(seed),
        max_count=max_count, histogram=hist, samples_per_piece=PROBE_SAMPLES,
    )


# -- radial projection footprint (shared by verification suites) -------------


def footprint_diameter(
    field: SphereField,
    ball_center,
    r: float,
    level_radius: float,
    samples: int,
    seed: int,
) -> float:
    """Sampled diameter of the radial projection of B(center, r) onto the
    field's sphere of radius ``level_radius``."""
    from .sampling import sample_ball

    rng = np.random.default_rng(seed)
    pts = sample_ball(field.body, ball_center, r, samples, rng)
    diffs = pts - field.o
    angles = np.arctan2(diffs[:, 1], diffs[:, 0])
    return float(pairwise_distances(field.body, field.points(angles, level_radius)).max())
