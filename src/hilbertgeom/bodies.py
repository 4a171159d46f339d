"""Bounded convex bodies and their boundary oracles.

A body is an open bounded convex subset of R^n given in one of four forms:
a strictly convex polygon (2-D, counterclockwise vertices), an ellipsoid,
a Euclidean ball, or an intersection of halfspaces.  Everything downstream
(the projective metric, sphere decompositions, probes) only talks to bodies
through four primitives:

* ``signed_gap``      negative inside, about zero on the boundary,
* ``ray_exit``        the two exit lengths of a line, behind and ahead,
* ``pair_distances``  the Hilbert distances of row pairs,
* ``bounding_box``    a covering axis-aligned box.

``ray_exit(P, U)`` returns ``(back, fwd)``: the lengths from each row of P
to the boundary along -U and along U, from one pass (the two roots of one
quadratic, or the min and the max of one slack ratio).  Each side is
bit-identical to a one-sided exit along -U or U, because negation is exact.
It is exact (closed form) for every kind.  Polygons and halfspace
intersections share one kernel in their constraint slacks
``s_i(p) = b_i - n_i . p``, held constraint-major, shape (constraints,
rows), so every per-row min and max runs over axis 0.  The kernels run in row
blocks of about ``SLACK_BLOCK`` elements per buffer, 64-row aligned so
each result is bit-identical to one unblocked call.  The exits along unit
``u`` are ``1 / max_i (n_i . u / s_i(p))`` ahead and
``-1 / min_i (n_i . u / s_i(p))`` behind, and ``pair_distances`` uses the
Funk pair form ``d(x, y) = F(x, y) + F(y, x)``: with ``G = N (y - x)``,
``d(x, y) = log1p(max_i (-G_i) / s_i(x)) + log1p(max_i G_i / s_i(y))``,
which forms no exit length and is bit-exactly symmetric.  Disks and
ellipsoids are Beltrami-Klein models of hyperbolic space, so in unit-ball
coordinates x, y with ``delta = x - y`` their ``pair_distances`` is the
Cayley-Klein form ``sinh^2(d/2) = (|delta|^2 (1 - |y|^2) + (delta . y)^2)
/ ((1 - |x|^2)(1 - |y|^2))``, which forms no exit length either, and
runs in the same row blocks.  A
generic bisection oracle on ``signed_gap`` is exposed as
``boundary_hit_bisect`` to cross-check the closed forms.

A halfspace intersection's interior seed and covering box come from 2n + 1
small LPs that ``_lp_max`` solves in numpy from a known feasible point:
active-set walks on a working set of rows that grows by the rows the last
answer violates.  The seed maximizes the inscribed radius r over
``n_i . x + r <= b_i``, and each box side maximizes -x_j or x_j from the
seed.
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
    NotOnBoundary,
    SimplexExhausted,
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
# Relative zero of ``_lp_max``: for a projected objective (against |c|), a
# multiplier (against |c|) and a row's rate along the step (against |d|).
LP_TOL = 1e-12
# Rows per unknown that one ``_lp_max`` round adds to its working set.
LP_CUT_ROWS = 4


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


def _angle_rows(thetas) -> np.ndarray:
    """Planar unit rows (cos theta, sin theta), one per angle."""
    thetas = np.asarray(thetas, dtype=float)
    U = np.empty((thetas.size, 2))
    np.cos(thetas, out=U[:, 0])
    np.sin(thetas, out=U[:, 1])
    return U


# Arithmetic on (m, n) rows with a broadcast (n,) row, and reductions along
# a row, run numpy's inner loop over the n coordinates.  The kernels below
# work coordinate-major instead, so the inner loop runs over the m rows, and
# give the same bits: numpy adds fewer than _SHORT_ROW terms of a row one by
# one, in coordinate order (np.einsum in two SIMD lanes).  Longer rows keep
# numpy's own reductions.
_SHORT_ROW = 8


def _coords(P: np.ndarray, c) -> np.ndarray:
    """Rows of the (m, n) array P minus c (one row, or as many rows as P),
    coordinate-major: a C-ordered (n, m) array."""
    c = np.asarray(c)
    return np.subtract(P.T, c.T if c.ndim == 2 else c.reshape(-1, 1), order="C")


def _sq_norms(Q: np.ndarray) -> np.ndarray:
    """Squared lengths of the columns of a coordinate-major (n, m) array,
    bit for bit the sums of squares ``np.linalg.norm(Q.T, axis=1)`` takes."""
    if len(Q) >= _SHORT_ROW:
        return np.add.reduce(np.square(Q.T.copy()), axis=1)
    s = Q[0] * Q[0]
    for q in Q[1:]:
        s += q * q
    return s


def _norms(X: np.ndarray, Y) -> np.ndarray:
    """``np.linalg.norm(X - Y, axis=1)`` bit for bit, for (m, n) rows X and
    one row or as many rows Y."""
    return np.sqrt(_sq_norms(_coords(X, Y)))


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.einsum("ij,ij->i", A.T, B.T)`` bit for bit, for coordinate-major
    (n, m) arrays A and B (one column may broadcast): the even and the odd
    coordinates are summed in order, then the two sums."""
    if len(A) >= _SHORT_ROW:
        return np.einsum("ij,ij->i", A.T.copy(), B.T.copy())
    even = A[0] * B[0]
    for j in range(2, len(A), 2):
        even += A[j] * B[j]
    if len(A) == 1:
        return even
    odd = A[1] * B[1]
    for j in range(3, len(A), 2):
        odd += A[j] * B[j]
    return even + odd


def _along(P: np.ndarray, s: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Rows ``P + s U`` for (m, n) rows P and U (one row of either may
    broadcast), written one coordinate at a time into a C-ordered array."""
    P, U = np.atleast_2d(P, U)
    out = np.empty((len(s), U.shape[1]))
    for j in range(out.shape[1]):
        col = out[:, j]
        np.multiply(s, U[:, j], out=col)
        col += P[:, j]
    return out


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
    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exit lengths ``(back, fwd)`` > 0 of interior rows P along unit rows U.

        ``P - back U`` and ``P + fwd U`` lie on the boundary; a single row of
        P or U is broadcast.  A base that is not interior raises ExteriorBase.
        """

    @abstractmethod
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Covering axis-aligned box as (lower, upper) corner arrays."""

    @abstractmethod
    def pair_distances(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Hilbert distances of the rows of distinct (m, n) arrays X and Y.

        Bit-exactly symmetric under X <-> Y.  A row that is not interior
        raises ExteriorBase; rows closer than TAU_P are the caller's to mask.
        """

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

    def require_interior(self, P: np.ndarray, message: str) -> None:
        """Raise ExteriorPoint unless every row of P classifies as interior."""
        if np.any(self.classify_many(P) != -1):
            raise ExteriorPoint(message)

    def outline(self, n: int = 256) -> np.ndarray:
        """Closed boundary polyline (2-D bodies), counterclockwise, shape (n, 2)."""
        if self.dimension != 2:
            raise DimensionUnsupported("outline is only defined in the plane")
        seed = self.interior_seed()
        U = _angle_rows(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
        P = np.broadcast_to(seed, U.shape)
        return _along(P, self.ray_exit(P, U)[1], U)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


# Elements per (constraints, rows) kernel buffer: 512 KB, so two fit in L2.
SLACK_BLOCK = 1 << 16


def _row_blocks(width: int, m: int) -> list[slice]:
    """Blocks of ``SLACK_BLOCK // width`` rows for (width, rows) buffers, rounded
    down to a multiple of 64 (so ``_slacks`` stays bit-identical); the last
    takes the remainder."""
    step = max(64, SLACK_BLOCK // width // 64 * 64)
    if m < 2 * step:  # the common case, without building the cuts
        return [slice(0, m)]
    cuts = [*range(0, m // step * step, step), m]
    return [slice(a, z) for a, z in zip(cuts, cuts[1:])]


def _prod(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``A @ B`` for a (k, n) A and an (n, m) B, each column bit for bit the
    same whatever m.  numpy hands a one-column product to BLAS's
    matrix-vector path, whose last bits differ from the matrix-matrix path's
    (on the heptagon, the 64-gon and ``ellipsoid3``), so one column is
    evaluated as two.  Every kernel product goes through here."""
    if B.shape[1] != 1:
        return np.matmul(A, B, out=out)
    C = np.matmul(A, B.repeat(2, axis=1))[:, :1]
    if out is None:
        return C
    np.copyto(out, C)
    return out


def _slacks(N: np.ndarray, b: np.ndarray, P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Constraint slacks ``s_i(p) = b_i - n_i . p`` of 2-D P, constraint-major.

    Shape (constraints, rows), reduced over axis 0; ``out`` is filled in place.
    The BLAS matmul's last bits depend on its column tiling: see ``_row_blocks``.
    """
    S = _prod(N, P.T, out=out)
    np.subtract(b[:, None], S, out=S)
    return S


def _interior_slacks(N: np.ndarray, b: np.ndarray, P: np.ndarray, what: str,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``_slacks``, raising ExteriorBase unless every slack is positive."""
    S = _slacks(N, b, P, out=out)
    if not (S > 0.0).all():
        raise ExteriorBase(f"{what} is not interior to the constraints")
    return S


def _constraint_gap(N: np.ndarray, b: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Largest constraint violation ``max_i (n_i . p - b_i)`` per row of P."""
    P = np.atleast_2d(P)
    gap = np.empty(P.shape[0])
    for rows in _row_blocks(N.shape[0], P.shape[0]):
        np.negative(_slacks(N, b, P[rows]).min(axis=0), out=gap[rows])
    return gap


def _constraint_exit(N: np.ndarray, b: np.ndarray, P: np.ndarray, U: np.ndarray):
    """Exit lengths ``(back, fwd)`` from rows of P along -U and U for ``N x <= b``.

    With ``S_ik = n_i . u_k / s_i(p_k)``, row k exits at ``1 / max_i S_ik``
    ahead and at ``-1 / min_i S_ik`` behind.  A single row of P or U is
    broadcast.  Two (constraints, rows) buffers per row block: the slacks,
    divided in place, and ``N U^T``.
    """
    P, U = np.atleast_2d(P, U)
    P, U = np.broadcast_arrays(P, U) if P.shape != U.shape else (P, U)
    back, fwd = np.empty(P.shape[0]), np.empty(P.shape[0])
    for rows in _row_blocks(N.shape[0], P.shape[0]):
        S = _interior_slacks(N, b, P[rows], "ray base")
        np.divide(_prod(N, U[rows].T), S, out=S).max(axis=0, out=fwd[rows])
        np.negative(S.min(axis=0), out=back[rows])
    if not ((back > 0.0).all() and (fwd > 0.0).all()):
        raise ExteriorBase("ray does not exit the body")
    return 1.0 / back, 1.0 / fwd


def _constraint_pairs(N: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``pair_distances`` for ``N x <= b`` on (m, n) arrays: the Funk pair form.

    With ``G = N (Y - X)^T``, row k has ``rho/s_back = max_i (-G_i) / s_i(x)``
    and ``rho/s_fwd = max_i G_i / s_i(y)`` and the distance
    ``log1p(rho/s_back) + log1p(rho/s_fwd)``, so no exit length, norm or unit
    direction is formed.  Swapping X and Y negates G exactly, which swaps
    the two rates bit for bit.  Two (constraints, rows) buffers per row
    block: G, and the slacks of Y and then of X, divided in place.
    """
    back, fwd = np.empty(X.shape[0]), np.empty(X.shape[0])
    for rows in _row_blocks(N.shape[0], X.shape[0]):
        G = _prod(N, (Y[rows] - X[rows]).T)
        S = _interior_slacks(N, b, Y[rows], "pair point")
        np.divide(G, S, out=S).max(axis=0, out=fwd[rows])
        _interior_slacks(N, b, X[rows], "pair point", out=S)
        np.negative(np.divide(G, S, out=S).min(axis=0), out=back[rows])
    if not ((back > 0.0).all() and (fwd > 0.0).all()):
        raise ExteriorBase("chord does not exit the body")
    return np.log1p(back) + np.log1p(fwd)


def _unit_coords(M: np.ndarray, c: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-ball coordinates ``M (p - c)`` of rows P, coordinate-major, and
    ``1 - |w|^2``; ExteriorBase unless every row is inside."""
    W = _prod(M, _coords(P, c))
    a = 1.0 - np.einsum("ij,ij->j", W, W)
    if not (a > 0.0).all():
        raise ExteriorBase("pair point is not inside the body")
    return W, a


def _quadric_pairs(M: np.ndarray, c: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``pair_distances`` for the ellipsoid ``|M (p - c)| < 1``: the Cayley-Klein form.

    In unit-ball coordinates w = M (x - c), v = M (y - c), held
    coordinate-major, with ``delta = M (x - y)``, ``ax = 1 - |w|^2`` and
    ``ay = 1 - |v|^2``: ``sinh^2(d/2) = (|delta|^2 ay + (delta . v)^2) / (ax ay)``.
    The numerator is a sum of non-negative terms; averaging it with its
    x <-> y twin ``|delta|^2 ax + (delta . w)^2`` makes the result bit-exactly
    symmetric, because swapping X and Y negates delta exactly.  Three
    (n, rows) buffers per row block: W, V and delta.
    """
    out = np.empty(X.shape[0])
    for rows in _row_blocks(len(M), X.shape[0]):
        x, y = X[rows], Y[rows]
        W, ax = _unit_coords(M, c, x)
        V, ay = _unit_coords(M, c, y)
        D = _prod(M, _coords(x, y))
        dd = np.einsum("ij,ij->j", D, D)
        dw = np.einsum("ij,ij->j", D, W)
        dv = np.einsum("ij,ij->j", D, V)
        num = (dd * ax + dw * dw) + (dd * ay + dv * dv)
        out[rows] = 2.0 * np.arcsinh(np.sqrt(num / (2.0 * (ax * ay))))
    return out


def _pivot_cap(m: int, n: int) -> int:
    """Pass cap of one active-set walk on m rows in n unknowns.

    Off degenerate vertices each vertex on the walk costs two passes (a row
    leaves, a row joins), and a planar walk meets at most m vertices, so
    2 (m + n) passes cover it.  The cap allows four times that, so a walk
    costs at most O(m^2 n) arithmetic; past it the walk raises
    SimplexExhausted.
    """
    return 8 * (m + n)


def _active_set_max(A: np.ndarray, h: np.ndarray, c: np.ndarray,
                    z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Walk from the feasible z to a maximizer of ``c . z`` over ``A z <= h``.

    Returns ``(z, None)`` at a maximizer, or ``(z, d)`` when ``c . z`` grows
    without bound along d from z.  With W the active rows, d is the
    projection of c onto the null space of ``A_W``.  If d is not zero, z
    steps along it to the first row it meets (the ratio test), which joins
    W.  If d is zero, ``c = A_W^T lam``: z is optimal when every multiplier
    is >= 0, and otherwise the first row with a negative one leaves W (the
    smallest-index choice of Bland 1977; its finiteness proof covers the
    basis-exchange simplex, not this walk, so only the pass cap bounds the
    work).  A row joins only when its rate along d exceeds LP_TOL |d|, which
    keeps W's rows independent and W at most n rows.  Should rounding or row
    scaling still leave a diagonal of R at or below LP_TOL times its row's
    length, the walk raises SimplexExhausted rather than solve for
    meaningless multipliers.
    """
    z = np.array(z, dtype=float)
    c_norm = float(np.linalg.norm(c))
    active: list[int] = []
    cap = _pivot_cap(*A.shape)
    for _ in range(cap):
        d = c
        if active:
            Q, R = np.linalg.qr(A[active].T)
            qc = Q.T @ c
            d = c - Q @ qc
            d = d - Q @ (Q.T @ d)  # projected twice, W's rows see rates ~ eps |d|
        d_norm = float(np.linalg.norm(d))
        if d_norm <= LP_TOL * c_norm:
            if np.any(np.abs(np.diag(R)) <= LP_TOL * np.linalg.norm(A[active], axis=1)):
                raise SimplexExhausted("linear program's active rows are linearly dependent")
            lam = np.linalg.solve(R, qc)
            leaving = [j for j, v in zip(active, lam) if v < -LP_TOL * c_norm]
            if not leaving:
                return z, None
            active.remove(min(leaving))
            continue
        rate = A @ d
        rows = np.flatnonzero(rate > LP_TOL * d_norm)
        if rows.size == 0:
            return z, d
        ratio = np.maximum(h[rows] - A[rows] @ z, 0.0) / rate[rows]
        k = int(np.argmin(ratio))
        z = z + ratio[k] * d
        active.append(int(rows[k]))
    raise SimplexExhausted(f"linear program did not finish in {cap} passes")


def _lp_max(A: np.ndarray, h: np.ndarray, c: np.ndarray, z0: np.ndarray) -> np.ndarray | None:
    """A maximizer of ``c . z`` over ``A z <= h`` from the feasible point z0,
    or None when ``c . z`` is unbounded above on that set.

    Constraint generation around ``_active_set_max``: each round solves the
    LP on a working set of rows from the current point z, which stays
    feasible for every row.  If the working-set maximizer (or ray) from z
    crosses no other row, it solves the whole LP.  Otherwise z moves to the
    first row crossed, and that row joins the working set with the
    LP_CUT_ROWS n rows the maximizer violates most (along a ray, the rows
    it meets fastest).  Rows far from the optimum never enter, so a walk
    along a many-faced boundary becomes a few short walks.  The working set
    grows every round, so there are at most m rounds, each O(m n) outside
    the walk.  Memory is O(m n): no m x m array.
    """
    m, n = A.shape
    z = np.array(z0, dtype=float)
    work = np.zeros(m, dtype=bool)
    while True:
        rows = np.flatnonzero(work)
        zw, ray = _active_set_max(A[rows], h[rows], c, z)
        step = zw - z if ray is None else ray
        rate = A @ step
        slack = np.maximum(h - A @ z, 0.0)
        cross = ~work & (rate > LP_TOL * float(np.linalg.norm(step)))
        if ray is None:
            cross &= rate > slack  # violated at zw
        idx = np.flatnonzero(cross)
        if idx.size == 0:
            return zw if ray is None else None
        ratio = slack[idx] / rate[idx]
        j = int(np.argmin(ratio))
        z = z + ratio[j] * step
        score = rate[idx] - slack[idx] if ray is None else rate[idx]
        work[idx[np.argsort(-score, kind="stable")[:LP_CUT_ROWS * n]]] = True
        work[idx[j]] = True


class Polygon(ConvexBody):
    """Strictly convex polygon from counterclockwise vertices.

    Clockwise input is reversed silently and recorded in ``warnings``.
    Repeated or collinear vertices, reflex turns and star polygons raise
    NonConvex.
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

        edges = np.roll(V, -1, axis=0) - V
        lengths = np.linalg.norm(edges, axis=1)
        scale = lengths * np.roll(lengths, -1)
        if np.any(scale <= TAU_P):
            raise NonConvex("polygon has coincident consecutive vertices")
        e_next = np.roll(edges, -1, axis=0)
        turns = _cross2(edges, e_next)
        # A closed polygon turns through 2 pi times its winding number.  Only
        # winding +-1 with every turn the same way is convex: a pentagram
        # turns left everywhere but winds twice.
        turning = np.arctan2(turns, np.einsum("ij,ij->i", edges, e_next)).sum()
        winding = round(float(turning) / (2.0 * math.pi))
        if abs(winding) != 1 or not np.all(winding * turns > 1e-12 * scale):
            raise NonConvex("vertices are not in strictly convex position")
        warnings: tuple[str, ...] = ()
        if winding < 0:
            V = V[::-1].copy()
            warnings = ("clockwise vertex order was reversed",)
            edges = np.roll(V, -1, axis=0) - V
            lengths = np.linalg.norm(edges, axis=1)

        super().__init__(2, warnings)
        self.vertices = _read_only(V)
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
        self._normals = _read_only(normals)
        self._offsets = _read_only(np.einsum("ij,ij->i", normals, V))
        d = V[:, None, :] - V[None, :, :]
        self._diameter = float(np.sqrt((d * d).sum(axis=2).max()))

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        return _constraint_gap(self._normals, self._offsets, P)

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _constraint_exit(self._normals, self._offsets, P, U)

    def pair_distances(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _constraint_pairs(self._normals, self._offsets, X, Y)

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
        # body coords -> unit-ball coords
        self._to_unit = _read_only(np.eye(c.shape[0]) / r)

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        return _norms(np.atleast_2d(P), self.center) - self.radius

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the roots -beta -+ root of |q + s u|^2 = r^2, as lengths behind and ahead
        q = _coords(np.atleast_2d(P), self.center)
        beta = _dots(q, np.atleast_2d(U).T)
        gamma = _dots(q, q) - self.radius**2
        disc = beta * beta - gamma
        if np.any(disc < 0.0) or np.any(gamma >= 0.0):
            raise ExteriorBase("ray base is not inside the disk")
        root = np.sqrt(disc)
        return beta + root, root - beta

    def pair_distances(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _quadric_pairs(self._to_unit, self.center, X, Y)

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

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        q = _coords(np.atleast_2d(P), self.center)
        m = np.sqrt(_sq_norms(_prod(self._to_unit, q)))
        r = np.sqrt(_sq_norms(q))
        deep = m < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = r * (m - 1.0) / m
        return np.where(deep, -float(self.semi_axes.min()), gap)

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the roots (-B -+ root) / A of A s^2 + 2 B s + C = 0 in unit-ball coordinates
        w = _prod(self._to_unit, _coords(np.atleast_2d(P), self.center))
        v = _prod(self._to_unit, np.atleast_2d(U).T)
        A = _dots(v, v)
        B = _dots(w, v)
        C = _dots(w, w) - 1.0
        disc = B * B - A * C
        if np.any(C >= 0.0) or np.any(disc < 0.0):
            raise ExteriorBase("ray base is not inside the ellipsoid")
        root = np.sqrt(disc)
        return (B + root) / A, (root - B) / A

    def pair_distances(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _quadric_pairs(self._to_unit, self.center, X, Y)

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

    Validation solves 2n + 1 small LPs with ``_lp_max``, in numpy.  The
    interior seed is the center of a largest inscribed ball: it maximizes r
    over ``n_i . x + r <= b_i`` from x = 0, r = min(min b, SEED_RADIUS_CAP),
    and an optimal r at or below 1e-12 times the largest offset (at least
    1e-12) raises EmptyInterior.  The covering box takes one LP per axis
    direction, each from the seed; an unbounded support raises Unbounded,
    and an LP past its pass cap raises SimplexExhausted.  The boundary
    oracle is the closed-form constraint-slack exit shared with ``Polygon``.
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
        n = self.dimension
        m = self._normals.shape[0]
        b = self._offsets
        # maximize r subject to n_i . x + r <= b_i and r <= cap, with r free
        # below the cap, from the feasible x = 0, r = min(min b, cap)
        A = np.zeros((m + 1, n + 1))
        A[:m, :n] = self._normals
        A[:, n] = 1.0
        z0 = np.zeros(n + 1)
        z0[n] = min(float(b.min()), SEED_RADIUS_CAP)
        z = _lp_max(A, np.append(b, SEED_RADIUS_CAP), np.eye(n + 1)[n], z0)
        if z[n] <= 1e-12 * max(1.0, float(np.abs(b).max())):
            raise EmptyInterior("halfspace intersection has empty interior "
                                f"(largest inscribed radius {z[n]:.3g})")
        return z[:n]

    def _support_box(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.dimension
        lo = np.empty(n)
        hi = np.empty(n)
        for axis in range(n):
            for sign, side, out in ((-1.0, "-", lo), (1.0, "+", hi)):
                z = _lp_max(self._normals, self._offsets, sign * np.eye(n)[axis], self._seed)
                if z is None:
                    raise Unbounded(f"support in {side}e_{axis} direction is unbounded")
                out[axis] = z[axis]
        return lo, hi

    def signed_gap(self, P: np.ndarray) -> np.ndarray:
        return _constraint_gap(self._normals, self._offsets, P)

    def ray_exit(self, P: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _constraint_exit(self._normals, self._offsets, P, U)

    def pair_distances(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _constraint_pairs(self._normals, self._offsets, X, Y)

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
    s = float(body.ray_exit(q[None, :], v[None, :])[1][0])
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


def flat_segment(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Ends of a straight boundary segment of a polygon or halfspace intersection.

    The ball about the interior seed whose radius is the least slack s_i
    touches face i at ``p = seed + s_i n_i``, where every other row has
    positive slack.  The segment runs through p along the coordinate axis
    least aligned with n_i, projected into the face, and the other rows clip
    it in closed form; in 2-D it is the whole edge.
    """
    if body.strictly_convex:
        raise NotOnBoundary("a strictly convex boundary holds no straight segment")
    N, b, seed = body._normals, body._offsets, body.interior_seed()
    s = b - N @ seed
    i = int(np.argmin(s))
    p = seed + s[i] * N[i]
    j = int(np.argmin(np.abs(N[i])))
    d = np.eye(body.dimension)[j] - N[i, j] * N[i]
    d /= np.linalg.norm(d)
    rate, slack = N @ d, b - N @ p
    rate[i] = 0.0  # d runs along face i, on which p lies
    ahead, behind = rate > TAU_PAR, rate < -TAU_PAR
    return (p + np.max(slack[behind] / rate[behind]) * d,
            p + np.min(slack[ahead] / rate[ahead]) * d)


def projective_image(body: ConvexBody, T: np.ndarray) -> ConvexBody:
    """Image of the body under ``x -> (A x + t) / (w . x + s)``, where T is
    the (n+1) x (n+1) matrix ``[[A, t], [w, s]]`` and ``w . x + s > 0`` on
    the closed body.

    A constraint body's rows ``[N | -b]`` map to ``[N | -b] T^-1``, a
    halfspace intersection.  A quadric ``|M (x - c)| < 1`` has the
    homogeneous matrix ``Q = B^T diag(1, .., 1, -1) B`` with
    ``B = [[M, -M c], [0, 1]]``, which maps to ``T^-T Q T^-1``; its
    ellipsoid comes from ``eigh``.  A map that sends a point of the body to
    infinity raises Unbounded.
    """
    n = body.dimension
    Ti = np.linalg.inv(np.asarray(T, dtype=float))
    if not body.strictly_convex:
        R = np.c_[body._normals, -body._offsets] @ Ti
        return HalfspacePolytope(R[:, :n], -R[:, n])
    B = np.eye(n + 1)
    B[:n, :n] = body._to_unit
    B[:n, n] = -body._to_unit @ body.center
    Q = Ti.T @ (B.T * np.r_[np.ones(n), -1.0]) @ B @ Ti
    P, q = Q[:n, :n], Q[:n, n]
    c = -np.linalg.solve(P, q)
    lam, V = np.linalg.eigh(P / -(q @ c + Q[n, n]))
    if not (lam > 0.0).all():
        raise Unbounded("the map sends a point of the body to infinity")
    return Ellipsoid(c, 1.0 / np.sqrt(lam), V)


def _field(spec: dict, name: str, scalar: bool = False):
    """Field ``name`` of a body description: a number, or unless ``scalar`` a
    nested list of numbers.  ValueError names a missing or ill-typed field."""
    def numeric(v) -> bool:
        if isinstance(v, list):
            return not scalar and all(numeric(x) for x in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if name not in spec:
        raise ValueError(f"body description lacks the field {name!r}")
    if not numeric(spec[name]):
        want = "a number" if scalar else "a number or a list of numbers"
        raise ValueError(f"body field {name!r} must be {want}, got {spec[name]!r}")
    return spec[name]


def validate_body(spec: dict) -> ConvexBody:
    """Build a validated body from its JSON-style description."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("body description must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "polygon":
        return Polygon(_field(spec, "vertices"))
    if kind == "disk":
        return Disk(_field(spec, "center"), _field(spec, "radius", scalar=True))
    if kind == "ellipse":
        rotation = _field(spec, "rotation_rad") if spec.get("rotation_rad") is not None else None
        return Ellipsoid(_field(spec, "center"), _field(spec, "semi_axes"), rotation)
    if kind == "polytope":
        halves = spec.get("halfspaces")
        if not isinstance(halves, list) or not all(isinstance(h, dict) for h in halves):
            raise ValueError(f"body field 'halfspaces' must be a list of objects, got {halves!r}")
        normals = [_field(h, "normal") for h in halves]
        offsets = [_field(h, "offset", scalar=True) for h in halves]
        return HalfspacePolytope(normals, offsets)
    raise ValueError(f"unknown body type {kind!r}")


def load_body(path: str) -> ConvexBody:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_body(json.load(fh))
