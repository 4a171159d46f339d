"""Seeded rejection samplers for interior points and metric balls."""

from __future__ import annotations

import math

import numpy as np

from .bodies import ConvexBody, _row_blocks
from .errors import SamplingExhausted
from .metric import distance_pairs

_MAX_ROUNDS = 200
# the suites draw "well inside" from B(interior seed, INNER_RADIUS): |x| < 0.9 on the unit disk
INNER_RADIUS = math.log(19.0)


def _collect(draw, n: int, what: str) -> np.ndarray:
    """First n rows of ``draw(k)``, called with the k rows still missing and
    returning the rows it accepts: one first draw and at most _MAX_ROUNDS
    redraws, then SamplingExhausted."""
    parts, held = [], 0
    for _ in range(_MAX_ROUNDS + 1):
        parts.append(draw(n - held))
        held += len(parts[-1])
        if held >= n:
            return np.concatenate(parts)[:n]
    raise SamplingExhausted(f"{what} in {_MAX_ROUNDS + 1} draws")


def _box_draw(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """``rng.uniform(lo, hi, (m, n))`` bit for bit, leaving the generator in
    the same state: the same doubles u, each column scaled to ``lo + (hi - lo) u``
    in place, so numpy's inner loop runs along the m rows."""
    R = rng.random((m, len(lo)))
    for j in range(len(lo)):
        col = R[:, j]
        col *= hi[j] - lo[j]
        col += lo[j]
    return R


def _stream(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray, m: int, need: int,
            accept) -> np.ndarray:
    """The rows ``accept`` keeps of ``_box_draw(rng, lo, hi, m)``, at least
    ``need`` of them when there are that many, in draw order.  The m rows are
    drawn in ``_row_blocks`` blocks; once ``need`` rows are held, the later
    blocks are drawn and dropped untested, so the generator ends where one
    m-row draw leaves it (for every bit generator: no ``advance``)."""
    parts, held = [np.empty((0, len(lo)))], 0  # m = 0 gives (0, n)
    for rows in _row_blocks(len(lo), m):
        k = rows.stop - rows.start
        if held >= need:
            rng.random((k, len(lo)))
            continue
        parts.append(accept(_box_draw(rng, lo, hi, k)))
        held += len(parts[-1])
    return np.concatenate(parts)


def sample_interior(body: ConvexBody, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n interior points (signed gap below -boundary_tol), uniformly from the box.

    Each round draws max(2n, 64) candidates, however many rows are still
    missing, so the stream does not depend on earlier rounds; it tests them
    only until the missing rows are filled.
    """
    lo, hi = body.bounding_box()
    floor = -body.boundary_tol()

    def accept(C):
        return np.compress(body.signed_gap(C) < floor, C, axis=0)

    return _collect(lambda k: _stream(rng, lo, hi, max(2 * n, 64), k, accept), n,
                    "too few points clear of the boundary")


def ball_box(body: ConvexBody, center, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Covering box of the metric ball B(center, t) from the body's own box:
    on a chord with exits a behind c and b ahead, d(c, c + s u) <= t gives
    s <= b (1 - e^-t) and s <= a (e^t - 1), so B(c, t) lies in both
    c + (1 - e^-t)(body - c) and c - (e^t - 1)(body - c)."""
    c = np.asarray(center, dtype=float)
    lo, hi = body.bounding_box()
    f, g = -math.expm1(-t), math.expm1(t)
    return (np.maximum(c + f * (lo - c), c - g * (hi - c)),
            np.minimum(c + f * (hi - c), c - g * (lo - c)))


def ball_candidates(
    body: ConvexBody,
    center,
    t: float,
    attempts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Box-rejection draw: `attempts` box samples filtered to the metric ball.

    The returned count is random; it is the accepted subset of exactly
    ``attempts`` uniform draws from ``ball_box``.  A center that does not
    classify as interior raises ExteriorPoint before any draw.
    """
    c = np.asarray(center, dtype=float)
    body.require_interior(c[None, :], "metric ball center must be interior")
    lo, hi = ball_box(body, c, t)
    tol = body.boundary_tol()

    def accept(C):
        C = np.compress(body.signed_gap(C) < -tol, C, axis=0)
        return np.compress(distance_pairs(body, np.broadcast_to(c, C.shape), C) <= t, C, axis=0)

    return _stream(rng, lo, hi, int(attempts), int(attempts), accept)


def sample_ball(
    body: ConvexBody,
    center,
    t: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw exactly n points of the closed metric ball B(center, t)."""
    return _collect(lambda _: ball_candidates(body, center, t, max(2 * n, 64), rng), n,
                    "too few points of the metric ball")
