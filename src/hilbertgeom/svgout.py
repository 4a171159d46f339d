"""Deterministic SVG rendering for bodies, balls, covers, and packings.

Output is a fixed 1000 x 1000 viewport with the y axis flipped so that the
mathematical orientation (counterclockwise positive) matches the picture.
All coordinates are printed with 6 decimals and elements are emitted in a
fixed order, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .bodies import ConvexBody
from .cover import ROW_BUDGET, CoverPiece, SphereField, TWO_PI

VIEW = 1000.0
MARGIN = 40.0
# angle steps along each piece's outer arc
ARC_SAMPLES = 256

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#bcbd22",
)


class Frame:
    """Affine world-to-viewport map with a flipped y axis."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
        self.scale = (VIEW - 2.0 * MARGIN) / span
        self.cx = 0.5 * (lo[0] + hi[0])
        self.cy = 0.5 * (lo[1] + hi[1])

    def coords(self, P) -> np.ndarray:
        """Viewport coordinates of the rows of P, as an (m, 2) array."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        return np.stack([VIEW / 2.0 + (P[:, 0] - self.cx) * self.scale,
                         VIEW / 2.0 - (P[:, 1] - self.cy) * self.scale], axis=1)


def _polyline(C: np.ndarray, color: str, width: float, closed: bool) -> str:
    """Polyline element through viewport coordinates C, formatted in one pass."""
    tag = "polygon" if closed else "polyline"
    pts = " ".join(["%.6f,%.6f"] * len(C)) % tuple(C.ravel().tolist())
    return (
        f'<{tag} points="{pts}" fill="none" '
        f'stroke="{color}" stroke-width="{width:.6f}"/>'
    )


def _dot(frame: Frame, p, color: str, radius: float) -> str:
    x, y = frame.coords(p)[0]
    return f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{radius:.6f}" fill="{color}"/>'


def _document(lines: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW:.0f}" '
        f'height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">'
    )
    body = "\n".join(lines)
    return f"{head}\n{body}\n</svg>\n"


def _frame_for(body: ConvexBody) -> tuple[Frame, np.ndarray]:
    outline = body.outline(512)
    lo, hi = body.bounding_box()
    return Frame(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)), outline


def fmt6(v: float) -> str:
    # round first so negative dust prints as 0.000000, not -0.000000
    return "%.6f" % (round(float(v), 6) + 0.0)


def coord_header(label: str, points: np.ndarray) -> str:
    coords = " ".join(f"{fmt6(p[0])},{fmt6(p[1])}" for p in np.asarray(points, dtype=float))
    return f"<!-- {label}: {coords} -->"


def render_ball(body: ConvexBody, ball_points: np.ndarray, center) -> str:
    frame, outline = _frame_for(body)
    pts = np.asarray(ball_points, dtype=float)
    lines = [
        coord_header("ball-samples", pts),
        _polyline(frame.coords(outline), "#000000", 2.0, True),
        _polyline(frame.coords(pts), PALETTE[0], 1.5, True),
        _dot(frame, center, PALETTE[1], 3.0),
    ]
    return _document(lines)


def render_cover(body: ConvexBody, pieces: list[CoverPiece]) -> str:
    """Each piece's outer arc and, off level 0, its two radial sides.

    Points come from the cover's one ``SphereField``; consecutive pieces
    share one oracle call of at most ROW_BUDGET rows.
    """
    frame, outline = _frame_for(body)
    lines = [_polyline(frame.coords(outline), "#000000", 2.0, True)]
    if not pieces:
        return _document(lines)
    field = pieces[0].field
    lines.append(_dot(frame, field.o, "#000000", 3.0))
    # a piece has at most ARC_SAMPLES + 33 rows: its outer arc and two 16-point sides
    per_call = max(1, ROW_BUDGET // (ARC_SAMPLES + 33))
    for c in range(0, len(pieces), per_call):
        lines += _piece_polylines(frame, field, pieces[c:c + per_call])
    return _document(lines)


def _piece_polylines(frame: Frame, field: SphereField, pieces: list[CoverPiece]) -> list[str]:
    """One ``SphereField.points`` call gives the polyline points of all the
    pieces, mapped to the viewport together and then sliced per piece."""
    steps = np.arange(ARC_SAMPLES + 1)
    k = steps.size
    thetas, radii = [], []
    for p in pieces:
        if p.level == 0:
            thetas.append(p.width * steps / ARC_SAMPLES)
            radii.append(np.full(k, p.r_outer))
            continue
        side = np.linspace(p.r_inner, p.r_outer, 16)
        ends = [th % TWO_PI if th >= TWO_PI else th for th in (p.theta_start, p.theta_end)]
        thetas.append(np.concatenate([p.theta_start + p.width * steps / ARC_SAMPLES,
                                      np.repeat(ends, 16)]))
        radii.append(np.concatenate([np.full(k, p.r_outer), side, side]))
    C = frame.coords(field.points(np.concatenate(thetas), np.concatenate(radii)))
    lines, at = [], 0
    for p in pieces:
        # pieces are colored by level parity so neighbours contrast
        color = PALETTE[p.level % 2]
        lines.append(_polyline(C[at:at + k], color, 1.5, False))
        at += k
        if p.level != 0:
            lines += [_polyline(C[at:at + 16], color, 1.0, False),
                      _polyline(C[at + 16:at + 32], color, 1.0, False)]
            at += 32
    return lines


def render_packing(body: ConvexBody, points: np.ndarray, center) -> str:
    frame, outline = _frame_for(body)
    lines = [_polyline(frame.coords(outline), "#000000", 2.0, True)]
    lines.append(_dot(frame, center, PALETTE[1], 4.0))
    for p in np.asarray(points, dtype=float):
        lines.append(_dot(frame, p, PALETTE[0], 2.5))
    return _document(lines)
