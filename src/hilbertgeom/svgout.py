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


# _fixed6's little-endian 4-byte words for 0..999: "\0%3d" (sign byte, then the
# integer part with its leading spaces as 0 bytes), ".%03d" and "%03d\0"
_HEAD, _MID, _TAIL = np.frombuffer(
    b"".join(b"\0%3d.%03d%03d\0" % (i, i, i) for i in range(1000)).replace(b" ", b"\0"),
    dtype="<u4").reshape(1000, 3).T.copy()


def _fixed6(C: np.ndarray) -> tuple[str, list[int]]:
    """``" ".join("%.6f,%.6f" % tuple(c) for c in C)`` and where each row's text
    starts (m + 1 offsets; row i is ``text[off[i]:off[i + 1] - 1]``).

    With u = fl(|v| 1e6) below 2**30, |u - |v| 1e6| <= 2**-24 < 1e-6, so r = rint(u)
    is the correctly rounded integer %.6f prints unless u is within 1e-6 of a half
    integer.  Those near ties, |v| >= 1000, nan and inf are formatted by '%.6f'.
    """
    v = np.asarray(C, dtype=float).ravel()
    u = np.fmin(np.abs(v), 2000.0) * 1e6       # fmin maps nan to 2000 too
    r = np.rint(u)
    fast = (r < 1e9) & (np.abs(np.abs(u - r) - 0.5) > 1e-6)
    neg = np.signbit(v) & fast
    # the others print 0.000000 for now
    q, f = np.divmod(np.where(fast, r, 0.0).astype(np.uint32), np.uint32(1000000))
    hi, lo = np.divmod(f, np.uint32(1000))
    w = np.stack([_HEAD.take(q.astype(np.intp)), _MID.take(hi.astype(np.intp)),
                  _TAIL.take(lo.astype(np.intp))], axis=1)
    w[:, 0] |= neg * np.uint32(45)              # '-'
    w[:, 2] |= np.uint32(32 << 24)
    w[0::2, 2] += np.uint32(12 << 24)           # ',' (44) after x, ' ' (32) after y
    size = 9 + neg + (q >= 10) + (q >= 100)     # characters, separator included
    text = w.tobytes().translate(None, b"\0").decode("ascii")
    slow = np.flatnonzero(~fast)
    if slow.size:                               # each printed as 0.000000 so far
        cuts = (np.cumsum(size) - size)[slow].tolist() + [len(text)]
        spliced = ["%.6f" % x for x in v[slow].tolist()]
        text = text[:cuts[0]] + "".join(s + text[a + 8:b] for s, a, b in zip(spliced, cuts, cuts[1:]))
        size[slow] += [len(s) - 8 for s in spliced]
    return text[:-1], [0] + np.cumsum(size[0::2] + size[1::2]).tolist()


def _polyline(pts: str, color: str, width: float, closed: bool) -> str:
    """Polyline element through points already formatted by ``_fixed6``."""
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="{width:.6f}"/>'


def _dot(frame: Frame, p, color: str, radius: float) -> str:
    x, y = frame.coords(p)[0]
    return f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{radius:.6f}" fill="{color}"/>'


def _document(lines: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW:.0f}" '
        f'height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">'
    )
    # one join, so a render holds its lines and the document, not a third copy
    return "\n".join([head, *(lines or [""]), "</svg>\n"])


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
        _polyline(_fixed6(frame.coords(outline))[0], "#000000", 2.0, True),
        _polyline(_fixed6(frame.coords(pts))[0], PALETTE[0], 1.5, True),
        _dot(frame, center, PALETTE[1], 3.0),
    ]
    return _document(lines)


def render_cover(body: ConvexBody, pieces: list[CoverPiece]) -> str:
    """Each piece's outer arc and, off level 0, its two radial sides.

    Points come from the cover's one ``SphereField``; consecutive pieces
    share one oracle call of at most ROW_BUDGET rows.
    """
    frame, outline = _frame_for(body)
    lines = [_polyline(_fixed6(frame.coords(outline))[0], "#000000", 2.0, True)]
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
    pieces; they are mapped and formatted together, then sliced per piece."""
    k = ARC_SAMPLES + 1
    start, width, r_inner, r_outer = np.array(
        [(p.theta_start, p.width, p.r_inner, p.r_outer) for p in pieces]).T
    sided = np.array([p.level != 0 for p in pieces])
    ends = np.stack([start, start + width], axis=1)
    thetas = np.empty((len(pieces), k + 32))
    thetas[:, :k] = start[:, None] + width[:, None] * np.arange(k) / ARC_SAMPLES
    thetas[:, k:] = np.repeat(np.where(ends >= TWO_PI, ends % TWO_PI, ends), 16, axis=1)
    radii = np.empty_like(thetas)
    radii[:, :k] = r_outer[:, None]
    radii[:, k:] = np.tile(np.linspace(r_inner, r_outer, 16, axis=1), 2)
    # level 0 has no sides: keep only its arc's rows
    rows = np.arange(k + 32) < np.where(sided, k + 32, k)[:, None]
    text, off = _fixed6(frame.coords(field.points(thetas[rows], radii[rows])))
    lines, at = [], 0
    for p in pieces:
        # pieces are colored by level parity so neighbours contrast
        color = PALETTE[p.level % 2]
        lines.append(_polyline(text[off[at]:off[at + k] - 1], color, 1.5, False))
        at += k
        if p.level != 0:
            lines += [_polyline(text[off[at]:off[at + 16] - 1], color, 1.0, False),
                      _polyline(text[off[at + 16]:off[at + 32] - 1], color, 1.0, False)]
            at += 32
    return lines


def render_packing(body: ConvexBody, points: np.ndarray, center) -> str:
    frame, outline = _frame_for(body)
    lines = [_polyline(_fixed6(frame.coords(outline))[0], "#000000", 2.0, True)]
    lines.append(_dot(frame, center, PALETTE[1], 4.0))
    for p in np.asarray(points, dtype=float):
        lines.append(_dot(frame, p, PALETTE[0], 2.5))
    return _document(lines)
