"""svgout's fixed-point formatter against Python's '%.6f', the ball and
packing renderers against per-point '%' references, and the document join."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom import build_cover, load_body
from hilbertgeom.svgout import (PALETTE, VIEW, _document, _dot, _fixed6, _frame_for,
                                coord_header, render_ball, render_cover, render_packing)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "bodies"
PLANAR_BENCH = ("disk", "ellipse", "square", "heptagon", "square_halfspaces", "gon64")

# exact decimal ties at the 7th decimal: v * 1e6 is k + 0.5 exactly
TIES = (0.0078125, 3 * 2**-7, 500 + 2**-7, 2**-7 + 1, 999 + 5 * 2**-7)
# not ties, but fl(v * 1e6) is k + 0.5, so rint of the product misrounds them
NEAR_TIES = (755.1675074999999, 950.4636955, 34.8525535, 822.9436765, 311.8314525)
SPECIAL = (
    0.0, -0.0, -1e-7, 1e-7, 4.9e-7, 5e-7, 5.1e-7, 0.9999996, 9.9999996, 99.9999996,
    999.9999994, 999.9999995, 999.9999996, 999.999999, 1000.0, 1000.0000004, 1234.5678915,
    0.1234565, 1.0000005, 2.5e-7, 1e9, 1e9 + 0.5, 4294.967295, 4294967296.5, 1e300,
    5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf,
)


def _reference(C) -> str:
    return " ".join("%.6f,%.6f" % (x, y) for x, y in np.asarray(C, dtype=float).tolist())


def _check(C):
    """The text equals the '%' join and every row's slice its own '%.6f,%.6f'."""
    C = np.asarray(C, dtype=float).reshape(-1, 2)
    text, off = _fixed6(C)
    assert text == _reference(C)
    assert len(off) == len(C) + 1 and off[0] == 0
    assert [text[a:b - 1] for a, b in zip(off, off[1:])] == ["%.6f,%.6f" % tuple(c) for c in C.tolist()]


def _signed_pairs(values):
    """Each value and its negation, in both the x and the y column."""
    v = np.asarray(values, dtype=float)
    v = np.concatenate([v, -v])
    return np.concatenate([np.c_[v, np.full_like(v, 0.25)], np.c_[np.full_like(v, 1.5), v]])


def test_fixed6_exact_ties_and_their_neighbours():
    t = np.array(TIES)
    assert np.all(t * 1e6 % 1 == 0.5)             # exact ties, so they take the '%' path
    _check(_signed_pairs(np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, np.inf)])))


def test_fixed6_near_ties_whose_product_rounds_onto_the_half():
    v = np.array(NEAR_TIES)
    assert np.all(v * 1e6 % 1 == 0.5)
    assert ["%.6f" % x for x in v] != ["%.6f" % (np.rint(x * 1e6) / 1e6) for x in v]
    _check(_signed_pairs(v))


def test_fixed6_special_values():
    _check(_signed_pairs(SPECIAL))
    assert _fixed6(np.array([[-0.0, -1e-7]]))[0] == "-0.000000,-0.000000"
    assert _fixed6(np.array([[9.9999996, 999.9999996]]))[0] == "10.000000,1000.000000"
    assert _fixed6(np.array([[np.nan, -np.inf]]))[0] == "nan,-inf"


def test_fixed6_of_no_rows():
    assert _fixed6(np.zeros((0, 2))) == ("", [0])


def test_fixed6_row_offsets_follow_widths():
    C = np.array([[1.0, -2.0], [-300.25, 45.5], [1e4, 7.0]])
    text, off = _fixed6(C)
    assert text == "1.000000,-2.000000 -300.250000,45.500000 10000.000000,7.000000"
    assert off == [0, 19, 41, 63]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=1, max_size=40))
def test_fixed6_matches_percent_format(rows):
    _check(rows)


def test_fixed6_seeded_sweep():
    rng = np.random.default_rng(20261020)
    v = rng.uniform(0.0, 1000.0, 10**6)
    v[rng.random(v.size) < 0.5] *= -1.0
    C = v.reshape(-1, 2)
    text, off = _fixed6(C)
    assert text == _reference(C)
    assert off[-1] == len(text) + 1


# -- renderers against per-point references ------------------------------------


def _per_point_polyline(frame, P, color, width, closed):
    pts = " ".join("%.6f,%.6f" % (VIEW / 2.0 + (p[0] - frame.cx) * frame.scale,
                                  VIEW / 2.0 - (p[1] - frame.cy) * frame.scale) for p in P)
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="{width:.6f}"/>'


def _bench_body(name):
    return load_body(str(BENCH_DIR / f"{name}.json"))


@pytest.mark.parametrize("name", PLANAR_BENCH)
def test_render_ball_matches_per_point_reference(name):
    body = _bench_body(name)
    # points beyond the frame print negative and >= 1000 viewport coordinates
    pts = np.random.default_rng(3).uniform(-3.0, 3.0, (300, 2))
    center = body.interior_seed()
    frame, outline = _frame_for(body)
    expected = _document([
        coord_header("ball-samples", pts),
        _per_point_polyline(frame, outline, "#000000", 2.0, True),
        _per_point_polyline(frame, pts, PALETTE[0], 1.5, True),
        _dot(frame, center, PALETTE[1], 3.0),
    ])
    assert render_ball(body, pts, center) == expected


@pytest.mark.parametrize("name", PLANAR_BENCH)
def test_render_packing_matches_per_point_reference(name):
    body = _bench_body(name)
    pts = np.random.default_rng(4).uniform(-0.5, 0.5, (40, 2))
    center = body.interior_seed()
    frame, outline = _frame_for(body)
    expected = _document(
        [_per_point_polyline(frame, outline, "#000000", 2.0, True), _dot(frame, center, PALETTE[1], 4.0)]
        + [_dot(frame, p, PALETTE[0], 2.5) for p in pts])
    assert render_packing(body, pts, center) == expected


def _fstring_document(lines):
    """``_document`` as it was before the single join: the lines joined into a
    body, then copied into an f-string with the header."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW:.0f}" '
        f'height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">'
    )
    body = "\n".join(lines)
    return f"{head}\n{body}\n</svg>\n"


@pytest.mark.parametrize("lines", [[], [""], ["<a/>"], ["<a/>", "", "<b/>"], ["", ""]],
                         ids=["empty", "one_blank", "one", "three", "two_blank"])
def test_document_matches_the_fstring_form(lines):
    assert _document(lines) == _fstring_document(lines)


def test_cover_render_peaks_under_two_and_a_half_documents():
    # the lines and the document; the f-string form also held the joined body (3.0x)
    body = _bench_body("disk")
    pieces = build_cover(body, body.interior_seed(), 1.0, 8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        doc = render_cover(body, pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(doc)
