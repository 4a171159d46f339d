import warnings

import numpy as np
import pytest

from hilbertgeom import (
    Chord,
    Disk,
    Ellipsoid,
    HalfspacePolytope,
    Polygon,
    Region,
    boundary_hit,
    boundary_hit_bisect,
    chord_through,
    classify,
    distance,
    distance_pairs,
    is_strictly_convex,
    validate_body,
)
from hilbertgeom.errors import (
    CoincidentPoints,
    EmptyInterior,
    ExteriorBase,
    ExteriorPoint,
    NonConvex,
    Unbounded,
)


def test_polygon_keeps_ccw_vertices(square):
    assert square.warnings == ()
    assert np.array_equal(square.vertices[0], [-1.0, -1.0])


def test_polygon_reverses_clockwise_input():
    p = Polygon([(-1, -1), (-1, 1), (1, 1), (1, -1)])
    assert p.warnings == ("clockwise vertex order was reversed",)
    # reversal restores the counterclockwise orientation invariant
    e = np.roll(p.vertices, -1, axis=0) - p.vertices
    turns = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert np.all(turns > 0)


def test_polygon_rejects_collinear_vertices():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (1, 0), (2, 0), (1, 1)])


def test_polygon_rejects_duplicate_vertices():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (0, 0), (1, 0), (0, 1)])


def test_polygon_rejects_reflex_vertex():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (2, 0), (1, 0.1), (1, 2)])


def test_polygon_needs_three_vertices():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (1, 0)])


def test_disk_rejects_bad_radius():
    with pytest.raises(EmptyInterior):
        Disk((0, 0), 0.0)
    with pytest.raises(EmptyInterior):
        Disk((0, 0), -2.0)


def test_ellipsoid_rejects_bad_axes():
    with pytest.raises(EmptyInterior):
        Ellipsoid((0, 0), (1.0, 0.0))


def test_ellipsoid_rotation_moves_the_long_axis():
    e = Ellipsoid((0, 0), (2, 1), rotation=np.pi / 2)
    # after a quarter turn the long axis is vertical
    assert classify(e, (0.0, 1.9)) is Region.INTERIOR
    assert classify(e, (1.9, 0.0)) is Region.EXTERIOR


def test_polytope_unbounded_raises():
    with pytest.raises(Unbounded):
        HalfspacePolytope([(1.0, 0.0), (0.0, 1.0)], [1.0, 1.0])


def test_polytope_empty_raises():
    with pytest.raises(EmptyInterior):
        HalfspacePolytope([(1.0, 0.0), (-1.0, 0.0)], [1.0, -2.0])


def test_polytope_square_pairs_match_polygon_square(square, square_polytope):
    rng = np.random.default_rng(17)
    X = rng.uniform(-0.999, 0.999, (2000, 2))
    Y = rng.uniform(-0.999, 0.999, (2000, 2))
    gap = np.abs(distance_pairs(square, X, Y) - distance_pairs(square_polytope, X, Y))
    assert gap.max() <= 1e-12


def test_polygon_diameter_is_largest_vertex_distance(heptagon):
    V = heptagon.vertices
    want = max(np.linalg.norm(a - b) for a in V for b in V)
    assert heptagon.euclidean_diameter() == pytest.approx(want, rel=1e-15)


def test_polygon_ray_exit_emits_no_warning(square):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = square.ray_exit([[0.0, 0.5]], [[1.0, 1e-309]])
    assert s[0] == pytest.approx(1.0, abs=1e-15)


def test_polytope_square_matches_polygon_square(square, square_polytope):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-0.9, 0.9, 2)
        y = rng.uniform(-0.9, 0.9, 2)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        assert distance(square, x, y) == pytest.approx(
            distance(square_polytope, x, y), abs=1e-9
        )


def test_classify_regions(unit_disk):
    assert classify(unit_disk, (0.0, 0.0)) is Region.INTERIOR
    assert classify(unit_disk, (1.0, 0.0)) is Region.BOUNDARY
    assert classify(unit_disk, (2.0, 0.0)) is Region.EXTERIOR


def test_boundary_hit_disk_exact(unit_disk):
    hit = boundary_hit(unit_disk, (0.0, 0.0), (1.0, 0.0))
    assert hit == pytest.approx([1.0, 0.0], abs=1e-12)
    hit = boundary_hit(unit_disk, (0.3, 0.0), (0.0, -1.0))
    assert hit == pytest.approx([0.3, -np.sqrt(1 - 0.09)], abs=1e-12)


def test_boundary_hit_square_edge_and_corner(square):
    assert boundary_hit(square, (0, 0), (1, 0)) == pytest.approx([1.0, 0.0])
    assert boundary_hit(square, (0, 0), (1, 1)) == pytest.approx([1.0, 1.0])


def test_boundary_hit_requires_interior_base(unit_disk):
    with pytest.raises(ExteriorBase):
        boundary_hit(unit_disk, (2.0, 0.0), (1.0, 0.0))


def test_bisection_agrees_with_closed_form(any_body):
    rng = np.random.default_rng(11)
    o = any_body.interior_seed()
    for _ in range(25):
        u = rng.normal(size=2)
        a = boundary_hit(any_body, o, u)
        b = boundary_hit_bisect(any_body, o, u)
        assert np.linalg.norm(a - b) < 1e-8 * any_body.euclidean_diameter()


def test_chord_orientation(unit_disk):
    x = np.array([-0.2, 0.0])
    y = np.array([0.5, 0.0])
    ch = chord_through(unit_disk, x, y)
    assert ch.tail == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert ch.head == pytest.approx([1.0, 0.0], abs=1e-12)


def test_chord_rejects_degenerate_input(unit_disk):
    with pytest.raises(CoincidentPoints):
        chord_through(unit_disk, (0.1, 0.1), (0.1, 0.1))
    with pytest.raises(ExteriorPoint):
        chord_through(unit_disk, (0.0, 0.0), (5.0, 0.0))


def test_strict_convexity_flags(unit_disk, ellipse21, square, heptagon, square_polytope):
    assert is_strictly_convex(unit_disk)
    assert is_strictly_convex(ellipse21)
    assert not is_strictly_convex(square)
    assert not is_strictly_convex(heptagon)
    assert not is_strictly_convex(square_polytope)


def test_validate_body_dispatch():
    d = validate_body({"type": "disk", "center": [0, 0], "radius": 1})
    assert isinstance(d, Disk)
    p = validate_body({"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]})
    assert isinstance(p, Polygon)
    e = validate_body({"type": "ellipse", "center": [0, 0], "semi_axes": [2, 1]})
    assert isinstance(e, Ellipsoid)
    h = validate_body({
        "type": "polytope",
        "halfspaces": [
            {"normal": [1, 0], "offset": 1},
            {"normal": [-1, 0], "offset": 1},
            {"normal": [0, 1], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ],
    })
    assert isinstance(h, HalfspacePolytope)
    with pytest.raises(ValueError):
        validate_body({"type": "torus"})
    with pytest.raises(ValueError):
        validate_body([1, 2, 3])


def test_chord_is_frozen(unit_disk):
    ch = chord_through(unit_disk, (-0.2, 0.0), (0.5, 0.0))
    assert isinstance(ch, Chord)
    with pytest.raises(ValueError):
        ch.tail[0] = 7.0


def test_three_dimensional_ball_distance():
    b = Disk((0, 0, 0), 1.0)
    # same Klein-model chord as the planar disk, embedded along the x axis
    assert distance(b, (0, 0, 0), (0.5, 0, 0)) == pytest.approx(np.log(3.0), abs=1e-12)
