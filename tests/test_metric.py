"""Metric-layer checks against closed-form values.

The unit disk is the Klein model of the hyperbolic plane, so radial
distances have the exact form log((1 + tau)/(1 - tau)); the square's
diagonal obeys the same formula because the four chord points are in
the same ratios.  These give machine-precision oracles that the
generic cross-ratio code has to reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom import (
    HalfspacePolytope,
    ball_boundary,
    boundary_hit,
    boundary_hit_bisect,
    chord_through,
    concurrency_defect,
    cross_ratio,
    distance,
    distance_pairs,
    geodesic_defect,
    ray_point,
    ray_spec,
    sphere_point,
)
from hilbertgeom.errors import (
    BadOrder,
    CollinearInput,
    DistanceMismatch,
    ExteriorPoint,
    OffChord,
)
from hilbertgeom.metric import MODE_CONCURRENT, MODE_PARALLEL


def klein_radial(tau: float) -> float:
    return math.log((1.0 + tau) / (1.0 - tau))


def test_klein_radial_identity(unit_disk):
    for tau in np.arange(0.1, 0.95, 0.1):
        want = klein_radial(float(tau))
        got = distance(unit_disk, (0.0, 0.0), (float(tau), 0.0))
        assert abs(got - want) <= 1e-12


def test_disk_center_to_half_radius_is_log3(unit_disk):
    assert distance(unit_disk, (0, 0), (0.5, 0)) == pytest.approx(math.log(3.0), abs=1e-15)


def test_square_diagonal_matches_klein_formula(square):
    # along the main diagonal the chord endpoints are (-1,-1), (1,1)
    for t in (0.25, 0.5, 0.75):
        got = distance(square, (0, 0), (t, t))
        assert abs(got - klein_radial(t)) <= 1e-12


def test_distance_coincident_points_is_zero(unit_disk):
    assert distance(unit_disk, (0.3, 0.1), (0.3, 0.1)) == 0.0


def test_distance_requires_interior_points(unit_disk):
    with pytest.raises(ExteriorPoint):
        distance(unit_disk, (0, 0), (1.5, 0))


def test_distance_pairs_agrees_with_scalar(any_body):
    rng = np.random.default_rng(21)
    lo, hi = any_body.bounding_box()
    pts = []
    while len(pts) < 40:
        p = rng.uniform(lo, hi)
        if any_body.signed_gap(p[None, :])[0] < -1e-3:
            pts.append(p)
    P = np.array(pts)
    X, Y = P[:20], P[20:]
    batch = distance_pairs(any_body, X, Y)
    for i in range(20):
        assert batch[i] == pytest.approx(distance(any_body, X[i], Y[i]), abs=1e-12)


def test_symmetry_is_bit_exact(any_body):
    rng = np.random.default_rng(5)
    lo, hi = any_body.bounding_box()
    got = 0
    while got < 60:
        x, y = rng.uniform(lo, hi, (2, 2))
        if max(any_body.signed_gap(np.stack([x, y]))) >= -1e-3:
            continue
        got += 1
        a = distance_pairs(any_body, x[None], y[None])[0]
        b = distance_pairs(any_body, y[None], x[None])[0]
        assert a == b


coord = st.floats(min_value=-0.99, max_value=0.99)


@settings(max_examples=200, deadline=None)
@given(coord, coord, coord, coord, coord, coord)
def test_triangle_inequality_on_square(x0, x1, y0, y1, z0, z1):
    from hilbertgeom import Polygon

    body = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    x, y, z = (x0, x1), (y0, y1), (z0, z1)
    dxz = distance(body, x, z)
    dxy = distance(body, x, y)
    dyz = distance(body, y, z)
    assert dxz <= dxy + dyz + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=0.05, max_value=0.95))
def test_segments_are_geodesics_in_disk(a, b, lam):
    from hilbertgeom import Disk

    body = Disk((0, 0), 1.0)
    x = (0.7 * a, 0.7 * b)
    y = (-0.7 * b, 0.7 * a)
    if np.hypot(x[0] - y[0], x[1] - y[1]) < 1e-3:
        return
    assert geodesic_defect(body, x, y, lam) <= 1e-10


@pytest.fixture
def cube_polytope():
    return HalfspacePolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))


def _cube_points(rng, m):
    return rng.uniform(-0.99, 0.99, (m, 3))


def test_cube_distance_pairs_agrees_with_scalar(cube_polytope):
    rng = np.random.default_rng(31)
    X, Y = _cube_points(rng, 40), _cube_points(rng, 40)
    batch = distance_pairs(cube_polytope, X, Y)
    for i in range(40):
        assert batch[i] == pytest.approx(distance(cube_polytope, X[i], Y[i]), abs=1e-9)


def test_cube_symmetry_is_bit_exact(cube_polytope):
    rng = np.random.default_rng(32)
    X, Y = _cube_points(rng, 500), _cube_points(rng, 500)
    assert np.array_equal(distance_pairs(cube_polytope, X, Y), distance_pairs(cube_polytope, Y, X))


def test_cube_triangle_inequality(cube_polytope):
    # y on the segment from x to z makes the inequality an equality, so
    # exit errors show up directly
    rng = np.random.default_rng(33)
    X, Z = _cube_points(rng, 2000), _cube_points(rng, 2000)
    lam = rng.uniform(0.05, 0.95, (2000, 1))
    Y = X + lam * (Z - X)
    for y in (Y, _cube_points(rng, 2000)):
        excess = (distance_pairs(cube_polytope, X, Z) - distance_pairs(cube_polytope, X, y)
                  - distance_pairs(cube_polytope, y, Z))
        assert excess.max() <= 1e-9


def test_cube_exit_agrees_with_bisection(cube_polytope):
    rng = np.random.default_rng(34)
    tol = 1e-8 * cube_polytope.euclidean_diameter()
    for o in _cube_points(rng, 25):
        u = rng.normal(size=3)
        a = boundary_hit(cube_polytope, o, u)
        b = boundary_hit_bisect(cube_polytope, o, u)
        assert np.linalg.norm(a - b) < tol


def test_ray_point_closed_form_on_disk(unit_disk):
    ray = ray_spec(unit_disk, (0.0, 0.0), (1.0, 0.0))
    # from the center both exit distances are 1, so x(t) = tanh(t/2)
    for t in (0.5, 1.0, 2.0, 5.0):
        p = ray_point(ray, t)
        assert p[0] == pytest.approx(math.tanh(t / 2.0), abs=1e-14)
        assert p[1] == 0.0


def test_ray_point_hits_requested_distance(any_body):
    o = any_body.interior_seed()
    ray = ray_spec(any_body, o, (0.3, -0.9))
    for t in (0.1, 1.0, 4.0, 10.0):
        assert distance(any_body, o, ray_point(ray, t)) == pytest.approx(t, abs=1e-9)


def test_sphere_point_inverts_distance(any_body):
    o = any_body.interior_seed()
    for theta in np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False):
        p = sphere_point(any_body, o, float(theta), 2.0)
        assert distance(any_body, o, p) == pytest.approx(2.0, abs=1e-9)


def test_cross_ratio_oracle(unit_disk):
    ch = chord_through(unit_disk, (-0.5, 0.0), (0.5, 0.0))
    assert cross_ratio((0.0, 0.0), (0.5, 0.0), ch) == pytest.approx(3.0, abs=1e-12)
    assert cross_ratio((0.0, 0.0), (0.0, 0.0), ch) == pytest.approx(1.0, abs=1e-12)


def test_cross_ratio_rejects_bad_input(unit_disk):
    ch = chord_through(unit_disk, (-0.5, 0.0), (0.5, 0.0))
    with pytest.raises(OffChord):
        cross_ratio((0.0, 0.3), (0.5, 0.0), ch)
    with pytest.raises(BadOrder):
        cross_ratio((0.5, 0.0), (0.0, 0.0), ch)


def test_ball_boundary_sits_at_radius(any_body):
    o = any_body.interior_seed()
    bb = ball_boundary(any_body, o, 1.5, 64)
    for p in bb.samples:
        assert distance(any_body, o, p) == pytest.approx(1.5, abs=1e-9)


def test_ball_boundary_is_euclidean_convex(unit_disk, square):
    for body in (unit_disk, square):
        bb = ball_boundary(body, body.interior_seed(), 2.0, 128)
        P = bb.samples
        e = np.roll(P, -1, axis=0) - P
        f = np.roll(e, -1, axis=0)
        cr = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
        assert np.all(cr > -1e-9)


def test_concurrency_generic_config_meets_outside(unit_disk):
    o = np.array([0.1, -0.05])
    a2 = sphere_point(unit_disk, o, 0.3, 1.2)
    b2 = sphere_point(unit_disk, o, 1.9, 1.2)
    rep = concurrency_defect(unit_disk, o, a2, b2)
    assert rep.mode == MODE_CONCURRENT
    assert rep.defect <= 1e-7
    # the meeting point of the three lines lies outside the closed disk
    assert np.linalg.norm(rep.meeting_point) > 1.0


def test_concurrency_mirror_config_is_parallel(unit_disk):
    # reflection symmetry across the x axis forces three vertical lines
    o = np.zeros(2)
    a2 = sphere_point(unit_disk, o, 0.7, 1.0)
    b2 = np.array([a2[0], -a2[1]])
    rep = concurrency_defect(unit_disk, o, a2, b2)
    assert rep.mode == MODE_PARALLEL
    assert rep.defect <= 1e-9


def test_concurrency_rejects_collinear_and_mismatched(unit_disk):
    with pytest.raises(CollinearInput):
        concurrency_defect(unit_disk, (0, 0), (0.4, 0), (-0.4, 0))
    with pytest.raises(DistanceMismatch):
        concurrency_defect(unit_disk, (0, 0), (0.4, 0), (0.0, 0.5))
