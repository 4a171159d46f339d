"""Metric-layer checks against closed-form values.

The unit disk is the Klein model of the hyperbolic plane, so radial
distances have the exact form log((1 + tau)/(1 - tau)); the square's
diagonal obeys the same formula because the four chord points are in
the same ratios.  These give machine-precision oracles that the
generic cross-ratio code has to reproduce.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom import (
    Ellipsoid,
    HalfspacePolytope,
    Polygon,
    boundary_hit,
    boundary_hit_bisect,
    chord_through,
    concurrency_defects,
    cross_ratio,
    distance,
    distance_pairs,
    metric,
    pairwise_distances,
    ray_point,
    ray_spec,
    sphere_points,
)
from hilbertgeom.bodies import load_body, projective_image
from hilbertgeom.errors import (
    BadOrder,
    DistanceMismatch,
    ExteriorPoint,
    OffChord,
    Unbounded,
)
from hilbertgeom.metric import projective_transfer_defect
from hilbertgeom.sampling import INNER_RADIUS, sample_ball


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


def test_pairwise_distances_match_scalar_pairs(any_body):
    rng = np.random.default_rng(8)
    lo, hi = any_body.bounding_box()
    P = rng.uniform(lo, hi, size=(200, 2))
    P = P[any_body.signed_gap(P) < -1e-3][:12]
    m = len(P)
    got = pairwise_distances(any_body, P)
    assert got.shape == (m * (m - 1) // 2,)
    ii, jj = np.triu_indices(m, k=1)
    for k, (i, j) in enumerate(zip(ii, jj)):
        assert got[k] == pytest.approx(distance(any_body, P[i], P[j]), abs=1e-9)
    assert pairwise_distances(any_body, P[:1]).shape == (0,)
    assert pairwise_distances(any_body, P[:0]).shape == (0,)


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
    X, Y = np.array([x]), np.array([y])
    Z = X + lam * (Y - X)
    defect = distance_pairs(body, X, Z) + distance_pairs(body, Z, Y) - distance_pairs(body, X, Y)
    assert abs(defect[0]) <= 1e-10


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
        p = sphere_points(any_body, o, [float(theta)], 2.0)[0]
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


def _uniform_angles(n):
    return 2.0 * math.pi * np.arange(n) / n


def test_ball_boundary_sits_at_radius(any_body):
    o = any_body.interior_seed()
    for p in sphere_points(any_body, o, _uniform_angles(64), 1.5):
        assert distance(any_body, o, p) == pytest.approx(1.5, abs=1e-9)


def test_ball_boundary_is_euclidean_convex(unit_disk, square):
    for body in (unit_disk, square):
        P = sphere_points(body, body.interior_seed(), _uniform_angles(128), 2.0)
        e = np.roll(P, -1, axis=0) - P
        f = np.roll(e, -1, axis=0)
        cr = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
        assert np.all(cr > -1e-9)


def _one_row(body, o, a2, b2):
    return concurrency_defects(body, *(np.array([p], dtype=float) for p in (o, a2, b2)))


def test_concurrency_generic_config_meets_outside(unit_disk):
    o = np.array([0.1, -0.05])
    a2 = sphere_points(unit_disk, o, [0.3], 1.2)[0]
    b2 = sphere_points(unit_disk, o, [1.9], 1.2)[0]
    rep = _one_row(unit_disk, o, a2, b2)
    assert not rep.rejected[0] and not rep.parallel[0]
    assert rep.defect[0] <= 1e-7
    # the meeting point of the three lines lies outside the closed disk
    assert np.linalg.norm(rep.meeting[0]) > 1.0


def test_concurrency_mirror_config_is_parallel(unit_disk):
    # reflection symmetry across the x axis forces three vertical lines
    o = np.zeros(2)
    a2 = sphere_points(unit_disk, o, [0.7], 1.0)[0]
    b2 = np.array([a2[0], -a2[1]])
    rep = _one_row(unit_disk, o, a2, b2)
    assert not rep.rejected[0] and rep.parallel[0]
    assert rep.defect[0] <= 1e-9
    assert np.isnan(rep.meeting[0]).all()


def test_concurrency_rejects_collinear_and_mismatched(unit_disk):
    rep = _one_row(unit_disk, (0, 0), (0.4, 0), (-0.4, 0))
    assert rep.rejected[0] and np.isnan(rep.defect[0])
    with pytest.raises(DistanceMismatch):
        _one_row(unit_disk, (0, 0), (0.4, 0), (0.0, 0.5))


def test_concurrency_rows_match_one_row_calls(any_body):
    # two equidistant pairs and a collinear triple, in one call and one at a time
    o = any_body.interior_seed()
    a2 = sphere_points(any_body, o, [0.3], 1.2)[0]
    rows = [(o, a2, sphere_points(any_body, o, [1.9], 1.2)[0]),
            (o, a2, sphere_points(any_body, o, [2.4], 1.2)[0]),
            (o, a2, o + 0.5 * (o - a2))]
    got = concurrency_defects(any_body, *(np.array(col) for col in zip(*rows)))
    assert got.rejected.tolist() == [False, False, True]
    assert _one_row(any_body, *rows[2]).rejected[0]
    for k, row in enumerate(rows[:2]):
        rep = _one_row(any_body, *row)
        assert not rep.rejected[0]
        assert got.parallel[k] == rep.parallel[0]
        assert got.defect[k] == pytest.approx(rep.defect[0], abs=1e-12)
        assert got.min_cross[k] == pytest.approx(rep.min_cross[0], abs=1e-12)
    assert np.isnan(got.defect[2]) and np.isnan(got.meeting[2]).all()


BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "bodies"
BENCH_BODIES = sorted(p.stem for p in BENCH_DIR.glob("*.json"))


def bench_body(name):
    return load_body(str(BENCH_DIR / f"{name}.json"))


def draw_map(body, rng):
    """The projective map of ``projective_transfer_defect``, drawn the same way."""
    n = body.dimension
    lo, hi = body.bounding_box()
    scale = float(np.abs(np.r_[lo, hi]).max())
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    T = np.eye(n + 1)
    T[:n, :n] = Q * rng.uniform(0.5, 2.0, n)
    T[:n, n] = 0.3 * scale * rng.normal(size=n)
    T[n, :n] = rng.uniform(-0.5, 0.5, n) / (n * scale)
    return T


def apply_map(T, p):
    h = T @ np.append(p, 1.0)
    return h[:-1] / h[-1]


@pytest.mark.parametrize("name", BENCH_BODIES)
def test_projective_image_maps_the_boundary_onto_the_boundary_band(name):
    body = bench_body(name)
    rng = np.random.default_rng(11)
    o = body.interior_seed()
    U = rng.normal(size=(64, body.dimension))
    U /= np.linalg.norm(U, axis=1)[:, None]
    back, fwd = body.ray_exit(o, U)
    edge = np.vstack([o + fwd[:, None] * U, o - back[:, None] * U])
    for _ in range(5):
        T = draw_map(body, rng)
        image = projective_image(body, T)
        assert isinstance(image, Ellipsoid if body.strictly_convex else HalfspacePolytope)
        assert (image.classify_many([apply_map(T, p) for p in edge]) == 0).all()
        # just inside and just outside by 1e-6 of the chord stay on their sides
        inner = o + (1.0 - 1e-6) * (edge - o)
        outer = o + (1.0 + 1e-6) * (edge - o)
        assert (image.classify_many([apply_map(T, p) for p in inner]) == -1).all()
        assert (image.classify_many([apply_map(T, p) for p in outer]) == 1).all()


@pytest.mark.parametrize("name", ["disk", "ellipsoid3", "square", "cube_halfspaces"])
def test_projective_image_through_infinity_is_unbounded(name):
    # w . x + 1 vanishes at x_0 = -1/2, inside every one of these bodies
    body = bench_body(name)
    T = np.eye(body.dimension + 1)
    T[-1, 0] = 2.0
    with pytest.raises(Unbounded):
        projective_image(body, T)


@pytest.mark.parametrize("seed", range(10))
def test_perspective_rows_match_a_scalar_replay(seed):
    # replay each body's draws and measure every pair on its own with
    # ``distance``; a polygon's image is built again from its mapped vertices
    n = 40
    for name in BENCH_BODIES:
        body = bench_body(name)
        rng = np.random.default_rng([seed, 6])
        got = projective_transfer_defect(body, rng, n)

        replay = np.random.default_rng([seed, 6])
        T = draw_map(body, replay)
        X, Y = np.split(sample_ball(body, body.interior_seed(), INNER_RADIUS, 2 * n, replay), 2)
        if isinstance(body, Polygon):
            image = Polygon([apply_map(T, v) for v in body.vertices])
        else:
            image = projective_image(body, T)
        want = np.array([abs(distance(image, apply_map(T, x), apply_map(T, y)) - distance(body, x, y))
                         for x, y in zip(X, Y)])
        assert rng.bit_generator.state == replay.bit_generator.state, name
        assert got.shape == (n,) and want.max() <= 1e-9, name
        assert np.max(np.abs(got - want)) <= 1e-12, name


def test_perspective_row_passes_at_seeds_0_to_199():
    worst = {}
    for name in BENCH_BODIES:
        body = bench_body(name)
        worst[name] = max(projective_transfer_defect(body, np.random.default_rng([seed, 6]), 200).max()
                          for seed in range(200))
    assert max(worst.values()) <= 1e-9, worst
    # the row reads the body: its worst defect is not one number for all
    assert len(set(worst.values())) > 1, worst


@pytest.mark.parametrize("name", ["disk", "square", "ellipsoid3", "cube_halfspaces"])
def test_perspective_row_fails_a_perturbed_image(name, monkeypatch):
    # an image whose w row is off by a relative 1e-6 is no longer T(body)
    def perturbed(body, T):
        T = np.array(T)
        T[-1, :-1] *= 1.0 + 1e-6
        return projective_image(body, T)

    body = bench_body(name)
    monkeypatch.setattr(metric, "projective_image", perturbed)
    for seed in range(20):
        assert projective_transfer_defect(body, np.random.default_rng([seed, 6]), 200).max() > 1e-9
