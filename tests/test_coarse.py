import math

import numpy as np
import pytest

from hilbertgeom import (
    contraction_constant,
    corona_probe,
    distance,
    distance_pairs,
    flat_boundary_ray_bound,
    greedy_packing,
    higson_defect,
    verify_contraction,
)
from hilbertgeom.errors import BadOrder, BadRadii, BallNotContained, NotOnBoundary


# (e^r - 1)/(e^{2R} - 1) at hand-checkable arguments
def test_contraction_constant_frozen_values():
    assert contraction_constant(math.log(2.0), math.log(2.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert contraction_constant(1.0, 1.0) == pytest.approx(1.0 / (math.e + 1.0), abs=1e-15)
    assert contraction_constant(0.25, 2.25) == pytest.approx(
        math.expm1(0.25) / math.expm1(4.5), abs=0.0
    )


def test_contraction_constant_rejects_bad_radii():
    with pytest.raises(BadRadii):
        contraction_constant(0.0, 1.0)
    with pytest.raises(BadRadii):
        contraction_constant(2.0, 1.0)  # r = 2R gives D = 1, no contraction


def test_radii_past_float64_raise_bad_radii(unit_disk):
    # e^(2R) is finite up to 2R = log(max float), about 709.78
    assert 0.0 < contraction_constant(1.0, 354.0) < 1e-300
    with pytest.raises(BadRadii, match="float64"):
        contraction_constant(1.0, 355.0)
    # finite D, but 1/D^2 past the largest float
    with pytest.raises(BadRadii, match="float64"):
        greedy_packing(unit_disk, (0.0, 0.0), 200.0, 0.25, 10, 0)


def test_verify_contraction_all_bodies(any_body):
    o = any_body.interior_seed()
    rep = verify_contraction(any_body, o, 2.0, o, 1.0, 400, seed=1)
    assert rep.max_violation <= 1e-9
    assert rep.D == pytest.approx(math.expm1(1.0) / math.expm1(4.0), abs=0.0)


def test_verify_contraction_off_center_target(unit_disk):
    x = np.array([0.2, -0.1])
    rep = verify_contraction(unit_disk, (0.0, 0.0), 3.0, x, 0.5, 400, seed=2)
    assert rep.max_violation <= 1e-9


def test_verify_contraction_requires_nested_balls(unit_disk):
    # d(center, x) + r > R, so B(x, r) is not inside B(center, R)
    with pytest.raises(BallNotContained):
        verify_contraction(unit_disk, (0.0, 0.0), 1.0, (0.9, 0.0), 1.0, 10)


def test_greedy_packing_separation_and_bound(any_body):
    o = any_body.interior_seed()
    rep = greedy_packing(any_body, o, 2.0, 0.25, 4000, seed=0)
    assert rep.count <= rep.bound
    assert np.array_equal(rep.points[0], o)
    P = rep.points
    for i in range(rep.count - 1):
        tiled = np.broadcast_to(P[i], P[i + 1:].shape)
        assert distance_pairs(any_body, tiled, P[i + 1:]).min() > 2 * 0.25


def test_greedy_packing_stays_inside_ball(unit_disk):
    rep = greedy_packing(unit_disk, (0, 0), 2.0, 0.25, 4000, seed=3)
    for p in rep.points:
        assert distance(unit_disk, (0.0, 0.0), p) <= 2.0 + 1e-9


def test_greedy_packing_is_deterministic(unit_disk):
    a = greedy_packing(unit_disk, (0, 0), 2.0, 0.25, 2000, seed=7)
    b = greedy_packing(unit_disk, (0, 0), 2.0, 0.25, 2000, seed=7)
    assert a.count == b.count
    assert np.array_equal(a.points, b.points)
    c = greedy_packing(unit_disk, (0, 0), 2.0, 0.25, 2000, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_corona_probe_gap_dies_on_disk(unit_disk):
    rep = corona_probe(unit_disk, (0.0, 0.0), 0.05, 1.0, (2.0, 8.0, 16.0), 2000, seed=0)
    gaps = rep.sup_euclidean_gap
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.1
    assert [r["radius"] for r in rep.rows()] == [2.0, 8.0, 16.0]


def test_flat_bound_square_quarter_points_is_log9(square):
    alpha, beta = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    xi, eta = np.array([-0.5, 1.0]), np.array([0.5, 1.0])
    bound = flat_boundary_ray_bound(square, alpha, beta, xi, eta)
    assert bound == pytest.approx(math.log(9.0), abs=1e-15)


def test_flat_bound_caps_ray_pair_distances(square):
    # rays from the center toward the two quarter points of the top edge
    from hilbertgeom import ray_point, ray_spec

    bound = flat_boundary_ray_bound(
        square, (-1.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (0.5, 1.0)
    )
    rx = ray_spec(square, (0.0, 0.0), (-0.5, 1.0))
    re = ray_spec(square, (0.0, 0.0), (0.5, 1.0))
    for t in np.linspace(0.5, 20.0, 40):
        d = distance(square, ray_point(rx, float(t)), ray_point(re, float(t)))
        assert d <= bound + 1e-9


def test_flat_bound_validates_input(square):
    with pytest.raises(NotOnBoundary):
        # interior segment, not a boundary piece
        flat_boundary_ray_bound(square, (-0.5, 0.5), (0.5, 0.5), (-0.2, 0.5), (0.2, 0.5))
    # segments from (-1, y) to (3, y), checked at 33 points: the first one off
    # the boundary is named, inside the body at y = 0, past the corner at y = 1
    for y, fraction in ((0.0, "0.031"), (1.0, "0.531")):
        with pytest.raises(NotOnBoundary, match=f"at fraction {fraction} is not"):
            flat_boundary_ray_bound(square, (-1.0, y), (3.0, y), (0.0, y), (1.0, y))
    with pytest.raises(BadOrder):
        flat_boundary_ray_bound(square, (-1, 1), (1, 1), (0.5, 1.0), (-0.5, 1.0))
    with pytest.raises(BadOrder):
        # xi off the segment line
        flat_boundary_ray_bound(square, (-1, 1), (1, 1), (0.0, 0.5), (0.5, 1.0))


def test_higson_defect_decays_on_disk(unit_disk):
    f = lambda p: math.atan2(p[1], p[0])

    def wrapped(p):
        # avoid the branch cut so |f(x)-f(y)| measures true angular spread
        return math.cos(f(p))

    near = higson_defect(unit_disk, wrapped, 1.0, 2.0, 1500, seed=0)
    far = higson_defect(unit_disk, wrapped, 1.0, 12.0, 1500, seed=0)
    assert far < near
    assert far < 0.05
