import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeom import (
    contraction_constant,
    corona_probe,
    distance,
    distance_pairs,
    flat_boundary_ray_bound,
    greedy_packing,
    higson_defect,
    load_body,
    sample_interior,
    verify_contraction,
)
from hilbertgeom import coarse
from hilbertgeom.sampling import ball_candidates
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


# -- the greedy packing's Euclidean filter ---------------------------------------

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "bodies"
BENCH_BODIES = sorted(p.stem for p in BENCH_DIR.glob("*.json"))


@pytest.fixture(scope="module", params=BENCH_BODIES)
def bench_body(request):
    return load_body(str(BENCH_DIR / f"{request.param}.json"))


def _full_accept_loop(body, c, R, epsilon, trials, seed):
    """``greedy_packing``'s accepts measured against the whole pool on every
    accept, as before the Euclidean filter."""
    cands = ball_candidates(body, c, R, trials, np.random.default_rng(seed))
    chosen, pool, last = [c], cands, c
    while len(pool):
        d = distance_pairs(body, np.broadcast_to(last, pool.shape), pool)
        pool = np.compress(d > 2.0 * epsilon, pool, axis=0)
        if not len(pool):
            break
        last = pool[0]
        chosen.append(last)
        pool = pool[1:]
    return np.array(chosen)


@pytest.mark.parametrize("epsilon", [0.01, 0.25, 1.0, 4.0])
def test_filtered_packing_matches_the_full_accept_loop(bench_body, epsilon):
    # 4,000 trials: every bench body's first pool exceeds the filter's cut-off
    c = bench_body.interior_seed()
    for seed in range(5):
        cands = ball_candidates(bench_body, c, 2.0, 4000, np.random.default_rng(seed))
        assert len(cands) > coarse._FILTER_MIN_POOL
        rep = greedy_packing(bench_body, c, 2.0, epsilon, 4000, seed)
        want = _full_accept_loop(bench_body, c, 2.0, epsilon, 4000, seed)
        assert rep.count == len(want)
        assert np.array_equal(rep.points, want), f"seed {seed}"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distance_exceeds_the_packing_filter_bound(seed):
    # on a chord a, x, y, b with rho = |x - y| and |a x| + |y b| <= L - rho,
    # d(x, y) = log1p(rho/|a x|) + log1p(rho/|y b|) >= 2 log1p(2 rho / (L - rho)),
    # with equality on a diameter of the disk centred on its centre, so the
    # computed distances get a rounding slack
    rng = np.random.default_rng(seed)
    for name in BENCH_BODIES:
        body = load_body(str(BENCH_DIR / f"{name}.json"))
        X, Y = sample_interior(body, 200, rng), sample_interior(body, 200, rng)
        L = body.euclidean_diameter()
        rho = np.linalg.norm(X - Y, axis=1)
        bound = 2.0 * np.log1p(2.0 * rho / (L - rho))
        assert np.all(distance_pairs(body, X, Y) >= bound * (1.0 - 1e-12)), name
