"""Rejection samplers: exhaustion is a typed precondition failure."""

from pathlib import Path

import numpy as np
import pytest

from hilbertgeom import (
    Polygon,
    load_body,
    ray_points,
    sample_ball,
    sample_interior,
    sampling,
    sphere_points,
)
from hilbertgeom.errors import ExteriorPoint, GeometryError, SamplingExhausted

# a 2 x 1e-7 rectangle tilted by 45 degrees fills 1e-7 of its box, so
# 201 rounds of 64 box draws are unlikely to hold an interior point
SLIVER = [((x - y) / np.sqrt(2.0), (x + y) / np.sqrt(2.0))
          for x, y in [(-1.0, -5e-8), (1.0, -5e-8), (1.0, 5e-8), (-1.0, 5e-8)]]
# fills 37.5% of its box
TRIANGLE = [(0.0, 0.0), (1.0, 0.5), (0.5, 1.0)]


def test_sample_interior_exhaustion_is_typed():
    body = Polygon(SLIVER)
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingExhausted):
        sample_interior(body, 1, rng)
    assert issubclass(SamplingExhausted, GeometryError)


def test_sample_ball_exhaustion_is_typed(unit_disk, monkeypatch):
    # a ball whose candidate draws are all rejected can never be filled
    monkeypatch.setattr(sampling, "ball_candidates", lambda *a, **k: np.empty((0, 2)))
    with pytest.raises(SamplingExhausted):
        sample_ball(unit_disk, (0.0, 0.0), 1.0, 5, np.random.default_rng(0))


@pytest.mark.parametrize("center", [(2.0, 0.0), (1.0, 0.0)])
def test_ball_draws_need_an_interior_center(unit_disk, center):
    # an exterior center gave an inverted box and numpy's "high - low < 0";
    # a boundary center gave a ball of one point
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ExteriorPoint):
        sampling.ball_candidates(unit_disk, center, 1.0, 100, rng)
    with pytest.raises(ExteriorPoint):
        sample_ball(unit_disk, center, 1.0, 5, rng)
    assert rng.bit_generator.state == state


def test_samplers_fill_requests(unit_disk):
    rng = np.random.default_rng(1)
    X = sample_interior(unit_disk, 50, rng)
    assert X.shape == (50, 2)
    assert np.all(unit_disk.signed_gap(X) < -unit_disk.boundary_tol())
    B = sample_ball(unit_disk, (0.0, 0.0), sampling.INNER_RADIUS, 20, rng)
    assert B.shape == (20, 2)
    assert np.all(np.linalg.norm(B, axis=1) <= 0.9 + 1e-15)   # B(0, log 19) is |x| <= 0.9


def test_collect_returns_n_rows_in_draw_order():
    asked = []

    def draw(k):
        asked.append(k)
        return np.arange(3) + 10 * len(asked)   # three rows per draw

    got = sampling._collect(draw, 7, "unused")
    assert asked == [7, 4, 1]
    assert got.tolist() == [10, 11, 12, 20, 21, 22, 30]


def test_collect_gives_up_after_a_first_draw_and_max_rounds_redraws():
    asked = []
    with pytest.raises(SamplingExhausted, match=f"nothing in {sampling._MAX_ROUNDS + 1} draws"):
        sampling._collect(lambda k: asked.append(k) or np.empty(0), 5, "nothing")
    assert asked == [5] * (sampling._MAX_ROUNDS + 1)


def test_sample_interior_draws_max_2n_64_candidates_per_round():
    # each round draws max(2n, 64) candidates for the whole request, however
    # many are still missing, so the stream does not depend on earlier rounds
    triangle = Polygon(TRIANGLE)
    got_rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    got = sample_interior(triangle, 500, got_rng)
    lo, hi = triangle.bounding_box()
    kept, rounds = np.empty((0, 2)), 0
    while len(kept) < 500:
        cand = ref.uniform(lo, hi, size=(1000, 2))
        kept = np.vstack([kept, cand[triangle.signed_gap(cand) < -triangle.boundary_tol()]])
        rounds += 1
    assert rounds >= 2 and len(kept) > 500   # a redraw, and the last one overfills
    assert np.array_equal(got, kept[:500])
    assert got_rng.bit_generator.state == ref.bit_generator.state

    # exhausted: one first draw and _MAX_ROUNDS redraws of 64 candidates each
    body, rng, ref = Polygon(SLIVER), np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(SamplingExhausted):
        sample_interior(body, 1, rng)
    ref.uniform(size=((sampling._MAX_ROUNDS + 1) * 64, 2))
    assert rng.bit_generator.state == ref.bit_generator.state


BODY_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "bodies"


@pytest.fixture(params=["unit_disk", "ellipse21", "square", "heptagon", "square_polytope",
                        "heptagon.json", "ellipsoid3.json", "cube_halfspaces.json"])
def boxed_body(request):
    if request.param.endswith(".json"):
        return load_body(str(BODY_DIR / request.param))
    return request.getfixturevalue(request.param)


def _dense_sphere(body, c, t, m, rng):
    """m points of the metric sphere S(c, t): uniform angles in the plane,
    normalised Gaussian directions otherwise."""
    if body.dimension == 2:
        return sphere_points(body, c, 2.0 * np.pi * np.arange(m) / m, t)
    U = rng.normal(size=(m, body.dimension))
    U /= np.linalg.norm(U, axis=1)[:, None]
    return ray_points(body, np.broadcast_to(c, U.shape), U, t)


def test_ball_box_holds_the_whole_ball(boxed_body):
    # the ball is the convex hull of its sphere, so holding a dense sphere
    # sample holds the ball; sampled boxes cut off the ball's tips
    rng = np.random.default_rng(5)
    tol = 1e-12 * boxed_body.euclidean_diameter()
    centres = np.vstack([boxed_body.interior_seed(), sample_interior(boxed_body, 5, rng)])
    for c in centres:
        for t in (0.5, 1.0, 2.0, 3.0):
            lo, hi = sampling.ball_box(boxed_body, c, t)
            S = _dense_sphere(boxed_body, c, t, 20_000, rng)
            assert np.all(S >= lo - tol) and np.all(S <= hi + tol), (c, t)
