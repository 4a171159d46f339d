"""One ray-point routine: every sphere and ray sampler agrees bit for bit.

``metric._ray_param`` is the single place that holds the closed form
s(t) = a b (1 - e^-t) / (a + b e^-t) and its clamp strictly inside the
forward exit b; ``ray_points``, ``ray_point``, ``sphere_points`` and
``SphereField.points`` all go through it.
"""

import numpy as np
import pytest

from hilbertgeom import distance, ray_point, ray_points, ray_spec, sphere_points
from hilbertgeom.cover import SphereField
from hilbertgeom.metric import RaySpec, _ray_param


@pytest.fixture(params=["unit_disk", "square", "ellipse21", "heptagon", "square_polytope"])
def planar_body(request):
    return request.getfixturevalue(request.param)


def _rays(body, n=64, seed=5):
    """Base, random angles and radii, and the unit directions ray_spec uses."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    ts = rng.uniform(0.0, 12.0, n)
    o = body.interior_seed()
    specs = [ray_spec(body, o, (np.cos(th), np.sin(th))) for th in thetas]
    return o, thetas, ts, specs


def _batched_specs(body, P, U):
    """RaySpecs whose exits come from one batched oracle call, as in ray_points.

    Polygon exits go through a BLAS product whose last bit can depend on
    the batch size, so this keeps the comparison to the ray routine itself.
    """
    a, b = body.ray_exit(P, U)
    return [RaySpec(p, u, float(ak), float(bk)) for p, u, ak, bk in zip(P, U, a, b)]


def test_sphere_samplers_agree_bit_for_bit(planar_body):
    o, thetas, ts, specs = _rays(planar_body)
    field_pts = SphereField(planar_body, o).points(thetas, ts)
    metric_pts = sphere_points(planar_body, o, thetas, ts)
    assert np.array_equal(field_pts, metric_pts)

    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    O = np.broadcast_to(o, U.shape)
    stacked = np.array([ray_point(r, t) for r, t in zip(_batched_specs(planar_body, O, U), ts)])
    assert np.array_equal(stacked, metric_pts)
    # ray_spec renormalizes (cos, sin) and calls the oracle one row at a
    # time; both can move the last bit
    single = np.array([ray_point(r, t) for r, t in zip(specs, ts)])
    assert np.allclose(single, metric_pts, rtol=0.0, atol=1e-15)


def test_ray_points_match_ray_point_per_row(planar_body):
    rng = np.random.default_rng(11)
    o, _, ts, specs = _rays(planar_body)
    U = np.array([r.direction for r in specs])
    P = o + rng.uniform(-0.2, 0.2, U.shape)
    got = ray_points(planar_body, P, U, ts)
    stacked = np.array([ray_point(r, t) for r, t in zip(_batched_specs(planar_body, P, U), ts)])
    assert np.array_equal(stacked, got)


def test_far_points_are_clamped_inside_the_exit(planar_body):
    o, thetas, _, _ = _rays(planar_body)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    O = np.broadcast_to(o, U.shape)
    a, b = planar_body.ray_exit(O, U)
    # exp(-60) is far below one ulp of an exit: the parameter saturates at
    # the clamp, the float just below the forward exit, in both routines
    s = _ray_param(a, b, 60.0)
    assert np.array_equal(s, np.nextafter(b, 0.0))
    assert np.all(s < b)
    clamped = O + s[:, None] * U
    assert np.array_equal(ray_points(planar_body, O, U, 60.0), clamped)
    single = np.array([ray_point(r, 60.0) for r in _batched_specs(planar_body, O, U)])
    assert np.array_equal(single, clamped)
    assert np.array_equal(sphere_points(planar_body, o, thetas, 60.0), clamped)
    assert np.array_equal(SphereField(planar_body, o).points(thetas, 60.0), clamped)


def test_ray_points_round_trip_through_distance(planar_body):
    o, thetas, ts, _ = _rays(planar_body)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for t in (ts, 20.0):
        pts = ray_points(planar_body, np.broadcast_to(o, U.shape), U, t)
        got = np.array([distance(planar_body, o, p) for p in pts])
        assert np.allclose(got, np.broadcast_to(t, ts.shape), rtol=0.0, atol=1e-6)


def test_each_chord_takes_one_ray_exit_call(planar_body, monkeypatch):
    # both exits of a chord come from one two-sided oracle pass
    calls = []
    cls = type(planar_body)
    original = cls.ray_exit

    def counted(self, P, U):
        calls.append(P)
        return original(self, P, U)

    monkeypatch.setattr(cls, "ray_exit", counted)
    o, thetas, ts, _ = _rays(planar_body)
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for run in (lambda: ray_points(planar_body, np.broadcast_to(o, U.shape), U, ts),
                lambda: ray_spec(planar_body, o, U[0]),
                lambda: SphereField(planar_body, o).exits(thetas)):
        calls.clear()
        run()
        assert len(calls) == 1
