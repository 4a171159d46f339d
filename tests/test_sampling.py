"""Rejection samplers: exhaustion is a typed precondition failure."""

import numpy as np
import pytest

from hilbertgeom import Polygon, sample_ball, sample_interior
from hilbertgeom.errors import GeometryError, SamplingExhausted

# 2 x 0.01 rectangle: no point clears 0.1 of the boundary
THIN = [(-1.0, -0.005), (1.0, -0.005), (1.0, 0.005), (-1.0, 0.005)]


def test_sample_interior_exhaustion_is_typed():
    body = Polygon(THIN)
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingExhausted):
        sample_interior(body, 1, rng, clearance=0.1)
    assert issubclass(SamplingExhausted, GeometryError)


def test_sample_ball_exhaustion_is_typed(unit_disk, monkeypatch):
    # a ball whose candidate draws are all rejected can never be filled
    import hilbertgeom.sampling as sampling

    monkeypatch.setattr(sampling, "ball_candidates", lambda *a, **k: np.empty((0, 2)))
    with pytest.raises(SamplingExhausted):
        sample_ball(unit_disk, (0.0, 0.0), 1.0, 5, np.random.default_rng(0))


def test_samplers_fill_requests(unit_disk):
    rng = np.random.default_rng(1)
    X = sample_interior(unit_disk, 50, rng, clearance=0.1)
    assert X.shape == (50, 2)
    assert np.all(unit_disk.signed_gap(X) < -0.1)
    B = sample_ball(unit_disk, (0.0, 0.0), 1.0, 20, rng)
    assert B.shape == (20, 2)
