"""The batched asdim loops against the one-instance loops they replaced.

``ray_monotonicity_defect``, ``concurrency_scatter_defect`` and
``coray_projection_defect`` take an instance count and run their geometry
on arrays.  The scalar loops below are the earlier one-instance forms, kept
as the reference: the batched form must draw the same instances (the RNG
ends in the same state) and give the same defects up to rounding.
"""

import math

import numpy as np
import pytest

from hilbertgeom import Disk, sampling
from hilbertgeom.cli import (
    concurrency_scatter_defect,
    coray_projection_defect,
    main,
    ray_monotonicity_defect,
)
from hilbertgeom.cover import SphereField
from hilbertgeom.errors import DimensionUnsupported, SamplingExhausted
from hilbertgeom.metric import (
    concurrency_defects,
    distance,
    distance_pairs,
    projective_transfer_defect,
    ray_point,
    ray_spec,
    sphere_point,
)
from hilbertgeom.sampling import sample_interior

TWO_PI = 2.0 * math.pi


def scalar_monotonicity(body, rng):
    o = sample_interior(body, 1, rng, clearance=0.02 * body.euclidean_diameter())[0]
    while True:
        th = rng.uniform(0.0, TWO_PI, 2)
        if abs(math.remainder(th[0] - th[1], TWO_PI)) > 1e-3:
            break
    s = rng.uniform(0.05, 8.0)
    t = s + rng.uniform(0.05, 4.0)
    field = SphereField(body, o)
    ts = np.array([s, t])
    d = distance_pairs(body, field.points(np.full(2, th[0]), ts),
                       field.points(np.full(2, th[1]), ts))
    return float(d[0] - d[1])


def scalar_concurrency(body, rng):
    diam = body.euclidean_diameter()
    while True:
        o = sample_interior(body, 1, rng, clearance=0.02 * diam)[0]
        th = rng.uniform(0.0, TWO_PI, 2)
        sep = abs(math.remainder(th[0] - th[1], TWO_PI))
        if sep < 0.1 or abs(sep - math.pi) < 0.1:
            continue
        t = rng.uniform(0.2, 4.0)
        a2 = sphere_point(body, o, th[0], t)
        b2 = sphere_point(body, o, th[1], t)
        rep = concurrency_defects(body, o[None, :], a2[None, :], b2[None, :])
        if rep.rejected[0]:
            continue
        if not rep.parallel[0] and rep.min_cross[0] < 1e-3:
            continue
        return float(rep.defect[0])


def scalar_coray(body, rng):
    diam = body.euclidean_diameter()
    while True:
        o = sample_interior(body, 1, rng, clearance=0.02 * diam)[0]
        x = sample_interior(body, 1, rng)[0]
        if np.linalg.norm(x - o) < 1e-3 * diam:
            continue
        r = rng.uniform(0.2, 2.0)
        u = rng.normal(size=2)
        y = ray_point(ray_spec(body, x, u), rng.uniform(0.1, 1.0) * r)
        if np.linalg.norm(y - o) < 1e-3 * diam:
            continue
        dxy = distance(body, x, y)
        dox = distance(body, o, x)
        doy = distance(body, o, y)
        if dox > doy:
            x, y = y, x
            dox, doy = doy, dox
        s = rng.uniform(0.01, doy)
        lx = ray_point(ray_spec(body, o, x - o), s)
        ly = ray_point(ray_spec(body, o, y - o), s)
        return float(distance(body, lx, ly) - 2.0 * dxy)


N = 200


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_loops_draw_the_scalar_instances(any_body, seed):
    for k, (batched, scalar) in enumerate([
        (ray_monotonicity_defect, scalar_monotonicity),
        (concurrency_scatter_defect, scalar_concurrency),
        (coray_projection_defect, scalar_coray),
    ]):
        r1 = np.random.default_rng([seed, 41 + k])
        r2 = np.random.default_rng([seed, 41 + k])
        got = batched(any_body, r1, N)
        want = np.array([scalar(any_body, r2) for _ in range(N)])
        assert r1.bit_generator.state == r2.bit_generator.state, batched.__name__
        assert got.shape == (N,)
        if scalar is scalar_concurrency:
            # rounding noise on both sides, far below the suite tolerance
            assert got.max() <= 1e-7 and want.max() <= 1e-7
            continue
        assert abs(got.max() - want.max()) <= 1e-12, batched.__name__
        # co-ray pairs x, y a few 1e-6 apart within 1e-4 of the boundary put
        # d(x, y) ~1e-12 off in either formula (distance vs distance_pairs)
        tol = 1e-12 if scalar is scalar_monotonicity else 2e-12
        assert np.max(np.abs(got - want)) <= tol, batched.__name__


def test_loops_are_planar():
    ball = Disk((0.0, 0.0, 0.0), 1.0)
    for batched in (ray_monotonicity_defect, concurrency_scatter_defect, coray_projection_defect):
        with pytest.raises(DimensionUnsupported):
            batched(ball, np.random.default_rng(0), 5)


def test_redraw_budget_bounds_the_loops(unit_disk, monkeypatch):
    budget = sampling._MAX_ROUNDS
    # seed 0's first perspective draw is ill-conditioned; a redraw fixes it
    assert projective_transfer_defect(np.random.default_rng(0)) <= 1e-9

    # with no redraws left the loops give up, while the sampler keeps its rounds
    real = sample_interior

    def sampler(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(sampling, "_MAX_ROUNDS", budget)
            return real(*args, **kwargs)

    monkeypatch.setattr("hilbertgeom.cli.sample_interior", sampler)
    monkeypatch.setattr(sampling, "_MAX_ROUNDS", 0)
    with pytest.raises(SamplingExhausted):
        projective_transfer_defect(np.random.default_rng(0))
    # about 6% of angle pairs are within 0.1 of parallel, so 200 draws hit one
    with pytest.raises(SamplingExhausted):
        concurrency_scatter_defect(unit_disk, np.random.default_rng(0), 200)


@pytest.mark.parametrize("suite", ["asdim", "metric"])
def test_exhausted_budget_exits_2(suite, tmp_path, monkeypatch, capsys):
    disk = tmp_path / "disk.json"
    disk.write_text('{"type": "disk", "center": [0, 0], "radius": 1.0}\n')
    monkeypatch.setattr(sampling, "_MAX_ROUNDS", 0)
    assert main(["verify", "--body", str(disk), "--suite", suite,
                 "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: SamplingExhausted" in err
    assert "Traceback" not in err
