"""The batched asdim loops against per-instance scalar geometry.

``ray_monotonicity_defect``, ``concurrency_scatter_defect`` and
``coray_projection_defect`` draw every missing instance of a round as
arrays and run their geometry on arrays.  The references below draw the
same arrays in the same order, then measure each instance on its own
(one ``SphereField`` per ray pair; ``ray_spec``/``ray_point`` with one-row
``concurrency_defects``; ``distance`` with ``ray_spec``/``ray_point``):
the RNG must end in the same state and the defects must agree up to
rounding.
"""

import json
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
    ray_point,
    ray_spec,
)
from hilbertgeom.sampling import INNER_RADIUS, sample_ball, sample_interior

TWO_PI = 2.0 * math.pi


def _bases(body, rng, k):
    return sample_ball(body, body.interior_seed(), INNER_RADIUS, k, rng)


def scalar_monotonicity(body, rng, k):
    O = _bases(body, rng, k)
    TH = rng.uniform(0.0, TWO_PI, (k, 2))
    S = rng.uniform(0.05, 8.0, k)
    T = S + rng.uniform(0.05, 4.0, k)
    out = []
    for o, th, s, t in zip(O, TH, S, T):
        if abs(math.remainder(th[0] - th[1], TWO_PI)) <= 1e-3:
            continue
        field = SphereField(body, o)
        ts = np.array([s, t])
        d = distance_pairs(body, field.points(np.full(2, th[0]), ts),
                           field.points(np.full(2, th[1]), ts))
        out.append(float(d[0] - d[1]))
    return out


def scalar_concurrency(body, rng, k):
    O = _bases(body, rng, k)
    TH = rng.uniform(0.0, TWO_PI, (k, 2))
    T = rng.uniform(0.2, 4.0, k)
    out = []
    for o, th, t in zip(O, TH, T):
        sep = abs(math.remainder(th[0] - th[1], TWO_PI))
        if sep < 0.1 or abs(sep - math.pi) < 0.1:
            continue
        a2, b2 = (ray_point(ray_spec(body, o, (math.cos(a), math.sin(a))), t) for a in th)
        rep = concurrency_defects(body, o[None, :], a2[None, :], b2[None, :])
        if rep.rejected[0]:
            continue
        if not rep.parallel[0] and rep.min_cross[0] < 1e-3:
            continue
        out.append(float(rep.defect[0]))
    return out


def scalar_coray(body, rng, k):
    diam = body.euclidean_diameter()
    O = _bases(body, rng, k)
    X = sample_interior(body, k, rng)
    r = rng.uniform(0.2, 2.0, k)
    U = rng.normal(size=(k, 2))
    F = rng.uniform(0.1, 1.0, k)
    kept = []
    for o, x, u, t in zip(O, X, U, F * r):
        y = ray_point(ray_spec(body, x, u), t)
        if min(np.linalg.norm(x - o), np.linalg.norm(y - o)) < 1e-3 * diam:
            continue
        dxy, dox, doy = distance(body, x, y), distance(body, o, x), distance(body, o, y)
        if dox > doy:
            x, y, doy = y, x, dox
        kept.append((o, x, y, dxy, doy))
    S = rng.uniform(0.01, np.array([doy for *_, doy in kept]))
    return [distance(body, ray_point(ray_spec(body, o, x - o), s),
                     ray_point(ray_spec(body, o, y - o), s)) - 2.0 * dxy
            for (o, x, y, dxy, _), s in zip(kept, S)]


def scalar_rounds(body, rng, n, scalar):
    """Rounds of ``scalar`` on the instances still missing until n are kept;
    returns the defects and the number of instances drawn."""
    out, drawn = [], 0
    while len(out) < n:
        k = n - len(out)
        out += scalar(body, rng, k)
        drawn += k
    return np.array(out), drawn


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
        rejected = []
        if scalar is scalar_concurrency:
            got = batched(any_body, r1, N, rejected)
        else:
            got = batched(any_body, r1, N)
        want, drawn = scalar_rounds(any_body, r2, N, scalar)
        assert r1.bit_generator.state == r2.bit_generator.state, batched.__name__
        assert got.shape == (N,)
        if scalar is scalar_concurrency:
            assert sum(rejected) == drawn - N
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
    # with no redraws left the loop gives up, while the sampler keeps its rounds
    real = sample_ball

    def sampler(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(sampling, "_MAX_ROUNDS", budget)
            return real(*args, **kwargs)

    monkeypatch.setattr("hilbertgeom.cli.sample_ball", sampler)
    monkeypatch.setattr(sampling, "_MAX_ROUNDS", 0)
    # about 6% of angle pairs are within 0.1 of parallel, so 200 draws hit one
    with pytest.raises(SamplingExhausted):
        concurrency_scatter_defect(unit_disk, np.random.default_rng(0), 200)


@pytest.mark.parametrize("suite", ["asdim", "metric"])
def test_exhausted_budget_exits_2(suite, tmp_path, monkeypatch, capsys):
    # the metric suite's draws fill in one round on the disk, but a triangle
    # fills 37.5% of its box, so one round of 2n draws holds fewer than n
    body = tmp_path / "body.json"
    body.write_text('{"type": "disk", "center": [0, 0], "radius": 1.0}\n' if suite == "asdim" else
                    '{"type": "polygon", "vertices": [[0,0],[1,0.5],[0.5,1]]}\n')
    monkeypatch.setattr(sampling, "_MAX_ROUNDS", 0)
    assert main(["verify", "--body", str(body), "--suite", suite,
                 "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: SamplingExhausted" in err
    assert "Traceback" not in err


def test_asdim_suite_draws_in_a_few_sampler_calls_and_notes_rejections(tmp_path, monkeypatch,
                                                                       capsys):
    disk = tmp_path / "disk.json"
    disk.write_text('{"type": "disk", "center": [0, 0], "radius": 1.0}\n')
    asked = []

    def sampler(body, center, t, n, rng):
        asked.append(n)
        return sample_ball(body, center, t, n, rng)

    monkeypatch.setattr("hilbertgeom.cli.sample_ball", sampler)
    assert main(["verify", "--body", str(disk), "--suite", "asdim", "--samples", "200",
                 "--out", str(tmp_path / "v")]) == 0
    # one base-point call per round of each loop, not one per instance
    assert asked[0] == 200 and len(asked) <= 20

    rows = json.loads((tmp_path / "v" / "verify_asdim.json").read_text())["rows"]
    row = next(r for r in rows if r["name"] == "equidistance_lines_concurrency")
    rejected = []
    concurrency_scatter_defect(Disk((0.0, 0.0), 1.0), np.random.default_rng([0, 42]), 200, rejected)
    assert sum(rejected) > 0
    assert row["note"] == (f"conditioned on pairwise line cross >= 1e-3; "
                           f"rejected_draws={sum(rejected)}")
