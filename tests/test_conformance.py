"""A seeded random-body conformance sweep of the verify suites.

Every suite runs on random planar bodies of three families: convex polygons
on a rotated ellipse of aspect 1-100, rotated ellipses with semi-axes
0.05-3, and boxes cut by up to seven random halfplanes.  Each run must exit
0, or exit 2 with a documented limit.  The runs that exit 2 today are
listed in KNOWN_LIMITS; the list is exact, so a change that mends one of
them, or adds one, updates it.
"""

import json
import math

import numpy as np
import pytest

from hilbertgeom.cli import main

SWEEP_SEED = 0
PER_FAMILY = 10
SAMPLES = 50
SUITES = ("metric", "coarse", "corona", "asdim")

# Metric-ball draws are rejection draws from `sampling.ball_box`, the body's
# axis-aligned box shrunk about the ball centre.  On a thin, tilted body that
# box is mostly outside the body, so a small ball (the asdim footprint row's
# r = 0.2 balls on the sphere levels) can accept too few of its draws.  A box
# fitted to the ball itself would mend these.
BALL_BOX = "SamplingExhausted: too few points of the metric ball"
KNOWN_LIMITS = {
    ("ellipse1", "asdim"): BALL_BOX,   # semi-axes 0.127 x 2.21
    ("ellipse2", "asdim"): BALL_BOX,   # 1.77 x 0.083
    ("ellipse3", "asdim"): BALL_BOX,   # 0.105 x 2.07
    ("ellipse7", "asdim"): BALL_BOX,   # 2.07 x 0.064
}


def _polygon(rng):
    k = int(rng.integers(3, 21))
    aspect = math.exp(rng.uniform(0.0, math.log(100.0)))
    th = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    phi = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])
    P = np.c_[np.cos(th), np.sin(th) / aspect] @ rot + rng.uniform(-1.0, 1.0, 2)
    return {"type": "polygon", "vertices": P.tolist()}


def _ellipse(rng):
    return {"type": "ellipse", "center": rng.uniform(-1.0, 1.0, 2).tolist(),
            "semi_axes": np.exp(rng.uniform(math.log(0.05), math.log(3.0), 2)).tolist(),
            "rotation_rad": float(rng.uniform(0.0, math.pi))}


def _halfspaces(rng):
    w, h = np.exp(rng.uniform(math.log(0.1), math.log(3.0), 2))
    halves = [{"normal": n, "offset": float(c)}
              for n, c in (([1, 0], w), ([-1, 0], w), ([0, 1], h), ([0, -1], h))]
    for _ in range(int(rng.integers(0, 8))):
        a = rng.uniform(0.0, 2.0 * math.pi)
        n = [math.cos(a), math.sin(a)]
        # a cut at 30-100% of the box's support in its normal direction
        halves.append({"normal": n, "offset": float((abs(n[0]) * w + abs(n[1]) * h)
                                                    * rng.uniform(0.3, 1.0))})
    return {"type": "polytope", "halfspaces": halves}


FAMILIES = {"polygon": _polygon, "ellipse": _ellipse, "halfspaces": _halfspaces}
CASES = [f"{family}{j}" for family in FAMILIES for j in range(PER_FAMILY)]


def _body(case: str) -> dict:
    family = case.rstrip("0123456789")
    j = int(case[len(family):])
    return FAMILIES[family](np.random.default_rng([SWEEP_SEED, list(FAMILIES).index(family), j]))


def _verify(body_json, suite, seed, samples, out, capsys):
    code = main(["verify", "--body", str(body_json), "--suite", suite, "--samples", str(samples),
                 "--seed", str(seed), "--out", str(out)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", CASES)
def test_random_body_suites_pass_or_name_a_known_limit(case, tmp_path, capsys):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(_body(case)))
    for suite in SUITES:
        code, err = _verify(body, suite, CASES.index(case), SAMPLES, tmp_path / suite, capsys)
        assert "Traceback" not in err, (case, suite)
        limit = KNOWN_LIMITS.get((case, suite))
        if limit is None:
            assert code == 0, (case, suite, err)
        else:
            assert code == 2 and limit in err, (case, suite, code, err)


@pytest.mark.parametrize("suite", ["metric", "coarse", "asdim"])
def test_a_25_to_1_rectangle_passes_the_suites_that_draw_inside_it(suite, tmp_path, capsys):
    # an affine image of the square: the Hilbert metric is affinely
    # invariant, so the suites' "well inside" draws must not thin with it
    body = tmp_path / "rect.json"
    body.write_text('{"type": "polygon", "vertices": [[-1,-0.04],[1,-0.04],[1,0.04],[-1,0.04]]}')
    code, err = _verify(body, suite, 0, 100, tmp_path / "v", capsys)
    assert code == 0, err
