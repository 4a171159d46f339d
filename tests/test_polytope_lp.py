"""The numpy LP behind HalfspacePolytope's interior seed and support box."""

import time
import tracemalloc

import numpy as np
import pytest

from hilbertgeom import HalfspacePolytope, bodies, greedy_packing
from hilbertgeom.cli import main
from hilbertgeom.errors import EmptyInterior, GeometryError, SimplexExhausted, Unbounded


def inscribed_radius(body: HalfspacePolytope) -> float:
    return -float(body.signed_gap(body.interior_seed()[None, :])[0])


def linprog_reference(N, b):
    """Outcome, inscribed radius and box of ``N x <= b`` by scipy's highs."""
    from scipy.optimize import linprog

    norms = np.linalg.norm(N, axis=1)
    N, b = N / norms[:, None], b / norms
    m, n = N.shape
    free = [(None, None)] * n
    res = linprog(-np.eye(n + 1)[n], A_ub=np.hstack([N, np.ones((m, 1))]), b_ub=b,
                  bounds=free + [(0.0, bodies.SEED_RADIUS_CAP)], method="highs")
    if not res.success or res.x[n] <= 1e-12 * max(1.0, float(np.abs(b).max())):
        return "empty", None, None
    box = np.empty((2, n))
    for axis in range(n):
        for row, sign in ((0, 1.0), (1, -1.0)):
            side = linprog(sign * np.eye(n)[axis], A_ub=N, b_ub=b, bounds=free, method="highs")
            if not side.success:
                return "unbounded", None, None
            box[row, axis] = side.x[axis]
    return "ok", float(res.x[n]), box


def outcome(N, b):
    try:
        body = HalfspacePolytope(N, b)
    except EmptyInterior:
        return "empty", None, None
    except Unbounded:
        return "unbounded", None, None
    return "ok", inscribed_radius(body), np.array(body.bounding_box())


def test_lp_agrees_with_linprog_on_random_polytopes():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n + 1, 40))
        N = rng.normal(size=(m, n))
        b = rng.uniform(-0.05, 1.0, m) * rng.choice([0.1, 1.0, 10.0])
        want, r_want, box_want = linprog_reference(N, b)
        got, r_got, box_got = outcome(N, b)
        assert got == want
        seen.add(got)
        if got == "ok":
            scale = max(1.0, float(np.abs(b / np.linalg.norm(N, axis=1)).max()),
                        float(np.abs(box_want).max()))
            assert abs(r_got - r_want) <= 1e-12 * scale
            assert np.abs(box_got - box_want).max() <= 1e-12 * scale
    assert seen == {"ok", "empty", "unbounded"}


def test_halfspace_square_seed_box_and_packing_equal_the_polygon_square_bitwise(
        square, square_polytope):
    seed = square_polytope.interior_seed()
    assert seed.tobytes() == square.interior_seed().tobytes()
    for got, want in zip(square_polytope.bounding_box(), square.bounding_box()):
        assert got.tobytes() == want.tobytes()
    assert not np.signbit(seed).any()
    a = greedy_packing(square, square.interior_seed(), 2.0, 0.25, 2000, 3)
    b = greedy_packing(square_polytope, seed, 2.0, 0.25, 2000, 3)
    assert a.count > 1
    assert a.points.tobytes() == b.points.tobytes()


def test_cube_with_every_halfspace_twice():
    cube = HalfspacePolytope(np.vstack([np.eye(3), -np.eye(3)] * 2), np.ones(12))
    assert np.array_equal(cube.interior_seed(), np.zeros(3))
    assert inscribed_radius(cube) == 1.0
    lo, hi = cube.bounding_box()
    assert np.array_equal(lo, -np.ones(3)) and np.array_equal(hi, np.ones(3))


def test_three_lines_through_one_vertex():
    # x - y <= 1 and x + y <= 1 meet y >= 0 at (1, 0); y - x <= 1 meets x >= 0 at (0, 1)
    N = [(-1.0, 0.0), (0.0, -1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)]
    tri = HalfspacePolytope(N, [0.0, 0.0, 1.0, 1.0, 1.0])
    r = 1.0 / (2.0 + np.sqrt(2.0))
    assert np.allclose(tri.interior_seed(), [r, r], rtol=0.0, atol=1e-15)
    assert inscribed_radius(tri) == pytest.approx(r, abs=1e-15)
    lo, hi = tri.bounding_box()
    assert np.allclose(lo, [0.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.allclose(hi, [1.0, 1.0], rtol=0.0, atol=1e-15)


def test_strip_is_unbounded():
    with pytest.raises(Unbounded, match="e_0"):
        HalfspacePolytope([(0.0, 1.0), (0.0, -1.0)], [1.0, 1.0])


@pytest.mark.parametrize("normals, offsets", [
    ([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], [1.0, -2.0, 1.0, 1.0]),  # empty
    ([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], [0.0, 0.0, 1.0, 1.0]),   # flat
])
def test_empty_and_flat_sets_have_empty_interior(normals, offsets):
    with pytest.raises(EmptyInterior):
        HalfspacePolytope(normals, offsets)


def regular_polygon_halfspaces(m):
    theta = 2.0 * np.pi * np.arange(m) / m
    return np.c_[np.cos(theta), np.sin(theta)], np.ones(m)


def fibonacci_sphere_halfspaces(m):
    k = np.arange(m) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / m)
    theta = np.pi * (1.0 + 5.0**0.5) * k
    N = np.c_[np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)]
    return N, np.ones(m)


@pytest.mark.parametrize("make, m, n", [
    (regular_polygon_halfspaces, 20_000, 2),
    (fibonacci_sphere_halfspaces, 2_000, 3),
])
def test_many_halfspaces_build_fast_in_linear_memory(make, m, n):
    N, b = make(m)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        body = HalfspacePolytope(N, b)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    # fifty float64 copies of the (m, n + 1) seed LP; an m x m array is larger
    assert peak < 50 * 8 * m * (n + 1) < 8 * m * m
    assert np.abs(body.interior_seed()).max() < 1e-12
    assert inscribed_radius(body) == pytest.approx(1.0, abs=1e-12)
    lo, hi = body.bounding_box()
    assert np.all(hi >= 1.0 - 1e-12) and np.all(hi < 1.01)
    assert np.all(lo <= -1.0 + 1e-12) and np.all(lo > -1.01)


def half_disk_halfspaces(m):
    """m tangents of the unit circle at angles spread over [-pi/2, pi/2], and x >= 0."""
    theta = np.linspace(-np.pi / 2, np.pi / 2, m)
    return np.r_[np.c_[np.cos(theta), np.sin(theta)], [(-1.0, 0.0)]], np.r_[np.ones(m), 0.0]


def cut_polygon_halfspaces(m):
    """The regular m-gon of ``regular_polygon_halfspaces`` cut by x + y <= 0.3."""
    N, b = regular_polygon_halfspaces(m)
    return np.r_[N, [(1.0, 1.0)]], np.r_[b, 0.3]


@pytest.mark.parametrize("m", [3_000, 20_000])
def test_long_boundary_walks_match_closed_forms(m):
    # from the seed (1/2, 0) the ray along +y meets the tangent at 60 degrees,
    # m / 6 faces short of the top: a face-by-face walk would cross them all
    N, b = half_disk_halfspaces(m)
    t0 = time.perf_counter()
    body = HalfspacePolytope(N, b)
    assert time.perf_counter() - t0 < 1.0
    half = np.pi / (2 * (m - 1))  # for even m, the tangents nearest 0 are at +-half
    r = 1.0 / (1.0 + np.cos(half))
    assert np.abs(body.interior_seed() - [r, 0.0]).max() <= 1e-12
    assert inscribed_radius(body) == pytest.approx(r, abs=1e-12)
    lo, hi = body.bounding_box()
    assert np.abs(lo - [0.0, -1.0]).max() <= 1e-12
    assert np.abs(hi - [1.0 / np.cos(half), 1.0]).max() <= 1e-12

    # the largest disk touches the cut and the face at 225 degrees (m % 8 == 0)
    cut = HalfspacePolytope(*cut_polygon_halfspaces(m))
    assert inscribed_radius(cut) == pytest.approx((1.0 + 0.3 / np.sqrt(2.0)) / 2.0, abs=1e-12)
    assert np.abs(cut.bounding_box()[0] - [-1.0, -1.0]).max() <= 1e-12


@pytest.mark.parametrize("make, m", [(half_disk_halfspaces, 20_000), (cut_polygon_halfspaces, 3_000)])
def test_lp_agrees_with_linprog_on_large_asymmetric_polytopes(make, m):
    pytest.importorskip("scipy")
    N, b = make(m)
    want, r_want, box_want = linprog_reference(N, b)
    got, r_got, box_got = outcome(N, b)
    assert got == want == "ok"
    # highs' own feasibility tolerance is 1e-7: on the half-disk its right end
    # reads 1.2e-8 past the vertex 1 / cos(half) that _lp_max finds to 1e-12
    assert abs(r_got - r_want) <= 1e-7
    assert np.abs(box_got - box_want).max() <= 1e-7


def test_pass_cap_is_a_typed_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bodies, "_pivot_cap", lambda m, n: 1)
    N, b = regular_polygon_halfspaces(8)
    with pytest.raises(SimplexExhausted, match="in 1 passes"):
        HalfspacePolytope(N, b)
    assert issubclass(SimplexExhausted, GeometryError)
    square = tmp_path / "square.json"
    square.write_text('{"type": "polytope", "halfspaces": ['
                      '{"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 1}, '
                      '{"normal": [0, 1], "offset": 1}, {"normal": [0, -1], "offset": 1}]}\n')
    assert main(["dist", "--body", str(square), "--x", "0,0", "--y", "0.5,0"]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: SimplexExhausted" in err
    assert "Traceback" not in err


def test_nearly_dependent_active_rows_are_a_typed_error():
    # the second row is 1e-13 radians off the first: it joins on a rate of 1,
    # but R's diagonal for it is 1e-13 of its length
    A = np.array([(1.0, 0.0), (1e13, 1.0)])
    with pytest.raises(SimplexExhausted, match="dependent"):
        bodies._lp_max(A, np.zeros(2), np.ones(2), np.zeros(2))
