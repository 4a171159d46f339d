"""The coordinate-major kernels give the bits of the row-major numpy forms
they replace, on every benchmark body and on the shapes callers pass."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hilbertgeom import Disk, Ellipsoid, bodies, distance_pairs, pairwise_distances, sample_interior
from hilbertgeom.bodies import TAU_P, _angle_rows, _norms
from hilbertgeom.cover import SphereField
from hilbertgeom.metric import _ray_param, _triu, ray_points
from hilbertgeom.sampling import _box_draw, ball_candidates

ROOT = Path(__file__).resolve().parent.parent
BENCH_BODIES = sorted(p.stem for p in (ROOT / "perfbench" / "bodies").glob("*.json"))
ROWS = (1, 7, 64, 4097, 100_000)


def _load(name):
    return bodies.load_body(str(ROOT / "perfbench" / "bodies" / f"{name}.json"))


@pytest.fixture(scope="module", params=BENCH_BODIES)
def bench_body(request):
    return _load(request.param)


@pytest.fixture(scope="module")
def bench_rows(bench_body):
    rng = np.random.default_rng(20)
    P = sample_interior(bench_body, 100_000, rng)
    Q = sample_interior(bench_body, 100_000, rng)
    U = rng.normal(size=P.shape)
    return P, Q, U / np.linalg.norm(U, axis=1)[:, None]


def _shapes(P, U, m, fortran=True):
    """(P, U) pairs as callers pass them: m rows each, one broadcast base row
    with m directions, one base row, one direction row (also broadcast),
    strided rows, and unless not ``fortran`` Fortran-ordered copies.

    einsum adds the coordinates of a Fortran-ordered row in order, not in two
    lanes, so from 3 coordinates on the old exits' bits depended on the
    layout; callers pass C-ordered or broadcast rows.
    """
    Pm, Um = P[:m], U[:m]
    return [
        (Pm, Um),
        (np.broadcast_to(P[0], Um.shape), Um),
        (P[:1], Um),
        (Pm, U[:1]),
        (Pm, np.broadcast_to(U[0], Pm.shape)),
        (P[: 2 * m : 2], U[: 2 * m : 2]),
    ] + [(np.asfortranarray(Pm), np.asfortranarray(Um))] * fortran


# -- the old row-major forms ---------------------------------------------------


def _old_distance_pairs(body, X, Y):
    live = np.linalg.norm(X - Y, axis=1) > TAU_P
    out = np.zeros(live.shape)
    if live.any():
        out[live] = body.pair_distances(X[live], Y[live])
    return out


def _old_disk_gap(disk, P):
    return np.linalg.norm(P - disk.center, axis=1) - disk.radius


def _old_ellipsoid_gap(ell, P):
    q = P - ell.center
    m = np.linalg.norm(q @ ell._to_unit.T, axis=1)
    r = np.linalg.norm(q, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = r * (m - 1.0) / m
    return np.where(m < 1e-12, -float(ell.semi_axes.min()), gap)


def _old_disk_exit(disk, P, U):
    q = np.atleast_2d(P) - disk.center
    beta = np.einsum("ij,ij->i", q, np.atleast_2d(U))
    gamma = np.einsum("ij,ij->i", q, q) - disk.radius**2
    root = np.sqrt(beta * beta - gamma)
    return beta + root, root - beta


def _old_ellipsoid_exit(ell, P, U):
    # a one-row operand written out to every row: a one-row product takes
    # BLAS's matrix-vector path, and the kernels give every row the bits of
    # the matrix-matrix path
    P, U = np.broadcast_arrays(*np.atleast_2d(P, U))
    w = (P - ell.center) @ ell._to_unit.T
    v = U @ ell._to_unit.T
    A = np.einsum("ij,ij->i", v, v)
    B = np.einsum("ij,ij->i", w, v)
    C = np.einsum("ij,ij->i", w, w) - 1.0
    root = np.sqrt(B * B - A * C)
    return (B + root) / A, (root - B) / A


def _old_exit(body, P, U):
    return (_old_disk_exit if isinstance(body, Disk) else _old_ellipsoid_exit)(body, P, U)


def _old_gap(body, P):
    if isinstance(body, Disk):
        return _old_disk_gap(body, P)
    if isinstance(body, Ellipsoid):
        return _old_ellipsoid_gap(body, P)
    return body.signed_gap(P)  # the constraint kernel is unchanged


def _assert_same(got, want, what):
    assert got.shape == want.shape and np.array_equal(got, want), what


# -- bit-identity on every benchmark body ----------------------------------------


def test_distance_pairs_matches_the_row_major_form(bench_body, bench_rows):
    P, Q, _ = bench_rows
    for m in ROWS:
        X, Y = P[:m], Q[:m].copy()
        Y[::3] = X[::3]  # coincident rows read 0
        Y[1::5] = X[1::5] + 0.5 * TAU_P
        _assert_same(distance_pairs(bench_body, X, Y), _old_distance_pairs(bench_body, X, Y), m)
        _assert_same(distance_pairs(bench_body, X, Q[:m]), _old_distance_pairs(bench_body, X, Q[:m]), m)
        _assert_same(_norms(X, Y), np.linalg.norm(X - Y, axis=1), m)


def test_signed_gap_matches_the_row_major_form(bench_body, bench_rows):
    P, _, U = bench_rows
    lo, hi = bench_body.bounding_box()
    outside = P + (hi - lo) * U  # rows on both sides of the boundary
    for m in ROWS:
        for R in (P[:m], outside[:m], np.asfortranarray(outside[:m]), outside[: 2 * m : 2]):
            _assert_same(bench_body.signed_gap(R), _old_gap(bench_body, R), m)


@pytest.mark.parametrize("name", ["disk", "ellipse", "ellipsoid3"])
def test_quadric_ray_exit_matches_the_row_major_form(name):
    # the constraint bodies' exits are unchanged
    body = _load(name)
    rng = np.random.default_rng(20)
    P = sample_interior(body, 100_000, rng)
    U = rng.normal(size=P.shape)
    U /= np.linalg.norm(U, axis=1)[:, None]
    for m in ROWS:
        for A, V in _shapes(P, U, m, fortran=body.dimension < 3):
            for got, want in zip(body.ray_exit(A, V), _old_exit(body, A, V)):
                _assert_same(got, want, m)


def test_ray_points_match_the_row_major_form(bench_body, bench_rows):
    P, _, U = bench_rows
    rng = np.random.default_rng(21)
    for m in ROWS:
        for A, V in _shapes(P, U, m):
            a, b = bench_body.ray_exit(A, V)
            for ts in (rng.uniform(0.0, 8.0, len(a)), 2.5):
                want = A + _ray_param(a, b, ts)[:, None] * V
                got = ray_points(bench_body, A, V, ts)
                _assert_same(got, want, m)
                assert got.flags.c_contiguous


@pytest.mark.parametrize("name", [b for b in BENCH_BODIES if _load(b).dimension == 2])
def test_sphere_field_points_match_the_row_major_form(name):
    body = _load(name)
    field = SphereField(body, body.interior_seed())
    rng = np.random.default_rng(22)
    for m in ROWS:
        thetas = rng.uniform(0.0, 2.0 * np.pi, m)
        ts = rng.uniform(0.0, 8.0, m)
        a, b, U = field.exits(thetas)
        _assert_same(field.points(thetas, ts), field.o + _ray_param(a, b, ts)[:, None] * U, m)
        _assert_same(field.points(thetas, 3.0), field.o + _ray_param(a, b, 3.0)[:, None] * U, m)


def test_samplers_return_c_ordered_rows(bench_body):
    # the constraint kernels' BLAS calls see the layout they always saw
    rng = np.random.default_rng(23)
    assert sample_interior(bench_body, 500, rng).flags.c_contiguous
    o = bench_body.interior_seed()
    assert ball_candidates(bench_body, o, 1.0, 500, rng).flags.c_contiguous


# -- the shared kernels ----------------------------------------------------------


def test_angle_rows_match_the_stacked_form():
    rng = np.random.default_rng(24)
    for m in ROWS:
        for scale in (1.0, 2.0 * np.pi, 1e4):
            thetas = rng.uniform(-scale, scale, 2 * m)
            for th in (thetas[:m], thetas[::2]):
                U = _angle_rows(th)
                _assert_same(U, np.stack([np.cos(th), np.sin(th)], axis=1), m)
                assert U.flags.c_contiguous


def test_three_coordinate_norms_need_the_ordered_square_sum():
    # numpy's norm adds a short row one square at a time, in order; einsum
    # adds the even and the odd coordinates in two lanes, which for n = 3
    # rounds some rows differently
    rng = np.random.default_rng(25)
    D = rng.normal(size=(100_000, 3)) * rng.uniform(1e-3, 1e3, (100_000, 1))
    norm = np.linalg.norm(D, axis=1)
    assert not np.array_equal(np.sqrt(np.einsum("ij,ij->i", D, D)), norm)
    _assert_same(np.sqrt(bodies._sq_norms(np.ascontiguousarray(D.T))), norm, "ordered sum")
    _assert_same(_norms(D, 0.0), norm, "_norms")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9])
def test_quadric_oracles_match_in_every_dimension(n):
    # n >= 8 keeps numpy's own reductions
    rng = np.random.default_rng(26 + n)
    c = rng.normal(size=n)
    R = np.linalg.qr(rng.normal(size=(n, n)))[0]
    for body in (Disk(c, 1.7), Ellipsoid(c, rng.uniform(0.5, 2.0, n), R)):
        P = sample_interior(body, 1000, rng)
        U = rng.normal(size=P.shape)
        U /= np.linalg.norm(U, axis=1)[:, None]
        _assert_same(body.signed_gap(P + 3.0 * U), _old_gap(body, P + 3.0 * U), n)
        Y = sample_interior(body, 1000, rng)
        _assert_same(distance_pairs(body, P, Y), _old_distance_pairs(body, P, Y), n)
        for A, V in _shapes(P, U, 500, fortran=n < 3):
            for got, want in zip(body.ray_exit(A, V), _old_exit(body, A, V)):
                _assert_same(got, want, n)


@pytest.mark.parametrize("name", ["disk", "ellipsoid3", "cube_halfspaces"])
def test_box_draw_is_the_uniform_draw(name):
    lo, hi = _load(name).bounding_box()
    lo, hi = lo - 0.25, hi * 1.5  # a box that is not symmetric
    for m in ROWS:
        mine, ref = np.random.default_rng([27, m]), np.random.default_rng([27, m])
        R = _box_draw(mine, lo, hi, m)
        _assert_same(R, ref.uniform(lo, hi, (m, len(lo))), m)
        assert R.flags.c_contiguous
        assert mine.bit_generator.state == ref.bit_generator.state
        assert mine.random() == ref.random()


def test_triu_memo_is_read_only_and_reused(unit_disk):
    for m in (0, 1, 2, 64, 129):
        ii, jj = _triu(m)
        want = np.triu_indices(m, k=1)
        assert np.array_equal(ii, want[0]) and np.array_equal(jj, want[1])
        assert not (ii.flags.writeable or jj.flags.writeable)
        assert _triu(m)[0] is ii
    P = sample_interior(unit_disk, 64, np.random.default_rng(28))
    ii, jj = np.triu_indices(64, k=1)
    _assert_same(pairwise_distances(unit_disk, P), distance_pairs(unit_disk, P[ii], P[jj]), 64)


# -- peak memory -------------------------------------------------------------------


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadric_distance_pairs_peak_is_a_few_row_vectors():
    # three (2, rows) unit-coordinate arrays, the live mask's sums and the
    # Cayley-Klein row vectors: about 14 row vectors
    body = _load("disk")
    m = 100_000
    rng = np.random.default_rng(3)
    X, Y = sample_interior(body, m, rng), sample_interior(body, m, rng)
    assert _peak_bytes(lambda: distance_pairs(body, X, Y)) < 15 * m * 8


def test_disk_sample_interior_peak_is_a_few_row_vectors():
    # 200,000 candidates (4 row vectors), their coordinate-major offsets and
    # gaps, and the accepted rows: about 12 row vectors
    body = _load("disk")
    m = 100_000
    rng = np.random.default_rng(6)
    assert _peak_bytes(lambda: sample_interior(body, m, rng)) < 13 * m * 8
