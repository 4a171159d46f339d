import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hilbertgeom import bodies
from hilbertgeom import (
    Chord,
    ConvexBody,
    Disk,
    Ellipsoid,
    HalfspacePolytope,
    Polygon,
    Region,
    boundary_hit,
    boundary_hit_bisect,
    chord_through,
    classify,
    distance,
    distance_pairs,
    is_strictly_convex,
    sample_interior,
    validate_body,
)
from hilbertgeom.errors import (
    CoincidentPoints,
    EmptyInterior,
    ExteriorBase,
    ExteriorPoint,
    NonConvex,
    NotOnBoundary,
    Unbounded,
)

ROOT = Path(__file__).resolve().parent.parent


def test_polygon_keeps_ccw_vertices(square):
    assert square.warnings == ()
    assert np.array_equal(square.vertices[0], [-1.0, -1.0])


def test_polygon_reverses_clockwise_input():
    p = Polygon([(-1, -1), (-1, 1), (1, 1), (1, -1)])
    assert p.warnings == ("clockwise vertex order was reversed",)
    # reversal restores the counterclockwise orientation invariant
    e = np.roll(p.vertices, -1, axis=0) - p.vertices
    turns = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert np.all(turns > 0)


def test_polygon_rejects_collinear_vertices():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (1, 0), (2, 0), (1, 1)])


def test_polygon_rejects_duplicate_vertices():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (0, 0), (1, 0), (0, 1)])


def test_polygon_rejects_reflex_vertex():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (2, 0), (1, 0.1), (1, 2)])


@pytest.mark.parametrize("order", [[0, 2, 4, 1, 3], [3, 1, 4, 2, 0]])
def test_polygon_rejects_star_polygon(order):
    # the pentagram turns one way at every vertex but winds twice, so its
    # halfplanes bound the inner pentagon, not the star the vertices outline
    ang = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    star = np.c_[np.cos(ang), np.sin(ang)][order]
    with pytest.raises(NonConvex, match="strictly convex"):
        Polygon(star)


def test_polygon_needs_three_vertices():
    with pytest.raises(NonConvex):
        Polygon([(0, 0), (1, 0)])


def test_disk_rejects_bad_radius():
    with pytest.raises(EmptyInterior):
        Disk((0, 0), 0.0)
    with pytest.raises(EmptyInterior):
        Disk((0, 0), -2.0)


def test_ellipsoid_rejects_bad_axes():
    with pytest.raises(EmptyInterior):
        Ellipsoid((0, 0), (1.0, 0.0))


def test_ellipsoid_rotation_moves_the_long_axis():
    e = Ellipsoid((0, 0), (2, 1), rotation=np.pi / 2)
    # after a quarter turn the long axis is vertical
    assert classify(e, (0.0, 1.9)) is Region.INTERIOR
    assert classify(e, (1.9, 0.0)) is Region.EXTERIOR


def test_polytope_unbounded_raises():
    with pytest.raises(Unbounded):
        HalfspacePolytope([(1.0, 0.0), (0.0, 1.0)], [1.0, 1.0])


def test_polytope_empty_raises():
    with pytest.raises(EmptyInterior):
        HalfspacePolytope([(1.0, 0.0), (-1.0, 0.0)], [1.0, -2.0])


def test_polytope_square_pairs_match_polygon_square(square, square_polytope):
    rng = np.random.default_rng(17)
    X = rng.uniform(-0.999, 0.999, (2000, 2))
    Y = rng.uniform(-0.999, 0.999, (2000, 2))
    gap = np.abs(distance_pairs(square, X, Y) - distance_pairs(square_polytope, X, Y))
    assert gap.max() <= 1e-12


def test_polygon_diameter_is_largest_vertex_distance(heptagon):
    V = heptagon.vertices
    want = max(np.linalg.norm(a - b) for a in V for b in V)
    assert heptagon.euclidean_diameter() == pytest.approx(want, rel=1e-15)


def test_polygon_ray_exit_emits_no_warning(square):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = square.ray_exit([[0.0, 0.5]], [[1.0, 1e-309]])[1]
    assert s[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name, base", [("unit_disk", (1.0, 0.0)), ("ellipse21", (2.0, 0.0)),
                                        ("square", (1.0, 0.0))])
def test_ray_exit_rejects_a_base_on_the_boundary(request, name, base):
    # a base exactly on the boundary has a zero exit on one side, which
    # distance_pairs would divide by
    body = request.getfixturevalue(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for u in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)):
            with pytest.raises(ExteriorBase):
                body.ray_exit([base], [u])
        with pytest.raises(ExteriorBase):
            distance_pairs(body, [base], [(0.0, 0.0)])


def test_polytope_square_matches_polygon_square(square, square_polytope):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-0.9, 0.9, 2)
        y = rng.uniform(-0.9, 0.9, 2)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        assert distance(square, x, y) == pytest.approx(
            distance(square_polytope, x, y), abs=1e-9
        )


def test_classify_regions(unit_disk):
    assert classify(unit_disk, (0.0, 0.0)) is Region.INTERIOR
    assert classify(unit_disk, (1.0, 0.0)) is Region.BOUNDARY
    assert classify(unit_disk, (2.0, 0.0)) is Region.EXTERIOR


def test_boundary_hit_disk_exact(unit_disk):
    hit = boundary_hit(unit_disk, (0.0, 0.0), (1.0, 0.0))
    assert hit == pytest.approx([1.0, 0.0], abs=1e-12)
    hit = boundary_hit(unit_disk, (0.3, 0.0), (0.0, -1.0))
    assert hit == pytest.approx([0.3, -np.sqrt(1 - 0.09)], abs=1e-12)


def test_boundary_hit_square_edge_and_corner(square):
    assert boundary_hit(square, (0, 0), (1, 0)) == pytest.approx([1.0, 0.0])
    assert boundary_hit(square, (0, 0), (1, 1)) == pytest.approx([1.0, 1.0])


def test_boundary_hit_requires_interior_base(unit_disk):
    with pytest.raises(ExteriorBase):
        boundary_hit(unit_disk, (2.0, 0.0), (1.0, 0.0))


def test_bisection_agrees_with_closed_form(any_body):
    rng = np.random.default_rng(11)
    o = any_body.interior_seed()
    for _ in range(25):
        u = rng.normal(size=2)
        a = boundary_hit(any_body, o, u)
        b = boundary_hit_bisect(any_body, o, u)
        assert np.linalg.norm(a - b) < 1e-8 * any_body.euclidean_diameter()


def test_chord_orientation(unit_disk):
    x = np.array([-0.2, 0.0])
    y = np.array([0.5, 0.0])
    ch = chord_through(unit_disk, x, y)
    assert ch.tail == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert ch.head == pytest.approx([1.0, 0.0], abs=1e-12)


def test_chord_rejects_degenerate_input(unit_disk):
    with pytest.raises(CoincidentPoints):
        chord_through(unit_disk, (0.1, 0.1), (0.1, 0.1))
    with pytest.raises(ExteriorPoint):
        chord_through(unit_disk, (0.0, 0.0), (5.0, 0.0))


def test_strict_convexity_flags(unit_disk, ellipse21, square, heptagon, square_polytope):
    assert is_strictly_convex(unit_disk)
    assert is_strictly_convex(ellipse21)
    assert not is_strictly_convex(square)
    assert not is_strictly_convex(heptagon)
    assert not is_strictly_convex(square_polytope)


def test_validate_body_dispatch():
    d = validate_body({"type": "disk", "center": [0, 0], "radius": 1})
    assert isinstance(d, Disk)
    p = validate_body({"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]})
    assert isinstance(p, Polygon)
    e = validate_body({"type": "ellipse", "center": [0, 0], "semi_axes": [2, 1]})
    assert isinstance(e, Ellipsoid)
    h = validate_body({
        "type": "polytope",
        "halfspaces": [
            {"normal": [1, 0], "offset": 1},
            {"normal": [-1, 0], "offset": 1},
            {"normal": [0, 1], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ],
    })
    assert isinstance(h, HalfspacePolytope)
    with pytest.raises(ValueError):
        validate_body({"type": "torus"})
    with pytest.raises(ValueError):
        validate_body([1, 2, 3])


def test_chord_is_frozen(unit_disk):
    ch = chord_through(unit_disk, (-0.2, 0.0), (0.5, 0.0))
    assert isinstance(ch, Chord)
    with pytest.raises(ValueError):
        ch.tail[0] = 7.0


def test_three_dimensional_ball_distance():
    b = Disk((0, 0, 0), 1.0)
    # same Klein-model chord as the planar disk, embedded along the x axis
    assert distance(b, (0, 0, 0), (0.5, 0, 0)) == pytest.approx(np.log(3.0), abs=1e-12)


# -- the constraint pair kernel ----------------------------------------------


def _regular_gon(k: int) -> Polygon:
    a = 2.0 * np.pi * np.arange(k) / k
    return Polygon(np.c_[np.cos(a), np.sin(a)])


def _constraint_body(request) -> ConvexBody:
    if request.param == "gon64":
        return _regular_gon(64)
    if request.param == "cube_polytope":
        return HalfspacePolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["square", "heptagon", "gon64", "square_polytope", "cube_polytope"])
def constraint_body(request):
    return _constraint_body(request)


@pytest.fixture(params=["heptagon", "gon64", "square_polytope", "cube_polytope"])
def blocked_body(request):
    return _constraint_body(request)


def _two_exit_distances(body, X, Y) -> np.ndarray:
    """Reference distances from the forward sides of two ``ray_exit`` calls."""
    diff = X - Y
    r = np.linalg.norm(diff, axis=1)
    U = diff / r[:, None]
    return np.log1p(r / body.ray_exit(X, U)[1]) + np.log1p(r / body.ray_exit(Y, -U)[1])


def _max_rel_gap(body, X, Y) -> float:
    fast = body.pair_distances(X, Y)
    ref = _two_exit_distances(body, X, Y)
    return float(np.max(np.abs(fast - ref) / ref))


def test_constraint_pair_rates_match_two_exit_default(constraint_body):
    # The Funk pair form rounds fewer times than the two-exit form (no
    # norm, unit direction or reciprocal), so the gap measures both forms'
    # rounding; on the heptagon it reaches about 5e-15 over seeds 0-19.
    rng = np.random.default_rng(0)
    X = sample_interior(constraint_body, 20000, rng)
    Y = sample_interior(constraint_body, 20000, rng)
    assert _max_rel_gap(constraint_body, X, Y) <= 8e-15
    X = sample_interior(constraint_body, 2000, rng)
    X = X[constraint_body.signed_gap(X) < -1e-6]   # room for the 1e-9 step
    U = rng.normal(size=X.shape)
    U /= np.linalg.norm(U, axis=1)[:, None]
    assert _max_rel_gap(constraint_body, X, X + 1e-9 * U) <= 8e-15


def test_constraint_distance_pairs_symmetry_is_bit_exact(constraint_body):
    rng = np.random.default_rng(1)
    X = sample_interior(constraint_body, 5000, rng)
    Y = sample_interior(constraint_body, 5000, rng)
    assert np.array_equal(distance_pairs(constraint_body, X, Y), distance_pairs(constraint_body, Y, X))


@pytest.mark.parametrize("side", ["x", "y"])
def test_constraint_pair_rates_reject_exterior_rows(constraint_body, side):
    rng = np.random.default_rng(2)
    X = sample_interior(constraint_body, 50, rng)
    Y = sample_interior(constraint_body, 50, rng)
    lo, hi = constraint_body.bounding_box()
    (X if side == "x" else Y)[17] = hi + (hi - lo)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ExteriorBase):
            constraint_body.pair_distances(X, Y)
        with pytest.raises(ExteriorBase):
            distance_pairs(constraint_body, X, Y)


def test_constraint_pairs_hold_two_buffers():
    # G and one slack buffer of (constraints, rows) floats; a third buffer
    # would take the peak to 3 of them
    body = _regular_gon(64)
    rng = np.random.default_rng(3)
    m = 100_000
    X = sample_interior(body, m, rng)
    Y = sample_interior(body, m, rng)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        distance_pairs(body, X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 64 * m * 8


# -- row blocks of the constraint kernels ------------------------------------


def _block_rows(body) -> int:
    """Rows per block: SLACK_BLOCK // constraints, rounded down to 64."""
    return bodies.SLACK_BLOCK // body._normals.shape[0] // 64 * 64


def _kernel_outputs(body, X, Y, U) -> list[np.ndarray]:
    N, b = body._normals, body._offsets
    return [
        bodies._constraint_gap(N, b, X),
        *bodies._constraint_exit(N, b, X, U),
        # a broadcast base row, as sphere_points and SphereField pass it
        *bodies._constraint_exit(N, b, np.broadcast_to(X[0], X.shape), U),
        bodies._constraint_pairs(N, b, X, Y),
    ]


def _unit_rows(rng, shape) -> np.ndarray:
    U = rng.normal(size=shape)
    return U / np.linalg.norm(U, axis=1)[:, None]


def test_blocked_constraint_kernels_match_one_call_bit_for_bit(blocked_body, monkeypatch):
    # The last bits of the slack matmul depend on BLAS's column tiling;
    # blocks of a multiple of 64 rows keep it, near-equal blocks do not.
    rng = np.random.default_rng(4)
    X = sample_interior(blocked_body, 100_000, rng)
    Y = sample_interior(blocked_body, 100_000, rng)
    U = _unit_rows(rng, X.shape)
    c = blocked_body._normals.shape[0]
    B = _block_rows(blocked_body)
    for m in (1, 63, 64, 65, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 100_000):
        assert len(bodies._row_blocks(c, m)) == max(m // B, 1)
        got = _kernel_outputs(blocked_body, X[:m], Y[:m], U[:m])
        with monkeypatch.context() as mp:
            mp.setattr(bodies, "SLACK_BLOCK", 64 * m * c)
            assert len(bodies._row_blocks(c, m)) == 1
            want = _kernel_outputs(blocked_body, X[:m], Y[:m], U[:m])
        for g, w in zip(got, want):
            assert np.array_equal(g, w), f"{m} rows"


@pytest.mark.parametrize("side", ["x", "y"])
def test_blocked_kernels_reject_an_exterior_row_in_the_last_block(blocked_body, side):
    B = _block_rows(blocked_body)
    m = 2 * B + 1
    rng = np.random.default_rng(5)
    X = sample_interior(blocked_body, m, rng)
    Y = sample_interior(blocked_body, m, rng)
    U = _unit_rows(rng, X.shape)
    lo, hi = blocked_body.bounding_box()
    P = X if side == "x" else Y
    P[-1] = hi + (hi - lo)
    N, b = blocked_body._normals, blocked_body._offsets
    assert bodies._row_blocks(N.shape[0], m)[-1] == slice(B, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gap = bodies._constraint_gap(N, b, P)
        assert gap[-1] > 0.0 and np.all(gap[:-1] < 0.0)
        with pytest.raises(ExteriorPoint):
            blocked_body.require_interior(P, "exterior row")
        with pytest.raises(ExteriorBase):
            bodies._constraint_exit(N, b, P, U)
        with pytest.raises(ExteriorBase):
            bodies._constraint_pairs(N, b, X, Y)
        with pytest.raises(ExteriorBase):
            distance_pairs(blocked_body, X, Y)
        # an interior base whose last direction is zero never exits
        U[-1] = 0.0
        with pytest.raises(ExteriorBase):
            bodies._constraint_exit(N, b, Y if side == "x" else X, U)


def test_blocked_ray_exit_broadcasts_a_single_row():
    body = _regular_gon(64)
    U = _unit_rows(np.random.default_rng(7), (3 * _block_rows(body) + 5, 2))
    o = body.interior_seed()
    want = body.ray_exit(np.broadcast_to(o, U.shape), U)
    assert np.array_equal(body.ray_exit(o[None, :], U), want)
    assert np.array_equal(body.ray_exit(o, U), want)
    # one direction for many bases
    P = np.broadcast_to(o, U.shape) * 0.5
    assert np.array_equal(body.ray_exit(P, U[:1]), body.ray_exit(P, np.broadcast_to(U[0], U.shape)))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_distance_pairs_peak_is_a_few_row_vectors():
    # 512 KB blocks leave the (rows,) outputs as the peak: about 6 row
    # vectors on the 64-gon, against 130 with whole (64, rows) buffers
    body = _regular_gon(64)
    rng = np.random.default_rng(3)
    m = 100_000
    X = sample_interior(body, m, rng)
    Y = sample_interior(body, m, rng)
    assert _peak_bytes(lambda: distance_pairs(body, X, Y)) < 8 * m * 8


def test_blocked_sample_interior_peak_is_a_few_row_vectors():
    # one round draws 200,000 candidates; their slacks no longer form one
    # (64, 200,000) buffer, which read 134 row vectors
    body = _regular_gon(64)
    m = 100_000
    rng = np.random.default_rng(6)
    assert _peak_bytes(lambda: sample_interior(body, m, rng)) < 16 * m * 8


# -- the two-sided ray exit ----------------------------------------------------

BENCH_BODIES = sorted(p.stem for p in (ROOT / "perfbench" / "bodies").glob("*.json"))


@pytest.fixture(scope="module", params=BENCH_BODIES)
def bench_body(request):
    return bodies.load_body(str(ROOT / "perfbench" / "bodies" / f"{request.param}.json"))


def _exits_are_mirrored(body, P, U):
    back, fwd = body.ray_exit(P, U)
    assert np.all(back > 0.0) and np.all(fwd > 0.0)
    rback, rfwd = body.ray_exit(P, -U)
    return np.array_equal(rback, fwd) and np.array_equal(rfwd, back)


def test_ray_exit_sides_mirror_bit_for_bit(bench_body):
    # negation is exact, so the exits along -U are the exits along U swapped
    rng = np.random.default_rng(8)
    P = sample_interior(bench_body, 100_000, rng)
    U = _unit_rows(rng, P.shape)
    for m in (1, 7, 64, 4097, 100_000):
        assert _exits_are_mirrored(bench_body, P[:m], U[:m]), f"{m} rows"
        assert _exits_are_mirrored(bench_body, P[:1], U[:m]), f"{m} rows, one base"
        assert _exits_are_mirrored(bench_body, P[:m], U[:1]), f"{m} rows, one direction"


def test_ray_exit_sides_end_on_the_boundary(bench_body):
    rng = np.random.default_rng(9)
    P = sample_interior(bench_body, 500, rng)
    U = _unit_rows(rng, P.shape)
    back, fwd = bench_body.ray_exit(P, U)
    tol = 1e-12 * bench_body.euclidean_diameter()
    for ends in (P - back[:, None] * U, P + fwd[:, None] * U):
        assert np.abs(bench_body.signed_gap(ends)).max() <= tol


@pytest.mark.parametrize("toward", [True, False], ids=["body_ahead", "body_behind"])
def test_ray_exit_rejects_an_exterior_row_on_either_side(bench_body, toward):
    # an exterior base on a line through the body: its exits on one side
    # would both be positive, and the other side would fail
    rng = np.random.default_rng(10)
    P = sample_interior(bench_body, 64, rng)
    U = _unit_rows(rng, P.shape)
    lo, hi = bench_body.bounding_box()
    c = bench_body.interior_seed()
    P[37] = c + 2.0 * (hi - lo)
    U[37] = (c - P[37]) / np.linalg.norm(c - P[37]) * (1.0 if toward else -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for V in (U, -U):
            with pytest.raises(ExteriorBase):
                bench_body.ray_exit(P, V)


# -- one-row calls and broadcast bases ---------------------------------------


def test_one_row_calls_give_the_batched_bits(bench_body):
    # numpy hands a one-column product to BLAS's matrix-vector path, whose
    # last bits differ from the matrix-matrix path's (heptagon, gon64,
    # ellipsoid3); every kernel product evaluates one column as two
    rng = np.random.default_rng(17)
    m = 2000
    P = sample_interior(bench_body, m, rng)
    Y = sample_interior(bench_body, m, rng)
    U = _unit_rows(rng, P.shape)
    gap, (back, fwd), d = bench_body.signed_gap(P), bench_body.ray_exit(P, U), bench_body.pair_distances(P, Y)
    for i in range(m):
        row = slice(i, i + 1)
        assert bench_body.signed_gap(P[row])[0] == gap[i], f"gap row {i}"
        assert bench_body.ray_exit(P[row], U[row]) == (back[i], fwd[i]), f"exit row {i}"
        assert bench_body.pair_distances(P[row], Y[row])[0] == d[i], f"pair row {i}"
        assert distance_pairs(bench_body, P[row], Y[row])[0] == d[i], f"distance_pairs row {i}"


BROADCAST_ROWS = (1, 2, 3, 64, 65, 1000, 2100)   # 2,100 rows: three 64-gon row blocks


@pytest.mark.parametrize("m", BROADCAST_ROWS)
def test_broadcast_base_matches_written_out_rows(bench_body, m):
    rng = np.random.default_rng([18, m])
    p = sample_interior(bench_body, 1, rng)[0]
    Y = sample_interior(bench_body, m, rng)
    U = _unit_rows(rng, Y.shape)
    shared, written = np.broadcast_to(p, Y.shape), np.repeat(p[None, :], m, axis=0)
    assert shared.strides[0] == 0 and written.strides[0] != 0
    for got, want in zip(bench_body.ray_exit(shared, U), bench_body.ray_exit(written, U)):
        assert np.array_equal(got, want)
    assert np.array_equal(bench_body.pair_distances(shared, Y), bench_body.pair_distances(written, Y))
    assert np.array_equal(distance_pairs(bench_body, shared, Y), distance_pairs(bench_body, written, Y))
    # one row of Y at the base, which distance_pairs masks
    Y[m // 2] = p
    assert np.array_equal(distance_pairs(bench_body, shared, Y), distance_pairs(bench_body, written, Y))


def _exterior_message(call, P) -> str | None:
    try:
        call(P)
    except ExteriorBase as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("where", ["boundary", "outside"])
def test_broadcast_base_off_the_interior_raises_like_written_out_rows(bench_body, where):
    rng = np.random.default_rng(19)
    m = 65
    Y = sample_interior(bench_body, m, rng)
    U = _unit_rows(rng, Y.shape)
    seed = bench_body.interior_seed()
    u = _unit_rows(rng, (1, bench_body.dimension))[0]
    fwd = bench_body.ray_exit(seed, u)[1][0]
    for call in (lambda P: bench_body.ray_exit(P, U), lambda P: bench_body.pair_distances(P, Y)):
        if where == "outside":
            p = seed + 2.0 * fwd * u
        else:
            # the exit point, stepped out one ulp at a time until the base is refused
            p = seed + fwd * u
            for _ in range(64):
                if _exterior_message(call, np.repeat(p[None, :], m, axis=0)) is not None:
                    break
                p = np.nextafter(p, p + u)
        want = _exterior_message(call, np.repeat(p[None, :], m, axis=0))
        assert want is not None
        assert _exterior_message(call, np.broadcast_to(p, Y.shape)) == want


# -- flat boundary segments ----------------------------------------------------


def test_flat_segment_on_the_square_is_its_first_edge(square):
    # the corona suite's polygon edge before flat_segment: the longest, first on ties
    alpha, beta = bodies.flat_segment(square)
    assert alpha.tolist() == [-1.0, -1.0] and beta.tolist() == [1.0, -1.0]


def test_flat_segment_on_the_cube_spans_a_face():
    cube = HalfspacePolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    alpha, beta = bodies.flat_segment(cube)
    assert np.linalg.norm(beta - alpha) == pytest.approx(2.0, abs=1e-12)


def test_flat_segment_lies_on_the_boundary(constraint_body):
    alpha, beta = bodies.flat_segment(constraint_body)
    assert np.linalg.norm(beta - alpha) > 1e-3 * constraint_body.euclidean_diameter()
    lam = np.linspace(0.0, 1.0, 33)[:, None]
    assert np.all(constraint_body.classify_many(alpha + lam * (beta - alpha)) == 0)


def test_flat_segment_needs_a_flat_face(unit_disk, ellipse21):
    for body in (unit_disk, ellipse21):
        with pytest.raises(NotOnBoundary):
            bodies.flat_segment(body)


# -- the Cayley-Klein pair kernel of disks and ellipsoids -----------------------

QUADRICS = ["disk", "ellipse", "ellipsoid3"]


@pytest.fixture(scope="module", params=QUADRICS)
def quadric_body(request):
    return bodies.load_body(str(ROOT / "perfbench" / "bodies" / f"{request.param}.json"))


def _pair_sample(body, m, seed):
    rng = np.random.default_rng(seed)
    return sample_interior(body, m, rng), sample_interior(body, m, rng)


def test_quadric_distance_pairs_symmetry_is_bit_exact(quadric_body):
    X, Y = _pair_sample(quadric_body, 100_000, 11)
    for m in (1, 7, 64, 4097, 100_000):
        d = distance_pairs(quadric_body, X[:m], Y[:m])
        assert np.array_equal(d, distance_pairs(quadric_body, Y[:m], X[:m])), f"{m} rows"


def test_quadric_pair_distances_match_two_exit_form(quadric_body):
    # the two forms round differently; they part most near the boundary,
    # where 1 - |w|^2 cancels in both
    X, Y = _pair_sample(quadric_body, 20_000, 12)
    assert _max_rel_gap(quadric_body, X, Y) <= 1e-11
    rng = np.random.default_rng(13)
    X = sample_interior(quadric_body, 2000, rng)
    X = X[quadric_body.signed_gap(X) < -1e-6]   # room for the 1e-9 step
    assert _max_rel_gap(quadric_body, X, X + 1e-9 * _unit_rows(rng, X.shape)) <= 1e-12


def _boundary_point(body) -> np.ndarray:
    """A point with unit coordinates exactly (1, 0, ...)."""
    p = body.center + np.linalg.solve(body._to_unit, np.eye(body.dimension)[0])
    w = body._to_unit @ (p - body.center)
    assert 1.0 - w @ w == 0.0
    return p


@pytest.mark.parametrize("side", ["x", "y"])
def test_quadric_pairs_reject_a_boundary_row(quadric_body, side):
    X, Y = _pair_sample(quadric_body, 50, 14)
    (X if side == "x" else Y)[17] = _boundary_point(quadric_body)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ExteriorBase):
            quadric_body.pair_distances(X, Y)
        with pytest.raises(ExteriorBase):
            distance_pairs(quadric_body, X, Y)


def test_quadric_distance_pairs_make_no_ray_exit_calls(quadric_body, monkeypatch):
    calls = []
    real = type(quadric_body).ray_exit

    def counted(self, P, U):
        calls.append(len(P))
        return real(self, P, U)

    monkeypatch.setattr(type(quadric_body), "ray_exit", counted)
    X, Y = _pair_sample(quadric_body, 1000, 15)
    distance_pairs(quadric_body, X, Y)
    assert calls == []
    _two_exit_distances(quadric_body, X, Y)
    assert calls == [1000, 1000]


def _mp_distance(mp, body, x, y):
    """50-digit log cross ratio of the chord through x, y, in unit coordinates.

    The bench quadrics are axis-aligned with power-of-two semi-axes, so
    their ``_to_unit`` and the unit coordinates of float64 points are exact.
    """
    M, c, n = body._to_unit, body.center, body.dimension

    def unit(p):
        return [mp.fsum(mp.mpf(M[i, j]) * (mp.mpf(p[j]) - mp.mpf(c[j])) for j in range(n))
                for i in range(n)]

    w, v = unit(x), unit(y)
    e = [b - a for a, b in zip(w, v)]
    # the line w + s e meets the sphere at the roots s0 < 0 < 1 < s1
    A = mp.fsum(c * c for c in e)
    B = mp.fsum(a * c for a, c in zip(w, e))
    C = mp.fsum(a * a for a in w) - 1
    root = mp.sqrt(B * B - A * C)
    s0, s1 = (-B - root) / A, (-B + root) / A
    return mp.log(s1 * (1 - s0) / (-s0 * (s1 - 1)))


def test_quadric_pairs_against_50_digits(quadric_body):
    mpmath = pytest.importorskip("mpmath")
    M = quadric_body._to_unit
    assert np.array_equal(M, np.diag(np.diag(M)))
    assert np.array_equal(np.diag(M), 2.0 ** np.round(np.log2(np.diag(M))))

    def rel_errors(A, B):
        with mpmath.workdps(50):
            ref = np.array([float(_mp_distance(mpmath, quadric_body, a, b)) for a, b in zip(A, B)])
        return [np.abs(d - ref) / ref for d in (quadric_body.pair_distances(A, B),
                                                _two_exit_distances(quadric_body, A, B))]

    # the 20 rows where the two forms part most lie near the boundary (d about 9-16)
    X, Y = _pair_sample(quadric_body, 100_000, 0)
    klein, two = quadric_body.pair_distances(X, Y), _two_exit_distances(quadric_body, X, Y)
    far = np.argsort(np.abs(klein - two) / two)[-20:]
    err_klein, err_two = rel_errors(X[far], Y[far])
    assert err_klein.max() <= err_two.max()
    assert err_klein.max() <= 1e-12

    # Pairs 1e-9 apart: in both forms the error scales with the rounding of
    # 1 - |w|^2, so the raw worst row is a toss-up between the forms.  Weighed
    # by that conditioning, eps / (1 - |w|^2), the Cayley-Klein form stays
    # under it on every row and the two-exit form does not.
    rng = np.random.default_rng(16)
    Xn = sample_interior(quadric_body, 300, rng)
    Xn = Xn[quadric_body.signed_gap(Xn) < -1e-6]
    Yn = Xn + 1e-9 * _unit_rows(rng, Xn.shape)
    err_klein, err_two = rel_errors(Xn, Yn)
    W, V = M @ Xn.T, M @ Yn.T
    floor = np.finfo(float).eps / np.minimum(1.0 - (W * W).sum(axis=0), 1.0 - (V * V).sum(axis=0))
    assert (err_klein / floor).max() <= (err_two / floor).max()
    assert np.all(err_klein <= floor)
