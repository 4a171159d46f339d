"""Sphere decomposition and cover construction checks.

A decomposition at level i is a cyclic list of markers on the sphere of
radius iR, alternating between the two kinds.  The structural rules are

  reach: every marker arc reaches distance >= R from its start,
  spread: every marker arc has Hilbert diameter <= 4R,
  admissible: every lower marker lifts to an upper marker of the other
  kind at the exact same angle,
  odd: each initial half-circle and each refined lower arc carries an
  odd number of cuts.

Cover pieces are the sectors between consecutive same-kind markers of
one level, bounded by the adjacent sphere radii.
"""

from pathlib import Path

import numpy as np
import pytest

from hilbertgeom import (
    build_cover,
    decompose_arc,
    decomposition_audit,
    distance,
    distance_pairs,
    first_marker,
    initial_decomposition,
    is_admissible_over,
    load_body,
    multiplicity_probe,
    piece_diameter,
    ray_points,
    refine_to_depth,
    sphere_points,
)
from hilbertgeom.cover import (
    ArcDecomposition,
    Marker,
    SphereField,
    SphereLevel,
    arc_tolerance,
    footprint_diameter,
    initial_half_counts,
    pieces_from_decompositions,
    refine_level,
    refinement_arc_counts,
)
from hilbertgeom import cover
from hilbertgeom.cli import footprint_defect, main
from hilbertgeom.svgout import render_cover
from hilbertgeom.errors import ArcMarchExhausted, ArcReachViolation, BadRadii

R = 1.0
BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "bodies"
PLANAR_BENCH = ("disk", "ellipse", "square", "heptagon", "square_halfspaces", "gon64")


def _two_half_initial_decomposition(body, o, R):
    """Level 1 as it was built before it became the lift of level 0: the
    half circles [0, pi] and [pi, 2 pi] decomposed on their own, kinds by
    parity from X at 0.  The reference for the tests below."""
    level = SphereLevel(index=1, radius=R, field=SphereField(body, o))
    cuts1, cuts2 = decompose_arc(level, [0.0, np.pi], [np.pi, 2.0 * np.pi], R)
    ordered = [0.0, *cuts1, np.pi, *cuts2]
    pairs = sorted((cover._norm_angle(t), "X" if i % 2 == 0 else "Y") for i, t in enumerate(ordered))
    return ArcDecomposition(level, tuple(Marker(a, k) for a, k in pairs))


def _same_decomposition(a, b):
    return (a.level.index == b.level.index and a.level.radius == b.level.radius
            and np.array_equal(a.angles(), b.angles())
            and [m.kind for m in a.markers] == [m.kind for m in b.markers])


@pytest.mark.parametrize("name", PLANAR_BENCH)
def test_level_one_lift_matches_the_two_half_construction(name):
    body = load_body(str(BENCH_DIR / f"{name}.json"))
    o = body.interior_seed()
    for step in (0.5, 1.0, 2.0):
        dec = initial_decomposition(body, o, step)
        assert _same_decomposition(dec, _two_half_initial_decomposition(body, o, step))


def test_level_one_lift_matches_off_the_seed():
    body = load_body(str(BENCH_DIR / "ellipse.json"))
    o = np.array([0.9, -0.3])
    assert _same_decomposition(initial_decomposition(body, o, R),
                               _two_half_initial_decomposition(body, o, R))


@pytest.mark.parametrize("name", ["disk", "square"])
def test_deep_chain_matches_one_from_the_two_half_level(name):
    body = load_body(str(BENCH_DIR / f"{name}.json"))
    o = body.interior_seed()
    chain = [_two_half_initial_decomposition(body, o, R)]
    for _ in range(7):
        chain.append(refine_level(chain[-1], R))
    decs = refine_to_depth(body, o, R, 8)
    assert all(_same_decomposition(a, b) for a, b in zip(decs, chain, strict=True))


@pytest.fixture
def fields_made(monkeypatch):
    """Every SphereField constructed while the test runs."""
    made = []
    init = SphereField.__init__

    def counted(self, body, o):
        made.append(self)
        init(self, body, o)

    monkeypatch.setattr(SphereField, "__init__", counted)
    return made


def test_a_cover_validates_one_field(unit_disk, fields_made):
    o = np.zeros(2)
    decs = refine_to_depth(unit_disk, o, R, 4)
    pieces = pieces_from_decompositions(unit_disk, o, R, decs)
    for p in pieces:
        piece_diameter(p, 64)
    multiplicity_probe(pieces, 0.2, 200, seed=0)
    render_cover(unit_disk, pieces)
    assert len(fields_made) == 1
    assert pieces[0].field is decs[0].level.field
    assert all(d.level.field is decs[0].level.field for d in decs)
    assert all(p.field is pieces[0].field for p in pieces)
    with pytest.raises(ValueError):
        pieces[0].field.o[0] = 0.5   # shared by every piece, so read-only


def test_pieces_without_decompositions_build_one_field(unit_disk, fields_made):
    (ball,) = pieces_from_decompositions(unit_disk, np.zeros(2), R, [])
    assert ball.level == 0 and len(fields_made) == 1
    assert ball.field.body is unit_disk


def test_pieces_reject_decompositions_on_another_field(unit_disk, square):
    o = np.zeros(2)
    decs = refine_to_depth(unit_disk, o, R, 2)
    other = refine_to_depth(unit_disk, o, R, 1)
    with pytest.raises(ValueError, match="one field"):
        pieces_from_decompositions(square, o, R, decs)
    with pytest.raises(ValueError, match="one field"):
        pieces_from_decompositions(unit_disk, np.array([0.1, 0.0]), R, decs)
    with pytest.raises(ValueError, match="one field"):
        pieces_from_decompositions(unit_disk, o, R, [decs[0], other[0]])
    with pytest.raises(ValueError, match="one field"):
        pieces_from_decompositions(unit_disk, [0.0, 0.0, 0.0], R, decs)


def test_footprint_defect_builds_one_field_for_its_balls(unit_disk, fields_made):
    assert footprint_defect(unit_disk, np.zeros(2), np.random.default_rng(0), 6).shape == (6,)
    assert len(fields_made) == 1


def test_initial_markers_alternate_and_are_odd(any_body):
    o = any_body.interior_seed()
    dec = initial_decomposition(any_body, o, R)
    kinds = [m.kind for m in dec.markers]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    c1, c2 = initial_half_counts(dec)
    assert c1 % 2 == 1 and c2 % 2 == 1


def test_initial_markers_sit_on_level_one_sphere(unit_disk):
    o = np.zeros(2)
    dec = initial_decomposition(unit_disk, o, R)
    for m in dec.markers:
        p = sphere_points(unit_disk, o, [m.angle], R)[0]
        assert distance(unit_disk, o, p) == pytest.approx(R, abs=1e-9)


def test_first_marker_is_the_first_crossing(unit_disk):
    o = np.zeros(2)
    dec = initial_decomposition(unit_disk, o, R)
    lvl = dec.level
    field = lvl.field
    (theta,) = first_marker(lvl, [0.0], [np.pi], R)
    assert np.isfinite(theta)
    start, cut = field.points([0.0, theta], R)
    # distance R at the cut, strictly below R just before it
    assert field.dist_from(start, cut[None])[0] == pytest.approx(R, abs=1e-6)
    probe = np.linspace(0.0, theta * 0.999, 200)
    assert field.dist_from(start, field.points(probe, R)).max() < R


def test_first_marker_batch_matches_single_arcs(any_body):
    o = any_body.interior_seed()
    lvl = initial_decomposition(any_body, o, R).level
    starts = np.arange(8) * np.pi / 4.0
    ends = starts + np.pi * np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.01])
    batch = first_marker(lvl, starts, ends, R)
    single = np.concatenate([first_marker(lvl, [a], [b], R) for a, b in zip(starts, ends)])
    assert np.isfinite(batch[0]) and np.isnan(batch[-1])  # the last arc is too short
    assert np.array_equal(batch, single, equal_nan=True)


def test_first_marker_bisection_ends_at_zero_tolerance(unit_disk, monkeypatch):
    # with ANGLE_TOL = 0 the bracket shrinks until its midpoint stops splitting it
    o = np.zeros(2)
    lvl = initial_decomposition(unit_disk, o, R).level
    monkeypatch.setattr(cover, "ANGLE_TOL", 0.0)
    (theta,) = first_marker(lvl, [0.0], [np.pi], R)
    assert np.isfinite(theta)
    field = lvl.field
    start, cut = field.points([0.0, theta], R)
    assert field.dist_from(start, cut[None])[0] == pytest.approx(R, abs=1e-9)


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_first_marker_never_cuts_at_a_start_that_reaches_R(unit_disk, step):
    # d(start, start) = 0 >= R once R <= 0, so no arc has a first crossing after its start
    lvl = initial_decomposition(unit_disk, np.zeros(2), R).level
    assert np.isnan(first_marker(lvl, [0.0, 1.0, 3.0], [np.pi, 4.0, 3.5], step)).all()


@pytest.fixture
def gon64():
    return load_body(str(BENCH_DIR / "gon64.json"))


@pytest.fixture
def scanned_rows(monkeypatch):
    """The row count of every ``SphereField.points`` call, with bisection off."""
    monkeypatch.setattr(cover, "MAX_HALVINGS", 0)
    rows = []
    points = SphereField.points

    def counted(self, thetas, ts):
        rows.append(np.size(thetas))
        return points(self, thetas, ts)

    monkeypatch.setattr(SphereField, "points", counted)
    return rows


def test_marker_scan_stops_at_the_first_crossing_block(unit_disk, scanned_rows):
    # 16 open arcs scan 256-column blocks; each crosses R in its first block
    lvl = SphereLevel(index=1, radius=R, field=SphereField(unit_disk, np.zeros(2)))
    starts = np.arange(16) * np.pi / 8.0
    assert np.isfinite(first_marker(lvl, starts, starts + np.pi, R)).all()
    assert scanned_rows[0] == 16                    # the starts, in one call
    assert max(scanned_rows) <= cover.ROW_BUDGET
    assert sum(scanned_rows) < (cover.N_ARC + 1) * 16


@pytest.mark.parametrize("name", ["unit_disk", "gon64"])
def test_marker_scan_reads_every_column_of_an_arc_without_crossing(request, name, scanned_rows):
    lvl = SphereLevel(index=1, radius=R, field=SphereField(request.getfixturevalue(name), np.zeros(2)))
    assert np.isnan(first_marker(lvl, [1.0], [1.01], R)).all()
    # the start is measured in one row: a one-row call gives the batched bits
    assert scanned_rows == [1, cover.N_ARC]


@pytest.mark.parametrize("name", PLANAR_BENCH)
def test_deep_markers_match_the_full_grid_reference(monkeypatch, name):
    body = load_body(str(BENCH_DIR / f"{name}.json"))
    o = body.interior_seed()
    for step in (0.5, 1.0, 2.0):
        decs = refine_to_depth(body, o, step, 8)
        with monkeypatch.context() as m:
            m.setattr(cover, "first_marker", _one_halving_first_marker)
            reference = refine_to_depth(body, o, step, 8)
        assert all(_same_decomposition(a, b) for a, b in zip(decs, reference, strict=True))


def _one_halving_first_marker(level, starts, ends, R):
    """``first_marker`` with one bisection halving per oracle call and every
    grid column of every arc scanned, as it was before the tree rounds and
    the blocked scan; the reference for the tests below."""
    field = level.field
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    ends = np.atleast_1d(np.asarray(ends, dtype=float))
    lo = np.full(starts.shape, np.nan)
    hi = np.full(starts.shape, np.nan)
    p0 = np.zeros((starts.size, 2))
    steps = np.arange(cover.N_ARC + 1)
    per_call = max(1, cover.ROW_BUDGET // (cover.N_ARC + 1))
    for c in range(0, starts.size, per_call):
        s, e = starts[c:c + per_call], ends[c:c + per_call]
        thetas = s[:, None] + (e - s)[:, None] * steps / cover.N_ARC
        pts = field.points(thetas.ravel(), level.radius)
        P = pts.reshape(s.size, cover.N_ARC + 1, 2)
        d = field.dist_from(np.repeat(P[:, 0], cover.N_ARC + 1, axis=0), pts)
        hit = d.reshape(s.size, cover.N_ARC + 1) >= R * (1.0 - cover.TIE_REL)
        k = hit.argmax(axis=1)
        found = np.nonzero(hit.any(axis=1) & (k > 0) & (e > s))[0]
        lo[c + found] = thetas[found, k[found] - 1]
        hi[c + found] = thetas[found, k[found]]
        p0[c + found] = P[found, 0]

    live = np.nonzero(hi - lo > cover.ANGLE_TOL)[0]
    for _ in range(cover.MAX_HALVINGS):
        mid = 0.5 * (lo[live] + hi[live])
        splits = (lo[live] < mid) & (mid < hi[live])
        live, mid = live[splits], mid[splits]
        if live.size == 0:
            break
        # a lone midpoint is measured in a one-row call
        d = field.dist_from(p0[live], field.points(mid, level.radius))
        up = d >= R * (1.0 - cover.TIE_REL)
        hi[live[up]] = mid[up]
        lo[live[~up]] = mid[~up]
        live = live[hi[live] - lo[live] > cover.ANGLE_TOL]
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("name", ["square", "heptagon"])
def test_markers_do_not_depend_on_the_scan_grid(monkeypatch, name):
    # near the square's flat edges d(start, theta) - R reads +-2e-16 over a
    # whole stretch of angles; without the tie rule, rounding there picked
    # the level-1 marker after pi as 3.946363 at N_ARC = 64 and 3.927138 at 512
    body = load_body(str(BENCH_DIR / f"{name}.json"))
    o = body.interior_seed()
    by_grid = {}
    for n_arc in (64, 512):
        monkeypatch.setattr(cover, "N_ARC", n_arc)
        by_grid[n_arc] = [d.angles() for d in refine_to_depth(body, o, R, 4)]
    for coarse, fine in zip(by_grid[64], by_grid[512], strict=True):
        assert coarse.shape == fine.shape
        assert np.max(np.abs(coarse - fine)) <= 1e-12


@pytest.mark.parametrize("patch", [{}, {"ANGLE_TOL": 0.0}, {"MAX_HALVINGS": 5}],
                         ids=["defaults", "angle_tol_0", "max_halvings_5"])
@pytest.mark.parametrize("name", ["unit_disk", "ellipse21", "square", "square_polytope",
                                  "heptagon", "gon64"])
def test_tree_rounds_match_one_halving_bisection(request, monkeypatch, name, patch):
    # MAX_HALVINGS = 5 is not a multiple of TREE_DEPTH, so the last round is short
    body = request.getfixturevalue(name)
    o = body.interior_seed()
    for key, value in patch.items():
        monkeypatch.setattr(cover, key, value)

    def angles():
        return np.concatenate([d.angles() for d in refine_to_depth(body, o, R, 5)])

    tree = angles()
    monkeypatch.setattr(cover, "first_marker", _one_halving_first_marker)
    assert np.array_equal(tree, angles())


def test_decompose_arc_names_the_first_arc_without_reach(unit_disk):
    lvl = SphereLevel(index=1, radius=R, field=SphereField(unit_disk, np.zeros(2)))
    starts = [0.0, 2.0, 4.0]
    ends = [np.pi, 2.01, 4.01]   # arcs 1 and 2 are far too short to reach R
    with pytest.raises(ArcReachViolation, match=r"arc \[2\.000000, 2\.010000\] at radius 1 "):
        decompose_arc(lvl, starts, ends, R)


def test_arc_march_cap_is_a_typed_error(unit_disk, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cover, "MAX_MARCH_STEPS", 1)
    lvl = SphereLevel(index=1, radius=R, field=SphereField(unit_disk, np.zeros(2)))
    with pytest.raises(ArcMarchExhausted, match="1 arc"):
        decompose_arc(lvl, [0.0], [np.pi], R)
    disk = tmp_path / "disk.json"
    disk.write_text('{"type": "disk", "center": [0, 0], "radius": 1.0}\n')
    assert main(["cover", "--body", str(disk), "--R", "1", "--levels", "2",
                 "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: ArcMarchExhausted" in err
    assert "Traceback" not in err


def test_reach_and_spread_hold_on_all_levels(any_body):
    o = any_body.interior_seed()
    decs = refine_to_depth(any_body, o, R, 3)
    tol = arc_tolerance(R)
    for dec in decs:
        for row in decomposition_audit(dec, R):
            assert row["start_reach"] >= R - tol
            assert row["diameter"] <= 4.0 * R + tol


def test_refinement_is_admissible_and_odd(any_body):
    o = any_body.interior_seed()
    decs = refine_to_depth(any_body, o, R, 3)
    for lo_dec, up_dec in zip(decs, decs[1:]):
        assert is_admissible_over(up_dec, lo_dec)
        assert all(c % 2 == 1 for c in refinement_arc_counts(up_dec, lo_dec))


def test_lifted_angles_are_exact_copies(unit_disk):
    o = np.zeros(2)
    decs = refine_to_depth(unit_disk, o, R, 3)
    for lo_dec, up_dec in zip(decs, decs[1:]):
        up_angles = {m.angle for m in up_dec.markers}
        for m in lo_dec.markers:
            assert m.angle in up_angles  # exact float membership, not approx


def test_admissibility_detects_a_moved_marker(unit_disk):
    o = np.zeros(2)
    decs = refine_to_depth(unit_disk, o, R, 2)
    lo, up = decs
    moved = [
        Marker(m.angle + 1e-7, m.kind) if i == 0 else m
        for i, m in enumerate(up.markers)
    ]
    tampered = ArcDecomposition(up.level, tuple(sorted(moved, key=lambda m: m.angle)))
    assert not is_admissible_over(tampered, lo)


def test_projection_between_levels_lands_on_target_sphere(any_body):
    # radial projection slides x along its ray from o to the target sphere
    o = any_body.interior_seed()
    x = sphere_points(any_body, o, [1.1], 2.0)[0]
    u = (x - o) / np.linalg.norm(x - o)
    p = ray_points(any_body, o[None, :], u[None, :], 1.0)[0]
    assert distance(any_body, o, p) == pytest.approx(1.0, abs=1e-9)
    # radial: same direction from o
    vx, vp = x - o, p - o
    assert abs(vx[0] * vp[1] - vx[1] * vp[0]) < 1e-9


def test_decomposition_validation_rejects_bad_marker_lists(unit_disk):
    o = np.zeros(2)
    dec = initial_decomposition(unit_disk, o, R)
    lvl = dec.level
    with pytest.raises(ValueError):
        ArcDecomposition(lvl, (dec.markers[0],))  # odd total
    ms = list(dec.markers)
    ms[0], ms[1] = (
        Marker(ms[0].angle, ms[1].kind),
        Marker(ms[1].angle, ms[1].kind),
    )
    with pytest.raises(ValueError):
        ArcDecomposition(lvl, tuple(ms))  # two same-kind neighbours


def test_cover_pieces_tile_without_gaps(any_body):
    o = any_body.interior_seed()
    pieces = build_cover(any_body, o, R, 3)
    by_level = {}
    for p in pieces:
        by_level.setdefault(p.level, []).append(p)
    assert sorted(by_level) == [0, 1, 2, 3]
    assert len(by_level[0]) == 1
    for lvl, ps in by_level.items():
        if lvl == 0:
            continue
        widths = sum(p.width for p in ps)
        assert widths == pytest.approx(2.0 * np.pi, abs=1e-9)


def test_cover_pieces_cover_sampled_points(unit_disk):
    o = np.zeros(2)
    pieces = build_cover(unit_disk, o, R, 3)
    rng = np.random.default_rng(17)
    for _ in range(200):
        t = rng.uniform(0.0, 3.0 * R)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        hits = sum(p.contains(t, theta, tol=1e-9) for p in pieces)
        assert hits >= 1


def test_piece_diameters_meet_the_10R_bound(any_body):
    o = any_body.interior_seed()
    pieces = build_cover(any_body, o, R, 3)
    for p in pieces:
        assert piece_diameter(p, 64) <= 10.0 * R + arc_tolerance(R)


def test_piece_diameter_rejects_coarse_sampling(unit_disk):
    pieces = build_cover(unit_disk, np.zeros(2), R, 1)
    with pytest.raises(ValueError):
        piece_diameter(pieces[0], 8)


def test_multiplicity_is_at_most_three(any_body):
    o = any_body.interior_seed()
    pieces = build_cover(any_body, o, R, 3)
    rep = multiplicity_probe(pieces, 0.2, 2000, seed=0)
    assert rep.max_count <= 3
    assert sum(rep.histogram.values()) == 2000
    assert min(rep.histogram) >= 1  # every probe ball meets the cover


def _reference_probe(pieces, r, trials, seed, m=32):
    """Per-trial multiplicity loop without pruning: every band candidate's
    samples are measured."""
    ball = next(p for p in pieces if p.level == 0)
    field = ball.field
    samples = np.stack([p.boundary_samples(m) for p in pieces])
    bands = np.array([[p.r_inner, p.r_outer] for p in pieces])
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, trials)
    ts = rng.uniform(0.0, bands[:, 1].max(), trials)
    hist = {}
    for x, t, theta in zip(field.points(thetas, ts), ts, thetas):
        cand = np.nonzero((bands[:, 0] - r - 1e-9 <= t) & (t <= bands[:, 1] + r + 1e-9))[0]
        block = samples[cand].reshape(-1, 2)
        d = distance_pairs(field.body, np.broadcast_to(x, block.shape), block)
        near = d.reshape(cand.size, -1).min(axis=1) <= r
        count = sum(1 for k, i in enumerate(cand) if near[k] or pieces[i].contains(t, theta))
        hist[count] = hist.get(count, 0) + 1
    return hist


def test_multiplicity_probe_matches_unpruned_loop(any_body):
    pieces = build_cover(any_body, any_body.interior_seed(), R, 3)
    rep = multiplicity_probe(pieces, 0.2, 600, seed=5)
    assert rep.histogram == _reference_probe(pieces, 0.2, 600, seed=5)
    # the band grouping does not depend on the order of the pieces
    shuffled = [pieces[i] for i in np.random.default_rng(3).permutation(len(pieces))]
    assert multiplicity_probe(shuffled, 0.2, 600, seed=5).to_dict() == rep.to_dict()


def test_distance_exceeds_the_pruning_bound(any_body):
    # d(x, y) >= 2 log1p(|x - y| / D), the bound the probe prunes with
    o = any_body.interior_seed()
    pieces = build_cover(any_body, o, R, 3)
    samples = np.vstack([p.boundary_samples(32) for p in pieces])
    rng = np.random.default_rng(8)
    n = 5000
    centers = SphereField(any_body, o).points(rng.uniform(0.0, 2.0 * np.pi, n),
                                              rng.uniform(0.0, 4.0 * R, n))
    ys = samples[rng.integers(0, len(samples), n)]
    d = distance_pairs(any_body, centers, ys)
    bound = 2.0 * np.log1p(np.linalg.norm(centers - ys, axis=1) / any_body.euclidean_diameter())
    assert np.all(d >= bound)


def _linspace_sample_rays(piece, n):
    """A piece's sample rays as they were built piece by piece, with the
    side radii from ``np.linspace``; the reference for the test below."""
    n_arc = max(4, n * 3 // 8)
    n_side = max(2, (n - 2 * n_arc) // 2)
    if piece.level == 0:
        total = 2 * (n_arc + 1) + 2 * n_side
        return (piece.theta_start + piece.width * np.arange(total) / total,
                np.full(total, piece.r_outer))
    thetas = piece.theta_start + piece.width * np.arange(n_arc + 1) / n_arc
    ts = np.linspace(piece.r_inner, piece.r_outer, n_side + 2)[1:-1]
    angles = np.concatenate([thetas, thetas, np.full(n_side, piece.theta_start),
                             np.full(n_side, piece.theta_end)])
    radii = np.concatenate([np.full(n_arc + 1, piece.r_inner),
                            np.full(n_arc + 1, piece.r_outer), ts, ts])
    return angles, radii


@pytest.mark.parametrize("name", ["unit_disk", "square"])
def test_sample_rays_match_the_linspace_construction(request, name):
    body = request.getfixturevalue(name)
    pieces = build_cover(body, body.interior_seed(), R, 8)
    for n in (cover.PROBE_SAMPLES, 64):
        angles, radii = cover._sample_rays(*cover._piece_table(pieces), n)
        for p, a, t in zip(pieces, angles, radii):
            a0, t0 = _linspace_sample_rays(p, n)
            assert np.array_equal(a, a0) and np.array_equal(t, t0)


def test_distance_exceeds_the_radial_gap(any_body):
    # d(x, s) >= |d(o, x) - d(o, s)| = |t_x - t_s|, the bound the probe prunes samples with
    o = any_body.interior_seed()
    pieces = build_cover(any_body, o, R, 8)
    field = SphereField(any_body, o)
    angles, radii = cover._sample_rays(*cover._piece_table(pieces), cover.PROBE_SAMPLES)
    rng = np.random.default_rng(9)
    n = 20000
    t_x = rng.uniform(0.0, 9.0 * R, n)
    centers = field.points(rng.uniform(0.0, 2.0 * np.pi, n), t_x)
    k = rng.integers(0, angles.size, n)
    t_s = radii.ravel()[k]
    d = distance_pairs(any_body, centers, field.points(angles.ravel()[k], t_s))
    assert np.all(d >= np.abs(t_x - t_s) - 1e-9)


def test_multiplicity_probe_is_independent_of_the_trial_block(monkeypatch, unit_disk, square):
    for body in (unit_disk, square):
        pieces = build_cover(body, body.interior_seed(), R, 4)
        want = multiplicity_probe(pieces, 0.2, 500, seed=7).to_dict()
        # one or three trials per block
        for block in (1, 3 * len(pieces) + 1):
            monkeypatch.setattr(cover, "SLACK_BLOCK", block)
            assert multiplicity_probe(pieces, 0.2, 500, seed=7).to_dict() == want
        monkeypatch.undo()


def test_multiplicity_probe_needs_the_central_ball(unit_disk):
    pieces = build_cover(unit_disk, np.zeros(2), R, 2)
    with pytest.raises(ValueError, match="cover has no central ball"):
        multiplicity_probe(pieces[1:], 0.2, 100, seed=0)
    with pytest.raises(ValueError, match="empty cover"):
        multiplicity_probe([], 0.2, 100, seed=0)


def test_multiplicity_requires_small_balls(unit_disk):
    pieces = build_cover(unit_disk, np.zeros(2), R, 2)
    with pytest.raises(BadRadii):
        multiplicity_probe(pieces, 0.3, 100, seed=0)


def test_multiplicity_probe_is_deterministic(unit_disk):
    pieces = build_cover(unit_disk, np.zeros(2), R, 2)
    a = multiplicity_probe(pieces, 0.2, 500, seed=4)
    b = multiplicity_probe(pieces, 0.2, 500, seed=4)
    assert a.to_dict() == b.to_dict()


def test_footprint_of_small_ball_is_narrow(any_body):
    # centers on the level sphere itself: projection spreads at most 4r
    o = any_body.interior_seed()
    field = SphereField(any_body, o)
    r = 0.2
    for i, theta in ((1, 0.4), (2, 2.1), (3, 4.4)):
        c = sphere_points(any_body, o, [theta], i * R)[0]
        diam = footprint_diameter(field, c, r, i * R, 48, seed=2)
        assert diam <= 4.0 * r + arc_tolerance(R)


def test_pieces_from_decompositions_matches_marker_counts(unit_disk):
    o = np.zeros(2)
    decs = refine_to_depth(unit_disk, o, R, 3)
    pieces = pieces_from_decompositions(unit_disk, o, R, decs)
    want = 1 + sum(len(d.x_markers()) for d in decs)
    assert len(pieces) == want


@pytest.mark.parametrize("name, levels", [("square", 12), ("heptagon", 12), ("unit_disk", 10)])
def test_deep_cover_keeps_every_bound(request, name, levels):
    body = request.getfixturevalue(name)
    o = body.interior_seed()
    decs = refine_to_depth(body, o, R, levels)
    assert all(c % 2 == 1 for c in initial_half_counts(decs[0]))
    for lo_dec, up_dec in zip(decs, decs[1:]):
        assert is_admissible_over(up_dec, lo_dec)
        assert all(c % 2 == 1 for c in refinement_arc_counts(up_dec, lo_dec))
    pieces = pieces_from_decompositions(body, o, R, decs)
    assert max(piece_diameter(p, 64) for p in pieces) <= 10.0 * R + arc_tolerance(R)
    assert multiplicity_probe(pieces, 0.2, 2000, seed=0).max_count <= 3
