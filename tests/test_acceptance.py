"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a single pass/fail line (visible under ``pytest -s``)
and then asserts, so the -v test report carries the same verdicts.
Criteria with a runtime budget time themselves and fail when over.
"""

import json
import math
import time

import numpy as np
import pytest

from hilbertgeom import (
    Disk,
    Ellipsoid,
    Polygon,
    build_cover,
    contraction_constant,
    corona_probe,
    distance,
    distance_pairs,
    flat_boundary_ray_bound,
    greedy_packing,
    initial_decomposition,
    is_admissible_over,
    multiplicity_probe,
    piece_diameter,
    ray_point,
    ray_spec,
    refine_to_depth,
    sphere_points,
    verify_contraction,
)
from hilbertgeom.cli import (
    ray_monotonicity_defect,
    concurrency_scatter_defect,
    coray_projection_defect,
    main,
)
from hilbertgeom.cover import (
    arc_tolerance,
    initial_half_counts,
    pieces_from_decompositions,
    refinement_arc_counts,
)
from hilbertgeom.metric import projective_transfer_defect

from conftest import make_heptagon


def four_bodies():
    return [
        ("disk", Disk((0.0, 0.0), 1.0)),
        ("square", Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])),
        ("ellipse", Ellipsoid((0.0, 0.0), (2.0, 1.0))),
        ("heptagon", make_heptagon()),
    ]


def interior_batch(body, n, rng, margin=1e-6):
    lo, hi = body.bounding_box()
    out = np.empty((n, 2))
    got = 0
    cut = -margin * body.euclidean_diameter()
    while got < n:
        cand = rng.uniform(lo, hi, (2 * n, 2))
        keep = cand[body.signed_gap(cand) < cut]
        take = min(n - got, len(keep))
        out[got:got + take] = keep[:take]
        got += take
    return out


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_metric_core():
    t0 = time.time()
    worst_sym = worst_tri = worst_geo = 0.0
    for name, body in four_bodies():
        rng = np.random.default_rng(1)
        X = interior_batch(body, 1000, rng)
        Y = interior_batch(body, 1000, rng)
        Z = interior_batch(body, 1000, rng)
        dxy = distance_pairs(body, X, Y)
        dyx = distance_pairs(body, Y, X)
        dyz = distance_pairs(body, Y, Z)
        dxz = distance_pairs(body, X, Z)
        worst_sym = max(worst_sym, float(np.abs(dxy - dyx).max()))
        worst_tri = max(worst_tri, float((dxz - dxy - dyz).max()))
        lam = rng.uniform(0.05, 0.95, 1000)
        M = X + lam[:, None] * (Y - X)
        geo = np.abs(distance_pairs(body, X, M) + distance_pairs(body, M, Y) - dxy)
        worst_geo = max(worst_geo, float(geo.max()))

    disk = Disk((0.0, 0.0), 1.0)
    worst_klein = max(
        abs(distance(disk, (0, 0), (tau, 0)) - math.log((1 + tau) / (1 - tau)))
        for tau in np.arange(0.1, 0.95, 0.1)
    )
    elapsed = time.time() - t0
    ok = (worst_sym <= 1e-9 and worst_tri <= 1e-9 and worst_geo <= 1e-9
          and worst_klein <= 1e-12 and elapsed < 10.0)
    report(1, ok, f"metric core: sym {worst_sym:.2e}, tri {worst_tri:.2e}, "
                  f"geo {worst_geo:.2e}, klein {worst_klein:.2e}, {elapsed:.1f}s")
    assert worst_sym <= 1e-9
    assert worst_tri <= 1e-9
    assert worst_geo <= 1e-9
    assert worst_klein <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_ball_convexity():
    worst = -np.inf
    for name, body in four_bodies():
        rng = np.random.default_rng(2)
        O = interior_batch(body, 1000, rng)
        X = interior_batch(body, 1000, rng)
        Y = interior_batch(body, 1000, rng)
        lam = rng.uniform(0.0, 1.0, 1000)
        Z = X + lam[:, None] * (Y - X)
        dz = distance_pairs(body, O, Z)
        dmax = np.maximum(distance_pairs(body, O, X), distance_pairs(body, O, Y))
        worst = max(worst, float((dz - dmax).max()))

    worst_cross = -np.inf
    for name, body in four_bodies():
        for t in (0.5, 2.0):
            P = sphere_points(body, body.interior_seed(), 2.0 * math.pi * np.arange(256) / 256, t)
            e = np.roll(P, -1, axis=0) - P
            f = np.roll(e, -1, axis=0)
            cr = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
            worst_cross = max(worst_cross, float(-cr.min()))

    ok = worst <= 1e-9 and worst_cross <= 1e-9
    report(2, ok, f"ball convexity: defect {worst:.2e}, "
                  f"polyline cross {worst_cross:.2e}")
    assert worst <= 1e-9
    assert worst_cross <= 1e-9


def test_criterion_3_contraction_and_packing():
    t0 = time.time()
    worst = -np.inf
    for name, body in four_bodies():
        o = body.interior_seed()
        for R, r in ((2.0, 1.0), (3.0, 0.5), (1.0, 1.0)):
            rep = verify_contraction(body, o, R, o, r, 2000, seed=0)
            worst = max(worst, rep.max_violation)

    violations = 0
    counts = []
    for name, body in four_bodies():
        o = body.interior_seed()
        for R, eps in ((2.0, 0.25), (3.0, 0.5)):
            D = contraction_constant(eps, R + eps)
            bound = 1.0 / D**2
            for seed in range(5):
                rep = greedy_packing(body, o, R, eps, 20000, seed)
                counts.append(rep.count)
                if rep.count > bound:
                    violations += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and violations == 0 and elapsed < 60.0
    report(3, ok, f"contraction {worst:.2e}, packing violations {violations}/40 "
                  f"(counts {min(counts)}..{max(counts)}), {elapsed:.1f}s")
    assert worst <= 1e-9
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_4_projective_invariance():
    worst = 0.0
    for name, body in four_bodies():
        rng = np.random.default_rng(4)
        worst = max(worst, float(projective_transfer_defect(body, rng, 1000).max()))
    ok = worst <= 1e-9
    report(4, ok, f"projective invariance of the distance: defect {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_5_corona_dichotomy():
    square = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    bound = flat_boundary_ray_bound(square, (-1, 1), (1, 1), (-0.5, 1), (0.5, 1))
    rx = ray_spec(square, (0.0, 0.0), (-0.5, 1.0))
    re = ray_spec(square, (0.0, 0.0), (0.5, 1.0))
    worst = max(
        distance(square, ray_point(rx, float(t)), ray_point(re, float(t)))
        for t in np.linspace(0.25, 20.0, 80)
    )
    flat_ok = worst <= bound + 1e-9

    gaps = {}
    for name, body in (("disk", Disk((0, 0), 1.0)),
                       ("ellipse", Ellipsoid((0, 0), (2, 1)))):
        rep = corona_probe(body, body.interior_seed(), 0.05, 1.0,
                           (16.0,), 5000, seed=0)
        gaps[name] = rep.sup_euclidean_gap[-1]
    round_ok = all(g < 0.1 for g in gaps.values())

    ok = flat_ok and round_ok
    report(5, ok, f"dichotomy: square ray pairs max d {worst:.9f} "
                  f"(bound log9 = {bound:.9f}); gaps at 16: "
                  f"disk {gaps['disk']:.2e}, ellipse {gaps['ellipse']:.2e}")
    assert flat_ok
    assert round_ok


def test_criterion_6_ray_projection_bounds():
    worst_mono = worst_conc = worst_coray = -np.inf
    for name, body in four_bodies():
        rng = np.random.default_rng(6)
        worst_mono = max(worst_mono, ray_monotonicity_defect(body, rng, 1000).max())
        rng = np.random.default_rng(60)
        worst_conc = max(worst_conc, concurrency_scatter_defect(body, rng, 1000).max())
        rng = np.random.default_rng(61)
        worst_coray = max(worst_coray, coray_projection_defect(body, rng, 1000).max())
    ok = worst_mono <= 1e-9 and worst_conc <= 1e-7 and worst_coray <= 1e-9
    report(6, ok, f"ray bounds: monotonicity {worst_mono:.2e}, "
                  f"concurrency {worst_conc:.2e}, 2r bound {worst_coray:.2e}")
    assert worst_mono <= 1e-9
    assert worst_conc <= 1e-7
    assert worst_coray <= 1e-9


def test_criterion_7_cover_construction():
    t0 = time.time()
    R, r, levels = 1.0, 0.2, 5
    results = {}
    for name, body in (("disk", Disk((0, 0), 1.0)),
                       ("ellipse", Ellipsoid((0, 0), (2, 1))),
                       ("square", Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]))):
        o = body.interior_seed()
        decs = refine_to_depth(body, o, R, levels)
        pieces = pieces_from_decompositions(body, o, R, decs)
        dmax = max(piece_diameter(p, 64) for p in pieces)
        mult = multiplicity_probe(pieces, r, 5000, seed=0)
        c1, c2 = initial_half_counts(decs[0])
        odd = c1 % 2 == 1 and c2 % 2 == 1 and all(
            c % 2 == 1
            for lo, up in zip(decs, decs[1:])
            for c in refinement_arc_counts(up, lo)
        )
        adm = all(is_admissible_over(up, lo) for lo, up in zip(decs, decs[1:]))
        results[name] = (dmax, mult.max_count, odd, adm)

    elapsed = time.time() - t0
    diam_ok = all(v[0] <= 10.0 * R + 1e-6 * R for v in results.values())
    mult_ok = all(v[1] <= 3 for v in results.values())
    struct_ok = all(v[2] and v[3] for v in results.values())
    ok = diam_ok and mult_ok and struct_ok and elapsed < 300.0
    detail = ", ".join(
        f"{k}: diam {v[0]:.2f}, mult {v[1]}" for k, v in results.items()
    )
    report(7, ok, f"covers ({detail}), odd+admissible {struct_ok}, {elapsed:.1f}s")
    assert diam_ok
    assert mult_ok
    assert struct_ok
    assert elapsed < 300.0


def test_criterion_8_byte_determinism(tmp_path, capsys):
    body_file = tmp_path / "square.json"
    body_file.write_text(
        '{"type": "polygon", "vertices": [[-1,-1],[1,-1],[1,1],[-1,1]]}\n'
    )
    blobs = {"cover": [], "verify": []}
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["cover", "--body", str(body_file), "--R", "1",
                     "--levels", "3", "--r", "0.2", "--trials", "1000",
                     "--seed", "11", "--out", str(out)]) == 0
        assert main(["verify", "--body", str(body_file), "--suite", "all",
                     "--seed", "11", "--samples", "80", "--out", str(out)]) == 0
        blobs["cover"].append((out / "cover_audit.json").read_bytes())
        blobs["verify"].append((out / "verify_all.json").read_bytes())
    capsys.readouterr()
    ok = (blobs["cover"][0] == blobs["cover"][1]
          and blobs["verify"][0] == blobs["verify"][1])
    report(8, ok, "cover and verify JSON byte-identical across same-seed runs")
    assert blobs["cover"][0] == blobs["cover"][1]
    assert blobs["verify"][0] == blobs["verify"][1]
    # sanity: the audit parses and passed
    assert json.loads(blobs["cover"][0])["pass"] is True
