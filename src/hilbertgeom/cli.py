"""Command line front end: distances, figures, and verification suites.

Subcommands
  dist          print the distance between two interior points
  ball          render a metric ball boundary over the body outline
  cover         build the bounded-multiplicity cover and audit it
  verify        run a named invariant suite and emit a JSON/CSV report
  probe-corona  boundary gap probe at growing radii
  packing       greedy separated-set packing against the counting bound

Exit codes: 0 success, 1 usage or parse error, 2 violated precondition,
3 violated property.  The env var HILBERT_LOG picks the log level.
All emitted files are deterministic functions of the flags and the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .bodies import (
    REL_BOUNDARY_TOL,
    TAU_P,
    TAU_PAR,
    ConvexBody,
    flat_segment,
    is_strictly_convex,
    load_body,
    _angle_rows,
    _cross2,
)
from .coarse import corona_probe, flat_boundary_ray_bound, greedy_packing, verify_contraction
from .cover import (
    SphereField,
    arc_tolerance,
    decomposition_audit,
    footprint_diameter,
    initial_half_counts,
    is_admissible_over,
    multiplicity_probe,
    piece_diameter,
    pieces_from_decompositions,
    refine_to_depth,
    refinement_arc_counts,
)
from . import sampling
from .errors import BadRadii, DimensionUnsupported, GeometryError
from .metric import (
    concurrency_defects,
    distance,
    distance_pairs,
    pairwise_distances,
    projective_transfer_defect,
    ray_point,
    ray_points,
    ray_spec,
    sphere_points,
    _unit_rows,
)
from .sampling import INNER_RADIUS, sample_ball, sample_interior
from .svgout import render_ball, render_cover, render_packing

log = logging.getLogger("hilbertgeom")

TWO_PI = 2.0 * math.pi
# The asdim suite's sphere step R, probe-ball radius r and sphere levels.
ASDIM_STEP = 1.0
ASDIM_PROBE_RADIUS = 0.2
ASDIM_LEVELS = 3


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _point_arg(text: str) -> tuple[float, ...]:
    try:
        coords = tuple(float(c) for c in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {e}") from None
    if len(coords) < 2:
        raise argparse.ArgumentTypeError(f"point needs at least 2 coordinates, got {text!r}")
    return coords


def _radii_arg(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(c) for c in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad radii list {text!r}: {e}") from None
    if not radii or not all(r > 0 and math.isfinite(r) for r in radii):
        raise argparse.ArgumentTypeError("radii must be positive and finite")
    return radii


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (v > 0.0 and math.isfinite(v)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return v


def _int_at_least(text: str, lo: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < lo:
        raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text}")
    return v


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed_arg(text: str) -> int:
    return _int_at_least(text, 0)


def _flag(*names: str, **kw) -> _Parser:
    """A parent parser holding one option, for subcommands that read it."""
    p = _Parser(add_help=False)
    p.add_argument(*names, **kw)
    return p


def _build_parser() -> _Parser:
    body = _flag("--body", required=True, help="domain spec JSON path")
    seed = _flag("--seed", type=_seed_arg, default=0, help="RNG seed, >= 0 (default 0)")
    out = _flag("--out", default=".", help="output directory (default .)")
    samples = _flag("--samples", type=_positive_int, default=200, help="per-row sample count")
    tol = _flag("--tol", type=_positive_float, default=1e-9,
                help="base pass tolerance (default 1e-9)")
    center = _flag("--center", type=_point_arg, default=None, help="base point override")

    p = _Parser(prog="hilbertgeom", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"hilbertgeom {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    d = sub.add_parser("dist", parents=[body], help="distance between two points")
    d.add_argument("--x", type=_point_arg, required=True)
    d.add_argument("--y", type=_point_arg, required=True)
    d.set_defaults(func=cmd_dist)

    b = sub.add_parser("ball", parents=[body, out], help="render a metric ball")
    b.add_argument("--center", type=_point_arg, required=True)
    b.add_argument("--t", type=_positive_float, required=True, help="ball radius, > 0")
    b.add_argument("--n", type=lambda s: _int_at_least(s, 3), default=256,
                   help="boundary sample count (>= 3)")
    b.set_defaults(func=cmd_ball)

    c = sub.add_parser("cover", parents=[body, seed, out, center],
                       help="build and audit the cover")
    c.add_argument("--R", type=_positive_float, default=1.0, help="sphere step")
    c.add_argument("--levels", type=_positive_int, default=4, help="sphere levels (>= 1)")
    c.add_argument("--r", type=_positive_float, default=0.2, help="probe ball radius")
    c.add_argument("--trials", type=_positive_int, default=2000, help="multiplicity probe trials")
    c.set_defaults(func=cmd_cover)

    v = sub.add_parser("verify", parents=[body, seed, out, samples, tol],
                       help="run an invariant suite")
    v.add_argument("--suite", required=True,
                   choices=["metric", "coarse", "corona", "asdim", "all"])
    v.set_defaults(func=cmd_verify)

    pc = sub.add_parser("probe-corona", parents=[body, seed, out, samples],
                        help="boundary gap probe")
    pc.add_argument("--delta", type=_positive_float, default=0.05)
    pc.add_argument("--C", type=_positive_float, default=1.0)
    pc.add_argument("--radii", type=_radii_arg, default=(2.0, 4.0, 8.0, 16.0))
    pc.set_defaults(func=cmd_probe_corona)

    pk = sub.add_parser("packing", parents=[body, seed, out, center],
                        help="greedy separated packing")
    pk.add_argument("--R", type=_positive_float, default=2.0, help="ball radius")
    pk.add_argument("--eps", type=_positive_float, default=0.25, help="separation half-gap")
    pk.add_argument("--trials", type=_positive_int, default=20000)
    pk.set_defaults(func=cmd_packing)
    return p


def _write_report(args, name: str, config: dict, payload: dict) -> str:
    """Write the JSON report ``name`` under --out: schema 1, a config block
    of the shared flags the subcommand takes plus ``config``, then ``payload``."""
    tolerances = {"point_coincidence": TAU_P, "parallelism": TAU_PAR,
                  "boundary_rel": REL_BOUNDARY_TOL}
    if hasattr(args, "tol"):
        tolerances["base"] = float(args.tol)
    cfg = {"tool": f"hilbertgeom {__version__}", "subcommand": args.cmd,
           "body": args.body, "seed": int(args.seed), "tolerances": tolerances, **config}
    if hasattr(args, "samples"):
        cfg["samples"] = int(args.samples)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": 1, "config": cfg, **payload}, sort_keys=True, indent=2))
        fh.write("\n")
    return path


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([cell(v) for v in r])


# -- invariant rows ----------------------------------------------------------


def _row(name: str, defect: float, tol: float, samples: int, note: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(defect <= tol),
        "defect": float(defect),
        "tolerance": float(tol),
        "samples": int(samples),
        "note": note,
    }


def _planar(body: ConvexBody) -> None:
    if body.dimension != 2:
        raise DimensionUnsupported("the asdim lemmas are planar")


def _odd_and_admissible(decs) -> tuple[int, bool]:
    """Even arc counts (level 1's two halves, then each lower arc's refinement;
    all must be odd) and whether every level is admissible over the one below."""
    pairs = list(zip(decs, decs[1:]))
    counts = [*initial_half_counts(decs[0]),
              *(c for lo_dec, up_dec in pairs for c in refinement_arc_counts(up_dec, lo_dec))]
    return (sum(c % 2 == 0 for c in counts),
            all(is_admissible_over(up_dec, lo_dec) for lo_dec, up_dec in pairs))


def _angle_gap(TH: np.ndarray) -> np.ndarray:
    """Angle in [0, pi] between the two directions of each row; equal to
    |math.remainder(a - b, 2 pi)|, since 2 pi - d is exact for d in [pi, 2 pi]."""
    d = np.abs(TH[:, 0] - TH[:, 1])
    return np.minimum(d, TWO_PI - d)


# Each round, the three asdim loops below draw every instance still missing
# as arrays, run the geometry on the ones their conditions accept and keep
# those defects; sampling._collect bounds the rounds.


def ray_monotonicity_defect(body: ConvexBody, rng: np.random.Generator, n: int) -> np.ndarray:
    """Decrease of d(l1(t), l2(t)) from a random s to a random t > s, on n ray pairs."""
    _planar(body)
    o = body.interior_seed()

    def draw(k):
        O = sample_ball(body, o, INNER_RADIUS, k, rng)
        TH = rng.uniform(0.0, TWO_PI, (k, 2))
        s = rng.uniform(0.05, 8.0, k)
        ST = np.c_[s, s + rng.uniform(0.05, 4.0, k)]
        ok = _angle_gap(TH) > 1e-3
        O, TH, ts = O[ok], TH[ok], ST[ok].ravel()
        body.require_interior(O, "decomposition base point must be interior")
        P = np.repeat(O, 2, axis=0)
        L1 = ray_points(body, P, _angle_rows(np.repeat(TH[:, 0], 2)), ts)
        L2 = ray_points(body, P, _angle_rows(np.repeat(TH[:, 1], 2)), ts)
        d = distance_pairs(body, L1, L2).reshape(-1, 2)
        return d[:, 0] - d[:, 1]

    return sampling._collect(draw, n, "too few separated ray pairs")


def concurrency_scatter_defect(body: ConvexBody, rng: np.random.Generator, n: int,
                               rejected: list[int] | None = None) -> np.ndarray:
    """Concurrency/parallelism defects of n random equidistant pairs.

    Rays within 0.1 of parallel are not transversal, and configurations
    whose three lines are nearly but not exactly parallel put the meeting
    point far away and amplify boundary rounding in the scatter, so draws
    with pairwise direction cross below 1e-3 are rejected, as are collinear
    ones.  Each round appends its number of rejected draws to ``rejected``
    when it is given.
    """
    _planar(body)
    o = body.interior_seed()

    def draw(k):
        O = sample_ball(body, o, INNER_RADIUS, k, rng)
        TH = rng.uniform(0.0, TWO_PI, (k, 2))
        T = rng.uniform(0.2, 4.0, k)
        sep = _angle_gap(TH)
        ok = (sep >= 0.1) & (np.abs(sep - math.pi) >= 0.1)
        O, TH, T = O[ok], TH[ok], T[ok]
        body.require_interior(O, "ray base must be interior")
        rep = concurrency_defects(body, O, ray_points(body, O, _angle_rows(TH[:, 0]), T),
                                  ray_points(body, O, _angle_rows(TH[:, 1]), T))
        got = rep.defect[~rep.rejected & (rep.parallel | (rep.min_cross >= 1e-3))]
        if rejected is not None:
            rejected.append(k - got.size)
        return got

    return sampling._collect(draw, n, "too few well-conditioned concurrency instances")


def coray_projection_defect(body: ConvexBody, rng: np.random.Generator, n: int) -> np.ndarray:
    """d(lx(s), ly(s)) - 2 d(x,y) at a random co-ray parameter s, for n instances."""
    _planar(body)
    diam, o = body.euclidean_diameter(), body.interior_seed()

    def draw(k):
        O = sample_ball(body, o, INNER_RADIUS, k, rng)
        X = sample_interior(body, k, rng)
        r = rng.uniform(0.2, 2.0, k)
        U = _unit_rows(rng.normal(size=(k, 2)))
        Y = ray_points(body, X, U, rng.uniform(0.1, 1.0, k) * r)
        ok = ((np.linalg.norm(X - O, axis=1) >= 1e-3 * diam)
              & (np.linalg.norm(Y - O, axis=1) >= 1e-3 * diam))
        O, X, Y = O[ok], X[ok], Y[ok]
        body.require_interior(np.vstack([X, Y, O]), "distance is defined for interior points only")
        dxy = distance_pairs(body, X, Y)
        dox = distance_pairs(body, O, X)
        doy = distance_pairs(body, O, Y)
        swap = (dox > doy)[:, None]
        X, Y = np.where(swap, Y, X), np.where(swap, X, Y)
        s = rng.uniform(0.01, np.maximum(dox, doy))
        LX = ray_points(body, O, _unit_rows(X - O), s)
        LY = ray_points(body, O, _unit_rows(Y - O), s)
        body.require_interior(np.vstack([LX, LY]), "distance is defined for interior points only")
        return distance_pairs(body, LX, LY) - 2.0 * dxy

    return sampling._collect(draw, n, "too few separated co-ray triples")


def footprint_defect(body: ConvexBody, o, rng: np.random.Generator, n: int) -> np.ndarray:
    """Radial footprint diameter minus 4r for n balls centered on the asdim
    suite's spheres, at its sphere step R and probe radius r."""
    r = ASDIM_PROBE_RADIUS
    ts = ASDIM_STEP * rng.integers(1, ASDIM_LEVELS + 1, n)
    C = sphere_points(body, o, rng.uniform(0.0, TWO_PI, n), ts)
    seeds = rng.integers(2**31, size=n)
    field = SphereField(body, o)
    return np.array([footprint_diameter(field, c, r, t, samples=48, seed=int(seed))
                     for c, t, seed in zip(C, ts, seeds)]) - 4.0 * r


def _suite_metric(body: ConvexBody, seed: int, n: int, tol: float) -> list[dict]:
    rows = []

    rng = np.random.default_rng([seed, 1])
    X = sample_interior(body, n, rng)
    Y = sample_interior(body, n, rng)
    d1 = distance_pairs(body, X, Y)
    d2 = distance_pairs(body, Y, X)
    rows.append(_row("symmetry_bit_exact", float(np.max(np.abs(d1 - d2))), 0.0, n))

    rng = np.random.default_rng([seed, 2])
    X = sample_interior(body, n, rng)
    Y = sample_interior(body, n, rng)
    Z = sample_interior(body, n, rng)
    slack = distance_pairs(body, X, Z) - distance_pairs(body, X, Y) - distance_pairs(body, Y, Z)
    rows.append(_row("triangle_inequality", float(np.max(slack)), tol, n))

    rng = np.random.default_rng([seed, 3])
    X = sample_interior(body, n, rng)
    Y = sample_interior(body, n, rng)
    lam = rng.uniform(0.05, 0.95, n)[:, None]
    Z = X + lam * (Y - X)
    gd = distance_pairs(body, X, Z) + distance_pairs(body, Z, Y) - distance_pairs(body, X, Y)
    rows.append(_row("segments_are_geodesics", float(np.max(np.abs(gd))), tol, n))

    rng = np.random.default_rng([seed, 4])
    O = sample_interior(body, n, rng)
    X = sample_interior(body, n, rng)
    Y = sample_interior(body, n, rng)
    Z = X + rng.uniform(0.0, 1.0, n)[:, None] * (Y - X)
    conv = distance_pairs(body, O, Z) - np.maximum(
        distance_pairs(body, O, X), distance_pairs(body, O, Y)
    )
    rows.append(_row("ball_convexity", float(np.max(conv)), tol, n))

    rng = np.random.default_rng([seed, 5])
    worst_rad, worst_cross = 0.0, 0.0
    m = 256
    for c, t in zip(sample_ball(body, body.interior_seed(), INNER_RADIUS, 2, rng), (0.5, 2.0)):
        S = sphere_points(body, c, TWO_PI * np.arange(m) / m, t)
        d = distance_pairs(body, np.broadcast_to(c, S.shape), S)
        worst_rad = max(worst_rad, float(np.max(np.abs(d - t))))
        e = np.roll(S, -1, axis=0) - S
        worst_cross = max(worst_cross, float(np.max(-_cross2(e, np.roll(e, -1, axis=0)))))
    rows.append(_row("ball_boundary_radius", worst_rad, tol, 2 * m))
    rows.append(_row("ball_boundary_euclidean_convex", worst_cross, tol, 2 * m))

    rng = np.random.default_rng([seed, 6])
    rows.append(_row("projective_invariance", float(projective_transfer_defect(body, rng, n).max()),
                     tol, n))
    return rows


def _suite_coarse(body: ConvexBody, seed: int, n: int, tol: float) -> list[dict]:
    rows = []
    o = body.interior_seed()

    for k, (R, r) in enumerate([(2.0, 1.0), (3.0, 0.5), (1.0, 1.0)]):
        rep = verify_contraction(body, o, R, o, r, samples=n, seed=seed + k)
        rows.append(_row(f"contraction_R{R:g}_r{r:g}", rep.max_violation, tol, n,
                         note=f"D={rep.D:.6e}"))

    trials = max(1000, 10 * n)
    for k, (R, eps) in enumerate([(2.0, 0.25), (3.0, 0.5)]):
        rep = greedy_packing(body, o, R, eps, trials, seed + 50 + k)
        rows.append(_row(f"packing_bound_R{R:g}_eps{eps:g}",
                         float(rep.count - rep.bound), 0.0, trials,
                         note=f"count={rep.count} bound={rep.bound:.3f}"))
        sep_defect = 0.0
        if rep.count >= 2:
            dmin = float(np.min(pairwise_distances(body, rep.points)))
            sep_defect = max(0.0, 2.0 * eps - dmin)
        rows.append(_row(f"packing_separation_R{R:g}_eps{eps:g}", sep_defect, 0.0, rep.count))

    rng = np.random.default_rng([seed, 60])
    A = sample_ball(body, o, INNER_RADIUS, min(n, 200), rng)
    diam = float(np.max(pairwise_distances(body, A), initial=0.0))
    rows.append(_row("clearance_sets_bounded", 0.0 if math.isfinite(diam) else math.inf, 0.0,
                     len(A), note=f"sampled diameter {diam:.4f} in B(seed, {INNER_RADIUS:.4f})"))
    return rows


def _suite_corona(body: ConvexBody, seed: int, n: int, tol: float) -> list[dict]:
    rows = []
    o = body.interior_seed()
    sc = is_strictly_convex(body)
    rows.append(_row("strictly_convex", 0.0, 0.0, 0, note=str(sc).lower()))

    if sc:
        samples = min(max(10 * n, 1000), 5000)
        rep = corona_probe(body, o, 0.05, 1.0, (2.0, 4.0, 8.0, 16.0), samples, seed)
        gaps = ", ".join(f"{g:.3e}" for g in rep.sup_euclidean_gap)
        rows.append(_row("corona_gap_vanishes", rep.sup_euclidean_gap[-1], 0.1,
                         samples, note=f"gaps [{gaps}]"))
        return rows

    alpha, beta = flat_segment(body)
    xi = alpha + 0.25 * (beta - alpha)
    eta = alpha + 0.75 * (beta - alpha)
    bound = flat_boundary_ray_bound(body, alpha, beta, xi, eta)
    ray_x = ray_spec(body, o, xi - o)
    ray_e = ray_spec(body, o, eta - o)
    # The point at t on a ray aimed at the face has face slack at most
    # s (a + b) / a e^-t, s the seed's least slack: the radii stop a factor e
    # short of the boundary band, where the ray points stop being interior.
    s = -float(body.signed_gap(o[None, :])[0])
    reach = min(math.log(s * (r.a + r.b) / (r.a * body.boundary_tol())) for r in (ray_x, ray_e))
    top = min(20.0, reach - 1.0)
    ts = np.linspace(0.5, top, 40)
    worst = max(
        distance(body, ray_point(ray_x, float(t)), ray_point(ray_e, float(t))) for t in ts
    ) - bound
    rows.append(_row("flat_edge_ray_bound", worst, tol, len(ts),
                     note=f"bound={bound:.9f}" + (f" up to radius {top:g}" if top < 20.0 else "")))

    # Isotropic direction sampling cannot witness persistence at large radii:
    # edge-parallel steps need |sin phi| below the boundary gap (~e^-t), so the
    # directions that keep the Euclidean gap open have vanishing measure.  Probe
    # along the ray pair aimed at the flat edge instead; its Hilbert distance
    # stays <= bound while the Euclidean gap tends to |xi - eta| > 0.
    t_gap = min(16.0, reach - 1.0)
    gap = float(np.linalg.norm(ray_point(ray_x, t_gap) - ray_point(ray_e, t_gap)))
    floor = 0.5 * float(np.linalg.norm(eta - xi))
    rows.append(_row("corona_gap_persists", floor - gap, 0.0, len(ts),
                     note=f"euclidean gap {floor:.4f} <= {gap:.4f} at radius {t_gap:g} "
                          f"along rays toward the flat edge"))
    return rows


def _suite_asdim(body: ConvexBody, seed: int, n: int, tol: float) -> list[dict]:
    rows = []
    o = body.interior_seed()

    rng = np.random.default_rng([seed, 41])
    rows.append(_row("ray_pair_monotonicity",
                     ray_monotonicity_defect(body, rng, n).max(), tol, n))

    rng = np.random.default_rng([seed, 42])
    rejected: list[int] = []
    rows.append(_row("equidistance_lines_concurrency",
                     concurrency_scatter_defect(body, rng, n, rejected).max(), 1e-7, n,
                     note=f"conditioned on pairwise line cross >= 1e-3; "
                          f"rejected_draws={sum(rejected)}"))

    rng = np.random.default_rng([seed, 43])
    rows.append(_row("coray_projection_2r_bound",
                     coray_projection_defect(body, rng, n).max(), tol, n))

    rng = np.random.default_rng([seed, 44])
    nf = max(10, n // 10)
    rows.append(_row("projection_footprint_4r",
                     footprint_defect(body, o, rng, nf).max(),
                     arc_tolerance(ASDIM_STEP), nf))

    R, r, levels = ASDIM_STEP, ASDIM_PROBE_RADIUS, ASDIM_LEVELS
    decs = refine_to_depth(body, o, R, levels)

    evens, adm = _odd_and_admissible(decs)
    rows.append(_row("decomposition_odd_counts", float(evens), 0.0, levels))
    rows.append(_row("decomposition_admissible", 0.0 if adm else 1.0, 0.0, levels - 1))

    worst_arc = 0.0
    arcs = 0
    for dec in decs:
        for a in decomposition_audit(dec, R):
            worst_arc = max(worst_arc, R - a["start_reach"], a["diameter"] - 4.0 * R)
            arcs += 1
    rows.append(_row("arc_reach_and_diameter", worst_arc, arc_tolerance(R), arcs))

    pieces = pieces_from_decompositions(body, o, R, decs)
    dmax = max(piece_diameter(p, 64) for p in pieces)
    rows.append(_row("piece_diameter_10R", dmax - 10.0 * R, arc_tolerance(R), len(pieces),
                     note=f"max diameter {dmax:.6f} over {len(pieces)} pieces"))

    trials = min(1000, 5 * n)
    mrep = multiplicity_probe(pieces, r, trials, seed)
    hist = ", ".join(f"{k}:{v}" for k, v in sorted(mrep.histogram.items()))
    rows.append(_row("ball_multiplicity_le_3", float(mrep.max_count - 3), 0.0,
                     trials, note=f"histogram {{{hist}}}"))
    return rows


_SUITES = {
    "metric": _suite_metric,
    "coarse": _suite_coarse,
    "corona": _suite_corona,
    "asdim": _suite_asdim,
}


def run_suite(body: ConvexBody, suite: str, seed: int, n: int, tol: float) -> list[dict]:
    names = list(_SUITES) if suite == "all" else [suite]
    rows = []
    for name in names:
        log.info("running suite %s", name)
        for row in _SUITES[name](body, seed, n, tol):
            row["suite"] = name
            rows.append(row)
    return rows


# -- subcommands -------------------------------------------------------------


def cmd_dist(args) -> int:
    body = load_body(args.body)
    print("%.12f" % distance(body, args.x, args.y))
    return 0


def cmd_ball(args) -> int:
    body = load_body(args.body)
    S = sphere_points(body, args.center, TWO_PI * np.arange(args.n) / args.n, args.t)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "ball.svg")
    with open(path, "w") as fh:
        fh.write(render_ball(body, S, args.center))
    print(path)
    return 0


def cmd_cover(args) -> int:
    body = load_body(args.body)
    R, r, levels = args.R, args.r, args.levels
    if not R > 4.0 * r:
        raise BadRadii(f"cover audit requires R > 4r, got R={R:g}, r={r:g}")
    o = np.asarray(args.center, dtype=float) if args.center else body.interior_seed()

    log.info("decomposing %d sphere levels at R=%g", levels, R)
    decs = refine_to_depth(body, o, R, levels)
    pieces = pieces_from_decompositions(body, o, R, decs)
    diams = [piece_diameter(p, 64) for p in pieces]
    mult = multiplicity_probe(pieces, r, args.trials, args.seed)

    evens, adm_ok = _odd_and_admissible(decs)
    odd_ok = evens == 0
    bound = 10.0 * R + arc_tolerance(R)
    ok = max(diams) <= bound and mult.max_count <= 3 and odd_ok and adm_ok

    path = _write_report(args, "cover_audit.json", {
        "R": R, "r": r, "levels": levels, "trials": int(args.trials),
        "center": [float(v) for v in o],
    }, {
        "levels": [
            {
                "index": dec.level.index,
                "radius": dec.level.radius,
                "marker_count": len(dec.markers),
                "angles": [mk.angle for mk in dec.markers],
                "kinds": "".join(mk.kind for mk in dec.markers),
            }
            for dec in decs
        ],
        "odd_counts_ok": odd_ok,
        "admissible_ok": adm_ok,
        "pieces": [
            {
                "level": p.level,
                "ordinal": p.ordinal,
                "theta_start": p.theta_start,
                "width": p.width,
                "r_inner": p.r_inner,
                "r_outer": p.r_outer,
                "diameter": d,
            }
            for p, d in zip(pieces, diams)
        ],
        "max_diameter": max(diams),
        "diameter_bound": bound,
        "multiplicity": mult.to_dict(),
        "pass": ok,
    })
    with open(os.path.join(args.out, "cover.svg"), "w") as fh:
        fh.write(render_cover(body, pieces))
    print(f"pieces={len(pieces)} max_diameter={max(diams):.6f} bound={bound:.6f}")
    print(f"multiplicity max={mult.max_count} odd_counts={odd_ok} admissible={adm_ok}")
    print(path)
    if not ok:
        print("cover audit FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    body = load_body(args.body)
    rows = run_suite(body, args.suite, args.seed, args.samples, args.tol)
    base = f"verify_{args.suite}"
    _write_report(args, base + ".json", {"suite": args.suite}, {"rows": rows})
    _write_csv(
        os.path.join(args.out, base + ".csv"),
        ["suite", "invariant", "passed", "defect", "tolerance", "samples", "note"],
        [[r["suite"], r["name"], r["passed"], r["defect"], r["tolerance"],
          r["samples"], r["note"]] for r in rows],
    )
    for r in rows:
        state = "PASS" if r["passed"] else "FAIL"
        print(f"{state} {r['suite']}/{r['name']} defect={r['defect']:.3e} "
              f"tol={r['tolerance']:.3e} samples={r['samples']}")
    if not all(r["passed"] for r in rows):
        return 3
    return 0


def cmd_probe_corona(args) -> int:
    body = load_body(args.body)
    rep = corona_probe(body, body.interior_seed(), args.delta, args.C,
                       args.radii, args.samples, args.seed)
    _write_report(args, "corona_probe.json",
                  {"delta": args.delta, "C": args.C, "radii": list(args.radii)},
                  {"probe": rep.to_dict()})
    _write_csv(
        os.path.join(args.out, "corona_probe.csv"),
        ["radius", "sup_euclidean_gap", "samples", "C", "seed"],
        [[row["radius"], row["sup_euclidean_gap"], rep.samples, rep.C, rep.seed]
         for row in rep.rows()],
    )
    for row in rep.rows():
        print(f"radius={row['radius']:g} sup_gap={row['sup_euclidean_gap']:.6e}")
    return 0


def cmd_packing(args) -> int:
    body = load_body(args.body)
    o = np.asarray(args.center, dtype=float) if args.center else body.interior_seed()
    rep = greedy_packing(body, o, args.R, args.eps, args.trials, args.seed)
    _write_report(args, "packing.json",
                  {"R": args.R, "eps": args.eps, "trials": int(args.trials)},
                  {"packing": rep.to_dict()})
    if body.dimension == 2:  # the outline, and so the figure, is planar
        with open(os.path.join(args.out, "packing.svg"), "w") as fh:
            fh.write(render_packing(body, rep.points, o))
    print(f"count={rep.count} bound={rep.bound:.6g}")
    if rep.count > rep.bound:
        print("packing bound VIOLATED", file=sys.stderr)
        return 3
    return 0


# -- entry -------------------------------------------------------------------


def _setup_logging() -> None:
    name = os.environ.get("HILBERT_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    # rebind on every entry so repeated in-process calls pick up the
    # current stderr and env var, not the ones from the first call
    root = logging.getLogger("hilbertgeom")
    root.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except GeometryError as e:
        print(f"precondition violated: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
