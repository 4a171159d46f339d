"""The benchmark's three workloads, as lists of timed operations.

An operation's ``run`` is the timed call into hilbertgeom.  Its ``check``
runs untimed afterwards and turns the result into an ``Outcome``: a status,
a digest of everything the call produced, and the deterministic counts the
run must repeat exactly.  Library calls are looked up on the package at call
time, so a tracer installed later sees them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import hilbertgeom as hg
from hilbertgeom import cli, cover, svgout

BODY_DIR = os.path.join("perfbench", "bodies")

OK, ERROR, WRONG = "ok", "error", "wrong"

# Operations that fail at the commit this benchmark was written for, from
# documented defects and limits (NOTES.md, "Left-out operations").  A timed
# run must contain no failing operation, so these run once per run, untimed,
# and their outcomes are reported but not counted:
# - verify asdim on the halfspace square: bisection ray exits put polytope
#   distances up to ~1e-8 off, exit 2 (DistanceMismatch) on every seed;
# - verify metric on the halfspace square: same cause, triangle_inequality
#   above its 1e-9 tolerance, exit 3, on about half of all seeds;
# - packing and contraction on 3-D bodies: metric-ball sampling is planar
#   only (DimensionUnsupported).
# A failure of any other operation makes the run incorrect.
LEFT_OUT = {
    "verify.square_halfspaces.asdim", "verify.square_halfspaces.metric",
    "packing.cube_halfspaces", "contraction.cube_halfspaces",
    "packing.ellipsoid3", "contraction.ellipsoid3",
}


@dataclass
class Outcome:
    """``error``: the call raised or exited nonzero without a verdict.
    ``wrong``: it returned a result that failed its check."""

    status: str
    digest: str
    detail: str = ""
    counts: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # check(result, first): ``first`` is True on an operation's first
    # execution in the run, which gets the expensive reference checks; later
    # executions must reproduce its digest.
    check: Callable[[Any, bool], Outcome]


def error_outcome(exc: BaseException) -> Outcome:
    detail = f"{type(exc).__name__}: {exc}"
    return Outcome(ERROR, _sha(detail.encode()), detail)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def body_path(name: str) -> str:
    return os.path.join(BODY_DIR, f"{name}.json")


# -- CLI operations ----------------------------------------------------------


def _cli_op(name: str, argv: list[str], out_dir: str, reports: list[str],
            verdict: Callable[[int, dict], tuple[bool, str, dict]]) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv + ["--out", out_dir])
        return rc, err.getvalue().strip()

    def check(result, first):
        rc, err = result
        if rc not in (0, 3):
            detail = f"exit {rc}: {err.splitlines()[-1] if err else ''}"
            shutil.rmtree(out_dir, ignore_errors=True)
            return Outcome(ERROR, _sha(detail.encode()), detail)
        blobs = []
        for f in reports:
            with open(os.path.join(out_dir, f), "rb") as fh:
                blobs.append(fh.read())
        shutil.rmtree(out_dir, ignore_errors=True)
        ok, detail, counts = verdict(rc, json.loads(blobs[0]))
        return Outcome(OK if ok else WRONG, _sha(*blobs), detail, counts)

    return Op(name, run, check)


def _verify_verdict(rc, report):
    failing = [r["name"] for r in report["rows"] if not r["passed"]]
    ok = rc == 0 and not failing
    return ok, f"exit {rc}" + (f", failing rows {failing}" if failing else ""), {}


VERIFY_BODIES = ("disk", "ellipse", "square", "heptagon", "square_halfspaces")
SUITES = ("metric", "coarse", "corona", "asdim")


def verify_suites(seed: int, out_dir: str, bodies: dict) -> list[Op]:
    return [
        _cli_op(f"verify.{b}.{s}",
                ["verify", "--body", body_path(b), "--suite", s, "--samples", "200",
                 "--seed", str(seed)],
                os.path.join(out_dir, f"verify-{b}-{s}"),
                [f"verify_{s}.json", f"verify_{s}.csv"], _verify_verdict)
        for b in VERIFY_BODIES for s in SUITES
    ]


COVER_BODIES = ("disk", "square")
# The parameters of `cover --R 1 --r 0.2 --levels 8 --trials 5000`.
COVER_R, COVER_r, COVER_LEVELS, COVER_TRIALS = 1.0, 0.2, 8, 5000
# The probe's trials run in this many calls of COVER_TRIALS / PROBE_CALLS.
PROBE_CALLS = 5


def _cover_ops(b: str, body, seed: int) -> list[Op]:
    """The stages of the `cover` command on one body, one operation each.

    Level k's operation refines the decomposition the level k-1 operation
    made in the same pass.  The checks are the command's audit: odd arc
    counts, admissibility over the level below, piece diameter within
    10R + arc_tolerance(R), multiplicity at most 3.
    """
    state = {}
    o = body.interior_seed()

    def dec_outcome(dec, ok, what):
        digest = _sha(dec.angles().tobytes(), "".join(mk.kind for mk in dec.markers).encode())
        return Outcome(OK if ok else WRONG, digest, "" if ok else what,
                       {"markers": len(dec.markers)})

    def first_level():
        return cover.initial_decomposition(body, o, COVER_R)

    def check_first(dec, first):
        state["decs"] = [dec]
        c1, c2 = cover.initial_half_counts(dec)
        return dec_outcome(dec, c1 % 2 == 1 and c2 % 2 == 1, f"half counts {c1}, {c2}")

    def next_level():
        return cover.refine_level(state["decs"][-1], COVER_R)

    def check_next(dec, first):
        lower = state["decs"][-1]
        state["decs"].append(dec)
        counts = cover.refinement_arc_counts(dec, lower)
        ok = cover.is_admissible_over(dec, lower) and all(c % 2 == 1 for c in counts)
        return dec_outcome(dec, ok, "not admissible or an even arc count")

    def pieces():
        ps = cover.pieces_from_decompositions(body, o, COVER_R, state["decs"])
        return ps, [cover.piece_diameter(p, 64) for p in ps]

    def check_pieces(res, first):
        ps, diams = res
        state["pieces"] = ps
        bound = 10.0 * COVER_R + cover.arc_tolerance(COVER_R)
        ok = max(diams) <= bound
        return Outcome(OK if ok else WRONG, _sha(np.array(diams).tobytes()),
                       f"max_diameter={max(diams):.6f} bound={bound:.6f}",
                       {"pieces": len(ps)})

    def probe(j):
        return lambda: cover.multiplicity_probe(state["pieces"], COVER_r,
                                             COVER_TRIALS // PROBE_CALLS,
                                             seed * PROBE_CALLS + j)

    def check_probe(rep, first):
        ok = rep.max_count <= 3
        return Outcome(OK if ok else WRONG, _sha(repr(rep.to_dict()).encode()),
                       f"max_count={rep.max_count}")

    def render():
        return svgout.render_cover(body, state["pieces"])

    def check_render(svg, first):
        ok = svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        return Outcome(OK if ok else WRONG, _sha(svg.encode()), "" if ok else "malformed svg")

    return (
        [Op(f"cover.{b}.L1", first_level, check_first)]
        + [Op(f"cover.{b}.L{k}", next_level, check_next) for k in range(2, COVER_LEVELS + 1)]
        + [Op(f"cover.{b}.pieces", pieces, check_pieces)]
        + [Op(f"cover.{b}.probe{j}", probe(j), check_probe) for j in range(PROBE_CALLS)]
        + [Op(f"cover.{b}.svg", render, check_render)]
    )


def cover_deep(seed: int, out_dir: str, bodies: dict) -> list[Op]:
    return [op for b in COVER_BODIES for op in _cover_ops(b, bodies[b], seed)]


# -- library kernels ---------------------------------------------------------

KERNEL_BODIES = ("disk", "ellipse", "square", "gon64", "square_halfspaces",
                 "cube_halfspaces", "ellipsoid3")
N_PAIRS = 100_000
N_SCALAR = 1_000
DIST_TOL = 1e-9
CORONA_RADII = (2.0, 4.0, 8.0, 16.0)


def _kernel_ops(b: str, k: int, body, seed: int) -> list[Op]:
    state = {}
    o = body.interior_seed()

    def sample():
        rng = np.random.default_rng([seed, k])
        return hg.sample_interior(body, N_PAIRS, rng), hg.sample_interior(body, N_PAIRS, rng)

    def check_sample(res, first):
        X, Y = res
        state["X"], state["Y"] = X, Y
        inside = all(P.shape == (N_PAIRS, body.dimension) and np.all(body.signed_gap(P) < 0.0)
                     for P in (X, Y))
        return Outcome(OK if inside else WRONG, _sha(X.tobytes(), Y.tobytes()),
                       "" if inside else "sample outside the body")

    def dist():
        X, Y = state["X"], state["Y"]
        return hg.distance_pairs(body, X, Y), hg.distance_pairs(body, Y, X)

    def check_dist(res, first):
        d, back = res
        problems = []
        if not (np.all(np.isfinite(d)) and np.all(d >= 0.0)):
            problems.append("non-finite or negative distance")
        if not np.array_equal(d, back):
            problems.append("not bit-exactly symmetric")
        if first:
            X, Y = state["X"], state["Y"]
            ref = np.array([hg.distance(body, X[i], Y[i]) for i in range(N_SCALAR)])
            err = float(np.max(np.abs(ref - d[:N_SCALAR])))
            if not err <= DIST_TOL:
                problems.append(f"scalar mismatch {err:.3e}")
        return Outcome(WRONG if problems else OK, _sha(d.tobytes()), "; ".join(problems))

    def packing():
        return hg.greedy_packing(body, o, 2.0, 0.25, 20_000, seed)

    def check_packing(rep, first):
        ok = rep.count <= rep.bound
        return Outcome(OK if ok else WRONG, _sha(rep.points.tobytes()),
                       f"count={rep.count} bound={rep.bound:.3f}", {"packing": rep.count})

    def contraction():
        return hg.verify_contraction(body, o, 2.0, o, 1.0, 20_000, seed)

    def check_contraction(rep, first):
        ok = rep.max_violation <= DIST_TOL
        return Outcome(OK if ok else WRONG, _sha(repr(rep.to_dict()).encode()),
                       f"max_violation={rep.max_violation:.3e}")

    def corona():
        return hg.corona_probe(body, o, 0.05, 1.0, CORONA_RADII, 20_000, seed)

    def check_corona(rep, first):
        gaps = np.array(rep.sup_euclidean_gap)
        ok = bool(np.all(np.isfinite(gaps)) and np.all(gaps >= 0.0))
        # the corona suite's verdict: on a strictly convex boundary the gap
        # at the last radius is below 0.1
        if hg.is_strictly_convex(body):
            ok = ok and gaps[-1] <= 0.1
        return Outcome(OK if ok else WRONG, _sha(gaps.tobytes()),
                       "gaps " + ", ".join(f"{g:.3e}" for g in gaps))

    ops = [
        Op(f"sample.{b}", sample, check_sample),
        Op(f"distance_pairs.{b}", dist, check_dist),
        Op(f"packing.{b}", packing, check_packing),
        Op(f"contraction.{b}", contraction, check_contraction),
    ]
    if body.dimension == 2:
        ops.append(Op(f"corona.{b}", corona, check_corona))
    return ops


def batch_kernels(seed: int, out_dir: str, bodies: dict) -> list[Op]:
    ops = []
    for k, b in enumerate(KERNEL_BODIES):
        ops += _kernel_ops(b, k, bodies[b], seed)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    bodies: tuple[str, ...]
    build: Callable[[int, str, dict], list[Op]]
    # Report times at the reference kernel's speed (reference.py).  Only
    # cover-deep's operation times follow the kernel's drift closely enough
    # for this to steady them (NOTES.md).
    normalise: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-suites", VERIFY_BODIES, verify_suites, normalise=False),
        Workload("cover-deep", COVER_BODIES, cover_deep, normalise=True),
        Workload("batch-kernels", KERNEL_BODIES, batch_kernels, normalise=False),
    )
}


def load_bodies(names) -> dict:
    return {b: hg.load_body(body_path(b)) for b in names}
