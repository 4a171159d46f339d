"""Per-layer metrics of a traced run, and the calls each workload must make.

``METRICS`` is the list ``BENCHMARK.json`` declares under ``per_layer``;
``compute`` fills every one of them on every workload (a layer a workload
does not reach reads 0).
"""

from __future__ import annotations

from tracer import SpanTable, Tracer

KINDS = ("disk", "ellipsoid", "polygon", "polytope")
SUITES = ("metric", "coarse", "corona", "asdim")
CLI_FNS = ("ray_monotonicity_defect", "concurrency_scatter_defect",
           "coray_projection_defect", "footprint_defect")
LEVELS = 8

_UNIT = {"calls": "count", "rows": "rows", "self_s": "s", "s": "s", "points": "count",
         "draws": "count", "attempts": "count", "accepted": "count", "trials": "count",
         "accept_frac": "ratio", "hit_frac": "ratio", "bisect_steps": "count",
         "distance_rows": "rows", "overhead_frac": "ratio", "unattributed_frac": "ratio"}
_HIGHER = {"accept_frac", "hit_frac"}


def _names() -> list[str]:
    out = []
    for meth in ("ray_exit", "signed_gap"):
        for kind in KINDS:
            out += [f"bodies.{meth}.{kind}.{f}" for f in ("calls", "rows", "self_s")]
    out += ["bodies.ray_exit.polytope.bisect_steps",
            "bodies.classify.calls", "bodies.classify.self_s",
            "bodies.chord_through.calls", "bodies.chord_through.self_s",
            "bodies.construct.polytope.s"]
    out += ["metric.distance.calls", "metric.distance.self_s",
            "metric.distance_pairs.calls", "metric.distance_pairs.rows",
            "metric.distance_pairs.self_s",
            "metric.ray_spec.calls", "metric.ray_spec.self_s",
            "metric.sphere_points.calls", "metric.sphere_points.rows",
            "metric.sphere_points.self_s",
            "metric.projective_transfer_defect.calls",
            "metric.projective_transfer_defect.self_s"]
    out += [f"sampling.sample_interior.{f}"
            for f in ("calls", "points", "draws", "self_s", "accept_frac")]
    out += [f"sampling.ball_candidates.{f}"
            for f in ("calls", "attempts", "accepted", "self_s", "accept_frac")]
    out += ["sampling.sample_ball.calls", "sampling.sample_ball.points"]
    out += ["coarse.verify_contraction.calls", "coarse.verify_contraction.s",
            "coarse.greedy_packing.calls", "coarse.greedy_packing.s",
            "coarse.greedy_packing.distance_rows",
            "coarse.corona_probe.calls", "coarse.corona_probe.s"]
    out += ["cover.refine.s", "cover.first_marker.calls", "cover.first_marker.self_s",
            "cover.decompose_arc.calls", "cover.SphereField.exits.calls",
            "cover.SphereField.exits.rows", "cover.sphere_cache.hit_frac",
            "cover.piece_diameter.calls", "cover.piece_diameter.s",
            "cover.multiplicity_probe.s", "cover.multiplicity_probe.trials"]
    out += [f"cover.markers.L{i}" for i in range(1, LEVELS + 1)] + ["cover.markers.total"]
    out += [f"cli.verify.{s}.s" for s in SUITES]
    for fn in CLI_FNS:
        out += [f"cli.{fn}.calls", f"cli.{fn}.self_s"]
    out += ["svgout.render_cover.s",
            "trace.overhead_frac", "trace.unattributed_frac"]
    return out


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return _UNIT.get(last, "count")


METRICS = [{"name": n, "unit": _unit(n),
            "better": "higher" if n.rsplit(".", 1)[1] in _HIGHER else "lower"}
           for n in _names()]


# Span names whose call count must be nonzero on a workload's traced pass.
_ORACLES = [f"bodies.{m}.{k}" for m in ("ray_exit", "signed_gap") for k in KINDS]
_COVER = ["cover.first_marker", "cover.decompose_arc", "cover.SphereField.exits",
          "cover.piece_diameter", "cover.multiplicity_probe"]
_SAMPLING = ["sampling.sample_interior", "sampling.ball_candidates", "sampling.sample_ball"]
_COARSE = ["coarse.verify_contraction", "coarse.greedy_packing", "coarse.corona_probe"]
REQUIRED_CALLS = {
    "verify-suites": _ORACLES + _COVER + _SAMPLING + _COARSE + [
        "cover.refine_to_depth", "bodies.classify", "bodies.chord_through",
        "bodies.construct.polytope",
        "metric.distance", "metric.distance_pairs", "metric.ray_spec",
        "metric.sphere_points", "metric.projective_transfer_defect",
    ] + [f"cli.{fn}" for fn in CLI_FNS],
    "cover-deep": _COVER + ["cover.initial_decomposition", "cover.refine_level",
                            "svgout.render_cover"],
    "batch-kernels": _ORACLES + _SAMPLING + _COARSE + [
        "bodies.construct.polytope", "metric.distance_pairs", "metric.sphere_points",
    ],
}


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(t: SpanTable, tracer: Tracer, op_seconds: dict[str, float],
            untraced_s: float, traced_s: float) -> dict[str, float]:
    """Values of every name in METRICS.

    ``op_seconds`` holds untraced per-operation times; ``untraced_s`` and
    ``traced_s`` are the summed operation times of the two passes.
    """
    v: dict[str, float] = {}
    for meth in ("ray_exit", "signed_gap"):
        for kind in KINDS:
            n = f"bodies.{meth}.{kind}"
            v[f"{n}.calls"], v[f"{n}.rows"], v[f"{n}.self_s"] = t.calls(n), t.rows(n), t.self_s(n)
    v["bodies.ray_exit.polytope.bisect_steps"] = int(
        (t.mask("bodies.signed_gap.polytope") & t.under("bodies.ray_exit.polytope")).sum())
    for n in ("bodies.classify", "bodies.chord_through", "metric.distance", "metric.ray_spec",
              "metric.projective_transfer_defect", "cover.first_marker"):
        v[f"{n}.calls"], v[f"{n}.self_s"] = t.calls(n), t.self_s(n)
    v["bodies.construct.polytope.s"] = t.s("bodies.construct.polytope")
    for n in ("metric.distance_pairs", "metric.sphere_points"):
        v[f"{n}.calls"], v[f"{n}.rows"], v[f"{n}.self_s"] = t.calls(n), t.rows(n), t.self_s(n)

    n = "sampling.sample_interior"
    gaps = sum(t.mask(f"bodies.signed_gap.{k}") for k in KINDS).astype(bool)
    draws = int(t.rows_of[gaps & t.under(n)].sum())
    v.update({f"{n}.calls": t.calls(n), f"{n}.points": t.rows(n), f"{n}.draws": draws,
              f"{n}.self_s": t.self_s(n), f"{n}.accept_frac": _frac(t.rows(n), draws)})
    n = "sampling.ball_candidates"
    v.update({f"{n}.calls": t.calls(n), f"{n}.attempts": t.rows(n), f"{n}.accepted": t.outs(n),
              f"{n}.self_s": t.self_s(n), f"{n}.accept_frac": _frac(t.outs(n), t.rows(n))})
    v["sampling.sample_ball.calls"] = t.calls("sampling.sample_ball")
    v["sampling.sample_ball.points"] = t.rows("sampling.sample_ball")

    for n in ("coarse.verify_contraction", "coarse.greedy_packing", "coarse.corona_probe",
              "cover.piece_diameter"):
        v[f"{n}.calls"], v[f"{n}.s"] = t.calls(n), t.s(n)
    dp = t.mask("metric.distance_pairs")
    v["coarse.greedy_packing.distance_rows"] = int(
        t.rows_of[dp & t.under("coarse.greedy_packing")].sum())

    # refine_to_depth calls the other two; count each refinement once
    top = ~t.under("cover.refine_to_depth")
    v["cover.refine.s"] = t.s("cover.refine_to_depth") + sum(
        float(t.dur[t.mask(n) & top].sum())
        for n in ("cover.initial_decomposition", "cover.refine_level"))
    v["cover.decompose_arc.calls"] = t.calls("cover.decompose_arc")
    n = "cover.SphereField.exits"
    v[f"{n}.calls"], v[f"{n}.rows"] = t.calls(n), t.rows(n)
    oracle_rows = sum(int(t.rows_of[t.mask(f"bodies.ray_exit.{k}") & t.child_of(n)].sum())
                      for k in KINDS)
    v["cover.sphere_cache.hit_frac"] = 1.0 - _frac(oracle_rows / 2, t.rows(n)) if t.rows(n) else 0.0
    v["cover.multiplicity_probe.s"] = t.s("cover.multiplicity_probe")
    v["cover.multiplicity_probe.trials"] = t.rows("cover.multiplicity_probe")
    for i in range(1, LEVELS + 1):
        v[f"cover.markers.L{i}"] = tracer.markers.get(i, 0)
    v["cover.markers.total"] = sum(tracer.markers.values())

    for s in SUITES:
        v[f"cli.verify.{s}.s"] = sum(sec for op, sec in op_seconds.items()
                                     if op.startswith("verify.") and op.endswith(f".{s}"))
    for fn in CLI_FNS:
        v[f"cli.{fn}.calls"], v[f"cli.{fn}.self_s"] = t.calls(f"cli.{fn}"), t.self_s(f"cli.{fn}")
    v["svgout.render_cover.s"] = t.s("svgout.render_cover")
    v["trace.overhead_frac"] = _frac(traced_s, untraced_s) - 1.0
    v["trace.unattributed_frac"] = 1.0 - _frac(t.root_s, traced_s)
    return v
