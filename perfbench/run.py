"""Benchmark entry point for hilbertgeom.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload verify-suites --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; on cover-deep their times are
normalised to the speed of a fixed reference kernel (reference.py).
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it starting with ``#`` record the
machine and every operation's time, verdict, digest and counts.  Reports,
spans and a copy of the result go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from time import perf_counter

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The keys of workloads.WORKLOADS, which cannot be imported before the
# thread variables are set and the checkout is verified.
WORKLOAD_NAMES = ("verify-suites", "cover-deep", "batch-kernels")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
# Reference kernel samples before each probe and after the last.
SETUP_REF_SAMPLES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class OpRecord:
    """Every execution of one operation in a run."""

    times: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    dp_rows: list = field(default_factory=list)
    dp_seconds: list = field(default_factory=list)

    def median(self) -> float:
        return statistics.median(self.times)

    def repeats_match(self) -> bool:
        return len({o.digest for o in self.outcomes}) == 1

    def passed(self) -> bool:
        return all(o.status == "ok" for o in self.outcomes)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(loadavg) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "loadavg_at_start": list(loadavg),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def setup_seconds(body_paths: list[str], ref) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another.

    ``ref``, if given, is sampled before each and after the last.
    """
    out = []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_REF_SAMPLES if ref else 0):
            ref.sample()
        res = subprocess.run(
            [sys.executable, os.path.join("perfbench", "setup_probe.py"), *body_paths],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    for _ in range(SETUP_REF_SAMPLES if ref else 0):
        ref.sample()
    return out


def measure(ops, seconds: float, records: dict, tracer=None, timer=None, ref=None) -> float:
    """Execute ops in order, cycling while they fit in ``seconds``.

    One full pass always runs.  After it, the run ends at the first operation
    whose previous time no longer fits before the deadline, so a run
    overshoots ``seconds`` by no more than its first pass does.  ``ref``, a
    ``reference.Reference``, is sampled before every operation.  Returns the
    summed operation time.
    """
    from workloads import error_outcome

    t_start = perf_counter()
    total = 0.0
    for n_pass in itertools.count():
        for op in ops:
            rec = records[op.name]
            if n_pass and perf_counter() - t_start + rec.times[-1] > seconds:
                return total
            gc.collect()
            if ref:
                ref.sample()
            if timer:
                timer.take()
            if tracer:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result, exc = op.run(), None
            except Exception as e:  # an operation that raises is a failed operation
                result, exc = None, e
            dt = perf_counter() - t0
            if tracer:
                tracer.enabled = False
            if timer:
                rows, sec = timer.take()
                rec.dp_rows.append(rows)
                rec.dp_seconds.append(sec)
            first = not rec.outcomes
            rec.outcomes.append(error_outcome(exc) if exc else op.check(result, first))
            rec.times.append(dt)
            total += dt


def report_ops(records: dict) -> tuple[bool, int, int]:
    """Print one line per operation; return (correct, attempted, failed)."""
    correct = True
    attempted = failed = 0
    for name, rec in records.items():
        attempted += len(rec.outcomes)
        failed += sum(o.status != "ok" for o in rec.outcomes)
        last = rec.outcomes[-1]
        print(f"# op {name} runs={len(rec.times)} median_s={rec.median():.4f} "
              f"status={last.status} digest={last.digest[:16]} "
              f"counts={json.dumps(last.counts)} {last.detail}")
        if not rec.passed():
            correct = False
            print(f"# FAILURE {name}: {last.detail}", file=sys.stderr)
        if not rec.repeats_match():
            correct = False
            print(f"# REPEAT MISMATCH {name}: digests "
                  f"{sorted({o.digest[:16] for o in rec.outcomes})}", file=sys.stderr)
    return correct, attempted, failed


def probe_left_out(ops) -> dict:
    """Execute each left-out operation once, untimed; its outcome is reported
    but not counted in ``attempted`` or ``failed``."""
    from workloads import error_outcome

    out = {}
    for op in ops:
        try:
            outcome = op.check(op.run(), True)
        except Exception as e:  # the defects these operations show
            outcome = error_outcome(e)
        print(f"# left-out {op.name} status={outcome.status} {outcome.detail}")
        out[op.name] = {"status": outcome.status, "detail": outcome.detail}
    return out


def untraced_run(wl, ops, left_out, seconds: float) -> tuple[dict, dict]:
    """``left_out`` runs first, and its time comes out of ``seconds``."""
    from reference import Reference
    from tracer import CallTimer
    from workloads import body_path

    setup_ref = Reference() if wl.normalise else None
    setups = setup_seconds([body_path(b) for b in wl.bodies], setup_ref)
    timer = CallTimer()
    timer.install()
    ref = Reference() if wl.normalise else None
    t0 = perf_counter()
    left = probe_left_out(left_out)
    records = {op.name: OpRecord() for op in ops}
    measure(ops, seconds - (perf_counter() - t0), records, timer=timer, ref=ref)
    correct, attempted, failed = report_ops(records)

    setup = statistics.median(setups)
    wall = sum(r.median() for r in records.values())
    dp_rows = sum(statistics.median(r.dp_rows) for r in records.values())
    dp_sec = sum(statistics.median(r.dp_seconds) for r in records.values())
    rate = dp_rows / dp_sec if dp_sec else 0.0
    extra = {"left_out": left, "setup_samples_s": setups, "raw_setup_s": setup,
             "raw_wall_s": wall, "raw_dist_pairs_per_s": rate,
             "op_times_s": {name: r.times for name, r in records.items()}}
    k_setup = k = 1.0
    if wl.normalise:
        # times at the reference speed measured around them
        k_setup, k = setup_ref.factor(), ref.factor()
        extra.update(setup_reference_samples_s=setup_ref.samples,
                     reference_samples_s=ref.samples)
        print(f"# reference samples={len(ref.samples)} "
              f"median_s={statistics.median(ref.samples):.6f} factor={k:.4f} "
              f"setup_factor={k_setup:.4f} raw setup_s={setup:.4f} "
              f"raw wall_s={wall:.4f} raw dist_pairs_per_s={rate:.1f}")
    metrics = {
        "setup_s": (setup * k_setup, "s"),
        "wall_s": (wall * k, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": (sum(r.passed() for r in records.values()) / len(records), "ratio"),
        "dist_pairs_per_s": (rate / k, "pairs/s"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, extra


def traced_run(wl, ops, out_dir: str) -> tuple[dict, dict]:
    import perlayer
    from tracer import SpanTable, Tracer
    from workloads import load_bodies

    records = {op.name: OpRecord() for op in ops}
    untraced_s = measure(ops, 0.0, records)
    op_seconds = {name: rec.times[0] for name, rec in records.items()}

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    load_bodies(wl.bodies)          # body construction, traced
    tracer.enabled = False
    since = len(tracer.start)
    traced_s = measure(ops, 0.0, records, tracer=tracer)
    correct, attempted, failed = report_ops(records)

    table = SpanTable(tracer, since=since)
    values = perlayer.compute(table, tracer, op_seconds, untraced_s, traced_s)
    missing = [n for n in perlayer.REQUIRED_CALLS[wl.name] if table.calls(n) == 0]
    if missing:
        correct = False
        print(f"# TRACE CHECK FAILED: no calls to {missing}", file=sys.stderr)
    tracer.save(os.path.join(out_dir, "spans.npz"))
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in perlayer.METRICS}
    extra = {"spans": len(tracer.start), "required_calls": perlayer.REQUIRED_CALLS[wl.name]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hilbertgeom", "__init__.py")):
        print(f"error: no hilbertgeom package under {src}; "
              "run from the root of a hilbertgeom checkout", file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    # before numpy loads, so OpenBLAS starts one thread; inherited by probes
    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(root)
    sys.path.insert(0, src)

    from workloads import LEFT_OUT, WORKLOADS, load_bodies

    wl = WORKLOADS[args.workload]
    out_dir = os.path.join("perfbench", "out", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    machine = machine_record(loadavg)
    print("# machine " + json.dumps(machine, sort_keys=True))

    bodies = load_bodies(wl.bodies)
    ops = wl.build(args.seed, out_dir, bodies)
    left_out = [op for op in ops if op.name in LEFT_OUT]
    ops = [op for op in ops if op.name not in LEFT_OUT]
    if args.trace:
        result, extra = traced_run(wl, ops, out_dir)
    else:
        result, extra = untraced_run(wl, ops, left_out, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}

    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, **extra, **result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
