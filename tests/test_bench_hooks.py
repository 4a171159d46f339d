"""The traced benchmark pass can still hook every function it requires.

``perfbench/tracer.py`` wraps public layer functions (and a few methods,
such as ``SphereField.exits``) by name at run time, and
``perfbench/perlayer.py`` lists the spans each workload must record.  A
simplification that deletes or renames one of them would only show up as
a failed benchmark run; this catches it in the test suite, as does a
batched path that stops calling one of the names on the way.  The install
patches ``hilbertgeom`` globally, so each check runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import perlayer, tracer
t = tracer.Tracer()
t.install()
need = sorted({n for names in perlayer.REQUIRED_CALLS.values() for n in names})
print(json.dumps({"need": need, "missing": [n for n in need if n not in t.names]}))
"""

# A small cover pipeline; every cover-deep name except the SVG renderer
# must record calls on it.
COVER_RUN = """
import json
import numpy as np
import perlayer, tracer
t = tracer.Tracer()
t.install()
from hilbertgeom import Disk, cover
body, o = Disk((0.0, 0.0), 1.0), np.zeros(2)
t.enabled = True
decs = cover.refine_to_depth(body, o, 1.0, 3)
pieces = cover.pieces_from_decompositions(body, o, 1.0, decs)
cover.piece_diameter(pieces[1], 64)
cover.multiplicity_probe(pieces, 0.2, 200, 0)
t.enabled = False
table = tracer.SpanTable(t)
need = [n for n in perlayer.REQUIRED_CALLS["cover-deep"] if n != "svgout.render_cover"]
print(json.dumps({"need": need, "uncalled": [n for n in need if table.calls(n) == 0]}))
"""

# Level 1 and two refinements, traced: level 1 is a lift too, and building it
# must record no ``refine_level`` span, or markers and ``cover.refine.s``
# would count it twice.
LIFT_RUN = """
import json
import numpy as np
import tracer
t = tracer.Tracer()
t.install()
from hilbertgeom import Disk, cover
body, o = Disk((0.0, 0.0), 1.0), np.zeros(2)
t.enabled = True
decs = [cover.initial_decomposition(body, o, 1.0)]
for _ in range(2):
    decs.append(cover.refine_level(decs[-1], 1.0))
t.enabled = False
table = tracer.SpanTable(t)
nested = table.mask("cover.refine_level") & table.under("cover.initial_decomposition")
print(json.dumps({"traced": {str(k): v for k, v in sorted(t.markers.items())},
                  "made": {str(d.level.index): len(d.markers) for d in decs},
                  "refine_calls": table.calls("cover.refine_level"),
                  "nested": int(nested.sum())}))
"""

# Every suite at a small sample count on three bench bodies, plus the
# coarse and corona suites the benchmark times on the halfspace square;
# every verify-suites name must record calls on it.
VERIFY_RUN = """
import io, json, sys, tempfile
from contextlib import redirect_stdout
import perlayer, tracer
t = tracer.Tracer()
t.install()
from hilbertgeom import cli
runs = [(b, "all") for b in ("disk", "ellipse", "square")] + [
    ("square_halfspaces", "coarse"), ("square_halfspaces", "corona")]
codes = []
t.enabled = True
with tempfile.TemporaryDirectory() as out, redirect_stdout(io.StringIO()):
    for b, suite in runs:
        codes.append(cli.main(["verify", "--body", f"perfbench/bodies/{b}.json", "--suite", suite,
                               "--samples", "20", "--out", out]))
t.enabled = False
table = tracer.SpanTable(t)
need = perlayer.REQUIRED_CALLS["verify-suites"]
print(json.dumps({"codes": codes, "need": need,
                  "uncalled": [n for n in need if table.calls(n) == 0]}))
"""

# Small calls of every batch-kernels operation on the bench bodies, with
# the corona probe on the planar ones only (it draws planar directions);
# every batch-kernels name must record calls on it.
KERNEL_RUN = """
import json
import numpy as np
import perlayer, tracer
t = tracer.Tracer()
t.install()
import hilbertgeom as hg
t.enabled = True
for k, b in enumerate(("disk", "ellipse", "square", "gon64", "square_halfspaces",
                       "cube_halfspaces", "ellipsoid3")):
    body = hg.load_body(f"perfbench/bodies/{b}.json")
    o = body.interior_seed()
    rng = np.random.default_rng(k)
    X, Y = hg.sample_interior(body, 200, rng), hg.sample_interior(body, 200, rng)
    hg.distance_pairs(body, X, Y)
    hg.greedy_packing(body, o, 2.0, 0.25, 500, 0)
    hg.verify_contraction(body, o, 2.0, o, 1.0, 500, 0)
    if body.dimension == 2:
        hg.corona_probe(body, o, 0.05, 1.0, (2.0, 4.0), 500, 0)
t.enabled = False
table = tracer.SpanTable(t)
need = perlayer.REQUIRED_CALLS["batch-kernels"]
print(json.dumps({"need": need, "uncalled": [n for n in need if table.calls(n) == 0]}))
"""


def _run(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracer_registers_every_required_call():
    got = _run(PROBE)
    assert "cover.SphereField.exits" in got["need"]
    assert "metric.sphere_points" in got["need"]
    assert got["missing"] == []


def test_cover_pipeline_calls_every_traced_name():
    got = _run(COVER_RUN)
    assert "cover.first_marker" in got["need"]
    assert "cover.SphereField.exits" in got["need"]
    assert got["uncalled"] == []


def test_level_one_records_no_refine_level_span():
    got = _run(LIFT_RUN)
    assert got["traced"] == got["made"] and sorted(got["made"]) == ["1", "2", "3"]
    assert got["refine_calls"] == 2
    assert got["nested"] == 0


def test_verify_suites_call_every_traced_name():
    got = _run(VERIFY_RUN)
    assert got["codes"] == [0, 0, 0, 0, 0]
    for name in ("cli.concurrency_scatter_defect", "metric.distance",
                 "bodies.chord_through", "metric.ray_spec"):
        assert name in got["need"]
    assert got["uncalled"] == []


def test_batch_kernels_call_every_traced_name():
    got = _run(KERNEL_RUN)
    for name in ("bodies.ray_exit.polygon", "bodies.ray_exit.polytope",
                 "bodies.construct.polytope", "metric.distance_pairs"):
        assert name in got["need"]
    assert got["uncalled"] == []
