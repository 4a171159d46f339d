"""The traced benchmark pass can still hook every function it requires.

``perfbench/tracer.py`` wraps public layer functions (and a few methods,
such as ``SphereField.exits``) by name at run time, and
``perfbench/perlayer.py`` lists the spans each workload must record.  A
simplification that deletes or renames one of them would only show up as
a failed benchmark run; this catches it in the test suite.  The install
patches ``hilbertgeom`` globally, so it runs in a subprocess.
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


def test_tracer_registers_every_required_call():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    assert "cover.SphereField.exits" in got["need"]
    assert "metric.sphere_points" in got["need"]
    assert got["missing"] == []
