"""The package surface: its exports and the README's library sketch."""

import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertgeom

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# one-row wrappers that the batched primitives replaced
RETIRED = {
    "metric": ("geodesic_defect", "concurrency_defect", "ConcurrencyReport",
               "MODE_CONCURRENT", "MODE_PARALLEL"),
    "errors": ("CollinearInput",),
    "cover": ("project_between_levels",),
    "coarse": ("contract",),
    "svgout": ("render_body",),
}
# methods that became data or folded into their one caller
RETIRED_METHODS = {
    ("cover", "CoverPiece"): ("sample_rays",),
    ("cover", "SphereLevel"): ("field",),
}


def test_exports_resolve_sorted_and_without_retired_names():
    names = hilbertgeom.__all__
    assert [n for n in names if not hasattr(hilbertgeom, n)] == []
    assert names == sorted(set(names))
    for module, retired in RETIRED.items():
        mod = importlib.import_module(f"hilbertgeom.{module}")
        for name in retired:
            assert name not in names and not hasattr(hilbertgeom, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
    for (module, cls), retired in RETIRED_METHODS.items():
        owner = getattr(importlib.import_module(f"hilbertgeom.{module}"), cls)
        for name in retired:
            assert not callable(getattr(owner, name, None)), f"{module}.{cls}.{name}"


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", text, re.S).group(1)
    ns: dict = {}
    exec(sketch, ns)
    assert ns["distance"](ns["disk"], (0, 0), (0.5, 0)) == pytest.approx(math.log(3.0), abs=1e-15)
    probe = ns["multiplicity_probe"](ns["pieces"], r=0.2, trials=5000, seed=0)
    assert probe.max_count <= 3


def test_importing_and_loading_every_body_kind_leaves_scipy_out():
    # scipy is the test extra's LP reference; the package must not import it
    script = """
import sys
import hilbertgeom
for spec in (
    {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]},
    {"type": "disk", "center": [0, 0], "radius": 1.0},
    {"type": "ellipse", "center": [0, 0], "semi_axes": [2.0, 1.0], "rotation_rad": 0.3},
    {"type": "polytope", "halfspaces": [{"normal": [1, 0, 0], "offset": 1},
                                        {"normal": [0, 1, 0], "offset": 1},
                                        {"normal": [0, 0, 1], "offset": 1},
                                        {"normal": [-1, -1, -1], "offset": 1}]},
):
    hilbertgeom.validate_body(spec)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    assert res.stdout.strip() == "[]"
