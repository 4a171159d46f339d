"""Time a fresh interpreter's set-up: import hilbertgeom, build the bodies.

Usage: python3 perfbench/setup_probe.py BODY.json [BODY.json ...]
Run from the repository root with ``src`` on PYTHONPATH.  Prints the
elapsed seconds.
"""

from time import perf_counter

t0 = perf_counter()

import sys  # noqa: E402

import hilbertgeom  # noqa: E402

for path in sys.argv[1:]:
    hilbertgeom.load_body(path)
print(repr(perf_counter() - t0))
