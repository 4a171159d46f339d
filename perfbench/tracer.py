"""Runtime span tracer for hilbertgeom, installed from outside the package.

``Tracer.install()`` replaces, at run time, every public function of the
seven layer modules and the boundary-oracle methods of each body class with
a wrapper that records one span per call: name, start, end, parent span and
a row count.  Module-level functions are replaced in every ``hilbertgeom``
namespace that holds a reference to them, because ``cli``, ``cover``,
``coarse`` and ``sampling`` each import their own names (for example
``distance_pairs``); patching only the defining module would miss those
calls without any error.

Spans are kept in flat in-memory arrays while the run lasts and are turned
into per-layer metrics (calls, rows, self time) at the end.  Nothing under
``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("bodies", "metric", "sampling", "coarse", "cover", "cli", "svgout")

# Argument-coercion and number-formatting helpers: called for every point or
# printed coordinate, so a span each would cost more than the work it wraps.
# Their time stays in the self time of the caller.
UNTRACED = {"as_point", "as_direction", "fmt6"}


def _nrows(a) -> int:
    return 1 if np.ndim(a) < 2 else len(a)


def _arg(i: int, key: str, default=None):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs.get(key, default)
    return get


# Row counts recorded with a call: name -> f(args, kwargs).  Methods see self
# as args[0].
ROWS = {
    "metric.distance_pairs": lambda a, k: _nrows(_arg(1, "X")(a, k)),
    "metric.sphere_points": lambda a, k: np.size(_arg(2, "thetas")(a, k)),
    "cover.SphereField.exits": lambda a, k: np.size(_arg(1, "thetas")(a, k)),
    "sampling.sample_interior": lambda a, k: int(_arg(1, "n")(a, k)),
    "sampling.sample_ball": lambda a, k: int(_arg(3, "n")(a, k)),
    "sampling.ball_candidates": lambda a, k: int(_arg(3, "attempts")(a, k)),
    "cover.multiplicity_probe": lambda a, k: int(_arg(2, "trials")(a, k)),
}
for _kind in ("disk", "ellipsoid", "polygon", "polytope"):
    for _meth in ("ray_exit", "signed_gap"):
        ROWS[f"bodies.{_meth}.{_kind}"] = lambda a, k: _nrows(a[1])

# Output counts recorded from a call's result: name -> f(result).
OUTS = {
    "sampling.ball_candidates": len,
}


def replace_everywhere(replaced: dict) -> None:
    """Rebind every hilbertgeom module attribute that is a key of ``replaced``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "hilbertgeom" and not mod_name.startswith("hilbertgeom."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])


class CallTimer:
    """Rows and seconds inside ``metric.distance_pairs``, for untraced runs.

    Two clock reads per call, no spans: the one measurement the end-to-end
    ``dist_pairs_per_s`` needs.
    """

    def __init__(self):
        self.rows = 0
        self.seconds = 0.0

    def install(self) -> None:
        from hilbertgeom import metric

        fn = metric.distance_pairs
        timer = self

        @functools.wraps(fn)
        def timed(body, X, Y):
            t0 = perf_counter()
            try:
                return fn(body, X, Y)
            finally:
                timer.seconds += perf_counter() - t0
                timer.rows += _nrows(X)

        replace_everywhere({fn: timed})

    def take(self) -> tuple[int, float]:
        """Rows and seconds since the last call."""
        out = (self.rows, self.seconds)
        self.rows, self.seconds = 0, 0.0
        return out


class Tracer:
    """Span recorder; ``enabled`` gates recording so harness checks stay out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.out = array("q")
        self._stack = [-1]
        self.enabled = False
        # decompositions made: sphere level index -> markers, summed
        self.markers: dict[int, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        rows = ROWS.get(name)
        out = OUTS.get(name)
        markers = name in ("cover.initial_decomposition", "cover.refine_level")
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.rows.append(rows(args, kwargs) if rows else 0)
            tr.out.append(0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr.start[idx] = t0
                tr._stack.pop()
            if out:
                tr.out[idx] = out(result)
            if markers:
                lvl = result.level.index
                tr.markers[lvl] = tr.markers.get(lvl, 0) + len(result.markers)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function and the body oracle methods."""
        from hilbertgeom import bodies, cover

        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hilbertgeom.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
        replace_everywhere(replaced)

        for cls in (bodies.Polygon, bodies.Disk, bodies.Ellipsoid, bodies.HalfspacePolytope):
            for meth in ("ray_exit", "signed_gap"):
                setattr(cls, meth, self.wrap(f"bodies.{meth}.{cls.kind}", vars(cls)[meth]))
        poly = bodies.HalfspacePolytope
        poly.__init__ = self.wrap("bodies.construct.polytope", vars(poly)["__init__"])
        cover.SphereField.exits = self.wrap("cover.SphereField.exits", vars(cover.SphereField)["exits"])

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "out": np.frombuffer(self.out, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


class SpanTable:
    """Per-name aggregates over a finished trace."""

    def __init__(self, tracer: Tracer, since: int = 0):
        """``since``: first span index counted in ``root_s``."""
        s = tracer.spans()
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.nid = s["name_id"]
        self.parent = s["parent"]
        self.rows_of = s["rows"]
        self.out_of = s["out"]
        self.dur = s["end"] - s["start"]
        k = len(tracer.names)
        has_parent = self.parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_t = self.dur - child
        self._calls = np.bincount(self.nid, minlength=k)
        self._rows = np.bincount(self.nid, weights=self.rows_of, minlength=k)
        self._out = np.bincount(self.nid, weights=self.out_of, minlength=k)
        self._self = np.bincount(self.nid, weights=self.self_t, minlength=k)
        self._incl = np.bincount(self.nid, weights=self.dur, minlength=k)
        roots = ~has_parent
        roots[:since] = False
        self.root_s = float(self.dur[roots].sum())

    def _get(self, arr, name):
        i = self._ids.get(name)
        return 0 if i is None else arr[i].item()

    def calls(self, name): return int(self._get(self._calls, name))
    def rows(self, name): return int(self._get(self._rows, name))
    def outs(self, name): return int(self._get(self._out, name))
    def self_s(self, name): return float(self._get(self._self, name))
    def s(self, name): return float(self._get(self._incl, name))

    def mask(self, name) -> np.ndarray:
        i = self._ids.get(name, -1)
        return self.nid == i

    def under(self, ancestor: str) -> np.ndarray:
        """Spans with a span called ``ancestor`` somewhere above them."""
        target = self._ids.get(ancestor, -1)
        hit = np.zeros(len(self.nid), dtype=bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            hit[live] |= self.nid[cur[live]] == target
            cur[live] = self.parent[cur[live]]
            live = cur >= 0
        return hit

    def child_of(self, parent_name: str) -> np.ndarray:
        target = self._ids.get(parent_name, -1)
        ok = self.parent >= 0
        out = np.zeros(len(self.nid), dtype=bool)
        out[ok] = self.nid[self.parent[ok]] == target
        return out
