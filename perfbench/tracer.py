"""Span recorder for the traced benchmark run, installed from outside polyakit.

Every public function of a layer module is replaced by a wrapper that records
one span per call: (name, start, end, parent, request).  Module functions are
rebound in every polyakit module that imported them by name, so cross-module
calls (``sampler.make_tree``, ``asymptotics.polya_int_table``, ...) are traced
too; the named series methods are patched on their classes.  A span's self
time is its duration minus the time its direct child spans cover; spans nest
strictly because the program is single-threaded, so self time is settled when
the span closes.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from time import perf_counter

LAYERS = ("series", "families", "oracle", "asymptotics", "sampler", "verify",
          "cli")

# The series layer is a set of value classes; their arithmetic methods are its
# public functions.  Accessors (``__getitem__``, ``coefficient``, ``row``) are
# left out: they are called per coefficient and do no work of their own.
SERIES_METHODS = {
    "RationalSeries": ("from_coeffs", "zero", "one", "identity", "truncate",
                       "__add__", "__sub__", "__neg__", "scale", "__mul__",
                       "shift", "stretch", "reciprocal", "divide", "exp",
                       "compose", "reversion", "derivative", "eval_float",
                       "eval_fraction"),
    "UPoly": ("from_coeffs", "__add__", "__sub__", "__mul__", "scale",
              "shift_marker", "eval", "derivative"),
    "BivariateSeries": ("row_sum", "marked_mean_series", "at_marker_one",
                        "exp"),
}


def _span_name(layer: str, qualname: str) -> str:
    # RationalSeries.__mul__ is reported as RationalSeries.mul
    return f"{layer}.{qualname.replace('.__', '.').rstrip('_')}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.request = -1
        self._open: list[int] = []        # span index of each open span
        self._child: list[float] = []     # child time covered, per open span
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, raised]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0]
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span, such as a module import."""
        nid = self._name_id(name)
        self.spans.append((nid, start, end, -1, self.request))
        st = self.stats[name]
        st[0] += 1
        st[1] += end - start

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        st = self.stats[name]
        spans, open_, child = self.spans, self._open, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            child.append(0.0)
            raised = 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = perf_counter()
                open_.pop()
                covered = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                spans[idx] = (nid, start, end, parent, self.request)
                st[0] += 1
                st[1] += duration - covered
                st[2] += raised

        return traced

    def install(self) -> None:
        """Patch every layer's public functions and the series methods."""
        modules = [m for name, m in sys.modules.items()
                   if name == "polyakit" or name.startswith("polyakit.")]
        for layer in LAYERS:
            module = importlib.import_module(f"polyakit.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped = self.wrap(_span_name(layer, attr), obj)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, name, wrapped)
        series = importlib.import_module("polyakit.series")
        for cls_name, methods in SERIES_METHODS.items():
            cls = getattr(series, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = _span_name("series", f"{cls_name}.{meth}")
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))

    def layer_totals(self) -> dict[str, list]:
        """[calls, self_s, raised] per layer; import spans add self time only."""
        totals = {layer: [0, 0.0, 0] for layer in LAYERS}
        for name, (calls, self_s, raised) in self.stats.items():
            layer, rest = name.split(".", 1)
            t = totals[layer]
            if rest != "import":
                t[0] += calls
            t[1] += self_s
            t[2] += raised
        return totals

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: a name table, then one line per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# names: " + ",".join(self.names) + "\n")
            fh.write("name,start,end,parent,request\n")
            for span in self.spans:
                if span is not None:
                    fh.write("%d,%.9f,%.9f,%d,%d\n" % span)
