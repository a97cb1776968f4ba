"""Span tracer for the ddisc layers, installed from outside the package.

``Tracer.install`` wraps every public module-level function defined in a
traced layer module and rebinds the wrapper wherever the original function
object is bound under ``ddisc``: callers import with ``from .x import f``,
so ``find_isomorphism`` lives in ``presentation``, ``classify`` and the
package namespace at once.  ``uninstall`` puts every original back.  Methods
are not wrapped.

Each call records a span (name, start, end, parent span, op id) into flat
arrays kept in memory.  Self time is a span's duration minus the time of
its traced children.  Bookkeeping done on behalf of a metric, such as
counting the nonzero entries of a matrix handed to ``linalg.rank``, is
timed and taken off the trace clock, so it inflates no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "presentation", "classify", "jordan", "homology", "linalg")
PACKAGE = "ddisc"


class Tracer:
    """Spans and per-function totals of the traced layers, for one run."""

    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []  # per name id
        self.total = []
        self.self_time = []
        self.rank = {"qq.calls": 0, "gf.calls": 0, "qq.self_s": 0.0, "gf.self_s": 0.0,
                     "trivial": 0, "cells": 0, "nnz": 0}
        self.op = -1
        self._stack = []  # [span id, child time] per open span
        self._paused = 0.0  # bookkeeping time taken off the clock
        self._patched = []  # (namespace dict, key, original)

    # -- clock ------------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    # -- installation -------------------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def targets(self):
        """Public module-level functions of each layer, keyed by id."""
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for key, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not key.startswith("_")
                ):
                    found[id(obj)] = (f"{layer}.{key}", obj)
        return found

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {
            key: (fn, self._wrap(label, fn)) for key, (label, fn) in self.targets().items()
        }
        for mod in self._modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patched.append((namespace, key, value))

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    # -- spans ----------------------------------------------------------------------

    def _intern(self, label):
        idx = self._name_ids.get(label)
        if idx is None:
            idx = self._name_ids[label] = len(self.names)
            self.names.append(label)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return idx

    def _wrap(self, label, fn):
        idx = self._intern(label)
        is_rank = label == "linalg.rank"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_rank:
                field_kind = self._count_rank(*args, **kwargs)
            span = len(self.span_start)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [span, 0.0]
            stack.append(frame)
            start = self.now()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.now()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.span_end[span] = end
                own = dur - frame[1]
                self.calls[idx] += 1
                self.total[idx] += dur
                self.self_time[idx] += own
                if is_rank:
                    self.rank[f"{field_kind}.calls"] += 1
                    self.rank[f"{field_kind}.self_s"] += own

        return traced

    def _count_rank(self, rows, ncols, field):
        """Shape and nonzero counts of a ``linalg.rank`` argument, off the clock."""
        t0 = time.perf_counter()
        stats = self.rank
        if not rows or ncols == 0:
            stats["trivial"] += 1
        stats["cells"] += len(rows) * ncols
        stats["nnz"] += sum(1 for row in rows for x in row if x)
        self._paused += time.perf_counter() - t0
        return "qq" if field.p is None else "gf"

    # -- results ----------------------------------------------------------------------

    def stat(self, label):
        """(calls, total_s, self_s) of one traced function; zeros if never called."""
        idx = self._name_ids.get(label)
        if idx is None:
            return 0, 0.0, 0.0
        return self.calls[idx], self.total[idx], self.self_time[idx]

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for idx, label in enumerate(self.names):
            out[label.split(".", 1)[0]] += self.self_time[idx]
        return out

    def write(self, path):
        """Write every span: one JSON header line, then the raw columns.

        The header lists the span names and, per column, its name and
        ``array`` type code; the columns follow in that order, ``count``
        values each, in the byte order the header names.
        """
        columns = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("op", self.span_op),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
        )
        header = {
            "names": self.names,
            "columns": [[key, col.typecode] for key, col in columns],
            "count": len(self.span_start),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, col in columns:
                col.tofile(fh)


def read_spans(path):
    """Inverse of ``Tracer.write``: (names, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["byteorder"] != sys.byteorder:
            raise ValueError("spans were written with another byte order")
        columns = {}
        for key, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            columns[key] = col
    return header["names"], columns
