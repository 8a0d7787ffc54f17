"""Call counts and spans for the rdregion layers, installed from outside.

A layer is one module of the package. The tracer wraps every public
function of each layer (its ``__all__`` entries that are plain functions
defined there) and rebinds the wrapper under every name that holds the
original in any loaded ``rdregion`` module, so calls made through
``from .waterfill import max_det_capped`` style bindings are seen too.
Names that a module no longer defines are skipped.

Each wrapped call records a span (id, name, start, end, parent id, op id)
into flat in-memory columns and adds to per-function counters: calls,
calls that raised, and self time (span time minus the time of the spans
it caused). ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "problems", "linalg", "waterfill", "regions", "duality",
          "sumrate", "optimize", "matching")

# eig_sym calls made while max_det_capped is on the stack are counted apart
_INNER, _OUTER = "linalg.eig_sym", "waterfill.max_det_capped"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.op = -1
        self.inner_in_outer = 0
        self._outer_depth = 0
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._cols = {"id": array("q"), "name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "op": array("i")}
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rdregion" or n.startswith("rdregion."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"rdregion.{layer}")
            if mod is None:
                continue
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.raised.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        is_inner, is_outer = name == _INNER, name == _OUTER
        clock = time.perf_counter
        stack = self._stack
        cols = self._cols

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            if is_inner and self._outer_depth:
                self.inner_in_outer += 1
            if is_outer:
                self._outer_depth += 1
            frame = [span, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                stack.pop()
                if is_outer:
                    self._outer_depth -= 1
                dur = end - start
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                self.total_s[idx] += dur
                if not ok:
                    self.raised[idx] += 1
                if stack:
                    stack[-1][1] += dur
                cols["id"].append(span)
                cols["name"].append(idx)
                cols["start"].append(start)
                cols["end"].append(end)
                cols["parent"].append(parent)
                cols["op"].append(self.op)

        return wrapper

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def write_spans(self, path) -> None:
        """Write the recorded spans as an ``.npz`` of columns plus names."""
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self._cols.items()})

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer and per-function figures of everything recorded."""
        by = dict(zip(self.names, range(len(self.names))))
        calls = self.count

        def per_call(name):
            n = calls(name)
            return self.total_s[by[name]] / n if n else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            members = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = (sum(self.calls[i] for i in members), "count")
            out[f"{layer}.self_s"] = (sum(self.self_s[i] for i in members), "s")
        for name in ("linalg.eig_sym", "linalg.inv_sym", "linalg.logdet_sym",
                     "linalg.as_symmetric", "waterfill.max_det_capped",
                     "waterfill.water_level", "waterfill.waterfill_det",
                     "optimize.golden_section", "optimize.bisect_threshold",
                     "problems.posterior_precision", "problems.mt_posterior_precision",
                     "duality.transform_data", "regions.rate_bound_inner",
                     "regions.rate_bound_outer", "matching.md_scan"):
            out[f"{name}.calls"] = (calls(name), "count")
        out["linalg.eig_sym.s_per_call"] = (per_call("linalg.eig_sym"), "s")
        out["linalg.eig_sym.per_op"] = (calls("linalg.eig_sym") / max(ops, 1), "count")
        n_mdc = calls(_OUTER)
        out["waterfill.max_det_capped.s_per_call"] = (per_call(_OUTER), "s")
        out["waterfill.max_det_capped.eig_per_call"] = (
            self.inner_in_outer / n_mdc if n_mdc else 0.0, "count")
        n_wf = calls("waterfill.waterfill_det")
        out["waterfill.waterfill_det.raised_frac"] = (
            self.raised[by["waterfill.waterfill_det"]] / n_wf if n_wf else 0.0, "ratio")
        return out
