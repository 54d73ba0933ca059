"""Spans around calls into wcochaos's public functions, recorded from outside.

Each target function is wrapped where it is looked up: every module of the
package that holds a reference to it (``from .spaces import space_norm`` binds
``wcochaos.operators.space_norm``) gets the wrapper, and so does the class
for a method.  Nothing in wcochaos changes on disk; ``uninstall`` puts the
original objects back.

Spans live in one flat int64 array, five columns per span: name id, operation
id, parent span (-1 at the top), start and end in nanoseconds.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name); a dotted attribute is a method.
TARGETS = [
    ("series", "compose_affine", "series.compose_affine"),
    ("series", "binomial_series", "series.binomial_series"),
    ("symbols", "SelfMapSymbol.iterate", "symbols.iterate"),
    ("iterates", "weight_iterate_sequence", "iterates.build_cache"),
    ("spaces", "space_norm", "spaces.space_norm"),
    ("spaces", "coeff_norm_h2", "spaces.h2"),
    ("spaces", "coeff_norm_bergman2", "spaces.bergman2"),
    ("spaces", "sup_norm_bracket", "spaces.sup_bracket"),
    ("spaces", "quad_norm_hp", "spaces.hp_quad"),
    ("spaces", "quad_norm_bergman_p", "spaces.bergman_quad"),
    ("operators", "weight_norm_sequence", "operators.weight_norms"),
    ("operators", "eigen_orbit_norm_sequence", "operators.orbit"),
    ("operators", "orbit_norm_sequence", "operators.orbit"),
    ("chaos", "certify_li_yorke", "chaos.certify"),
    ("chaos", "certify_mean_li_yorke", "chaos.certify"),
    ("chaos", "eigen_residual", "chaos.eigen_residual"),
    ("experiments", "build_operator", "experiments.build_operator"),
    ("cli", "sequence_csv", "cli.render"),
    ("cli", "classify_json", "cli.render"),
]

MIB = float(1 << 20)
PACKAGE = "wcochaos"


class Tracer:
    def __init__(self):
        self.names = sorted({name for _, _, name in TARGETS})
        self.spans = array("q")
        self.op = 0
        self.max_cache_mb = 0.0
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, fn, name):
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self
        measure_cache = name == "iterates.build_cache"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // 5
            spans.extend((nid, tracer.op, stack[-1], clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[5 * idx + 4] = clock()
            if measure_cache:
                tracer._note_cache(result)
            return result

        return traced

    def _note_cache(self, cache) -> None:
        """Bytes of the weight-iterate coefficients the cache holds."""
        nbytes = sum(cache.weight_iterate(n).coeffs.nbytes
                     for n in range(1, cache.horizon + 1))
        self.max_cache_mb = max(self.max_cache_mb, nbytes / MIB)

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5)

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        t = self.table()
        dur = (t[:, 4] - t[:, 3]).astype(np.float64) * 1e-9
        child = np.zeros(len(t))
        has_parent = t[:, 2] >= 0
        np.add.at(child, t[has_parent, 2], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = t[:, 0] == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float((dur[sel] - child[sel]).sum())}
        return out

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), spans=self.table(),
                 columns=np.array(["name", "op", "parent", "start_ns", "end_ns"]))
