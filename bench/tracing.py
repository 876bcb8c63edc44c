"""Outside-in tracing of the package's public functions.

The tracer replaces every binding of each listed function object in
every ``dualdefect`` module namespace with a wrapper that records a
span, so calls through aliases (``structure.alpha_of`` is
``alpha.alpha``; ``rank_rat`` reaches ``rref`` through the
``exact_linalg`` globals) are seen too.  Spans stay in memory as
``(parent, function, item, start, end, kept)`` tuples and are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# The functions to wrap, by layer (module of the package).
LAYER_FUNCTIONS = {
    "cli": ("run",),
    "structure": ("structure_certificate", "verify_certificate",
                  "certificate_to_json", "certificate_from_json"),
    "alpha": ("k_space", "alpha", "check_star", "vprime"),
    "tangency": ("tangency_space", "hessian", "defect_oracle",
                 "contact_grouping"),
    "cayley": ("enumerate_simplex_projections", "projection_for_partition",
               "decompose_along", "join_type_wrt"),
    "config": ("load_config_file", "normalize"),
    "exact_linalg": ("rref", "snf", "hnf", "solve_int", "kernel_basis_int",
                     "det"),
}
KEPT_RATIO_OF = "cayley.projection_for_partition"


def package_modules() -> list[str]:
    """Names of the loaded modules of the package."""
    return [m for m in sys.modules
            if m == "dualdefect" or m.startswith("dualdefect.")]


class Tracer:
    def __init__(self, modules):
        """modules maps each layer name to its imported module."""
        self.names = []
        self.originals = []
        for layer, funcs in LAYER_FUNCTIONS.items():
            for fn in funcs:
                self.names.append(f"{layer}.{fn}")
                self.originals.append(getattr(modules[layer], fn))
        self.spans = []
        self.item = -1
        self._stack = []
        self._wrappers = [self._wrap(fn, i)
                          for i, fn in enumerate(self.originals)]
        self._index = {id(fn): i for i, fn in enumerate(self.originals)}
        self._saved = []

    def _wrap(self, fn, idx):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            kept = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                kept = result is not None
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, idx, self.item, start, end, kept)

        return traced

    def install(self):
        """Wrap every binding of a listed function in the package."""
        for name in package_modules():
            mod = sys.modules[name]
            for attr, val in list(vars(mod).items()):
                idx = self._index.get(id(val))
                if idx is not None and val is self.originals[idx]:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[idx])

    def remove(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls and self time of every function, plus the
        kept ratio of projection_for_partition."""
        child = [0.0] * len(self.spans)
        for parent, _idx, _item, start, end, _kept in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        kept = [0] * len(self.names)
        for sid, (_p, idx, _item, start, end, ok) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += end - start - child[sid]
            kept[idx] += ok
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i] / passes, "count")
            out[f"{name}.self_s"] = (self_s[i] / passes, "s")
        k = self.names.index(KEPT_RATIO_OF)
        out[f"{KEPT_RATIO_OF}.kept_ratio"] = (
            kept[k] / calls[k] if calls[k] else 0.0, "ratio")
        return out

    def write(self, path, header: dict):
        """Write the spans as gzipped JSON lines after a header line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps(dict(header, functions=self.names, fields=[
                "parent", "function", "item", "start", "end", "kept"]))
                    + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
