"""Span tracer that wraps polykit's public functions from outside the package.

Every traced function is replaced, in every loaded ``polykit`` module
namespace that binds it, by a wrapper that records a span: name, start,
end, parent span and run id. Spans stay in memory until the worker writes
them out at exit. Wrappers record only while ``active`` is true, so the
benchmark's own checks outside the timed region leave no spans.

A traced name that the package no longer defines is listed in ``missing``
and reports zero calls; the tracer never fails on it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: Public functions traced per layer (module of ``polykit``).
TRACED = {
    "dataset": ("dataset_from_arrays", "load_csv", "split", "encode_design",
                "load_design_for_predict"),
    "polyterms": ("enumerate_terms", "expand"),
    "fitcore": ("pca_fit", "fit_poly_model", "fit_logistic_ova", "fit_ols", "predict"),
    "stepwise": ("fsr",),
    "modelio": ("save_model", "load_model"),
    "mlp": ("one_hot", "train_mlp", "forward"),
    "diagnostics": ("probe_layers", "vif"),
    "equivalence": ("random_polynomial_network", "extract_layer_polynomials",
                    "equivalence_check"),
}

#: Counts taken from a traced call's result: span name -> (counter, function).
RESULT_COUNTS = {
    "polyterms.expand": ("polyterms.expand_cells", lambda result: result.size),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each traced function wherever a polykit module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "polykit" or key.startswith("polykit."))]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"polykit.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Inclusive time, self time and call count per span name, plus the
        number of fit_ols calls made under a vif span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, *_) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        under_vif = 0
        for name, _, _, parent, _ in self.spans:
            if name != "fitcore.fit_ols":
                continue
            while parent >= 0 and self.spans[parent][0] != "diagnostics.vif":
                parent = self.spans[parent][3]
            under_vif += parent >= 0
        return {"total": dict(total), "self": dict(self_time), "calls": dict(calls),
                "counts": dict(self.counts), "fit_ols_under_vif": under_vif,
                "spans": len(self.spans), "missing": list(self.missing)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
