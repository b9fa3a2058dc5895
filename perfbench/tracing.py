"""Spans around woexplain's public layer boundaries, installed from outside.

The package is not edited. Each traced function is replaced, for the
length of a `traced()` block, by a wrapper that records a span: name,
start, end, parent span and operation id. Because woexplain modules
import each other's functions by name (`from .core import
woe_conditional`), every module attribute that holds the original
function is rebound, not only the one in the defining module; otherwise
calls made through the importing module would bypass the wrapper.

Counters that are computed rather than timed (factorizations, contrast
candidates, CSV bytes, marginal woe calls) are taken from the arguments
at the same boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of each traced boundary; `types` and `errors` hold
# value helpers and are not timed
BOUNDARIES = (
    ("cli", "main"),
    ("data", "load_csv"),
    ("data", "csv_header"),
    ("data", "load_partition"),
    ("gaussian", "load_model"),
    ("gaussian", "save_model"),
    ("gaussian", "fit"),
    ("gaussian", "GaussianClassModel.class_conditional_log_density"),
    ("gaussian", "posterior"),
    ("core", "woe_conditional"),
    ("core", "bayes_decomposition"),
    ("core", "woe_chain"),
    ("contrast", "best_contrast"),
    ("contrast", "score_subset"),
    ("explain", "explain"),
    ("explain", "score_attributes"),
    ("explain", "write_report"),
    ("validate", "run_validation"),
)

# the density method is reported under the layer's short name
SPAN_NAMES = {"gaussian.GaussianClassModel.class_conditional_log_density": "gaussian.density"}

# argument positions read by the computed counters
_PREFIX_ARG = 3  # woe_conditional(entailed, contrast, target, prefix, ...)
_PARAMS_ARG = 4  # best_contrast(full_set, c_star, evidence, model, params)


class Recorder:
    """In-memory spans and counters for one traced pass.

    `op` returns the id of the operation that a span belongs to.
    """

    def __init__(self, op=lambda: None):
        self.op = op
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """fn wrapped so that each call records a span under `name`."""

        def traced_call(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((span_id, parent, self.op(), name, start, end,
                                   end - start - frame[1]))
                if count is not None:
                    count(self.counters, args, kwargs)

        traced_call.__wrapped__ = fn
        return traced_call

    def count_only(self, fn, count):
        def counted_call(*args, **kwargs):
            count(self.counters, args, kwargs)
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, _, _, name, start, end, self_s in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
        return out

    def write(self, path) -> None:
        """One line per span: id, parent, op, name, start, end, self seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(",".join("" if v is None else repr(v) for v in span) + "\n")


def _count_marginal(counters, args, kwargs):
    prefix = args[_PREFIX_ARG] if len(args) > _PREFIX_ARG else kwargs.get("prefix", ())
    if len(prefix) == 0:
        counters["core.woe_conditional.marginal_calls"] += 1


def _count_candidates(counters, args, kwargs):
    # exhaustive search scores every proper subset of V holding c_star
    from woexplain.contrast import ContrastParams

    universe = args[0] if args else kwargs["full_set"]
    params = args[_PARAMS_ARG] if len(args) > _PARAMS_ARG else kwargs.get("params")
    size = len(tuple(universe))
    if size <= (params or ContrastParams()).max_exhaustive_classes:
        counters["contrast.candidates"] += 2 ** (size - 1) - 1


def _count_bytes(counters, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counters["data.load_csv.bytes"] += os.path.getsize(path)


def _count_factorizations(counters, args, kwargs):
    # a batched factorization counts every matrix along its leading axes
    a = args[0] if args else kwargs["a"]
    counters["gaussian.factorizations"] += math.prod(getattr(a, "shape", (1, 1))[:-2])


_COUNTS = {
    "core.woe_conditional": _count_marginal,
    "contrast.best_contrast": _count_candidates,
    "data.load_csv": _count_bytes,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "woexplain" or name.startswith("woexplain."))]


def _rebind(original, replacement, saved):
    """Point every woexplain module attribute holding `original` at `replacement`."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install span wrappers on every boundary; restore the originals on exit."""
    import numpy.linalg

    saved: list[tuple] = []
    try:
        for module_name, qualname in BOUNDARIES:
            module = importlib.import_module(f"woexplain.{module_name}")
            full = f"{module_name}.{qualname}"
            name = SPAN_NAMES.get(full, full)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original, _COUNTS.get(name)))
            else:
                original = getattr(module, qualname)
                _rebind(original, recorder.wrap(name, original, _COUNTS.get(name)), saved)

        saved.append((numpy.linalg, "cholesky", numpy.linalg.cholesky))
        numpy.linalg.cholesky = recorder.count_only(numpy.linalg.cholesky,
                                                    _count_factorizations)
        gaussian = importlib.import_module("woexplain.gaussian")
        _rebind(gaussian.cho_factor,
                recorder.count_only(gaussian.cho_factor, _count_factorizations), saved)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
