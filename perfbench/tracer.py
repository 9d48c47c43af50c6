"""Out-of-program tracer for the benchmark's per-layer metrics.

The tracer wraps, from outside the package, the public functions of every
runtime module and the public methods (plus ``__init__``) of the classes
defined there.  Each call becomes a span ``(layer, name, start, end,
parent)`` kept in memory; the spans are aggregated or written out after the
run.  Several modules import names directly (``from .noise import
momentum_error_map``), so a wrapped function is rebound in every module of
the package that holds it, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# Runtime modules, in pipeline order.  ``oracle`` is a test reference and
# ``errors`` holds only exception types, so neither is traced.
LAYERS = ("lattice", "gaussian", "encodings", "noise", "circuits", "bounds", "cli")
PACKAGE = "fermion_noise"

# A span is [layer, name, start_ns, end_ns, parent_index]; parent -1 is a root.
Span = List[object]


def array_bytes(value: object, depth: int = 2) -> int:
    """Sum of ``nbytes`` of the arrays in a return value.

    Looks into tuples and lists and, one level down, into the attributes of
    returned objects, so a returned state or observable counts its matrix.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(value, "dtype"):
        return nbytes
    if depth == 0:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(item, depth - 1) for item in value)
    attrs = getattr(value, "__dict__", None)
    if attrs:
        return sum(array_bytes(item, depth - 1) for item in attrs.values())
    return 0


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time of every span: its duration minus what its children cover.

    Children of one span never overlap in a single-threaded run; the union
    of their intervals is taken anyway, clipped to the parent, so the result
    stays correct for any well-formed tree.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span[4]
        if parent >= 0:
            children.setdefault(parent, []).append((span[2], span[3]))
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Wraps a package's layers and records one span per call."""

    def __init__(self):
        self.spans: List[Span] = []
        self.errors: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._before, self._after = self._hooks()

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        package = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrapped: Dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(layer, qual, attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(layer, qual, attr))

    def _wrap(self, layer: str, name: str, func: Callable) -> Callable:
        before = self._before.get(name)
        after = self._after.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            span: Span = [layer, name, time.perf_counter_ns(), 0, parent]
            self.spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            boundary = parent < 0 or self.spans[parent][0] != layer
            if boundary:
                self._add(f"{layer}.calls", 1)
                self._add(f"{layer}.out_bytes", array_bytes(result))
                if layer == "gaussian":
                    self._add("gaussian.state_bytes", _state_bytes(result))
            if after is not None:
                after(args, kwargs, result, boundary)
            return result

        return functools.wraps(func)(traced)

    # -- layer-specific counters ---------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hooks(self) -> Tuple[Dict[str, Callable], Dict[str, Callable]]:
        """Counters run before the call (on its arguments) or after it."""
        def distance_matrix(args, kwargs):
            # A call builds the matrix only if the instance has none cached.
            if getattr(args[0], "_distance_matrix", None) is None:
                self._add("lattice.distance_matrix.builds", 1)

        def weights(args, kwargs, result, boundary):
            if boundary:
                self._add("encodings.weight_entries", getattr(result, "size", 0))

        def error_map(args, kwargs, result, boundary):
            self._add("noise.momenta", len(result))

        def attenuation(args, kwargs, result, boundary):
            self._add("noise.attenuation_matrix.calls", 1)

        def pullback(args, kwargs, result, boundary):
            circuit = kwargs["circuit"] if "circuit" in kwargs else args[1]
            self._add("circuits.layer_pullbacks", getattr(circuit, "depth", 0))

        def brickwork(args, kwargs, result, boundary):
            self._add("circuits.layer_bytes", array_bytes(getattr(result, "layers", ()), 3))

        return {"Lattice.distance_matrix": distance_matrix}, {
            "EncodingWeightModel.weight_matrix": weights,
            "EncodingWeightModel.site_weight_matrix": weights,
            "momentum_error_map": error_map,
            "attenuation_matrix": attenuation,
            "heisenberg_observable": pullback,
            "brickwork_circuit": brickwork,
        }

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer self time, boundary calls, out bytes, errors and counters."""
        metrics: Dict[str, float] = {}
        self_ns = {layer: 0 for layer in LAYERS}
        for span, own in zip(self.spans, self_times(self.spans)):
            self_ns[span[0]] += own
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
            metrics[f"{layer}.calls"] = self.counters.get(f"{layer}.calls", 0)
            metrics[f"{layer}.errors"] = self.errors[layer]
            metrics[f"{layer}.out_bytes"] = self.counters.get(f"{layer}.out_bytes", 0)
        for key in COUNTERS:
            metrics[key] = self.counters.get(key, 0)
        return metrics

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines (times in ns from the first span)."""
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (layer, name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "layer": layer, "name": name,
                                         "start": start - t0, "end": end - t0,
                                         "parent": parent}) + "\n")


COUNTERS = (
    "lattice.distance_matrix.builds",
    "gaussian.state_bytes",
    "encodings.weight_entries",
    "noise.momenta",
    "noise.attenuation_matrix.calls",
    "circuits.layer_pullbacks",
    "circuits.layer_bytes",
)


def _state_bytes(result: object) -> int:
    items: Iterable[object] = result if isinstance(result, tuple) else (result,)
    return sum(getattr(getattr(item, "gamma", None), "nbytes", 0) for item in items
               if type(item).__name__ == "GaussianState")
