"""Outside-in instrumentation of the thzbeam package.

Nothing under ``src/`` is changed.  Every public thzbeam function is
replaced, by identity, in every ``thzbeam.*`` namespace that binds it, so a
call made through ``from .propagation import propagate_asm`` is seen as
well as one made through the defining module.  ``scipy.fft.fft2`` and
``ifft2`` are wrapped the same way, because ``thzbeam.propagation`` calls
them through the ``scipy.fft`` module object.

A ``Tracer`` records one span per call: (name, start, end, parent index).
Spans stay in memory until the run ends.  Hooks run after a span has been
closed, so the bookkeeping they do (hop keys, probe sampling) is not
charged to the layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
import types

MODULES = ("aperture", "propagation", "metrics", "oam", "io", "scenarios", "cli")

# Span names for functions whose layer name differs from "<module>.<name>".
SPAN_NAMES = {
    ("aperture", "make_obstacle_mask"): "aperture.mask",
    ("aperture", "make_grid"): "aperture.grid",
    ("propagation", "propagate_asm"): "propagation.asm",
    ("propagation", "propagate_slice"): "propagation.slice",
    ("propagation", "propagate_with_obstacles"): "propagation.obstacles",
    ("propagation", "propagate_direct"): "propagation.direct",
    ("metrics", "normalized_gain"): "metrics.gain",
    ("metrics", "self_healing_correlation"): "metrics.correlation",
    ("oam", "crosstalk_matrix"): "oam.crosstalk",
    ("io", "write_png16"): "io.png",
    ("io", "write_pgm16"): "io.pgm",
    ("io", "intensity_to_levels"): "io.levels",
    ("io", "phase_to_levels"): "io.levels",
    ("io", "write_csv"): "io.csv",
    ("io", "gain_curve_rows"): "io.csv",
    ("io", "phase_map_csv"): "io.csv",
    ("scenarios", "parse_config"): "scenarios.parse",
    ("scenarios", "load_config"): "scenarios.parse",
    ("scenarios", "preset"): "scenarios.parse",
    ("scenarios", "preset_text"): "scenarios.parse",
    ("scenarios", "run_scenario"): "scenarios.run",
    ("cli", "main"): "cli",
    ("cli", "build_parser"): "cli",
}

# format_number runs once per CSV value (1.5 million times for one
# field_slice_csv of a 540^2 plane); a span per call would swamp the run,
# so its time stays in its caller's self time.
UNWRAPPED = {("io", "format_number")}

# Functions outside thzbeam whose layer is the spectral propagation.
FOREIGN = (("scipy.fft", "fft2", "propagation.fft"), ("scipy.fft", "ifft2", "propagation.fft"))

# RunManifest methods are the one class-level hook the layer map needs.
METHODS = (("scenarios", "RunManifest", "add", "scenarios.manifest"),
           ("scenarios", "RunManifest", "write", "scenarios.manifest"))

# Spans of these layers run with tracemalloc on, outermost span only.
MEMORY_LAYERS = ("propagation.asm", "propagation.slice", "propagation.obstacles",
                 "propagation.direct")


def _default_span_name(module: str, name: str) -> str:
    return "aperture.synthesize" if module == "aperture" else f"{module}.{name}"


def public_functions():
    """(module, name, function) for every public thzbeam function, by identity."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"thzbeam.{short}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__ and (short, name) not in UNWRAPPED):
                found[id(obj)] = (short, name, obj)
    return list(found.values())


def _namespaces():
    return [importlib.import_module("thzbeam")] + [
        importlib.import_module(f"thzbeam.{m}") for m in MODULES]


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, wrapper):
        """Rebind ``wrapper`` wherever a thzbeam namespace binds ``original``."""
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                if obj is original:
                    self.set(ns, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def call_arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory span recorder.

    ``hooks`` maps a span name to a list of f(fn, args, kwargs, result),
    called after the span closes.
    """

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.hooks = hooks or {}
        self._stack: list[int] = []
        self._memory_depth = 0
        self.peak_alloc_bytes = 0
        self._patcher = Patcher()

    def wrap(self, fn, name):
        spans, stack, hooks = self.spans, self._stack, self.hooks.get(name, ())
        tracks_memory = name in MEMORY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracks_memory:
                self._enter_memory()
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                if tracks_memory:
                    self._leave_memory()
            for hook in hooks:
                hook(fn, args, kwargs, result)
            return result

        return traced

    def _enter_memory(self):
        if self._memory_depth == 0:
            tracemalloc.start()
        self._memory_depth += 1

    def _leave_memory(self):
        self._memory_depth -= 1
        if self._memory_depth == 0:
            self.peak_alloc_bytes = max(self.peak_alloc_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def install(self):
        for module, name, fn in public_functions():
            span = SPAN_NAMES.get((module, name), _default_span_name(module, name))
            self._patcher.replace_everywhere(fn, self.wrap(fn, span))
        for module, name, span in FOREIGN:
            owner = importlib.import_module(module)
            self._patcher.set(owner, name, self.wrap(getattr(owner, name), span))
        for module, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(f"thzbeam.{module}"), cls_name)
            self._patcher.set(cls, attr, self.wrap(getattr(cls, attr), span))

    def uninstall(self):
        self._patcher.restore()

    def layers(self) -> dict[str, dict]:
        """Per span name: outermost calls and self time.

        Self time is a span's duration minus its children's; a call nested
        directly in a span of the same name is not counted again.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["self_s"] += (end - start) - child_time[i]
            if parent < 0 or self.spans[parent][0] != name:
                row["calls"] += 1
        return out


def capture_only(span_name: str, hook):
    """Install ``hook`` on one thzbeam function without recording spans.

    Used by untraced runs, which need the value a layer returns (for the
    oracle probes) but not its timing.  Returns the Patcher to restore.
    """
    patcher = Patcher()
    for module, name, fn in public_functions():
        if SPAN_NAMES.get((module, name)) != span_name:
            continue

        def observed(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            hook(_fn, args, kwargs, result)
            return result

        patcher.replace_everywhere(fn, functools.wraps(fn)(observed))
    return patcher
