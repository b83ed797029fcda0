"""Span tracing of the library's layers, applied from outside the library.

Each traced name is replaced, for the length of one traced run, by a wrapper
that records a span ``(id, parent id, layer, start, end, attribute)`` in
memory.  Names are wrapped where the caller looks them up: ``cli`` and
``bounds`` bind functions with ``from .x import y``, so wrapping only the
defining module would miss those calls.  Worker threads of the simulator
have no open span of their own; their spans take as parent the innermost
open span of the main thread, which is waiting on them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _arg(pos, name):
    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs[name]

    return get


_n_samples = _arg(2, "n_samples")
_family = _arg(3, "family")
_draw_indices = _arg(1, "draw_indices")

# (module, name its caller looks up, layer, span attribute from the call's arguments)
WRAPPED = (
    ("cli", "read_model_file", "modelio.read_model_file", None),
    ("cli", "time_averages", "simulate.time_averages", _n_samples),
    ("cli", "lambda0_star", "tilting.lambda0_star", None),
    ("cli", "lambda0", "tilting.lambda0", None),
    ("bounds", "spectral_decomposition", "spectral.spectral_decomposition", None),
    ("bounds", "evaluate_family", "bounds.evaluate_family", _family),
    ("bounds", "lambda0_star", "tilting.lambda0_star", None),
    ("tilting", "lambda0", "tilting.lambda0", None),
    (
        "simulate",
        "counter_uniforms",
        "simulate.counter_uniforms",
        lambda a, k: int(np.size(_draw_indices(a, k))),
    ),
    (
        "combinatorics",
        "lambda0_coefficients",
        "combinatorics.lambda0_coefficients",
        None,
    ),
)

FAMILIES = ("general", "perturbation", "poincare", "bernstein_general")

# Counts that must repeat exactly between runs at one seed.
EXACT_COUNTS = (
    "simulate.paths",
    "simulate.draws",
    "simulate.jumps",
    "tilting.lambda0_calls",
    "tilting.lambda0_star_calls",
    "bounds.evaluate_family_calls",
)


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, layer, fn, attr_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            attr = attr_of(args, kwargs) if attr_of else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, layer, start, end, attr))

        return traced


@contextmanager
def patched(tracer):
    """Wrap every name in WRAPPED; yields the names that do not exist."""
    saved, missing = [], []
    try:
        for mod_name, name, layer, attr_of in WRAPPED:
            module = importlib.import_module(f"mjpbounds.{mod_name}")
            fn = getattr(module, name, None)
            if fn is None:
                missing.append(f"{mod_name}.{name}")
                continue
            saved.append((module, name, fn))
            setattr(module, name, tracer.wrap(layer, fn, attr_of))
        yield missing
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per layer: total span time minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    out = defaultdict(float)
    for sid, _, layer, start, end, _ in spans:
        kids = [(max(c[3], start), min(c[4], end)) for c in children[sid]]
        out[layer] += (end - start) - _covered(k for k in kids if k[1] > k[0])
    return dict(out)


def layer_metrics(spans):
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s[2]].append(s)

    def busy(layer):
        return sum(s[4] - s[3] for s in by_layer[layer])

    def ratio(a, b):
        return a / b if b else 0.0

    sim, draws_spans = by_layer["simulate.time_averages"], by_layer["simulate.counter_uniforms"]
    paths = sum(s[5] for s in sim)
    draws = sum(s[5] for s in draws_spans)
    jumps = (draws - 2 * paths) // 2
    sim_s, draw_s = busy("simulate.time_averages"), busy("simulate.counter_uniforms")

    lam, star = by_layer["tilting.lambda0"], by_layer["tilting.lambda0_star"]
    star_ids = {s[0] for s in star}
    lam_in_star = sum(1 for s in lam if s[1] in star_ids)

    fam_s = defaultdict(float)
    for s in by_layer["bounds.evaluate_family"]:
        fam_s[s[5]] += s[4] - s[3]

    m = {
        "simulate.time_averages_s": (sim_s, "s"),
        "simulate.paths": (paths, "count"),
        "simulate.draws": (draws, "count"),
        "simulate.jumps": (jumps, "count"),
        "simulate.ns_per_jump": (1e9 * ratio(sim_s, jumps), "ns"),
        "simulate.counter_uniforms_s": (draw_s, "s"),
        "simulate.ns_per_draw": (1e9 * ratio(draw_s, draws), "ns"),
        "simulate.paths_per_s": (ratio(paths, sim_s), "1/s"),
        "tilting.lambda0_calls": (len(lam), "count"),
        "tilting.lambda0_ms": (1e3 * ratio(busy("tilting.lambda0"), len(lam)), "ms"),
        "tilting.lambda0_star_calls": (len(star), "count"),
        "tilting.lambda0_star_s": (busy("tilting.lambda0_star"), "s"),
        "tilting.lambda0_per_star": (ratio(lam_in_star, len(star)), "ratio"),
    }
    for fam in FAMILIES:
        m[f"bounds.evaluate_family_s.{fam}"] = (fam_s[fam], "s")
    m["bounds.evaluate_family_calls"] = (len(by_layer["bounds.evaluate_family"]), "count")
    for layer in (
        "spectral.spectral_decomposition",
        "modelio.read_model_file",
        "combinatorics.lambda0_coefficients",
    ):
        m[f"{layer}_s"] = (busy(layer), "s")
    m["cli.self_s"] = (self_times(spans).get("cli.main", 0.0), "s")
    return m


def combine_runs(runs):
    """Medians over traced runs; raises if an exact count differs between them."""
    for name in EXACT_COUNTS:
        values = {r[name][0] for r in runs}
        if len(values) != 1:
            raise RuntimeError(
                f"count {name} differs between runs at one seed: {sorted(values)}"
            )
    return {
        name: (value if unit == "count" else statistics.median(r[name][0] for r in runs), unit)
        for name, (value, unit) in runs[0].items()
    }
