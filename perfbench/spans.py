"""Span recorder for the traced run.

``Tracer.install`` finds, at run time, every public function defined in
each layer module and replaces it in every ``maskcov`` namespace that
holds it, the defining module included.  A function added to a layer
later is therefore still traced and assigned to its layer.

A span opens only at a layer boundary: a call made while the innermost
open span belongs to the same layer runs untraced, so a layer's
internal helpers count as its own self time.  Spans stay in memory
until the run ends.  Self time is a span's duration minus the durations
of its child spans.

Work counts are computed from the arguments of the calls that do the
work (labelled "computed"); they repeat exactly for a given op stream.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "harness", "sampler", "masks", "linalg", "bounds", "verify")

#: Named metric groups; a public function missing here lands in
#: ``<layer>.other``, which is reported as its own self time.
GROUPS = {
    "sampler.draw_samples": "sampler.draw",
    "sampler.sample_covariance": "sampler.cov",
    "sampler.sample_covariance_centered": "sampler.cov",
    "sampler.decoupled_covariance": "sampler.cov",
    "linalg.spectral_norm": "linalg.spectral_norm",
    "linalg.hadamard": "linalg.hadamard",
    "linalg.sym_sqrt": "linalg.sym_sqrt",
    "harness.run_error_experiment": "harness.run",
    "harness.run_decoupled_experiment": "harness.run",
    "harness.build_model": "harness.run",
    "harness.emit_results": "harness.emit",
    "harness.read_results": "harness.read",
    "harness.fit_scaling": "harness.fit",
    "verify.decoupling_check": "verify.decoupling",
    "verify.concentration_check": "verify.concentration",
    "verify.reg_norm_bound_check": "verify.reg_norm",
    "verify.max_bilinear_regular": "verify.reg_norm",
    "verify.regular_union": "verify.reg_norm",
    "verify.enum_regular": "verify.reg_norm",
    "verify.net_norm_bound_check": "verify.net_norm",
    "verify.circle_net": "verify.net_norm",
    "verify.sigma_x": "verify.sigma_x",
    "verify.sigma_x_mean_check": "verify.sigma_x",
    "verify.sigma_x_lipschitz_check": "verify.sigma_x",
    "cli.main": "cli",
}
LAYER_GROUPS = {"masks": "masks.build", "bounds": "bounds.eval"}
#: Layers whose unnamed public functions fall into ``<layer>.other``.
OTHER_GROUPS = tuple(f"{layer}.other" for layer in LAYERS
                     if layer not in LAYER_GROUPS)

VERIFY_ORACLES = ("decoupling", "concentration", "reg_norm", "net_norm",
                  "sigma_x")

#: Groups reported as self time, and groups whose span count is reported.
SELF_GROUPS = ("sampler.draw", "sampler.cov", "linalg.spectral_norm",
               "linalg.hadamard", "linalg.sym_sqrt", "masks.build",
               "bounds.eval", "harness.run", "harness.emit", "harness.read",
               "harness.fit", "cli") + tuple(
                   f"verify.{o}" for o in VERIFY_ORACLES) + OTHER_GROUPS
CALL_GROUPS = ("sampler.draw", "linalg.spectral_norm", "masks.build",
               "bounds.eval") + tuple(f"verify.{o}" for o in VERIFY_ORACLES)


def _spectral_dim3(a) -> int:
    rows, cols = np.shape(a)
    return rows * cols * min(rows, cols)


#: Computed work counts: qualified function -> (count name, fn(bound args)).
COUNTERS = {
    "sampler.draw_samples": (
        "sampler.normals", lambda b: int(b["n"]) * int(b["model"].dim)),
    "sampler.sample_covariance": (
        "sampler.cov.flops", lambda b: 2 * b["batch"].n * b["batch"].dim ** 2),
    "sampler.decoupled_covariance": (
        "sampler.cov.flops", lambda b: 2 * b["batch"].n * b["batch"].dim ** 2),
    "linalg.spectral_norm": (
        "linalg.spectral_norm.dim3", lambda b: _spectral_dim3(b["a"])),
    "verify.max_bilinear_regular": (
        # every regular vector of every support size: 3^p - 1 rows
        "verify.regular_vectors", lambda b: 3 ** np.shape(b["a"])[0] - 1),
}
COUNTER_NAMES = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))
#: Everything reported as a computed count, span counts included.
COMPUTED_COUNTS = COUNTER_NAMES + ("bounds.eval.calls",)


def group_of(qual: str) -> str:
    """Metric group of a function named ``<layer>.<function>``."""
    layer = qual.split(".", 1)[0]
    return GROUPS.get(qual) or LAYER_GROUPS.get(layer) or f"{layer}.other"


class Tracer:
    """Patches the layer modules and records spans and computed counts."""

    def __init__(self):
        self.spans: list = []       # [name, layer, start, end, parent, op]
        self.stack: list = []
        self.counts: dict = {}
        self.op_id = -1
        self._patched: list = []

    def _wrap(self, fn, layer: str, qual: str):
        counter = COUNTERS.get(qual)
        signature = inspect.signature(fn) if counter else None
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](bound)
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([qual, layer, clock(), 0.0,
                          stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def install(self) -> None:
        """Replace each layer's public functions in every maskcov namespace."""
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "maskcov" or name.startswith("maskcov.")]
        for layer in LAYERS:
            module = importlib.import_module(f"maskcov.{layer}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(fn, layer, f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, traced)
                            self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def summary(self, ops: int, op_seconds: float) -> dict:
        """Per-op self times, span counts and computed counts, plus shares."""
        self_time = [s[3] - s[2] for s in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                self_time[span[4]] -= span[3] - span[2]
        by_group: dict = {}
        by_layer = dict.fromkeys(LAYERS, 0.0)
        calls: dict = {}
        for span, own in zip(self.spans, self_time):
            group = group_of(span[0])
            by_group[group] = by_group.get(group, 0.0) + own
            by_layer[span[1]] += own
            calls[group] = calls.get(group, 0) + 1
        out = {f"{g}.self_s": by_group.get(g, 0.0) / ops for g in SELF_GROUPS}
        out.update({f"{g}.calls": calls.get(g, 0) / ops for g in CALL_GROUPS})
        out.update({c: self.counts.get(c, 0) / ops for c in COUNTER_NAMES})
        out.update({f"layer.{layer}.share": by_layer[layer] / op_seconds
                    for layer in LAYERS})
        return out
