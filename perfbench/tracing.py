"""Spans and counters recorded around the program's public functions.

`Tracer.install` replaces the public functions of each layer module (and the
few `ModelInstance` / `SpectralLaw` methods the per-layer metrics name) with
wrappers that record a span: name, start, end, parent span, and the
operation it belongs to.  Counters are taken at the same boundaries from the
arguments and results.  Nothing inside `src/` changes; spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

from tapglass import amp, ensemble, experiments, fixed_point, gibbs, spectral, tap

LAYERS = {
    "spectral": spectral,
    "fixed_point": fixed_point,
    "ensemble": ensemble,
    "amp": amp,
    "tap": tap,
    "gibbs": gibbs,
    "experiments": experiments,
}
METHODS = {
    "ensemble.apply_jbar": (ensemble.ModelInstance, "apply_jbar"),
    "ensemble.dense_coupling": (ensemble.ModelInstance, "dense_coupling"),
    "ensemble.validate": (ensemble.ModelInstance, "__post_init__"),
    "spectral.quantiles": (spectral.SpectralLaw, "quantiles"),
}
ENUMERATIONS = ("gibbs.exact_gibbs", "gibbs.restricted_logZ_band",
                "gibbs.restricted_logZ_nonorth_pairs")
MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.stack = []
        self.op = None           # "setup" or the operation index
        self.counts = defaultdict(float)
        self.enumerated = set()  # instances fully enumerated at least once
        self.alloc_peak = 0.0
        self.patches = None

    # ------------------------------------------------------------------
    # recording

    def span(self, name, fn, after=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None and isinstance(self.op, int):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return wrapper

    def root(self, op, fn, *args):
        """Run one operation (or the set-up) under a root span."""
        self.op = op
        return self.span("bench.setup" if op == "setup" else "bench.op", fn)(*args)

    def _alloc_tracked(self, fn):
        """build_instance under tracemalloc, keeping the peak of its allocations."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()

        return wrapper

    def _counters(self):
        c = self.counts

        def enumerated(a, result):
            inst = a["instance"]
            passes = 1 + bool(a.get("pair_correlations"))
            c["gibbs.states_enumerated"] += passes * (1 << inst.n)
            c["gibbs.enumerations"] += passes
            self.enumerated.add((inst.n, inst.beta, inst.seed))

        def tap_solve(a, sol):
            c["tap.solve_tap_damped.iterations"] += sol.iterations
            c["tap.converged"] += bool(sol.converged)

        def amp_step(a, state):
            c["amp.computed_bytes"] += 16.0 * state.y.size ** 2

        def glauber(a, reps):
            c["gibbs.site_updates"] += (
                a["instance"].n * (a["burn_in"] + a["sweeps"]) * a["n_chains"])

        def fixed(a, fp):
            c["fixed_point.solve_fixed_point.iterations"] += fp.iterations

        def runner(a, rows):
            c["experiments.cells"] += len(rows)
            c["experiments.error_rows"] += sum(1 for r in rows if r.error)

        return {
            "gibbs.exact_gibbs": enumerated,
            "gibbs.restricted_logZ_band": enumerated,
            "gibbs.restricted_logZ_nonorth_pairs": enumerated,
            "tap.solve_tap_damped": tap_solve,
            "amp.amp_step": amp_step,
            "gibbs.glauber_sample": glauber,
            "fixed_point.solve_fixed_point": fixed,
            "experiments.run_experiment": runner,
        }

    def _patches(self):
        """(owner, attribute, original, wrapper) for every public function of
        each layer, wherever it was imported by name, and for METHODS."""
        after = self._counters()
        wrapped = {}
        for layer, module in LAYERS.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    label = f"{layer}.{name}"
                    fn = self._alloc_tracked(obj) if label == "ensemble.build_instance" else obj
                    wrapped[obj] = self.span(label, fn, after.get(label))
        patches = []
        for module in [m for k, m in sys.modules.items() if k.startswith("tapglass")]:
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((module, name, obj, wrapped[obj]))
        for label, (cls, name) in METHODS.items():
            original = getattr(cls, name)
            patches.append((cls, name, original, self.span(label, original)))
        return patches

    def install(self):
        """Swap the wrappers in; `uninstall` swaps the originals back."""
        if self.patches is None:
            self.patches = self._patches()
        for owner, name, _, wrapper in self.patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self.patches:
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # reporting

    def write(self, path, fingerprint):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fingerprint": fingerprint}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics over the traced operations, per operation.

        Set-up spans are left out of the per-operation figures and reported
        on their own (`setup.*`); the allocation peak covers both.
        """
        incl = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        setup_incl = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        op_wall = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            duration = end - start
            if not isinstance(op, int):
                if op == "setup":
                    setup_incl[name] += duration
                continue
            if name == "bench.op":
                op_wall += duration
            incl[name] += duration
            self_time[name] += duration - child[index]
            calls[name] += 1

        c = self.counts
        per_op = 1.0 / ops
        steps = calls["amp.amp_step"]
        enum_s = sum(incl[k] for k in ENUMERATIONS)

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {}

        def put(key, value, unit):
            metrics[key] = {"value": value, "unit": unit}

        for label in ("ensemble.build_instance", "ensemble.apply_jbar", "amp.run_amp",
                      "tap.tap_residual"):
            put(f"{label}.calls", calls[label] * per_op, "count")
        for label in ("ensemble.build_instance", "ensemble.haar_so", "ensemble.validate",
                      "spectral.quantiles", "ensemble.apply_jbar", "amp.run_amp",
                      "tap.solve_tap_damped", "tap.tap_residual", *ENUMERATIONS,
                      "gibbs.glauber_sample", "ensemble.dense_coupling",
                      "fixed_point.solve_fixed_point", "experiments.run_experiment",
                      "experiments.content_hash"):
            put(f"{label}.s", incl[label] * per_op, "s")
        put("ensemble.build_instance.alloc_peak_mib", self.alloc_peak, "MiB")
        put("setup.s", setup_incl["bench.setup"], "s")
        put("setup.ensemble.build_instance.s", setup_incl["ensemble.build_instance"], "s")
        put("amp.steps", steps * per_op, "count")
        put("amp.step_us", ratio(incl["amp.amp_step"], steps) * 1e6, "us")
        put("amp.computed_bytes_per_step", ratio(c["amp.computed_bytes"], steps), "bytes")
        put("tap.solve_tap_damped.iterations",
            c["tap.solve_tap_damped.iterations"] * per_op, "count")
        put("tap.converged_frac", ratio(c["tap.converged"], calls["tap.solve_tap_damped"]),
            "fraction")
        put("gibbs.states_enumerated", c["gibbs.states_enumerated"] * per_op, "count")
        put("gibbs.states_per_s", ratio(c["gibbs.states_enumerated"], enum_s), "1/s")
        put("gibbs.enumerations_per_instance",
            ratio(c["gibbs.enumerations"], len(self.enumerated)), "ratio")
        put("gibbs.site_updates", c["gibbs.site_updates"] * per_op, "count")
        put("gibbs.site_updates_per_s",
            ratio(c["gibbs.site_updates"], incl["gibbs.glauber_sample"]), "1/s")
        put("fixed_point.solve_fixed_point.iterations",
            c["fixed_point.solve_fixed_point.iterations"] * per_op, "count")
        put("experiments.self_s",
            sum(v for k, v in self_time.items() if k.startswith("experiments.")) * per_op, "s")
        put("experiments.cells", c["experiments.cells"] * per_op, "count")
        put("experiments.error_rows", c["experiments.error_rows"] * per_op, "count")

        # Shares of the operations' wall time spent in each layer's own code.
        for layer in (*LAYERS, "bench"):
            put(f"self_share.{layer}", ratio(
                sum(v for k, v in self_time.items() if k.split(".")[0] == layer), op_wall),
                "fraction")
        put("self_share.gibbs.enumeration",
            ratio(sum(self_time[k] for k in ENUMERATIONS), op_wall), "fraction")
        put("self_share.gibbs.glauber_sample",
            ratio(self_time["gibbs.glauber_sample"], op_wall), "fraction")
        return metrics
