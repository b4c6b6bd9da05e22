"""Spans around the public functions of each nemprism module.

The package binds names with ``from .x import y``, so a function is
reachable under several module attributes (``nemprism.energy.quad2d``,
``nemprism.invariants.quad2d``, ...).  ``Tracer.install`` replaces every
binding of each traced function in every loaded ``nemprism`` module, and
``Tracer.uninstall`` puts the originals back.

A span is ``[name, start, end, parent index, operation id]``; spans stay
in memory and are written once, at exit.  The layer of a span is the first
part of its name, which is the module that owns the code it measures.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

# (module, attribute, span name).  The integrand handed to quad2d and the
# objective handed to minimize_1d are wrapped by the quad2d and minimize_1d
# spans themselves.
TARGETS = [
    ("nemprism.cli", "run", "cli.run"),
    ("nemprism.sweep", "sweep_energy", "sweep.sweep_energy"),
    ("nemprism.sweep", "minimize_family", "sweep.minimize_family"),
    ("nemprism.energy", "energy_report", "energy.energy_report"),
    ("nemprism.energy", "conformal_energy", "energy.conformal_energy"),
    ("nemprism.energy", "prism_lp_certificate", "energy.prism_lp_certificate"),
    ("nemprism.invariants", "invariants_report", "invariants.invariants_report"),
    ("nemprism.invariants", "numeric_trapped_area", "invariants.numeric_trapped_area"),
    ("nemprism.invariants", "numeric_kink_x", "invariants.numeric_kink"),
    ("nemprism.invariants", "numeric_kink_y", "invariants.numeric_kink"),
    ("nemprism.invariants", "numeric_kink_z", "invariants.numeric_kink"),
    ("nemprism.numerics", "quad2d", "numerics.quad2d"),
    ("nemprism.numerics", "minimize_1d", "numerics.minimize_1d"),
    ("nemprism.numerics", "lp_solve", "numerics.lp_solve"),
    ("nemprism.conformal", "_director_many", "conformal.director_many"),
]

LAYERS = ("cli", "sweep", "energy", "invariants", "numerics", "conformal")


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op_id = ""
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _quad2d(self, fn):
        from nemprism.errors import AccuracyError

        def traced(f, domain, *args, **kwargs):
            def integrand(x, y):
                index = self.open("conformal.integrand")
                try:
                    return f(x, y)
                finally:
                    self.close(index)
                    self.counts["conformal.integrand.points"] += x.size

            index = self.open("numerics.quad2d")
            parent = self.spans[index][3]
            caller = self.spans[parent][0] if parent >= 0 else "none"
            try:
                result = fn(integrand, domain, *args, **kwargs)
            except AccuracyError as exc:
                self.counts["numerics.quad2d.refused"] += 1
                self.counts["numerics.quad2d.evals"] += exc.evaluations
                self.counts[caller + ".evals"] += exc.evaluations
                raise
            finally:
                self.close(index)
            self.counts["numerics.quad2d.evals"] += result.evaluations
            self.counts["numerics.quad2d.useful_evals"] += result.evaluations
            self.counts[caller + ".evals"] += result.evaluations
            return result

        return traced

    def _minimize_1d(self, fn):
        objective_span = "sweep.objective"

        def traced(f, *args, **kwargs):
            def objective(s):
                self.counts["numerics.minimize_1d.objective_calls"] += 1
                index = self.open(objective_span)
                try:
                    return f(s)
                finally:
                    self.close(index)

            index = self.open("numerics.minimize_1d")
            try:
                return fn(objective, *args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded nemprism modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "nemprism"]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if name == "numerics.quad2d":
                wrapper = self._quad2d(original)
            elif name == "numerics.minimize_1d":
                wrapper = self._minimize_1d(original)
            else:
                wrapper = self.span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def take(self):
        """Spans and counters recorded since the last call, then a fresh start."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def write_spans(path: str, passes: List[List[list]]) -> None:
    """All traced passes' spans; parent indices count within each pass."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "passes": passes}, fh)


def summarize(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counters."""
    total = defaultdict(float)  # inclusive seconds per span name
    calls = Counter()
    self_time = defaultdict(float)  # self seconds per span name
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    sweep_energy_calls = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        total[name] += duration
        calls[name] += 1
        self_time[name] += duration - child_time[i]
        if name == "energy.conformal_energy" and parent >= 0 and spans[parent][0].startswith("sweep."):
            sweep_energy_calls += 1
    layer_self = defaultdict(float)
    for name, seconds in self_time.items():
        layer_self[name.split(".")[0]] += seconds

    evals = counts.get("numerics.quad2d.evals", 0)
    points = counts.get("conformal.integrand.points", 0)
    integrand_calls = calls["conformal.integrand"]
    quad_s = total["numerics.quad2d"]
    integrand_s = total["conformal.integrand"]
    m = {
        "cli.run.calls": calls["cli.run"],
        "cli.self_s": layer_self["cli"],
        "sweep.minimize_family.s": total["sweep.minimize_family"],
        "sweep.sweep_energy.s": total["sweep.sweep_energy"],
        "sweep.energy_calls": sweep_energy_calls,
        "sweep.self_s": layer_self["sweep"],
        "energy.conformal_energy.calls": calls["energy.conformal_energy"],
        "energy.conformal_energy.s": total["energy.conformal_energy"],
        "energy.prism_lp_certificate.s": total["energy.prism_lp_certificate"],
        "energy.self_s": layer_self["energy"],
        "invariants.numeric_trapped_area.s": total["invariants.numeric_trapped_area"],
        "invariants.numeric_trapped_area.evals": counts.get("invariants.numeric_trapped_area.evals", 0),
        "invariants.numeric_kink.calls": calls["invariants.numeric_kink"],
        "invariants.numeric_kink.s": total["invariants.numeric_kink"],
        "invariants.self_s": layer_self["invariants"],
        "numerics.quad2d.calls": calls["numerics.quad2d"],
        "numerics.quad2d.s": quad_s,
        "numerics.quad2d.self_s": self_time["numerics.quad2d"],
        "numerics.quad2d.evals": evals,
        "numerics.quad2d.evals_per_s": evals / quad_s if quad_s > 0 else 0.0,
        "numerics.quad2d.integrand_calls": integrand_calls,
        "numerics.quad2d.points_per_integrand_call": points / integrand_calls if integrand_calls else 0.0,
        "numerics.quad2d.refused": counts.get("numerics.quad2d.refused", 0),
        "numerics.quad2d.useful_evals_frac": (
            counts.get("numerics.quad2d.useful_evals", 0) / evals if evals else 1.0
        ),
        "numerics.minimize_1d.objective_calls": counts.get("numerics.minimize_1d.objective_calls", 0),
        "numerics.lp_solve.calls": calls["numerics.lp_solve"],
        "numerics.lp_solve.s": total["numerics.lp_solve"],
        "numerics.self_s": layer_self["numerics"],
        "conformal.integrand.s": integrand_s,
        "conformal.integrand.points_per_s": points / integrand_s if integrand_s > 0 else 0.0,
        "conformal.self_s": layer_self["conformal"],
    }
    m["layers.self_s"] = sum(layer_self[layer] for layer in LAYERS)
    return m
