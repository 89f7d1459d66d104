"""Span tracing of besselsim's module boundaries, installed from outside.

``Tracer.install()`` wraps every public function of each besselsim module
(plus a few public methods) and rebinds each reference to it in every
besselsim module namespace, so calls that cross a module boundary through
``from .x import f`` are traced as well as calls from the benchmark.
Spans are kept in memory as (name, start, end, parent) and written out
when the run ends.  Untraced runs never call ``install``.

A call "crosses into" a layer when its parent span belongs to another
module (or there is no parent).  The per-layer metrics below are derived
from the spans after the workload has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("chambers", "zeros", "frozen", "stochastic", "moments", "freeprob", "harness")

# Public methods traced in addition to module-level functions.
METHODS = {
    "harness": {"EmpiricalMeasure": ("moments",)},
    "freeprob": {"LimitLaw": ("stieltjes", "density", "cdf")},
}

# (metric name, unit); the order is the output order.
LAYER_METRICS = (
    ("zeros.calls", "count"),
    ("zeros.time_s", "s"),
    ("frozen.solve_calls", "count"),
    ("frozen.solve_s", "s"),
    ("frozen.rk_steps", "count"),
    ("frozen.rk_reject_ratio", "ratio"),
    ("frozen.drift_calls", "count"),
    ("frozen.drift_s", "s"),
    ("stochastic.paths", "count"),
    ("stochastic.path_s", "s"),
    ("stochastic.jumps", "count"),
    ("stochastic.em_substeps", "count"),
    ("stochastic.substeps_per_record_step", "ratio"),
    ("stochastic.drift_s", "s"),
    ("stochastic.self_s", "s"),
    ("chambers.project_calls", "count"),
    ("chambers.project_s", "s"),
    ("moments.calls", "count"),
    ("moments.time_s", "s"),
    ("freeprob.transform_evals", "count"),
    ("freeprob.quadrature_builds", "count"),
    ("freeprob.characteristic_s", "s"),
    ("freeprob.invert_s", "s"),
    ("harness.time_s", "s"),
)

_PATHS = {
    "stochastic.simulate_bessel_a",
    "stochastic.simulate_bessel_b",
    "stochastic.simulate_bessel_ou",
    "stochastic.simulate_dunkl_b",
}
_DRIFTS = {"frozen.drift_a", "frozen.drift_b"}
_TRANSFORMS = {"freeprob.stieltjes", "freeprob.LimitLaw.stieltjes", "freeprob.dunkl_limit_stieltjes"}


def _solve_info(traj):
    return (traj.n_accepted, traj.n_rejected)


def _path_info(path):
    return (len(path.jump_log), path.times.size - 1)


_INSPECT = {"frozen.solve_frozen": _solve_info, **{name: _path_info for name in _PATHS}}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, tuple] = {}
        self._stack: list[int] = []

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        inspect_result = _INSPECT.get(label)
        stack, name, parent, start, end, info = (
            self._stack, self.name, self.parent, self.start, self.end, self.info
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if inspect_result is not None:
                info[idx] = inspect_result(result)
            return result

        return traced

    def install(self):
        """Wrap the public API of every layer and rebind all references to it."""
        modules = {layer: importlib.import_module(f"besselsim.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
        import besselsim

        for mod in [besselsim, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    # -- analysis -------------------------------------------------------

    def _spans(self):
        """(name id, parent index, duration, self time) per span, as arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child_time

    def layer_metrics(self) -> dict:
        """Per-layer metrics derived from the recorded spans."""
        name, parent, dur, self_time = self._spans()
        has_parent = parent >= 0
        label = np.array(self.names, dtype=object)[name]
        module = np.array([s.split(".", 1)[0] for s in label], dtype=object)
        pidx = np.where(has_parent, parent, 0)
        parent_label = np.where(has_parent, label[pidx] if label.size else "", "")
        parent_module = np.where(has_parent, module[pidx] if module.size else "", "")
        crossing = module != parent_module

        def mask(names):
            return np.isin(label, list(names))

        out = {}

        def crossing_layer(layer):
            m = crossing & (module == layer)
            return int(m.sum()), float(dur[m].sum())

        out["zeros.calls"], out["zeros.time_s"] = crossing_layer("zeros")
        solves = mask({"frozen.solve_frozen"})
        out["frozen.solve_calls"] = int(solves.sum())
        out["frozen.solve_s"] = float(dur[solves].sum())
        acc = rej = 0
        for idx in np.flatnonzero(solves):
            if int(idx) in self.info:
                a, r = self.info[int(idx)]
                acc, rej = acc + a, rej + r
        out["frozen.rk_steps"] = acc + rej
        out["frozen.rk_reject_ratio"] = rej / (acc + rej) if acc + rej else 0.0
        drifts = mask(_DRIFTS)
        in_solve = drifts & (parent_label == "frozen.solve_frozen")
        out["frozen.drift_calls"] = int(in_solve.sum())
        out["frozen.drift_s"] = float(dur[in_solve].sum())
        paths = mask(_PATHS) & crossing
        out["stochastic.paths"] = int(paths.sum())
        out["stochastic.path_s"] = float(dur[paths].sum())
        in_path = drifts & np.isin(parent_label, list(_PATHS))
        em_paths = set(int(p) for p in parent[in_path])
        jumps = record_steps = 0
        for idx in np.flatnonzero(paths):
            n_jumps, n_steps = self.info.get(int(idx), (0, 0))
            jumps += n_jumps
            if int(idx) in em_paths:
                record_steps += n_steps
        out["stochastic.jumps"] = jumps
        out["stochastic.em_substeps"] = int(in_path.sum())
        out["stochastic.substeps_per_record_step"] = (
            int(in_path.sum()) / record_steps if record_steps else 0.0
        )
        out["stochastic.drift_s"] = float(dur[in_path].sum())
        out["stochastic.self_s"] = float(self_time[paths].sum())
        proj = mask({"chambers.project_to_chamber"}) & crossing
        out["chambers.project_calls"] = int(proj.sum())
        out["chambers.project_s"] = float(dur[proj].sum())
        out["moments.calls"], out["moments.time_s"] = crossing_layer("moments")
        transforms = mask(_TRANSFORMS) & ~np.isin(parent_label, list(_TRANSFORMS))
        out["freeprob.transform_evals"] = int(transforms.sum())
        out["freeprob.quadrature_builds"] = int(mask({"freeprob.atoms_from_moments"}).sum())
        char = mask({"freeprob.dunkl_limit_stieltjes"}) & (parent_label != "freeprob.dunkl_limit_stieltjes")
        out["freeprob.characteristic_s"] = float(dur[char].sum())
        out["freeprob.invert_s"] = float(dur[mask({"freeprob.stieltjes_invert"})].sum())
        out["harness.time_s"] = float(self_time[module == "harness"].sum())
        return out

    def self_times(self) -> dict:
        """{span name: [calls, self seconds]} over the whole trace."""
        name, _, _, self_time = self._spans()
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {self.names[i]: [int(calls[i]), float(secs[i])] for i in range(len(self.names)) if calls[i]}

    def write(self, path):
        """Write the spans (names table plus one row per span) as compressed npz."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
        )
