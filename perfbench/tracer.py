"""In-memory span tracing of spherelab's layers, installed from outside.

The package itself carries no tracing.  `Tracer.install` replaces every
public function of the nine layer modules -- and every private one another
module imports, such as ``ambient._gradient_bound`` -- at each binding where
a module looks it up, so lazy imports inside functions and
``from .mesh import face_areas`` style bindings both resolve to the traced
copy.  Public classes get their ``__init__`` and public methods and
classmethods wrapped on the class itself, which covers every binding at
once and keeps ``isinstance`` working.

A span is ``[name, layer, start, end, parent, work]``; ``work`` is an
optional count taken from the call's arguments or returned object (faces
validated, vertices fitted, bytes written, ...).  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("sphere", "mesh", "extrinsic", "zoo", "functionals", "flow",
          "ambient", "plateau", "cli")
BENCH = "bench"


def _size(path) -> int:
    return os.path.getsize(path)


def _rk4(args, kwargs, out):
    # (steps, particles) of one integrate_palais_flow call
    return (len(out.log) - len(args[1].log), len(out.positions))


# Work counts derived from arguments or returned objects, keyed by span name.
WORK = {
    "SurfaceMesh.__init__": lambda a, k, out: a[0].n_faces,
    "ExtrinsicField.compute": lambda a, k, out: len(out.alpha_sq),
    "second_fundamental_norm": lambda a, k, out: len(out.values),
    "save_mesh": lambda a, k, out: _size(a[1]),
    "load_mesh": lambda a, k, out: _size(a[0]),
    "solve_plateau": lambda a, k, out: out.iterations,
    "run_uniformization": lambda a, k, out: (len(out[0].rows) - 1,
                                             out[0].rows[-1]["step"]),
    "integrate_palais_flow": _rk4,
}

# Entry points of the mesh module that evaluate a discrete metric.
METRIC = {"DiscreteMetric.__init__", "DiscreteMetric.scaled",
          "DiscreteMetric.as_euclidean", "induced_metric", "face_angles",
          "face_areas", "vertex_dual_areas", "total_area",
          "angle_defect_curvature"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    span[5] = work(args, kwargs, out)
                return out
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def run(self, name: str, fn):
        """Call ``fn()`` inside a span of the benchmark's own code."""
        return self._wrap(fn, name, BENCH)()

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"spherelab.{layer}") for layer in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    foreign = any(vars(m).get(name) is obj for m in mods.values()
                                  if m is not mod)
                    if not name.startswith("_") or foreign:
                        replace[id(obj)] = (obj, self._wrap(obj, name, layer))
                elif inspect.isclass(obj) and not name.startswith("_"):
                    self._wrap_class(obj, layer)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, replace[id(obj)][1])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self, first: int, stop: int):
        s = self.spans[first:stop]
        start = np.array([x[2] for x in s])
        dur = np.array([x[3] for x in s]) - start
        parent = np.array([x[4] - first if x[4] >= first else -1 for x in s], dtype=np.int64)
        child = np.zeros(len(s))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return s, dur, dur - child, parent

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "work": work}) + "\n")


def layer_metrics(tracer: Tracer, first: int, stop: int, wall_s: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics of one pass, the spans ``first:stop``."""
    spans, dur, self_t, parent = tracer.arrays(first, stop)
    names = [s[0] for s in spans]
    layers = [s[1] for s in spans]
    out = {}
    for layer in LAYERS + (BENCH,):
        mask = np.array([lay == layer for lay in layers], dtype=bool)
        out[f"{layer}.self_s"] = float(self_t[mask].sum()) if len(mask) else 0.0
        if layer != BENCH:
            out[f"{layer}.calls"] = int(mask.sum())

    def pick(want):
        return [i for i, n in enumerate(names) if n in want]

    def done(want):
        """Spans named in ``want`` that returned, so their work is known."""
        return [i for i in pick(want) if spans[i][5] is not None]

    def outermost(want):
        """Spans named in ``want`` whose parent is not also in ``want``."""
        return [i for i in pick(want) if parent[i] < 0 or names[parent[i]] not in want]

    def total(idx, arr=dur):
        return float(arr[idx].sum()) if idx else 0.0

    def work(idx):
        return sum(spans[i][5] or 0 for i in idx)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def under(i, ancestor):
        while i >= 0:
            if names[i] == ancestor:
                return True
            i = parent[i]
        return False

    val = outermost({"SurfaceMesh.__init__"})
    io_ = outermost({"save_mesh", "load_mesh"})
    metric = outermost(METRIC)
    out["mesh.validate_us_per_face"] = ratio(total(val), work(val), 1e6)
    out["mesh.io_s"] = total(io_)
    out["mesh.io_mb"] = work(io_) / 1e6
    out["mesh.metric_us_per_call"] = ratio(total(metric), len(metric), 1e6)

    quad = done({"ExtrinsicField.compute", "second_fundamental_norm"})
    out["extrinsic.quadric_us_per_vertex"] = ratio(total(quad, self_t), work(quad), 1e6)
    out["extrinsic.cotan_h_s"] = total(outermost({"mean_curvature_vector",
                                                  "max_mean_curvature"}))
    out["zoo.weld_s"] = total(outermost({"weld_vertices"}))

    flows = done({"run_uniformization"})
    accepted = sum(spans[i][5][0] for i in flows)
    attempted = sum(spans[i][5][1] for i in flows)
    evals = sum(1 for i in pick({"angle_defect_curvature"})
                if under(i, "run_uniformization"))
    out["flow.accepted_steps"] = accepted
    out["flow.rejected_steps"] = attempted - accepted
    out["flow.curvature_evals_per_step"] = ratio(evals, accepted)
    out["flow.ms_per_accepted_step"] = ratio(total(flows), accepted, 1e3)

    rk4 = done({"integrate_palais_flow"})
    steps = sum(spans[i][5][0] for i in rk4)
    stages = sum(4 * spans[i][5][0] * spans[i][5][1] for i in rk4)
    out["ambient.rk4_steps"] = steps
    out["ambient.us_per_particle_stage"] = ratio(total(rk4), stages, 1e6)
    out["ambient.curved_distance_s"] = total(pick({"curved_surface_distance"}))
    out["ambient.field_setup_s"] = total(pick({"TubeField.from_flow"}))

    plateau = done({"solve_plateau"})
    iters = work(plateau)
    out["plateau.iterations"] = iters
    out["plateau.ms_per_iteration"] = ratio(total(plateau), iters, 1e3)
    out["plateau.assemble_s"] = total(outermost({"assemble_by_reflection"}))

    out["cli.output_mb"] = output_bytes / 1e6
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(spans)
    return out


# Counts that must repeat exactly from pass to pass and run to run.
COUNTS = tuple(f"{layer}.calls" for layer in LAYERS) + (
    "flow.accepted_steps", "flow.rejected_steps", "ambient.rk4_steps",
    "plateau.iterations", "trace.spans")
