"""Area-preserving conformal deformation to constant scalar curvature.

Starting from the induced metric of a closed mesh, the flow seeks
per-vertex conformal log-factors u with s_i = s_bar = 4 pi chi / a, where
edges scale as l~_ij = e^{(u_i + u_j)/2} l_ij (Luo's vertex scaling) and a
is the total area, which every step restores exactly by adding a constant
to u.  Curvature is the Euclidean-law angle defect on the scaled metric,
which keeps the Gauss-Bonnet sum at 4 pi chi to machine precision; the
willmore proxy is 4 times the area each accepted metric measures, which
the renormalisation holds constant, mirroring the invariance of the
Willmore energy under conformal change.

Every step is a Newton step on the angle defects s_i A_i / 2.  Their
Jacobian with respect to u is the cotan Laplacian L of the scaled metric,
the Hessian of the convex energy of Springborn, Schroeder and Pinkall
(2008), so a step solves

    L(u) du = -1/2 (s - s_bar) A,      du_0 = 0,

and the area shift restores the constant.  For chi = 0 this is exact
Newton; for chi != 0 it leaves out the dA/du term (a chord step) and
converges linearly.  The step length starts at 1 in every state and halves
while a scaled triangle violates the triangle inequality or the Lyapunov
energy int (s - s_bar)^2 dmu increases.  Combinatorics are frozen (no edge
flips), a documented limitation for extreme conformal factors.

Cost model: one sparse factorisation (V - 1 unknowns) and one curvature
evaluation per attempted step.  A FlowState carries its metric and the
curvature s_i and dual areas A_i of that metric; the Laplacian reads the
metric's cached half-cotangents, the Lyapunov test and the trace read the
candidate's evaluation, and the area renormalisation builds two or three
scaled metrics per attempt.  A torus reaches tol 1e-4 in two or three
steps at every grid.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve

from .errors import NonConvergence, NumericFailure, TriangleViolation
from .extrinsic import cotan_laplacian
from .mesh import (
    DiscreteMetric,
    EUCLIDEAN,
    SurfaceMesh,
    VertexField,
    angle_defect_curvature,
    euler_characteristic,
    induced_metric,
    vertex_dual_areas,
)

__all__ = [
    "FlowState",
    "FlowTrace",
    "conformal_lengths",
    "flow_step",
    "run_uniformization",
    "trace_csv",
]

@dataclass(frozen=True)
class FlowState:
    """One instant of the flow; ``metric`` is the scaled metric of ``u``,
    ``s`` and ``dual`` its curvature and dual areas, ``area`` the target
    area, and the diagnostics measure s against the target curvature."""

    u: VertexField
    time: float
    area: float
    curvature_dev: float
    lyapunov: float
    metric: DiscreteMetric
    s: np.ndarray
    dual: np.ndarray


@dataclass(frozen=True)
class FlowTrace:
    """History of a flow run: one CSV-facing record per accepted step,
    including step index, dt and the Lyapunov energy."""

    rows: list

    def check_invariants(self):
        """Raise NumericFailure if area or total scalar curvature drifts."""
        areas = np.array([r["area"] for r in self.rows])
        scal = np.array([r["total_scalar"] for r in self.rows])
        if np.max(np.abs(areas / areas[0] - 1.0)) > 1e-9:
            raise NumericFailure("area drifts along the trace")
        if np.max(np.abs(scal - scal[0])) > 1e-9 * max(1.0, abs(scal[0])):
            raise NumericFailure("total scalar curvature drifts along the trace")


def conformal_lengths(base: DiscreteMetric, u: VertexField) -> DiscreteMetric:
    """Scale edges by the geometric mean of the endpoint factors e^u.

    First-order consistent with the smooth scaling of lengths by e^u.
    The metric's own guard raises TriangleViolation, listing the offending
    faces, when a scaled triangle has no flat realisation.
    """
    vals = u.values
    if len(vals) != base.n_vertices:
        raise ValueError("factor field does not match the metric's vertex count")
    scale = np.exp(0.5 * (vals[base.edges[:, 0]] + vals[base.edges[:, 1]]))
    return DiscreteMetric(base.edges, base.lengths * scale, EUCLIDEAN,
                          base.face_edge_ids, base.n_vertices)


def _evaluated(mesh: SurfaceMesh, u: np.ndarray, metric: DiscreteMetric,
               time: float, area: float, target: float) -> FlowState:
    """The state at factors u: the one curvature evaluation of ``metric``."""
    A = vertex_dual_areas(mesh, metric).values
    s = angle_defect_curvature(mesh, metric, A).values
    return FlowState(VertexField(u), time, area,
                     float(np.max(np.abs(s - target))),
                     float(np.sum((s - target) ** 2 * A)), metric, s, A)


def _initial_state(mesh: SurfaceMesh, base: DiscreteMetric):
    """(state at u = 0, target curvature s_bar = 4 pi chi / a)."""
    area = float(np.sum(base.areas))
    target = 4.0 * np.pi * euler_characteristic(mesh) / area
    return _evaluated(mesh, np.zeros(mesh.n_vertices), base, 0.0, area, target), target


def _renormalized(mesh: SurfaceMesh, base: DiscreteMetric, u: np.ndarray,
                  target_area: float):
    """Scaled metric with u shifted so the area is exactly target_area.

    A uniform additive shift c multiplies every length by e^c and the area
    by e^{2c}, so one exact logarithm restores the area; one extra pass
    absorbs the rounding of exp.
    """
    metric = conformal_lengths(base, VertexField(u))
    for _ in range(2):
        c = 0.5 * np.log(target_area / float(np.sum(metric.areas)))
        u = u + c
        if c != 0.0:  # c = 0 scales no length: metric is already that of u
            metric = conformal_lengths(base, VertexField(u))
        if abs(c) < 1e-15:
            break
    return u, metric


def flow_step(state: FlowState, dt: float, target: float, mesh: SurfaceMesh,
              base: DiscreteMetric) -> FlowState:
    """``dt`` times the Newton step toward curvature ``target``,
    area-preserving (module docstring).

    Solves on the cotan Laplacian of ``state.metric`` with du_0 = 0 and
    evaluates the candidate's curvature once.  Propagates TriangleViolation
    untouched so the driver can shorten the step.
    """
    L = cotan_laplacian(mesh, state.metric).tocsc()[1:, 1:]
    du = spsolve(L, -0.5 * ((state.s - target) * state.dual)[1:])
    u = state.u.values + dt * np.concatenate([[0.0], du])
    u, metric = _renormalized(mesh, base, u, state.area)
    return _evaluated(mesh, u, metric, state.time + dt, state.area, target)


def run_uniformization(mesh: SurfaceMesh, tol: float = 1e-4,
                       max_steps: int = 20000):
    """Drive the flow until max_i |s_i - s_bar| < tol.

    Returns (FlowTrace, final u) for the first state within ``tol``, the
    state after the last of ``max_steps`` attempted steps included.  The
    target is s_bar = 4 pi chi / a, a the Euclidean-law area of the induced
    metric (exactly 0 for chi = 0).  The trace's ``dt`` is the accepted step
    length and ``time`` their running sum.  Raises NonConvergence, carrying
    the trace and the last accepted state, when that state misses ``tol`` or
    the step length falls under 1e-14; NumericFailure when the trace's area
    or total curvature drifts; ValueError for an open mesh, a tol that is
    not finite and positive, or max_steps < 1.
    """
    if not mesh.is_closed:
        raise ValueError("the flow runs on closed meshes")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol = {tol} must be finite and positive")
    if max_steps < 1:
        raise ValueError(f"max_steps = {max_steps} must be at least 1")
    base = induced_metric(mesh).as_euclidean()
    state, target = _initial_state(mesh, base)

    rows = []

    def record(step, st, dtv):
        area = float(np.sum(st.metric.areas))
        rows.append({"step": step, "time": st.time, "dt": dtv, "area": area,
                     "curvature_dev": st.curvature_dev,
                     "total_scalar": float(np.sum(st.s * st.dual)),
                     "willmore_proxy": 4.0 * area, "lyapunov": st.lyapunov})

    record(0, state, 0.0)
    dt, step = 1.0, 0
    # every state the flow can return is tested, the one after the last
    # attempt the budget allows included; a NaN deviation keeps stepping
    while not state.curvature_dev < tol:
        if step == max_steps:
            raise NonConvergence(
                f"curvature_dev = {state.curvature_dev:.3e} after {max_steps} steps",
                trace=FlowTrace(rows), state=state)
        step += 1
        cause = "Lyapunov increases"
        try:
            cand = flow_step(state, dt, target, mesh, base)
        except TriangleViolation:
            cand, cause = None, "triangle violations"
        if cand is None or cand.lyapunov > state.lyapunov * (1.0 + 1e-12):
            dt *= 0.5
            if dt < 1e-14:
                raise NonConvergence(f"dt collapsed under {cause}",
                                     trace=FlowTrace(rows), state=state)
            continue
        state = cand
        record(step, state, dt)
        dt = 1.0

    trace = FlowTrace(rows)
    trace.check_invariants()
    return trace, VertexField(state.u.values.copy())


def trace_csv(trace: FlowTrace) -> str:
    """CSV of the flow history, 17 significant digits, reproducible."""
    out = io.StringIO()
    cols = ["step", "time", "dt", "area", "curvature_dev", "total_scalar",
            "willmore_proxy", "lyapunov"]
    out.write(",".join(cols) + "\n")
    for r in trace.rows:
        out.write(",".join(
            str(r["step"]) if c == "step" else f"{r[c]:.17g}" for c in cols) + "\n")
    return out.getvalue()
