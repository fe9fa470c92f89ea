from pathlib import Path

import numpy as np
import pytest

from spherelab.errors import (
    DegenerateTriangle,
    NonConvergence,
    NumericFailure,
    TriangleViolation,
)
from spherelab.flow import (
    FlowTrace,
    _initial_state,
    conformal_lengths,
    flow_step,
    run_uniformization,
    trace_csv,
)
from spherelab.mesh import (
    EUCLIDEAN,
    DiscreteMetric,
    SurfaceMesh,
    VertexField,
    angle_defect_curvature,
    euler_characteristic,
    induced_metric,
    vertex_dual_areas,
)
from spherelab.plateau import build_xi
from spherelab.zoo import clifford_torus, great_sphere, lawson_tau, veronese_rp2

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _euclidean_base(mesh):
    return induced_metric(mesh).as_euclidean()


# ---------------------------------------------------------------------------
# conformal_lengths


def test_zero_factor_is_the_identity():
    base = _euclidean_base(clifford_torus(12))
    out = conformal_lengths(base, VertexField(np.zeros(base.n_vertices)))
    assert np.array_equal(out.lengths, base.lengths)


def test_constant_factor_scales_lengths_and_area():
    base = _euclidean_base(clifford_torus(12))
    c = 0.3
    out = conformal_lengths(base, VertexField(np.full(base.n_vertices, c)))
    assert np.max(np.abs(out.lengths / base.lengths - np.exp(c))) < 1e-12
    ratio = np.sum(out.areas) / np.sum(base.areas)
    assert abs(ratio - np.exp(2 * c)) < 1e-10


def test_smooth_factor_area_change_matches_the_integral():
    # second-order agreement between the scaled-metric area change and
    # int (e^{2u} - 1) dmu, for a smooth field sampled on two grids
    mismatches = []
    for n in (32, 64):
        m = clifford_torus(n)
        base = _euclidean_base(m)
        A = vertex_dual_areas(m, base).values
        x = np.arctan2(m.vertices[:, 1], m.vertices[:, 0])
        y = np.arctan2(m.vertices[:, 3], m.vertices[:, 2])
        u = 0.05 * np.cos(x + 0.3) + 0.03 * np.sin(2 * y - 0.7)
        scaled = conformal_lengths(base, VertexField(u))
        da = float(np.sum(scaled.areas) - np.sum(base.areas))
        pred = float(np.sum((np.exp(2 * u) - 1.0) * A))
        mismatches.append(abs(da - pred))
    assert mismatches[0] < 5e-3
    assert mismatches[1] < mismatches[0] / 3.0


def test_the_area_identity_quadrature_converges_at_second_order():
    # int (e^{2u} - 1) dmu = 0 is the area preservation of the smooth
    # deformation; its vertex quadrature on the induced metric is a
    # discretisation error of the flow's u, which halving h divides by ~4
    errors = []
    for nu, nv in ((32, 8), (64, 16), (128, 32)):
        mesh = lawson_tau(3, 1, nu, nv)
        _, u = run_uniformization(mesh, tol=1e-4)
        A = vertex_dual_areas(mesh, _euclidean_base(mesh)).values
        errors.append(abs(np.sum((np.exp(2 * u.values) - 1.0) * A)) / np.sum(A))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.8), orders


def test_triangle_violation_lists_faces():
    m = clifford_torus(12)
    base = _euclidean_base(m)
    u = np.zeros(m.n_vertices)
    u[0] = 8.0          # blow up one vertex's star
    with pytest.raises(TriangleViolation) as exc:
        conformal_lengths(base, VertexField(u))
    assert exc.value.faces, "offending faces should be listed"


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("slack, valid", [(5e-11, True), (5e-13, False)])
def test_triangle_guards_agree_at_every_scale(scale, slack, valid):
    # sides (0.005, 0.005 + slack, 0.01): relative slack 5e-9 passes, 5e-11 fails
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    face_edge_ids = np.array([[1, 2, 0]])  # column c: the edge opposite corner c
    target = scale * np.array([0.005, 0.005 + slack, 0.01])
    log_t = np.log(target)
    # vertex factors whose pairwise means scale the unit triangle to target
    u = np.array([log_t[0] + log_t[2] - log_t[1], log_t[0] + log_t[1] - log_t[2],
                  log_t[1] + log_t[2] - log_t[0]])
    base = DiscreteMetric(edges, np.ones(3), EUCLIDEAN, face_edge_ids, 3)
    try:
        conformal_lengths(base, VertexField(u))
        flow_ok = True
    except TriangleViolation:
        flow_ok = False
    try:
        DiscreteMetric(edges, target, EUCLIDEAN, face_edge_ids, 3)
        metric_ok = True
    except DegenerateTriangle:
        metric_ok = False
    assert flow_ok == metric_ok == valid


# ---------------------------------------------------------------------------
# stepping


def test_flat_torus_is_a_fixed_point():
    m = clifford_torus(16)
    base = _euclidean_base(m)
    state, target = _initial_state(m, base)
    assert target == 0.0
    stepped = flow_step(state, 0.01, 0.0, m, base)
    assert np.max(np.abs(stepped.u.values)) < 1e-10
    assert stepped.curvature_dev < 1e-9


def test_one_step_decreases_curvature_deviation():
    m = lawson_tau(3, 1, 32, 8)
    base = _euclidean_base(m)
    state, target = _initial_state(m, base)
    assert target == 0.0
    dt = 0.1 / state.curvature_dev
    stepped = flow_step(state, dt, 0.0, m, base)
    assert stepped.curvature_dev < state.curvature_dev
    assert abs(stepped.area - state.area) < 1e-12 * state.area


def test_line_search_halves_a_newton_step_that_breaks_a_triangle():
    # a Clifford torus 16x16 with its vertices jittered by 0.2 h: the full
    # first Newton step violates a triangle, half of it is accepted, and
    # the next state starts again from length 1
    clifford = clifford_torus(16)
    h = 2 * np.pi / 16 / np.sqrt(2)
    V = clifford.vertices + 0.2 * h * np.random.default_rng(0).standard_normal(
        clifford.vertices.shape)
    mesh = clifford.with_vertices(V / np.linalg.norm(V, axis=1)[:, None])
    base = _euclidean_base(mesh)
    state, target = _initial_state(mesh, base)
    with pytest.raises(TriangleViolation):
        flow_step(state, 1.0, target, mesh, base)
    trace, _ = run_uniformization(mesh, tol=1e-4)
    rows = trace.rows
    assert [r["step"] for r in rows[:3]] == [0, 2, 3]  # attempt 1 was rejected
    assert [r["dt"] for r in rows[:3]] == [0.0, 0.5, 1.0]
    assert [r["time"] for r in rows] == np.cumsum([r["dt"] for r in rows]).tolist()
    lyap = [r["lyapunov"] for r in rows]
    assert all(b < a for a, b in zip(lyap, lyap[1:]))
    assert rows[-1]["curvature_dev"] < 1e-4


# ---------------------------------------------------------------------------
# full runs


def test_great_sphere_converges_immediately():
    trace, u = run_uniformization(great_sphere(3), tol=1e-3)
    assert len(trace.rows) - 1 <= 2
    assert np.max(np.abs(u.values)) < 0.1


def test_lawson_torus_flows_to_flat():
    trace, u = run_uniformization(lawson_tau(3, 1, 48, 12), tol=1e-4,
                                  max_steps=30000)
    trace.check_invariants()
    last = trace.rows[-1]
    assert last["curvature_dev"] < 1e-4
    # chi = 0, so the target curvature is exactly zero
    assert abs(last["total_scalar"]) < 1e-9
    assert abs(last["area"] / trace.rows[0]["area"] - 1.0) < 1e-9
    proxies = [r["willmore_proxy"] for r in trace.rows]
    assert max(proxies) - min(proxies) < 1e-9 * proxies[0]
    # the factors are genuinely non-constant (the torus is not flat to start)
    assert u.values.max() - u.values.min() > 0.1


def test_lyapunov_energy_never_increases_on_accepted_steps():
    trace, _ = run_uniformization(lawson_tau(3, 1, 32, 8), tol=1e-3)
    lyap = [r["lyapunov"] for r in trace.rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(lyap, lyap[1:]))


def test_veronese_flows_to_its_topological_curvature():
    trace, _ = run_uniformization(veronese_rp2(3), tol=1e-4, max_steps=30000)
    last = trace.rows[-1]
    sbar = 4 * np.pi / last["area"]
    assert abs(sbar - 2.0 / 3.0) < 5e-3       # area -> 6 pi at this level
    assert last["curvature_dev"] < 1e-4
    assert abs(last["total_scalar"] - 4 * np.pi) < 1e-9


def test_xi21_flows_to_its_negative_topological_curvature():
    # the paper's deformation: xi_{2,1} at fixed area a to s_bar = 4 pi chi / a
    mesh, _ = build_xi(CONFIG_DIR / "xi21.json")
    chi = euler_characteristic(mesh)
    assert chi == -2
    trace, _ = run_uniformization(mesh, tol=1e-4)
    trace.check_invariants()
    last = trace.rows[-1]
    assert last["curvature_dev"] < 1e-4
    area = float(np.sum(induced_metric(mesh).as_euclidean().areas))
    assert abs(last["area"] / area - 1.0) < 1e-9
    assert 4 * np.pi * chi / area < 0
    assert abs(last["total_scalar"] - 4 * np.pi * chi) < 1e-9


def test_nonconvergence_carries_the_trace():
    with pytest.raises(NonConvergence) as exc:
        run_uniformization(lawson_tau(3, 1, 32, 8), tol=1e-12, max_steps=1)
    assert exc.value.trace is not None
    assert len(exc.value.trace.rows) >= 1
    state = exc.value.state
    assert state is not None
    assert state.curvature_dev == exc.value.trace.rows[-1]["curvature_dev"]


def test_a_state_within_tol_after_the_last_allowed_step_is_a_success():
    # the 2nd attempted step brings curvature_dev from 9.2e-2 to 2.4e-6: the
    # budget exit must test that state, not raise with it
    mesh = lawson_tau(3, 1, 32, 8)
    trace, u = run_uniformization(mesh, tol=1e-3, max_steps=2)
    assert trace.rows[-1]["step"] == 2
    assert trace.rows[-2]["curvature_dev"] >= 1e-3
    assert trace.rows[-1]["curvature_dev"] < 1e-3
    roomier, u3 = run_uniformization(mesh, tol=1e-3, max_steps=3)
    assert trace.rows == roomier.rows
    assert u.values.tobytes() == u3.values.tobytes()


def test_a_nan_deviation_is_never_a_success(monkeypatch):
    # NaN < tol is false: the flow keeps stepping and the budget exit raises
    import dataclasses

    from spherelab import flow

    evaluated = flow._evaluated

    def nan_after_start(mesh, u, metric, time, area, target):
        state = evaluated(mesh, u, metric, time, area, target)
        return dataclasses.replace(state, curvature_dev=np.nan) if time > 0 else state

    monkeypatch.setattr(flow, "_evaluated", nan_after_start)
    with pytest.raises(NonConvergence, match="curvature_dev = nan after 5 steps"):
        run_uniformization(lawson_tau(3, 1, 24, 6), tol=1e-3, max_steps=5)


def test_drifting_invariants_are_a_numeric_failure():
    # the check runs after the flow has computed: a drift is a failed
    # computation (exit 3), not bad input
    rows = [{"area": 2.0, "total_scalar": 0.0}, {"area": 2.0, "total_scalar": 1e-6}]
    with pytest.raises(NumericFailure, match="total scalar curvature drifts"):
        FlowTrace(rows).check_invariants()
    rows[1] = {"area": 2.0 * (1 + 1e-6), "total_scalar": 0.0}
    with pytest.raises(NumericFailure, match="area drifts"):
        FlowTrace(rows).check_invariants()


def test_the_trace_records_the_area_each_metric_measured(monkeypatch):
    # without the area shift the scaled metrics' areas drift from the
    # target, and the trace's area column must show it
    from spherelab import flow as flow_mod

    def unshifted(mesh, base, u, target_area):
        return u, conformal_lengths(base, VertexField(u))

    monkeypatch.setattr(flow_mod, "_renormalized", unshifted)
    with pytest.raises(NumericFailure, match="area drifts"):
        run_uniformization(lawson_tau(3, 1, 32, 8), tol=1e-4)


def test_flow_rejects_open_meshes():
    n = 8
    ang = 2 * np.pi * np.arange(n) / n
    rim = np.column_stack([np.sin(0.7) * np.cos(ang), np.sin(0.7) * np.sin(ang),
                           np.cos(0.7) * np.ones(n), np.zeros(n)])
    verts = np.vstack([[0.0, 0.0, 1.0, 0.0], rim])
    faces = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
    disc = SurfaceMesh(3, verts, np.array(faces),
                       boundary_loops=(tuple(range(1, n + 1)),))
    with pytest.raises(ValueError):
        run_uniformization(disc)


def test_trace_csv_layout_and_determinism():
    trace, _ = run_uniformization(lawson_tau(3, 1, 32, 8), tol=1e-3)
    text = trace_csv(trace)
    assert text == trace_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == ("step,time,dt,area,curvature_dev,total_scalar,"
                        "willmore_proxy,lyapunov")
    assert len(lines) == len(trace.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0"


# ---------------------------------------------------------------------------
# the endpoint of the explicit Euler flow the Newton steps replaced


def _reference_uniformization(mesh, tol, max_steps=20000):
    """The explicit Euler loop as first written: the old metric, the
    candidate, the Lyapunov test and the trace record each evaluate
    curvature, and every evaluation takes the dual areas twice.  It is an
    independent oracle for the endpoint u.

    Returns (rows, final u, rejected steps); it has no dt floor, so a run
    that would collapse never returns.
    """
    base = induced_metric(mesh).as_euclidean()

    def curvature(metric):
        return (angle_defect_curvature(mesh, metric).values,
                vertex_dual_areas(mesh, metric).values,
                float(np.sum(metric.areas)))

    def renormalized(u, target_area):
        for _ in range(2):
            metric = conformal_lengths(base, VertexField(u))
            c = 0.5 * np.log(target_area / float(np.sum(metric.areas)))
            u = u + c
            if abs(c) < 1e-15:
                break
        return u, conformal_lengths(base, VertexField(u))

    s, A, area = curvature(base)
    target = 4.0 * np.pi * euler_characteristic(mesh) / area
    u, metric, time = np.zeros(mesh.n_vertices), base, 0.0
    dev = float(np.max(np.abs(s - target)))
    lyap = float(np.sum((s - target) ** 2 * A))
    dt = 0.1 / max(dev, 1e-30)
    rows, rejected, accepted_run = [], 0, 0

    def record(step, dtv):
        s_i, A_i, _ = curvature(metric)
        rows.append({"step": step, "time": time, "dt": dtv, "area": area,
                     "curvature_dev": dev, "total_scalar": float(np.sum(s_i * A_i)),
                     "willmore_proxy": 4.0 * area, "lyapunov": lyap})

    record(0, 0.0)
    for step in range(1, max_steps + 1):
        if dev < tol:
            break
        s, _, _ = curvature(metric)
        try:
            new_u, new_metric = renormalized(u + dt * (target - s), area)
        except TriangleViolation:
            dt *= 0.5
            accepted_run, rejected = 0, rejected + 1
            continue
        s2, _, _ = curvature(new_metric)
        new_dev = float(np.max(np.abs(s2 - target)))
        s_i, A_i, _ = curvature(new_metric)
        new_lyap = float(np.sum((s_i - target) ** 2 * A_i))
        if new_lyap > lyap * (1.0 + 1e-12):
            dt *= 0.5
            accepted_run, rejected = 0, rejected + 1
            continue
        u, metric, time, dev, lyap = new_u, new_metric, time + dt, new_dev, new_lyap
        accepted_run += 1
        if accepted_run >= 5:
            dt *= 1.2
            accepted_run = 0
        record(step, dt)
    return rows, u, rejected


@pytest.mark.parametrize("build", [lambda: lawson_tau(3, 1, 32, 8),
                                   lambda: veronese_rp2(3)],
                         ids=["tau31_32x8", "veronese_L3"])
def test_newton_reaches_the_euler_endpoint_with_one_evaluation_per_step(
        build, monkeypatch):
    from spherelab import flow as flow_mod

    mesh = build()
    _, ref_u, _ = _reference_uniformization(mesh, tol=1e-4)
    evaluations = []
    evaluated = flow_mod._evaluated

    def counted(*args):
        evaluations.append(None)
        return evaluated(*args)

    monkeypatch.setattr(flow_mod, "_evaluated", counted)
    trace, u = run_uniformization(mesh, tol=1e-4)
    assert trace.rows[-1]["curvature_dev"] < 1e-4
    assert np.max(np.abs(u.values - ref_u)) < 1e-4
    # the start, then one evaluation per attempted step
    assert len(evaluations) == trace.rows[-1]["step"] + 1


# ---------------------------------------------------------------------------
# one triangle guard


def test_each_scaled_metric_checks_the_triangle_inequality_once(monkeypatch):
    import importlib
    import pkgutil

    import spherelab
    from spherelab import mesh as mesh_mod

    mesh = lawson_tau(3, 1, 32, 8)
    calls = {"slacks": 0, "metrics": 0}
    slacks, post_init = mesh_mod._triangle_slacks, DiscreteMetric.__post_init__

    def counted_slacks(L):
        calls["slacks"] += 1
        return slacks(L)

    def counted_post_init(self):
        calls["metrics"] += 1
        post_init(self)

    # every module binding of the slack kernel, however it was imported
    for info in pkgutil.iter_modules(spherelab.__path__):
        mod = importlib.import_module(f"spherelab.{info.name}")
        for name, obj in list(vars(mod).items()):
            if obj is slacks:
                monkeypatch.setattr(mod, name, counted_slacks)
    monkeypatch.setattr(DiscreteMetric, "__post_init__", counted_post_init)
    trace, _ = run_uniformization(mesh, tol=1e-4)
    # the induced metric, then at least one scaled metric per attempted step
    assert calls["metrics"] > trace.rows[-1]["step"] >= 2
    assert calls["slacks"] == calls["metrics"]


# ---------------------------------------------------------------------------
# one per-face record per metric


def test_each_metric_computes_its_angles_and_areas_once(monkeypatch):
    from spherelab.extrinsic import mean_curvature_vector

    # the builders certify minimality, which measures their induced metrics
    # on objects of their own; count only the runs below
    clifford, tau = clifford_torus(32), lawson_tau(3, 1, 16, 4)
    seen = {"angles": [], "areas": []}
    for name, keys in seen.items():
        prop = vars(DiscreteMetric)[name]

        def counted(metric, compute=prop.func, keys=keys):
            keys.append((metric.convention, metric.lengths.tobytes()))
            return compute(metric)

        monkeypatch.setattr(prop, "func", counted)
    mean_curvature_vector(clifford)
    assert [len(keys) for keys in seen.values()] == [1, 1]
    trace, _ = run_uniformization(tau, tol=1e-4)
    for keys in seen.values():
        # at least one metric per accepted state, and no metric measured twice
        assert len(keys) > len(trace.rows)
        assert len(set(keys)) == len(keys)


def test_each_curvature_evaluation_computes_the_dual_areas_once(monkeypatch):
    import importlib
    import pkgutil

    import spherelab
    from spherelab import flow as flow_mod
    from spherelab.extrinsic import ExtrinsicField

    calls = {"dual": 0, "evaluations": 0}
    evaluated = flow_mod._evaluated

    def counted_dual(mesh, metric):
        calls["dual"] += 1
        return vertex_dual_areas(mesh, metric)

    def counted_evaluated(*args):
        calls["evaluations"] += 1
        return evaluated(*args)

    for info in pkgutil.iter_modules(spherelab.__path__):
        mod = importlib.import_module(f"spherelab.{info.name}")
        if vars(mod).get("vertex_dual_areas") is vertex_dual_areas:
            monkeypatch.setattr(mod, "vertex_dual_areas", counted_dual)
    monkeypatch.setattr(flow_mod, "_evaluated", counted_evaluated)
    trace, _ = run_uniformization(lawson_tau(3, 1, 32, 8), tol=1e-4)
    # the start, then one evaluation per attempted step
    assert calls["evaluations"] == trace.rows[-1]["step"] + 1 >= 3
    assert calls["dual"] == calls["evaluations"]
    calls["dual"] = 0
    ExtrinsicField.compute(clifford_torus(16))
    assert calls["dual"] == 1


@pytest.mark.parametrize("max_steps", [0, -3])
def test_step_budget_below_one_is_refused(max_steps):
    with pytest.raises(ValueError, match="max_steps"):
        run_uniformization(clifford_torus(16), max_steps=max_steps)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="^tol = .* positive"):
        run_uniformization(clifford_torus(16), tol=tol)
