"""Tube-field extension and the ambient particle flow."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from spherelab import ambient
from spherelab.ambient import (
    ParticleEnsemble,
    TubeField,
    _bump,
    _CandidateRecord,
    _FaceCache,
    _closest_faces,
    _closest_on_triangles,
    _field_batch,
    _gradient_bound,
    area_preservation_residual,
    build_ensemble,
    conformality_residual,
    curved_surface_distance,
    evaluate_tube_field,
    integrate_palais_flow,
    residual_json,
    trajectory_csv,
)
from spherelab.errors import ClosestPointAmbiguous, StepTooLarge
from spherelab.flow import run_uniformization
from spherelab.mesh import SurfaceMesh
from spherelab.sphere import AmbientPoint
from spherelab.zoo import clifford_torus, lawson_tau


def _torus_field(n=32, a=0.2, b=0.15):
    """Clifford torus with a smooth synthetic conformal factor."""
    mesh = clifford_torus(n)
    th = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    ph = np.arctan2(mesh.vertices[:, 3], mesh.vertices[:, 2])
    u = a * np.sin(th) + b * np.cos(ph)
    return mesh, u, TubeField.from_flow(mesh, u)


def _flow_field(nu=48, nv=12):
    mesh = lawson_tau(3, 1, nu, nv)
    _, u = run_uniformization(mesh, tol=1e-4)
    return mesh, u.values, TubeField.from_flow(mesh, u.values)


def test_bump_profile_plateau_support_and_slope():
    eps = 0.23
    rho = np.linspace(0.0, 3 * eps, 400)
    B, dB = _bump(rho, eps)
    inner = rho <= eps
    outer = rho >= 2 * eps
    assert np.all(B[inner] == 1.0)
    assert np.all(dB[inner] == 0.0)
    assert np.all(B[outer] == 0.0)
    assert np.all(dB[outer] == 0.0)
    mid = ~inner & ~outer
    assert np.all(np.diff(B[mid]) < 0), "cutoff must decrease across the shell"
    # analytic extremum of the quintic: 1.875 / eps at the shell midpoint
    assert abs(np.max(np.abs(dB)) - 1.875 / eps) < 1e-3
    # C^1 at the junctions
    for s in (eps, 2 * eps):
        h = 1e-7
        fd = (_bump(s + h, eps)[0] - _bump(s - h, eps)[0]) / (2 * h)
        assert abs(fd) < 1e-5


def _all_face_distances(cache, x):
    cp_all, _ = _closest_on_triangles(
        np.repeat(x[None], cache.n_faces, axis=0), cache.v0, cache.ab,
        cache.ac)
    return np.linalg.norm(x - cp_all, axis=1)


def _masked_claims_reference(P, A, AB, AC):
    """The closest-point region test as six masked claims, in claim order."""
    AP = P - A
    d1 = np.einsum("ij,ij->i", AB, AP)
    d2 = np.einsum("ij,ij->i", AC, AP)
    BP = AP - AB
    d3 = np.einsum("ij,ij->i", AB, BP)
    d4 = np.einsum("ij,ij->i", AC, BP)
    CP = AP - AC
    d5 = np.einsum("ij,ij->i", AB, CP)
    d6 = np.einsum("ij,ij->i", AC, CP)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / (d1 - d3)
        w_ac = d2 / (d2 - d6)
        w_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom

    n = len(P)
    bary = np.zeros((n, 3))
    taken = np.zeros(n, dtype=bool)

    def claim(cond):
        m = cond & ~taken
        taken[m] = True
        return m

    m = claim((d1 <= 0) & (d2 <= 0))                        # vertex A
    bary[m, 0] = 1.0
    m = claim((d3 >= 0) & (d4 <= d3))                       # vertex B
    bary[m, 1] = 1.0
    m = claim((d6 >= 0) & (d5 <= d6))                       # vertex C
    bary[m, 2] = 1.0
    m = claim((vc <= 0) & (d1 >= 0) & (d3 <= 0))            # edge AB
    bary[m, 0] = 1 - v_ab[m]
    bary[m, 1] = v_ab[m]
    m = claim((vb <= 0) & (d2 >= 0) & (d6 <= 0))            # edge AC
    bary[m, 0] = 1 - w_ac[m]
    bary[m, 2] = w_ac[m]
    m = claim((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0))  # edge BC
    bary[m, 1] = 1 - w_bc[m]
    bary[m, 2] = w_bc[m]
    interior = ~taken
    bary[interior, 0] = 1 - v_in[interior] - w_in[interior]
    bary[interior, 1] = v_in[interior]
    bary[interior, 2] = w_in[interior]
    cp = A + bary[:, 1:2] * AB + bary[:, 2:3] * AC
    return cp, bary


def test_region_lookup_equals_the_masked_claims_bit_for_bit():
    rng = np.random.default_rng(19)
    A, AB, AC = rng.standard_normal((3, 500, 4))
    cases = {"random": (rng.standard_normal((500, 4)), A, AB, AC),
             "at A": (A.copy(), A, AB, AC),
             "at B": (A + AB, A, AB, AC),
             "at an edge midpoint": (A + 0.5 * AB, A, AB, AC),
             "on a degenerate face": (rng.standard_normal((500, 4)), A, AB,
                                      2.0 * AB)}
    # uniform tau_{3,1} 24x6: vertices 6, 54 and 102 lie 1e-16 apart, so
    # every face near them sees a point on or beside one of its corners
    mesh = lawson_tau(3, 1, 24, 6)
    cache = _FaceCache(mesh)
    assert np.abs(mesh.vertices[[54, 102]] - mesh.vertices[6]).max() < 1e-15
    P = np.repeat(mesh.vertices[[6, 54, 102]], cache.n_faces, axis=0)
    F = np.tile(np.arange(cache.n_faces), 3)
    cases["triple point"] = (P, cache.v0[F], cache.ab[F], cache.ac[F])
    for label, args in cases.items():
        cp, bary = _closest_on_triangles(*args)
        cp_ref, bary_ref = _masked_claims_reference(*args)
        assert cp.tobytes() == cp_ref.tobytes(), label
        assert bary.tobytes() == bary_ref.tobytes(), label


def test_closest_point_matches_brute_force():
    mesh = clifford_torus(12)
    field = TubeField(mesh, ((0.0, np.zeros(mesh.n_vertices)),), 0.2)
    cache = field._cache
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)

    def check(Y, label, record=None):
        _, _, _, dist, dist2, _, _ = _closest_faces(cache, Y, _record=record)
        for i, y in enumerate(Y):
            d_all = np.sort(_all_face_distances(cache, y))
            assert abs(dist[i] - d_all[0]) < 1e-12, f"{label} {i} best"
            assert abs(dist2[i] - d_all[1]) < 1e-12, f"{label} {i} runner-up"

    check(X, "point")

    # certificates: every face outside a record is at least 2 slack farther
    # than the best face, which is what makes reuse within slack exact
    rec = _CandidateRecord(*X.shape)
    check(X, "certified point", rec)
    assert np.array_equal(rec.anchor, X) and np.all(rec.slack > 0)
    for i, x in enumerate(X):
        d_all = _all_face_distances(cache, x)
        outside = np.ones(cache.n_faces, dtype=bool)
        outside[rec.faces[i][np.isfinite(rec.lower[i])]] = False
        assert d_all.min() + 2 * rec.slack[i] <= d_all[outside].min(), \
            f"point {i}: slack {rec.slack[i]} is not certified"

    # moved by less than the slack: candidates reused, anchors kept;
    # moved by more: searched again, anchors refreshed
    v = rng.standard_normal(X.shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for scale in (1e-3, 0.3, 0.9):
        check(X + scale * rec.slack[:, None] * v, f"point reused at {scale}",
              rec)
        assert np.array_equal(rec.anchor, X)
    far = X + 1.5 * rec.slack[:, None] * v
    check(far, "re-searched point", rec)
    assert np.array_equal(rec.anchor, far)


def test_pruning_keeps_the_runner_up_of_a_reused_set():
    # Faces B and C point a vertex at x0 along the line through their
    # centroids, so |x - c_f| - r_f is their exact distance from points on
    # that line and the pruning bound is tight there.  Three faces make
    # every candidate set complete, so the record is always reused.
    def spike(tip, u, r=0.5, w=0.3):
        mid = tip + 1.5 * r * u
        side = w * np.cross(u, [0.0, 0.0, 1.0])
        return [tip, mid + side, mid - side]

    x0 = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])
    s, tiny = 0.1, 1e-4
    V = np.array([[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 3.0, 0.0]]
                 + spike(x0 - 1.3 * ex, -ex)
                 + spike(x0 + (1.3 + 2 * s - tiny) * ex, ex))
    cache = _FaceCache(SimpleNamespace(vertices=V,
                                       faces=np.arange(9).reshape(3, 3)))
    rec = _CandidateRecord(1, 3)
    _closest_faces(cache, x0[None], _record=rec)
    assert rec.slack[0] == np.inf
    # moving s toward C brings it to 1.3 + s - tiny, under B at 1.3 + s
    x = x0 + s * ex
    face, _, _, dist, dist2, _, face2 = _closest_faces(cache, x[None],
                                                       _record=rec)
    assert np.array_equal(rec.anchor[0], x0), "the record must be reused"
    assert (face[0], face2[0]) == (0, 2)
    d_all = np.sort(_all_face_distances(cache, x))
    assert abs(dist[0] - d_all[0]) < 1e-12
    assert abs(dist2[0] - d_all[1]) < 1e-12
    assert abs(dist2[0] - (1.3 + s - tiny)) < 1e-12


def test_a_batch_answers_each_row_as_that_row_alone(monkeypatch):
    # One batch mixes rows within the slack of their record, rows moved
    # beyond it, and a row without a record whose 32 nearest centroids do
    # not certify its closest face, but whose 128 nearest do.  Each row's
    # answers and record row must be those it gets alone with its own
    # record, so that a batch may hold any mix of rows.
    cache = _FaceCache(lawson_tau(3, 1, 24, 6))
    rng = np.random.default_rng(0)

    def sphere_points(n):
        X = rng.standard_normal((n, 4))
        return X / np.linalg.norm(X, axis=1, keepdims=True)

    def certifies(x, k):
        cd, _ = cache.tree.query(x, k=k)
        return cd[-1] > _all_face_distances(cache, x).min() + cache.max_spread

    late = next(x for x in sphere_points(100)
                if not certifies(x, 32) and certifies(x, 128))
    X0 = np.insert(sphere_points(8), 4, late, axis=0)
    rec = _CandidateRecord(*X0.shape)
    _closest_faces(cache, X0, rec)
    rec.slack[4] = -np.inf
    # rows 0, 2, 5, 7 move within their slack, rows 1, 3, 6, 8 beyond it
    reused = np.array([1, 0, 1, 0, 0, 1, 0, 1, 0], dtype=bool)
    scale = np.where(reused, 0.5, 1.5) * np.maximum(rec.slack, 0.0)
    X = X0 + scale[:, None] * sphere_points(9)
    alone = [copy.copy(rec) for _ in range(9)]
    for i, row in enumerate(alone):
        row.keep([i])
    tree, asked = cache.tree, []
    monkeypatch.setattr(cache, "tree", SimpleNamespace(
        query=lambda Y, k: asked.append((k, len(Y))) or tree.query(Y, k=k)))
    batch = _closest_faces(cache, X, rec)
    assert asked == [(32, 5), (128, 1)]
    assert np.array_equal(rec.anchor[reused], X0[reused])
    assert np.array_equal(rec.anchor[~reused], X[~reused])
    for i, row in enumerate(alone):
        answers = _closest_faces(cache, X[i:i + 1], row)
        for a, b in zip(batch, answers):
            assert a[i:i + 1].tobytes() == b.tobytes(), f"row {i}"
        for name in ("anchor", "faces", "lower", "reach", "slack"):
            assert getattr(rec, name)[i:i + 1].tobytes() == \
                getattr(row, name).tobytes(), f"row {i} {name}"

    calls = []
    monkeypatch.setattr(ambient, "_closest_on_triangles",
                        lambda *args: calls.append(args))
    empty = _closest_faces(cache, np.empty((0, 4)), _CandidateRecord(0, 4))
    assert calls == [] and all(len(a) == 0 for a in empty)


def test_gradient_is_exact_derivative_of_value():
    _, _, field = _flow_field()
    ens = build_ensemble(field, 6, 14, 0, seed=11)
    X = ens.positions
    h = 1e-6
    for t in (0.35, 0.9):
        _, grads = _field_batch(field, X, t)
        worst = 0.0
        for i, x in enumerate(X):
            for k in range(4):
                e = np.zeros(4)
                e[k] = 1.0
                e -= (e @ x) * x
                norm = np.linalg.norm(e)
                if norm < 0.3:
                    continue
                e /= norm
                vp, _ = _field_batch(field, (np.cos(h) * x + np.sin(h) * e)[None], t)
                vm, _ = _field_batch(field, (np.cos(h) * x - np.sin(h) * e)[None], t)
                worst = max(worst, abs((vp[0] - vm[0]) / (2 * h) - grads[i] @ e))
        assert worst < 1e-8, f"finite differences disagree at t={t}: {worst}"


def test_singleton_evaluation_matches_batch_and_is_tangent():
    _, _, field = _flow_field()
    ens = build_ensemble(field, 3, 3, 0, seed=4)
    vals, grads = _field_batch(field, ens.positions, 0.7)
    for i, x in enumerate(ens.positions):
        v, tv = evaluate_tube_field(field, AmbientPoint(x), 0.7)
        assert v == vals[i]
        assert np.array_equal(tv.vec, grads[i])
        assert abs(tv.vec @ x) < 1e-12


def test_field_vanishes_identically_beyond_outer_shell():
    mesh, _, field = _torus_field()
    rng = np.random.default_rng(9)
    far = []
    while len(far) < 30:
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        _, _, _, d, _, _, _ = _closest_faces(field._cache, x[None])
        if d[0] > 2 * field.epsilon:
            far.append(x)
    vals, grads = _field_batch(field, np.array(far), 0.9)
    assert np.all(vals == 0.0)
    assert np.all(grads == 0.0)


def test_each_row_of_a_mixed_batch_is_the_row_evaluated_alone():
    # beyond the support, exactly on a mesh vertex, in the shell
    # eps < d < 2 eps and inside the inner tube, all in one batch
    mesh, _, field = _torus_field()
    eps = field.epsilon
    ens = build_ensemble(field, 2, 4, 3, seed=1)
    at = [5, 40, 77, 300]
    delta = np.array([0.5, 1.3, 1.7, 0.0])[:, None] * eps
    lifted = (np.cos(delta) * mesh.vertices[at]
              + np.sin(delta) * mesh.vertex_normals[at])
    X = np.vstack([ens.positions, lifted])
    X = X[np.random.default_rng(0).permutation(len(X))]
    d = _closest_faces(field._cache, X)[3]
    far = d >= 2 * eps
    for kind in (d == 0, (d > 0) & (d <= eps), (d > eps) & ~far, far):
        assert kind.any()
    vals, grads = _field_batch(field, X, 0.7)
    for i, x in enumerate(X):
        v, g = _field_batch(field, x[None], 0.7)
        assert v.tobytes() == vals[i:i + 1].tobytes()
        assert g.tobytes() == grads[i:i + 1].tobytes()
    assert np.isfinite(grads).all() and not grads[d == 0].any()
    assert vals[far].tobytes() == np.zeros(far.sum()).tobytes()
    assert grads[far].tobytes() == np.zeros((far.sum(), 4)).tobytes()


def _reference_rk4(field, X, t_end, dt):
    """integrate_palais_flow's loop, searching closest faces afresh."""
    def unit(Y):
        return Y / np.linalg.norm(Y, axis=1, keepdims=True)

    X = X.copy()
    t = 0.0
    for _ in range(int(np.ceil(t_end / dt - 1e-12))):
        h = min(dt, t_end - t)
        _, k1 = _field_batch(field, X, t)
        _, k2 = _field_batch(field, unit(X + 0.5 * h * k1), t + 0.5 * h)
        _, k3 = _field_batch(field, unit(X + 0.5 * h * k2), t + 0.5 * h)
        _, k4 = _field_batch(field, unit(X + h * k3), t + h)
        moved = (np.abs(k1).max(axis=1) + np.abs(k2).max(axis=1)
                 + np.abs(k3).max(axis=1) + np.abs(k4).max(axis=1)) > 0.0
        Xn = X[moved] + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)[moved]
        X[moved] = unit(Xn)
        t += h
    return X


def test_candidate_reuse_keeps_the_flow_bit_exact(monkeypatch):
    mesh, _, field = _flow_field()
    dt = 0.5 * field.epsilon / (4.0 * _gradient_bound(field))
    t_end = 40 * dt
    ens = build_ensemble(field, 8, 8, 8, seed=5)
    carrier = ParticleEnsemble(mesh.vertices.copy(),
                               ["vertex"] * mesh.n_vertices, [])
    tree = field._cache.tree
    asked = []

    class CountingTree:
        def query(self, X, k):
            asked.append(len(X))
            return tree.query(X, k=k)

    for start in (ens, carrier):
        expected = _reference_rk4(field, start.positions, t_end, dt)
        monkeypatch.setattr(field._cache, "tree", CountingTree())
        asked.clear()
        out = integrate_palais_flow(field, start, t_end, dt)
        monkeypatch.setattr(field._cache, "tree", tree)
        assert np.array_equal(out.positions, expected)
        stages = 4 * 40 * len(start.positions)
        assert sum(asked) < 0.1 * stages, "candidates were not reused"
        assert np.abs(out.positions - start.positions).max() > 1e-4, \
            "the particles must really move"


def test_certificates_prune_with_exact_distances(monkeypatch):
    # the spherelab ambient defaults: seed 7 on tau_{3,1} 24x6 to t = 0.25;
    # with centroid bounds |x0 - c_f| - r_f in the record, a triangle-test
    # call took 423 pairs on average
    mesh = lawson_tau(3, 1, 24, 6)
    _, u = run_uniformization(mesh, tol=1e-4)
    field = TubeField.from_flow(mesh, u.values)
    dt = 0.5 * field.epsilon / (4.0 * _gradient_bound(field))
    ens = build_ensemble(field, seed=7)
    expected = _reference_rk4(field, ens.positions, 0.25, dt)
    pairs = []

    def triangles(P, *rest):
        pairs.append(len(P))
        return _closest_on_triangles(P, *rest)

    monkeypatch.setattr(ambient, "_closest_on_triangles", triangles)
    out = integrate_palais_flow(field, ens, 0.25, dt)
    assert np.array_equal(out.positions, expected)
    assert np.mean(pairs) < 150


def _spy_on_triangle_tests(monkeypatch):
    """(calls, batches): per triangle-test call (1-based index of its field
    batch, points), and the row count of each field batch."""
    batches, calls = [], []

    def field_batch(*args):
        batches.append(len(args[1]))
        return _field_batch(*args)

    def triangles(P, *rest):
        calls.append((len(batches), P))
        return _closest_on_triangles(P, *rest)

    monkeypatch.setattr(ambient, "_field_batch", field_batch)
    monkeypatch.setattr(ambient, "_closest_on_triangles", triangles)
    return calls, batches


def test_stage_memo_skips_the_search_at_repeated_stage_points(monkeypatch):
    # outside particles never move, so after the first step each stage
    # point repeats bit for bit and takes its closest faces from the memo
    _, _, field = _torus_field()
    ens = build_ensemble(field, 0, 0, 12, seed=21)
    calls, _ = _spy_on_triangle_tests(monkeypatch)
    out = integrate_palais_flow(field, ens, 0.4, 0.01)
    assert len(out.log) == 1 + 40
    assert {batch for batch, _ in calls} == {1, 2, 3, 4}


def test_stage_memo_tests_only_the_carrier_vertices_that_move(monkeypatch):
    mesh = lawson_tau(3, 1, 24, 6)
    _, u = run_uniformization(mesh, tol=1e-4)
    field = TubeField.from_flow(mesh, u.values)
    dt = 0.5 * field.epsilon / (4.0 * _gradient_bound(field))
    carrier = ParticleEnsemble(mesh.vertices.copy(),
                               ["vertex"] * mesh.n_vertices, [])
    calls, sizes = _spy_on_triangle_tests(monkeypatch)
    integrate_palais_flow(field, carrier, 40 * dt, dt)
    # the vertices that can move are the rows left in the batches after
    # step 1; row 54 stays there (an edge code), though under this u its
    # velocity rounds away and it ends where it started
    live = max(sizes[4:])
    assert live < 0.1 * mesh.n_vertices
    later = [len(np.unique(P, axis=0)) for batch, P in calls if batch > 4]
    assert max(later, default=0) <= live


def test_rows_certified_at_rest_leave_every_later_batch(monkeypatch):
    # At t = 0 the flow's u is 0, so every k1 of the first step is zero: a
    # rule that froze rows on an observed zero velocity would freeze all
    # 60 + 144 = 204 rows.  The certificate leaves 40 ensemble rows (the 20
    # outside rows freeze) and 1 carrier row in every batch after step 1.
    mesh = lawson_tau(3, 1, 24, 6)
    _, u = run_uniformization(mesh, tol=1e-4)
    field = TubeField.from_flow(mesh, u.values)
    dt = 0.5 * field.epsilon / (4.0 * _gradient_bound(field))
    ens = build_ensemble(field, seed=7)
    carrier = ParticleEnsemble(mesh.vertices.copy(),
                               ["vertex"] * mesh.n_vertices, [])
    sizes = []

    def field_batch(*args):
        sizes.append(len(args[1]))
        return _field_batch(*args)

    for start, n_live in ((ens, 40), (carrier, 1)):
        expected = _reference_rk4(field, start.positions, 40 * dt, dt)
        monkeypatch.setattr(ambient, "_field_batch", field_batch)
        sizes.clear()
        out = integrate_palais_flow(field, start, 40 * dt, dt)
        monkeypatch.setattr(ambient, "_field_batch", _field_batch)
        n = len(start.positions)
        assert sizes == [n] * 4 + [n_live] * (4 * 39)
        assert np.array_equal(out.positions, expected)
        if start is ens:  # the carrier's one live row ends where it started
            assert np.any(out.positions != start.positions)


def test_freezing_hides_no_closest_point_ambiguity():
    # The ambiguity guard of _field_batch reads only rows inside 2 epsilon,
    # and it reads u(t) there, so a row on which it could raise must stay
    # in the batch.  A corner row's ties are its adjacent faces, which share
    # its vertex, unless two sheets touch.  Uniform tau_{3,1} 24x6 has 24
    # coincident vertex pairs, and carrier row 54 ties with a face of
    # another sheet.
    mesh = lawson_tau(3, 1, 24, 6)
    assert len(cKDTree(mesh.vertices).query_pairs(1e-12)) == 24
    _, u = run_uniformization(mesh, tol=1e-4)
    field = TubeField.from_flow(mesh, u.values)
    cache = field._cache
    for X in (mesh.vertices, ambient._reproject(mesh.vertices)):
        face, _, _, dist, dist2, _, face2 = _closest_faces(cache, X)
        fa, fb = mesh.faces[face], mesh.faces[face2]
        apart = ~(fa[:, :, None] == fb[:, None, :]).any(axis=(1, 2))
        sheet_tie = np.flatnonzero(apart & (dist2 - dist < 1e-9)
                                   & (dist < 2 * field.epsilon))
        assert 54 in sheet_tie
        certified = ambient._never_moves(field, X, _CandidateRecord(*X.shape))
        assert not certified[sheet_tie].any()

    # two sheets whose corners 0 and 3 coincide: u is 0 through the first
    # step and then splits them, so the guard raises in the second step on
    # a particle that never moves
    e = np.eye(4)
    s = 0.3
    V = np.array([e[0], np.cos(s) * e[0] + np.sin(s) * e[1],
                  np.cos(s) * e[0] + np.sin(s) * e[2],
                  e[0], np.cos(s) * e[0] + np.sin(s) * e[3],
                  np.cos(s) * e[0] - np.sin(s) * e[1]])
    sheets = SurfaceMesh(3, V, np.array([[0, 1, 2], [3, 4, 5]]),
                         boundary_loops=[[0, 1, 2], [3, 4, 5]],
                         name="two sheets meeting at a corner")
    h = 5e-4
    u1 = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    field = TubeField(sheets, ((0.0, 0 * u1), (1.5 * h, 0 * u1), (1.0, u1)),
                      epsilon=0.1)
    assert h <= field.epsilon / (4.0 * _gradient_bound(field))
    rec = _CandidateRecord(2, 4)
    assert list(ambient._never_moves(field, V[[0, 1]], rec)) == [False, True]
    lone = ParticleEnsemble(V[[1]], ["corner"], [])
    assert np.array_equal(integrate_palais_flow(field, lone, 3 * h, h).positions,
                          V[[1]])
    touching = ParticleEnsemble(V[[0]], ["corner"], [])
    with pytest.raises(ClosestPointAmbiguous):
        integrate_palais_flow(field, touching, 3 * h, h)


def test_coincident_vertices_of_uniform_tau_evaluate():
    # uniform tau_{3,1} covers one great circle three times: 24 vertex pairs
    # coincide, so faces of another sheet lie at distance 0 from a vertex
    mesh = lawson_tau(3, 1, 24, 6)
    pairs = cKDTree(mesh.vertices).query_pairs(1e-12)
    assert len(pairs) == 24
    _, u = run_uniformization(mesh, tol=1e-4)
    field = TubeField.from_flow(mesh, u.values)
    face, _, _, dist, dist2, _, face2 = _closest_faces(field._cache,
                                                       mesh.vertices)
    fa, fb = mesh.faces[face], mesh.faces[face2]
    apart = ~(fa[:, :, None] == fb[:, None, :]).any(axis=(1, 2))
    assert np.any(apart & (dist2 - dist < 1e-9)), \
        "the ambiguity guard must compare faces of two sheets"
    for t in (0.0, 0.5, 1.0):
        vals, _ = _field_batch(field, mesh.vertices, t)
        assert np.all(np.isfinite(vals))


def test_outside_particles_never_move():
    _, _, field = _torus_field()
    ens = build_ensemble(field, 0, 0, 15, seed=21)
    before = ens.positions.copy()
    out = integrate_palais_flow(field, ens, 1.0, 0.01)
    assert np.array_equal(out.positions, before), \
        "outside particles must be bit-identical after the flow"


def test_step_bound_enforced():
    _, _, field = _torus_field()
    ens = build_ensemble(field, 4, 4, 2, seed=3)
    bound = _gradient_bound(field)
    dt_max = field.epsilon / (4 * bound)
    with pytest.raises(StepTooLarge):
        integrate_palais_flow(field, ens, 1.0, 1.5 * dt_max)
    integrate_palais_flow(field, ens, 0.05, 0.9 * dt_max)


def test_ensemble_seeding_tags_and_distances():
    _, _, field = _torus_field()
    ens = build_ensemble(field, 7, 8, 9, seed=13)
    again = build_ensemble(field, 7, 8, 9, seed=13)
    other = build_ensemble(field, 7, 8, 9, seed=14)
    assert ens.tags == ["on_surface"] * 7 + ["in_tube"] * 8 + ["outside"] * 9
    assert np.array_equal(ens.positions, again.positions)
    assert not np.array_equal(ens.positions, other.positions)
    assert np.max(np.abs(np.linalg.norm(ens.positions, axis=1) - 1)) < 1e-8

    assert curved_surface_distance(field, ens.positions[:7]).max() < 1e-12, \
        "surface particles sit on curved faces"
    _, _, _, d, _, _, _ = _closest_faces(field._cache, ens.positions)
    assert np.max(d[:7]) < 0.01, "chordal offset bounded by the sagitta"
    assert np.all(d[7:15] > 1e-4) and np.all(d[7:15] < 2 * field.epsilon)
    assert np.all(d[15:] > 2 * field.epsilon)


def _curved_distance_reference(field, X):
    """Per face, lstsq onto the face's span (then its edges and corners when
    the face's cone misses), over every face with the points as columns."""
    V, F = field.source_mesh.vertices, field.source_mesh.faces

    def cone(T):
        q = np.linalg.lstsq(T.T, X.T, rcond=None)[0]
        p = (T.T @ q).T
        norm = np.linalg.norm(p, axis=1)
        ok = (norm > 1e-14) & (q >= -1e-12).all(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.linalg.norm(X - p / norm[:, None], axis=1)
        return np.where(ok, d, np.inf)

    best = np.full(len(X), np.inf)
    for tri in V[F]:
        face = cone(tri)
        rest = np.min([cone(tri[[0, 1]]), cone(tri[[0, 2]]), cone(tri[[1, 2]]),
                       *np.linalg.norm(tri[:, None] - X, axis=2)], axis=0)
        best = np.minimum(best, np.where(np.isfinite(face), face, rest))
    return best


@pytest.mark.parametrize("build, n, tube_floor", [
    (lambda: lawson_tau(3, 1, 24, 6), 20, 1e-4),
    (lambda: clifford_torus(16), 20, 1e-4),
    # surface particle 159 lies on a face that is not among the 12 with the
    # nearest centroids; the nearest of the 400 tube particles is 7.6e-5 off
    (lambda: lawson_tau(3, 1, 24, 6), 400, 5e-5),
], ids=["tau31_24x6", "clifford_16", "tau31_24x6_400"])
def test_curved_distance_matches_the_lstsq_loop_over_all_faces(build, n, tube_floor):
    mesh = build()
    field = TubeField.from_flow(mesh, np.zeros(mesh.n_vertices))
    ens = build_ensemble(field, n, n, n, seed=3)
    X = np.vstack([ens.positions, mesh.vertices])
    d = curved_surface_distance(field, X)
    ref = _curved_distance_reference(field, X)
    assert np.abs(d - ref).max() < 1e-14
    assert ref[:n].max() < 1e-12 and ref[n:2 * n].min() > tube_floor


def test_jacobian_table_of_a_flat_and_a_degenerate_face():
    V = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                  [0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [2.0, 0.0, 3.0]])
    cache = _FaceCache(SimpleNamespace(vertices=V,
                                       faces=np.array([[0, 1, 2], [3, 4, 5]])))
    J = cache.jacobian
    assert np.all(J[:, [0, 1, 2, 4]] == 0.0)
    # on the face, u o cp is the linear interpolant: its gradient lies in
    # the face's plane and differences along the edges give u1 - u0, u2 - u0
    u = np.array([0.0, 0.3, -0.7])
    du = u[1:] - u[0]
    g = J[0, 7] @ du
    assert abs(g[2]) < 1e-15
    assert np.allclose([g @ (V[1] - V[0]), g @ (V[2] - V[0])], du, atol=1e-15)
    # on an edge, it is the interpolant along the edge: a multiple of it
    for code, a, b in ((3, 0, 1), (5, 0, 2), (6, 1, 2)):
        t = V[b] - V[a]
        g = J[0, code] @ du
        assert np.allclose(g, t * (g @ t) / (t @ t), atol=1e-15)
        assert abs(g @ t - (u[b] - u[a])) < 1e-15
    # a collinear face is built without raising; only its face entry is not finite
    assert not np.isfinite(J[1, 7]).any() and np.isfinite(J[1, :7]).all()


def test_negative_rounding_barycentric_entry_gets_a_zero_jacobian():
    # carrier vertex 128 of tau_{3,1} 24x6 at the CLI's default dt: its
    # stage-2 point of the first RK4 step lies on corner 1 of face 136 with
    # barycentrics (-5.2e-17, 1, 5.2e-17); the edge-(1, 2) entry of the
    # table would move it, the corner it sits on must not
    mesh = lawson_tau(3, 1, 24, 6)
    _, u = run_uniformization(mesh, tol=1e-4)
    field = TubeField.from_flow(mesh, u.values)
    dt = 0.5 * field.epsilon / (4.0 * _gradient_bound(field))
    _, k1 = _field_batch(field, mesh.vertices, 0.0)
    y = ambient._reproject(mesh.vertices + 0.5 * dt * k1)[128:129]
    face, _, bary, _, _, _, _ = _closest_faces(field._cache, y)
    assert face[0] == 136
    assert -1e-16 < bary[0, 0] < 0 < bary[0, 2] < 1e-16
    assert np.any(field._cache.jacobian[136, 6] != 0.0)
    _, grad = _field_batch(field, y, 0.5 * dt)
    assert np.all(grad == 0.0)


def test_surface_particles_stay_near_curved_surface():
    _, _, field = _flow_field()
    ens = build_ensemble(field, 12, 0, 0, seed=7)
    d0 = curved_surface_distance(field, ens.positions)
    assert d0.max() < 1e-12
    out = integrate_palais_flow(field, ens, 1.0, 5e-4)
    d1 = curved_surface_distance(field, out.positions)
    assert d1.max() < 5e-4, f"surface drift {d1.max()}"
    # and they really travelled
    assert np.linalg.norm(out.positions - ens.positions, axis=1).max() > 0.05


def test_reversed_schedule_returns_particles():
    # The reversal bound assumes the field is smooth along trajectories, so
    # seed over face barycenters (far from the gradient discontinuities
    # over mesh edges) and keep the horizon below the seeding clearance.
    # Particles that reach an edge kink slide and cannot be recovered by
    # any integrator.
    mesh, u, field = _torus_field()
    cache = field._cache
    rng = np.random.default_rng(11)
    faces = rng.choice(mesh.n_faces, 24, replace=False)
    centers = cache.v0[faces] + (cache.ab[faces] + cache.ac[faces]) / 3.0
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    heights = np.tile([0.0, 0.5, 0.8], 8) * field.epsilon
    pos = []
    for x, f, h in zip(centers, faces, heights):
        span = np.linalg.qr(np.stack([x, cache.ab[f], cache.ac[f]]).T)[0]
        v = rng.standard_normal(4)
        v -= span @ (span.T @ v)
        v /= np.linalg.norm(v)
        pos.append(np.cos(h) * x + np.sin(h) * v)
    pos = np.array(pos)
    ens = ParticleEnsemble(pos, ["ctrl"] * len(pos), [(0.0, pos.copy())])

    t_end = 0.3
    dt = 0.5 * field.epsilon / (4 * _gradient_bound(field))
    out = integrate_palais_flow(field, ens, t_end, dt)
    moved = np.linalg.norm(out.positions - pos, axis=1).max()
    assert moved > 5e-3, "reversal test must involve real motion"

    reverse = TubeField(
        mesh, ((0.0, -field.u_at(t_end)), (t_end, np.zeros(len(u)))),
        field.epsilon)
    back = integrate_palais_flow(
        reverse,
        ParticleEnsemble(out.positions.copy(), list(out.tags),
                         [(0.0, out.positions.copy())]),
        t_end, dt)
    err = np.linalg.norm(back.positions - pos, axis=1).max()
    assert err < 1e-5, f"reversal error {err}"


def test_ambiguous_closest_point_between_sheets():
    def tri_at(center, spread):
        c = np.asarray(center, float)
        c /= np.linalg.norm(c)
        tangents = []
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            e -= (e @ c) * c
            if np.linalg.norm(e) > 0.5:
                tangents.append(e / np.linalg.norm(e))
            if len(tangents) == 2:
                break
        t1, t2 = tangents
        return np.array([c * np.cos(spread)
                         + np.sin(spread) * (np.cos(a) * t1 + np.sin(a) * t2)
                         for a in (0.0, 2.1, 4.2)])

    V = np.vstack([tri_at([1, 0, 0, 0], 0.3), tri_at([-1, 0, 0.2, 0], 0.3)])
    F = np.array([[0, 1, 2], [3, 4, 5]])
    sheets = SurfaceMesh(3, V, F, boundary_loops=[[0, 1, 2], [3, 4, 5]],
                         name="two sheets")
    u = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    field = TubeField(sheets, ((0.0, u),), epsilon=1.2)
    cache = field._cache

    def gap(s):
        x = np.array([np.cos(s), 0.0, np.sin(s), 0.0])
        cp0, _ = _closest_on_triangles(x[None], cache.v0[:1], cache.ab[:1],
                                       cache.ac[:1])
        cp1, _ = _closest_on_triangles(x[None], cache.v0[1:], cache.ab[1:],
                                       cache.ac[1:])
        return np.linalg.norm(x - cp0[0]) - np.linalg.norm(x - cp1[0])

    s_star = brentq(gap, 0.2, 2.9, xtol=1e-15)
    x = np.array([np.cos(s_star), 0.0, np.sin(s_star), 0.0])
    with pytest.raises(ClosestPointAmbiguous):
        _field_batch(field, x[None], 0.0)


def test_constant_factor_control_case():
    # A constant u has a flat extension inside the inner tube: the gradient
    # vanishes, nothing moves, and the conformality residual must expose
    # the full mismatch |1 - e^{-c}| instead of silently passing.
    mesh, _, base_field = _flow_field()
    c = 0.15
    const = np.full(mesh.n_vertices, c)
    field = TubeField(mesh, ((0.0, np.zeros(mesh.n_vertices)), (1.0, const)),
                      base_field.epsilon)
    ens = ParticleEnsemble(mesh.vertices.copy(), ["vertex"] * mesh.n_vertices,
                           [(0.0, mesh.vertices.copy())])
    out = integrate_palais_flow(field, ens, 1.0, 5e-3)
    assert np.array_equal(out.positions, mesh.vertices)
    report = conformality_residual(field, out.positions, const)
    assert abs(report["max_conformality_residual"] - (1 - np.exp(-c))) < 1e-12
    assert abs(report["median_conformality_residual"] - (1 - np.exp(-c))) < 1e-12


def test_conformality_report_keys_and_json():
    mesh, u, field = _flow_field()
    ens = build_ensemble(field, 6, 0, 0, seed=3)
    out = integrate_palais_flow(field, ens, 0.2, 7e-4)
    fix = float(curved_surface_distance(field, out.positions).max())
    vens = ParticleEnsemble(mesh.vertices.copy(), ["vertex"] * mesh.n_vertices,
                            [(0.0, mesh.vertices.copy())])
    vout = integrate_palais_flow(field, vens, 0.2, 7e-4)
    report = conformality_residual(field, vout.positions, u,
                                   surface_fixing_error=fix)
    assert set(report) == {"max_conformality_residual",
                           "median_conformality_residual",
                           "max_H_after", "surface_fixing_error"}
    assert report["max_conformality_residual"] >= \
        report["median_conformality_residual"] >= 0
    assert report["max_H_after"] > 0
    text = residual_json(report)
    import json

    parsed = json.loads(text)
    assert list(parsed) == sorted(report)
    assert float(parsed["surface_fixing_error"]) == fix


def test_trajectory_csv_layout_and_determinism():
    _, _, field = _torus_field()
    ens = build_ensemble(field, 2, 2, 1, seed=5)
    out = integrate_palais_flow(field, ens, 0.1, 0.02)
    text = trajectory_csv(out)
    lines = text.strip().split("\n")
    assert lines[0] == "particle_id,tag,t,x0,x1,x2,x3"
    steps = len(out.log)
    assert len(lines) == 1 + steps * 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "on_surface" and first[2] == "0"

    # rebuilding everything from the same seed reproduces the bytes
    out2 = integrate_palais_flow(field, build_ensemble(field, 2, 2, 1, seed=5),
                                 0.1, 0.02)
    assert trajectory_csv(out2) == text


def test_area_preservation_residual_flow_vs_generic():
    mesh, u, _ = _flow_field()
    assert area_preservation_residual(mesh, u) < 1e-12
    bulk = np.full(mesh.n_vertices, 0.1)
    assert abs(area_preservation_residual(mesh, bulk)
               - (np.exp(0.2) - 1)) < 1e-12


def test_schedule_interpolation_and_validation():
    mesh = clifford_torus(8)
    n = mesh.n_vertices
    u0, u1 = np.zeros(n), np.ones(n)
    field = TubeField(mesh, ((0.2, u0), (0.8, u1)), 0.1)
    assert np.array_equal(field.u_at(0.0), u0)
    assert np.array_equal(field.u_at(1.0), u1)
    assert abs(field.u_at(0.5)[0] - 0.5) < 1e-15

    with pytest.raises(ValueError):
        TubeField(mesh, ((0.8, u0), (0.2, u1)), 0.1)
    with pytest.raises(ValueError):
        TubeField(mesh, ((0.0, np.zeros(n - 1)),), 0.1)
    with pytest.raises(ValueError):
        TubeField(mesh, ((0.0, u0),), 0.0)
    with pytest.raises(ValueError):
        ParticleEnsemble(2 * mesh.vertices[:4], ["a"] * 4, [])


def test_default_tube_radius_from_curvature():
    from spherelab.extrinsic import second_fundamental_norm

    mesh = clifford_torus(24)
    field = TubeField.from_flow(mesh, np.zeros(mesh.n_vertices))
    alpha = second_fundamental_norm(mesh).values
    assert abs(field.epsilon - 0.5 / np.sqrt(alpha.max())) < 1e-12


def test_integration_time_grid_handles_uneven_final_step():
    # a weak field so dt = 0.1 respects the step bound
    _, _, field = _torus_field(a=0.002, b=0.0015)
    ens = build_ensemble(field, 2, 2, 0, seed=8)
    out = integrate_palais_flow(field, ens, 0.25, 0.1)
    times = [t for t, _ in out.log]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.25])


def _spy_on_closest_faces(monkeypatch):
    calls = []

    def closest_faces(cache, X, *rest):
        calls.append(len(X))
        return _closest_faces(cache, X, *rest)

    monkeypatch.setattr(ambient, "_closest_faces", closest_faces)
    return calls


def test_too_wide_a_tube_is_refused_instead_of_sampled_forever(monkeypatch):
    # no point of S^3 lies much more than 0.395 from tau_{3,1} 24x6, so no
    # outside particle can sit beyond 2.1 epsilon = 0.525; no centroid lies
    # that far either, and a centroid distance bounds the surface distance
    # from above, so no candidate needs an exact distance
    mesh = lawson_tau(3, 1, 24, 6)
    field = TubeField.from_flow(mesh, np.zeros(mesh.n_vertices), epsilon=0.25)
    calls = _spy_on_closest_faces(monkeypatch)
    with pytest.raises(ValueError, match="epsilon = 0.25"):
        build_ensemble(field)
    assert calls == []


def _outside_reference(field, n_outside, seed):
    """build_ensemble's outside particles, every fallback candidate measured
    exactly; the surface and tube draws of size 0 leave the stream alone."""
    rng = np.random.default_rng(seed)
    cache, eps = field._cache, field.epsilon
    outside = np.empty((0, 4))
    for _ in range(ambient._OUTSIDE_ROUNDS):
        if len(outside) >= n_outside:
            break
        cand = rng.standard_normal((4 * n_outside, 4))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        d, _ = cache.tree.query(cand, k=1)
        far = cand[d - cache.max_diam > 2.2 * eps]
        if len(far) == 0:
            _, _, _, dist, _, _, _ = _closest_faces(cache, cand)
            far = cand[dist > 2.1 * eps]
        outside = np.vstack([outside, far[: n_outside - len(outside)]])
    return outside


def test_outside_fallback_measures_only_candidates_that_can_pass(monkeypatch):
    # tau_{3,1} 64x16 is fine enough that the centroid bound leaves no
    # slack, so every outside particle comes from the exact fallback
    mesh = lawson_tau(3, 1, 64, 16)
    field = TubeField.from_flow(mesh, np.zeros(mesh.n_vertices))
    calls = _spy_on_closest_faces(monkeypatch)
    for seed in range(4):
        ens = build_ensemble(field, 0, 0, 20, seed=seed)
        assert np.array_equal(ens.positions, _outside_reference(field, 20, seed))
    assert calls and max(calls) < 80


@pytest.mark.parametrize("epsilon", [0.0, -0.1, np.nan, np.inf])
def test_tube_radius_must_be_finite_and_positive(epsilon):
    mesh = lawson_tau(3, 1, 24, 6)
    with pytest.raises(ValueError, match="^epsilon = "):
        TubeField.from_flow(mesh, np.zeros(mesh.n_vertices), epsilon=epsilon)


def test_default_step_is_half_the_stable_step():
    mesh, _, field = _flow_field(24, 6)
    dt = 0.5 * field.epsilon / (4.0 * _gradient_bound(field))
    ens = build_ensemble(field, 4, 4, 4, seed=7)
    for start in (ens, ParticleEnsemble(mesh.vertices.copy(),
                                        ["vertex"] * mesh.n_vertices, [])):
        by_default = integrate_palais_flow(field, start, 6 * dt)
        explicit = integrate_palais_flow(field, start, 6 * dt, dt)
        assert np.array_equal(by_default.positions, explicit.positions)
        assert [t for t, _ in by_default.log] == [t for t, _ in explicit.log]
        if start is ens:  # the carrier's one live row ends where it started
            assert np.abs(by_default.positions - start.positions).max() > 0.0


def test_default_step_without_a_factor_is_one_step_to_t_end():
    mesh = lawson_tau(3, 1, 24, 6)
    field = TubeField.from_flow(mesh, np.zeros(mesh.n_vertices))
    assert _gradient_bound(field) == 0.0
    ens = build_ensemble(field, 2, 2, 2, seed=8)
    out = integrate_palais_flow(field, ens, 0.3)
    assert [t for t, _ in out.log[len(ens.log):]] == [0.3]
    assert np.array_equal(out.positions, ens.positions)
    assert len(integrate_palais_flow(field, ens, 0.0).log) == len(ens.log)


@pytest.mark.parametrize("t_end, dt, name", [(0.1, 0.0, "dt"), (0.1, -1e-3, "dt"),
                                             (-0.1, 1e-3, "t_end"),
                                             (np.inf, 1e-3, "t_end"),
                                             (0.1, np.nan, "dt")])
def test_integration_refuses_nonpositive_dt_and_negative_t_end(t_end, dt, name):
    _, _, field = _torus_field(a=0.002, b=0.0015)
    ens = build_ensemble(field, 2, 2, 0, seed=8)
    with pytest.raises(ValueError, match=f"^{name} ="):
        integrate_palais_flow(field, ens, t_end, dt)


@pytest.mark.parametrize("positions, tags, message", [
    (np.eye(4)[:3], ["a"], "1 tags for 3 particles"),
    (np.array([[1.0, 0, 0, 0], [0, np.nan, 0, 0], [0, 0, 1, 0]]), ["a"] * 3,
     "1 of 3 particles are off the unit sphere"),
    (np.empty((0, 4)), [], "0 tags for 0 particles"),
], ids=["tag_count", "nan_row", "empty"])
def test_an_ensemble_refuses_malformed_rows(positions, tags, message):
    with pytest.raises(ValueError, match=message):
        ParticleEnsemble(positions, tags, [])
