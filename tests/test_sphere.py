import numpy as np
import pytest

from spherelab import sphere
from spherelab.errors import (
    AntipodalPair,
    DegenerateFrame,
    DimensionMismatch,
    NonOrthonormalBasis,
    ZeroVector,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_project_to_sphere_unit():
    p = sphere.project_to_sphere(np.array([3.0, 0.0, 4.0, 0.0]))
    assert np.allclose(p.coords, [0.6, 0.0, 0.8, 0.0])
    assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-15


def test_project_zero_raises():
    with pytest.raises(ZeroVector):
        sphere.project_to_sphere(np.zeros(4))


def test_ambient_point_rejects_non_unit():
    with pytest.raises(Exception):
        sphere.AmbientPoint(np.array([1.0, 1e-3, 0.0, 0.0]))


def test_nan_passes_no_unit_or_orthogonality_guard():
    # every comparison with NaN is false, so the guards read not (x <= tol)
    with pytest.raises(ValueError, match="nan"):
        sphere.AmbientPoint(np.array([np.nan, 0.0, 0.0, 1.0]))
    Q = np.eye(4)
    Q[0, 0] = np.nan
    with pytest.raises(NonOrthonormalBasis, match="= nan"):
        sphere.SphereIsometry(Q)


def test_geodesic_distance_matches_angle():
    rng = _rng(7)
    for _ in range(50):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        p = sphere.project_to_sphere(u)
        q = sphere.project_to_sphere(v)
        d = sphere.geodesic_distance(p, q)
        cos = np.dot(p.coords, q.coords)
        assert abs(d - np.arccos(np.clip(cos, -1, 1))) < 1e-12


def test_geodesic_distance_small_angle_accuracy():
    # the chord formula must resolve tiny separations that arccos flattens
    p = np.array([1.0, 0.0, 0.0, 0.0])
    for eps in (1e-5, 1e-7, 1e-9):
        q = np.array([np.cos(eps), np.sin(eps), 0.0, 0.0])
        d = sphere.geodesic_distances(p[None], q[None])[0]
        assert abs(d - eps) < 1e-15 + 1e-10 * eps


def test_exp_log_roundtrip():
    rng = _rng(3)
    for _ in range(40):
        p = sphere.project_to_sphere(rng.normal(size=4))
        v = rng.normal(size=4)
        v -= np.dot(v, p.coords) * p.coords
        v *= 0.4 * np.pi / max(np.linalg.norm(v), 1e-30)
        q = sphere.exp_map(sphere.TangentVector(p, v))
        w = sphere.log_map(p, q)
        assert np.linalg.norm(w.vec - v) < 1e-10


def test_log_map_antipodal_raises():
    p = sphere.AmbientPoint(np.array([1.0, 0.0, 0.0, 0.0]))
    q = sphere.AmbientPoint(np.array([-1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(AntipodalPair):
        sphere.log_map(p, q)


def test_log_map_norm_is_distance():
    rng = _rng(11)
    for _ in range(30):
        p = sphere.project_to_sphere(rng.normal(size=6))
        q = sphere.project_to_sphere(rng.normal(size=6))
        w = sphere.log_map(p, q)
        assert abs(w.norm - sphere.geodesic_distance(p, q)) < 1e-12


def test_dimension_mismatch_raises():
    p = sphere.AmbientPoint(np.array([1.0, 0.0, 0.0, 0.0]))
    q = sphere.AmbientPoint(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        sphere.geodesic_distance(p, q)


def test_tangent_project_rows_orthogonal():
    rng = _rng(5)
    base = sphere.project_rows(rng.normal(size=(20, 5)))
    vecs = rng.normal(size=(20, 5))
    tan = sphere.tangent_project_rows(base, vecs)
    assert np.max(np.abs(np.sum(tan * base, axis=1))) < 1e-12


def test_split_tangent_normal_reconstructs():
    rng = _rng(9)
    p = sphere.project_to_sphere(rng.normal(size=5))
    # a (non-orthonormal) independent tangent frame at p
    frame = []
    for _ in range(2):
        v = rng.normal(size=5)
        v -= np.dot(v, p.coords) * p.coords
        frame.append(sphere.TangentVector(p, v))
    amb = rng.normal(size=5)
    amb -= np.dot(amb, p.coords) * p.coords  # make it tangent to the sphere
    v = sphere.TangentVector(p, amb)
    t, n = sphere.split_tangent_normal(frame, v)
    assert np.linalg.norm(t.vec + n.vec - amb) < 1e-10
    assert abs(np.dot(n.vec, frame[0].vec)) < 1e-9
    assert abs(np.dot(n.vec, frame[1].vec)) < 1e-9


def test_split_degenerate_frame_raises():
    p = sphere.AmbientPoint(np.array([0.0, 0.0, 1.0, 0.0]))
    frame = [
        sphere.TangentVector(p, np.array([1.0, 0.0, 0.0, 0.0])),
        sphere.TangentVector(p, np.array([1.0, 1e-14, 0.0, 0.0])),
    ]
    with pytest.raises(DegenerateFrame):
        sphere.split_tangent_normal(frame, sphere.TangentVector(p, np.array([0.0, 1.0, 0.0, 0.0])))


def test_reflection_fixes_circle_and_is_involution():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    R = sphere.reflection_across_great_circle(np.array([e1, e2]))
    # fixes the spanning circle
    th = np.linspace(0, 2 * np.pi, 9)
    pts = np.outer(np.cos(th), e1) + np.outer(np.sin(th), e2)
    assert np.allclose(R.apply_rows(pts), pts)
    # involution
    rng = _rng(2)
    x = sphere.project_rows(rng.normal(size=(10, 4)))
    assert np.allclose(R.apply_rows(R.apply_rows(x)), x, atol=1e-14)
    # distance preserving
    a, b = x[0], x[1]
    pa = sphere.AmbientPoint(a)
    pb = sphere.AmbientPoint(b)
    ra = sphere.AmbientPoint(R.apply_rows(a[None])[0])
    rb = sphere.AmbientPoint(R.apply_rows(b[None])[0])
    assert abs(sphere.geodesic_distance(pa, pb) -
               sphere.geodesic_distance(ra, rb)) < 1e-12


def test_reflection_rejects_sloppy_basis():
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.1, 1.0, 0.0, 0.0]])
    with pytest.raises(NonOrthonormalBasis):
        sphere.reflection_across_great_circle(rows)


def test_isometry_compose_and_apply():
    rng = _rng(4)
    # random rotation via QR
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    iso = sphere.SphereIsometry(q)
    x = sphere.project_rows(rng.normal(size=(6, 4)))
    assert np.allclose(iso.compose(iso).apply_rows(x),
                       iso.apply_rows(iso.apply_rows(x)), atol=1e-13)
