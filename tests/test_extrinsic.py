from pathlib import Path

import numpy as np
import pytest

from spherelab import extrinsic
from spherelab.errors import (
    DimensionMismatch,
    IllConditionedFit,
    InsufficientNeighborhood,
)
from spherelab.extrinsic import (
    ExtrinsicField,
    cotan_laplacian,
    gauss_equation_residual,
    max_mean_curvature,
    mean_curvature_vector,
    second_fundamental_norm,
    surface_normals,
)
from spherelab.mesh import SurfaceMesh, induced_metric, load_mesh, save_mesh
from spherelab.plateau import build_xi
from spherelab.sphere import SphereIsometry
from spherelab.zoo import (
    clifford_torus,
    geodesic_sphere,
    great_sphere,
    lawson_tau,
    veronese_rp2,
)


XI21 = Path(__file__).resolve().parents[1] / "configs" / "xi21.json"


def _rotation(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim + 1, dim + 1)))
    return SphereIsometry(q)


def test_cotan_laplacian_is_symmetric_psd_with_zero_row_sums():
    m = great_sphere(2)
    L = cotan_laplacian(m)
    dense = L.toarray()
    assert np.max(np.abs(dense - dense.T)) < 1e-12
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-10
    eig = np.linalg.eigvalsh(dense)
    assert eig.min() > -1e-10


def test_great_sphere_is_flat_to_the_estimators():
    m = great_sphere(3)
    ex = ExtrinsicField.compute(m)
    assert np.max(np.linalg.norm(ex.mean_curvature, axis=1)) < 0.02
    assert np.max(ex.alpha_sq) < 1e-10
    assert np.max(np.abs(ex.scalar_curvature - 2.0)) < 0.05
    # the Gauss identity closes almost exactly once H is projected
    assert np.max(np.abs(ex.residual)) < 1e-6
    ex.check_invariants(m)


def test_geodesic_sphere_curvatures_match_closed_forms():
    # radius pi/4: |H| = 2 cot = 2, |alpha|^2 = 2 cot^2 = 2, s = 2 + 2 - 2 = 2
    m = geodesic_sphere(4, np.pi / 4)
    ex = ExtrinsicField.compute(m)
    hn = np.linalg.norm(ex.mean_curvature, axis=1)
    # the fitted trace carries a quadratic truncation bias at this grid
    assert abs(np.median(hn) - 2.0) < 2e-2
    assert np.max(np.abs(hn - 2.0)) < 0.05
    assert abs(np.median(ex.alpha_sq) - 2.0) < 0.05
    # the Laplacian certificate resolves the same closed form more sharply
    hl = np.linalg.norm(mean_curvature_vector(m), axis=1)
    assert abs(np.median(hl) - 2.0) < 5e-3


def test_mean_curvature_points_at_the_centre():
    # the geodesic sphere around the pole e4 must curve towards the pole
    m = geodesic_sphere(3, np.pi / 4)
    H = mean_curvature_vector(m)
    pole = np.array([0.0, 0.0, 0.0, 1.0])
    toward = pole[None, :] - (m.vertices @ pole)[:, None] * m.vertices
    toward /= np.linalg.norm(toward, axis=1, keepdims=True)
    align = np.sum(H * toward, axis=1) / np.linalg.norm(H, axis=1)
    assert np.min(align) > 0.999


def test_clifford_torus_curvatures():
    m = clifford_torus(48)
    ex = ExtrinsicField.compute(m)
    assert np.max(np.linalg.norm(ex.mean_curvature, axis=1)) < 1e-9
    # quadric-fit bias is ~2.8 h^2; at this grid that is ~0.05
    assert np.max(np.abs(ex.alpha_sq - 2.0)) < 0.1
    assert np.max(np.abs(ex.scalar_curvature)) < 0.02
    # and the bias halves when the grid step does (second order)
    ex2 = ExtrinsicField.compute(clifford_torus(96))
    assert np.max(np.abs(ex2.alpha_sq - 2.0)) < 0.35 * np.max(np.abs(ex.alpha_sq - 2.0))


def test_gauss_residual_on_great_sphere_sits_at_rounding_noise():
    # all three ingredients of the identity are exact on a great sphere, so
    # the residual has nothing left to converge
    rep = gauss_equation_residual(great_sphere(3))
    assert rep.median <= rep.max
    assert rep.max < 1e-9


def test_gauss_residual_median_decreases_under_refinement():
    meds = []
    for level in (2, 3, 4):
        rep = gauss_equation_residual(geodesic_sphere(level, np.pi / 4))
        assert rep.median <= rep.max
        meds.append(rep.median)
    assert meds[0] > meds[1] > meds[2]
    meds = [gauss_equation_residual(clifford_torus(n)).median for n in (16, 32, 64)]
    assert meds[0] > meds[1] > meds[2]


def test_isometry_equivariance_of_the_field():
    m = clifford_torus(24)
    iso = _rotation(3, seed=11)
    moved = SurfaceMesh(3, iso.apply_rows(m.vertices), m.faces,
                        name="moved", vertex_normals=m.vertex_normals @ iso.matrix.T)
    ex = ExtrinsicField.compute(m)
    ex2 = ExtrinsicField.compute(moved)
    # tangent vectors transform linearly (apply_rows would re-normalise)
    assert np.max(np.abs(ex2.mean_curvature - ex.mean_curvature @ iso.matrix.T)) < 1e-9
    assert np.max(np.abs(ex2.alpha_sq - ex.alpha_sq)) < 1e-10
    assert np.max(np.abs(ex2.residual - ex.residual)) < 1e-9


def test_alpha_sq_does_not_need_analytic_normals():
    m = clifford_torus(32)
    bare = SurfaceMesh(3, m.vertices, m.faces, name="bare")  # no normals attached
    a_agg = second_fundamental_norm(bare).values
    # the PCA frames of the log-mapped neighbourhood, which non-orientable
    # surfaces in S^3 take, fitted on the same two-ring stencils
    _, two = extrinsic._rings(bare)
    a_pca, _, ok = extrinsic._fit_stencils(bare.vertices, None,
                                           np.arange(bare.n_vertices), two)
    assert ok.all()
    assert np.max(np.abs(a_agg - 2.0)) < 0.15
    assert np.max(np.abs(a_pca - 2.0)) < 0.15


def test_surface_normals_aggregate_matches_analytic():
    m = clifford_torus(32)
    bare = SurfaceMesh(3, m.vertices, m.faces, name="bare")
    agg = surface_normals(bare)
    # sign is a global choice; compare up to it
    flips = np.sign(np.sum(agg * m.vertex_normals, axis=1))
    assert np.max(np.linalg.norm(agg * flips[:, None] - m.vertex_normals, axis=1)) < 1e-2


def test_surface_normals_reject_higher_codimension():
    m = great_sphere(1)
    lifted = np.column_stack([m.vertices, np.zeros(m.n_vertices)])
    m5 = SurfaceMesh(4, lifted, m.faces, name="lifted")
    with pytest.raises(DimensionMismatch):
        surface_normals(m5)


def test_mean_curvature_requires_closed_mesh():
    # a fan around the pole with a boundary loop
    n = 8
    ang = 2 * np.pi * np.arange(n) / n
    rim = np.column_stack([np.sin(0.7) * np.cos(ang), np.sin(0.7) * np.sin(ang),
                           np.cos(0.7) * np.ones(n), np.zeros(n)])
    verts = np.vstack([[0.0, 0.0, 1.0, 0.0], rim])
    faces = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
    disc = SurfaceMesh(3, verts, np.array(faces), boundary_loops=(tuple(range(1, n + 1)),))
    with pytest.raises(ValueError):
        mean_curvature_vector(disc)


def test_small_meshes_raise_neighbourhood_errors():
    # tetrahedron: two-rings have 3 < 5 members
    v = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    v = np.column_stack([v, np.zeros(4)])
    f = np.array([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    tetra = SurfaceMesh(3, v, f)
    with pytest.raises(InsufficientNeighborhood):
        second_fundamental_norm(tetra)
    # octahedron: 5 two-ring members, quadric stays rank deficient
    e = np.eye(3)
    v = np.column_stack([np.vstack([e, -e]), np.zeros(6)])
    f = np.array([(0, 1, 2), (1, 3, 2), (3, 4, 2), (4, 0, 2),
                  (1, 0, 5), (3, 1, 5), (4, 3, 5), (0, 4, 5)])
    octa = SurfaceMesh(3, v, f)
    with pytest.raises((IllConditionedFit, InsufficientNeighborhood)):
        second_fundamental_norm(octa)


def test_max_mean_curvature_decreases_for_minimal_builders():
    # the Clifford grid is so symmetric that its discrete H is rounding
    # noise at every resolution, hence the floor in the comparison
    floor = 1e-10
    for build in (lambda n: great_sphere(n + 1),
                  lambda n: clifford_torus(12 * 2 ** n),
                  lambda n: lawson_tau(3, 1, 16 * 2 ** n, 8 * 2 ** n)):
        vals = [max_mean_curvature(build(n)) for n in (1, 2, 3)]
        assert all(b < max(a, floor) for a, b in zip(vals, vals[1:]))


def test_gauss_residual_on_lawson_torus_converges():
    meds = [gauss_equation_residual(lawson_tau(3, 1, 24 * 2 ** n, 8 * 2 ** n)).median
            for n in (0, 1, 2)]
    assert meds[0] > meds[1] > meds[2]


# ---------------------------------------------------------------------------
# the batched quadric fit against a per-vertex least-squares reference


def _balls(mesh, radius):
    """Vertices within graph distance ``radius`` of each vertex, centre excluded."""
    nbrs = [set() for _ in range(mesh.n_vertices)]
    for i, j in mesh.edges:
        nbrs[i].add(int(j))
        nbrs[j].add(int(i))
    out = []
    for v in range(mesh.n_vertices):
        ball = {v}
        for _ in range(radius):
            ball |= set().union(*(nbrs[u] for u in ball))
        out.append(np.array(sorted(ball - {v})))
    return out


def _reference_normals(mesh):
    """Aggregated face normals of an orientable mesh in S^3, face by face:
    component k of the R^4 cross product of (centroid, edge, edge) is the
    determinant with rows (e_k, centroid, edge, edge)."""
    acc = np.zeros_like(mesh.vertices)
    for f in mesh.oriented_faces:
        p0, p1, p2 = mesh.vertices[f]
        rows = np.array([(p0 + p1 + p2) / 3, p1 - p0, p2 - p0])
        n = np.array([np.linalg.det(np.vstack([e, rows])) for e in np.eye(4)])
        for v in f:
            acc[v] += n
    acc -= np.sum(acc * mesh.vertices, axis=1)[:, None] * mesh.vertices
    return acc / np.linalg.norm(acc, axis=1)[:, None]


def _reference_fit(mesh, v, nb, normals):
    """(alpha_sq, trace, cond^2) of one vertex by weighted np.linalg.lstsq."""
    x, P = mesh.vertices[v], mesh.vertices[nb]
    dots = np.clip(P @ x, -1.0, 1.0)
    w = P - dots[:, None] * x
    W = w * (np.arccos(dots) / np.linalg.norm(w, axis=1))[:, None]
    if normals is not None:
        # the tangent plane completes span(x, normal) to an orthonormal basis
        Q, _ = np.linalg.qr(np.column_stack([x, normals[v], np.eye(4)]))
        T = Q[:, 2:4].T
    else:
        T = np.linalg.svd(W / np.linalg.norm(W, axis=1)[:, None])[2][:2]
    uv = W @ T.T
    heights = W - uv @ T
    r = np.linalg.norm(uv, axis=1)
    h = r.mean()
    sw = np.sqrt(1.0 / (r + 0.1 * h))
    u, s = uv[:, 0] / h, uv[:, 1] / h
    design = np.column_stack([np.ones_like(u), u, s, u * u / 2, u * s, s * s / 2])
    coef = np.linalg.lstsq(design * sw[:, None], heights * sw[:, None], rcond=None)[0]
    a, b, c = coef[3:] / h ** 2
    cond2 = np.linalg.cond(design * sw[:, None]) ** 2
    return np.sum(a * a + 2 * b * b + c * c), a + c, cond2


def _reference_scan(mesh, stencils):
    # frames from aggregated normals on orientable meshes in S^3, PCA otherwise
    normals = _reference_normals(mesh) if mesh.dimension == 3 and mesh.orientable else None
    fits = [_reference_fit(mesh, v, nb, normals) for v, nb in enumerate(stencils)]
    return (np.array([f[0] for f in fits]), np.array([f[1] for f in fits]),
            np.array([f[2] for f in fits]))


def _assert_close(got, ref):
    # relative to the curvature scale of the unit sphere where values vanish
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


@pytest.mark.parametrize("build", [
    lambda: great_sphere(2),           # ring sizes 15, 17 and 18: three groups
    lambda: geodesic_sphere(2, np.pi / 4),
    lambda: veronese_rp2(1),           # codimension 2, PCA frames
    lambda: clifford_torus(16),        # analytic normals attached, not used
])
def test_batched_fit_matches_per_vertex_lstsq(build):
    m = build()
    alpha_sq, H = extrinsic._quadric_scan(m)
    ref_a, ref_H, _ = _reference_scan(m, _balls(m, 2))
    _assert_close(alpha_sq, ref_a)
    _assert_close(H, ref_H)


def test_ill_conditioned_two_rings_are_refitted_on_the_widened_stencil(monkeypatch):
    m = geodesic_sphere(2, np.pi / 4)
    two, three = _balls(m, 2), _balls(m, 3)
    a2, H2, cond2 = _reference_scan(m, two)
    a3, H3, cond3 = _reference_scan(m, three)
    # two-ring conditions run from 37.4 to 40, widened ones stay below 32
    limit = 38.5
    widened = cond2 > limit
    assert widened.any() and not widened.all() and np.all(cond3 < limit)
    monkeypatch.setattr(extrinsic, "_COND_LIMIT", limit)
    alpha_sq, H = extrinsic._quadric_scan(m)
    _assert_close(alpha_sq, np.where(widened, a3, a2))
    _assert_close(H, np.where(widened[:, None], H3, H2))
    monkeypatch.setattr(extrinsic, "_COND_LIMIT", 1.0)
    with pytest.raises(IllConditionedFit, match="vertex 0 "):
        extrinsic._quadric_scan(m)


@pytest.mark.parametrize("build", [
    lambda: clifford_torus(32),
    lambda: lawson_tau(3, 1, 64, 16),
    lambda: great_sphere(3),
    lambda: build_xi(XI21)[0],
], ids=["clifford 32x32", "tau31 64x16", "great sphere L3", "xi21"])
def test_fit_is_bit_identical_for_built_bare_and_reloaded_meshes(build, tmp_path):
    # the fit reads only vertices and faces: attached normals change nothing,
    # and neither does a trip through a mesh file, which carries none
    built = build()
    bare = built.with_vertices(built.vertices)
    assert bare.vertex_normals is None
    save_mesh(built, tmp_path / "m.mesh.json")
    fields = [ExtrinsicField.compute(m) for m in (built, bare, load_mesh(tmp_path / "m.mesh.json"))]
    for other in fields[1:]:
        for name in ("mean_curvature", "alpha_sq", "scalar_curvature", "residual"):
            assert np.array_equal(getattr(other, name), getattr(fields[0], name)), name


def test_a_singular_design_fails_its_row_and_the_rest_of_the_chunk_is_fitted():
    m = great_sphere(2)
    X, normals = m.vertices, extrinsic._aggregated_normals(m)
    _, two = extrinsic._rings(m)
    k = 18
    ids = np.flatnonzero(np.diff(two.indptr) == k)[:6]
    nb = two.indices[two.indptr[ids, None] + np.arange(k)]
    # row 0: k neighbours on one great circle through its centre, so (u, v)
    # lie on a line and the quadric design has rank 3
    x, nu = X[ids[0]], normals[ids[0]]
    t = np.array([1.0, 2.0, 3.0, 4.0])
    t -= (t @ x) * x + (t @ nu) * nu
    t /= np.linalg.norm(t)
    theta = np.linspace(0.02, 0.4, k) * np.where(np.arange(k) % 2, 1.0, -1.0)
    circle = np.cos(theta)[:, None] * x + np.sin(theta)[:, None] * t
    X = np.vstack([X, circle])
    normals = np.vstack([normals, np.zeros_like(circle)])
    nb[0] = m.n_vertices + np.arange(k)
    alpha_sq, trace, ok = extrinsic._fit_chunk(X, normals, ids, nb)
    assert not ok[0] and ok[1:].all()
    ref_a, ref_H, ok_ref = extrinsic._fit_chunk(X, normals, ids[1:], nb[1:])
    assert ok_ref.all()
    _assert_close(alpha_sq[1:], ref_a)
    _assert_close(trace[1:], ref_H)
