import numpy as np
import pytest
import scipy.special

from spherelab.errors import (
    NonOrientableSource,
    NotMinimalAtResolution,
    WeldFailure,
)
from spherelab.extrinsic import max_mean_curvature
from spherelab.mesh import (
    SurfaceMesh,
    angle_defect_curvature,
    euler_characteristic,
    induced_metric,
    refine,
    total_area,
)
from spherelab.zoo import (
    bipolar,
    clifford_torus,
    geodesic_sphere,
    great_sphere,
    icosphere,
    lawson_tau,
    lawson_tau_area,
    reduce_to_linear_span,
    veronese_rp2,
    weld_vertices,
)
from spherelab.zoo import (
    _MINIMAL_RMS_PER_H,
    _certify_minimal,
    _lawson_psi,
    _quad_faces,
)

CLIFFORD_AREA = 2 * np.pi ** 2
TAU31_AREA = 12 * np.pi * scipy.special.ellipe(8 / 9)  # 12 pi E(2 sqrt2/3)


def _area(mesh):
    return total_area(mesh, induced_metric(mesh))


# ---------------------------------------------------------------------------
# spheres


def test_icosphere_counts_and_antipodal_symmetry():
    for level in (0, 1, 2, 3):
        V, F = icosphere(level)
        assert len(F) == 20 * 4 ** level
        assert len(V) == 10 * 4 ** level + 2
        # the antipode of every vertex is a vertex, exactly
        keys = {tuple(np.round(p, 14)) for p in V}
        assert all(tuple(np.round(-p, 14)) in keys for p in V)


def test_icosphere_matches_refine():
    V, F = icosphere(0)
    mesh = SurfaceMesh(2, V, F)
    for level in (1, 2, 3):
        mesh = refine(mesh)
        V, F = icosphere(level)
        assert np.array_equal(V, mesh.vertices)
        assert np.array_equal(F, mesh.faces)


def test_great_sphere_area_is_exact_at_every_level():
    # faces of the great sphere are geodesic triangles of that same sphere,
    # so the induced-metric areas tile it exactly
    for level in (1, 2, 3):
        assert abs(_area(great_sphere(level)) - 4 * np.pi) < 1e-11
    assert euler_characteristic(great_sphere(2)) == 2


def test_geodesic_cap_sphere_area_converges_at_second_order():
    # a non-great geodesic sphere has a genuine O(h^2) area defect
    target = 4 * np.pi * np.sin(np.pi / 4) ** 2
    errs = [abs(_area(geodesic_sphere(level, np.pi / 4)) - target)
            for level in (2, 3, 4)]
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def test_geodesic_sphere_area_and_validation():
    rho = np.pi / 4
    assert abs(_area(geodesic_sphere(4, rho)) - 4 * np.pi * np.sin(rho) ** 2) < 5e-3
    with pytest.raises(ValueError):
        geodesic_sphere(2, 0.0)
    with pytest.raises(ValueError):
        geodesic_sphere(2, 2.0)


# ---------------------------------------------------------------------------
# tori


def test_clifford_torus_basics():
    m = clifford_torus(32)
    assert euler_characteristic(m) == 0
    assert abs(_area(m) - CLIFFORD_AREA) / CLIFFORD_AREA < 1e-2
    assert np.max(np.abs(np.sum(m.vertex_normals * m.vertices, axis=1))) < 1e-14
    with pytest.raises(ValueError):
        clifford_torus(6)


def _quad_faces_by_loop(nu, nv, vid, alternating):
    """The nested loop that the array quad grid replaces (reference)."""
    faces = []
    for j in range(nv):
        flip = alternating and (j % 2 == 1)
        for i in range(nu):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            faces += [(a, b, d), (b, c, d)] if flip else [(a, b, c), (a, c, d)]
    return np.array(faces, dtype=np.int64)


def test_quad_grids_match_the_nested_loop():
    # (mesh, nu, nv, x shift on crossing the top row, alternating diagonals)
    cases = [
        (clifford_torus(12, 10), 12, 10, 0, False),
        (lawson_tau(3, 1, 16, 4), 16, 4, 8, False),        # both odd: half-lattice glue
        (lawson_tau(2, 1, 16, 8), 16, 8, 0, False),        # mixed parity: no shift
        (lawson_tau(3, 1, 16, 6, sampling="bipolar"), 16, 6, 8, True),
    ]
    for mesh, nu, nv, shift, alternating in cases:
        def vid(i, j):
            if j >= nv:
                i, j = i - shift, j - nv
            return (i % nu) * nv + j

        ref = _quad_faces_by_loop(nu, nv, vid, alternating)
        assert mesh.faces.dtype == ref.dtype
        assert np.array_equal(mesh.faces, ref)


def test_lawson_psi_stays_on_sphere():
    # lawson_tau normalizes the rows, which would hide a psi off the sphere
    for m, k in [(1, 1), (3, 1), (2, 1), (5, 3)]:
        y_period = np.pi if (m % 2 and k % 2) else 2 * np.pi
        x = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        y = np.linspace(0.0, y_period, 64, endpoint=False)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        P = _lawson_psi(m, k, xx.ravel(), yy.ravel())
        assert np.max(np.abs(np.linalg.norm(P, axis=1) - 1.0)) < 1e-12


def test_lawson_pair_validation():
    for bad in [(0, 1), (2, 4), (3, 3), (-1, 1)]:
        with pytest.raises(ValueError):
            lawson_tau(*bad, 16, 8)


def test_lawson_tau_area_against_library_elliptic():
    assert abs(lawson_tau_area(1, 1) - CLIFFORD_AREA) < 1e-12
    assert abs(lawson_tau_area(3, 1) - TAU31_AREA) < 1e-10


def test_lawson_tau_areas_converge_to_quadrature():
    for (m, k) in [(1, 1), (3, 1), (2, 1)]:
        target = lawson_tau_area(m, k)
        errs = []
        for n in (1, 2, 4):
            t = lawson_tau(m, k, 16 * n, 8 * n)
            assert euler_characteristic(t) == 0
            errs.append(abs(_area(t) - target) / target)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3


def test_lawson_tau11_is_a_clifford_torus():
    # tau_{1,1} and the standard Clifford torus are congruent; compare
    # invariants rather than coordinates
    t = lawson_tau(1, 1, 40, 20)
    c = clifford_torus(40, 20)
    # different triangulations of congruent surfaces: O(h^2) area gap, and
    # the diagonal tau grid has an O(h^2) discrete H where the product grid
    # cancels exactly
    assert abs(_area(t) - _area(c)) < 0.05
    assert abs(_area(t) - CLIFFORD_AREA) / CLIFFORD_AREA < 5e-3
    assert max_mean_curvature(t) < 0.05


def test_lawson_tau31_scalar_curvature_is_not_constant():
    t = lawson_tau(3, 1, 96, 24)
    s = angle_defect_curvature(t, induced_metric(t)).values
    assert s.max() - s.min() > 0.5


def test_minimality_certificate_rejects_tight_tolerance():
    with pytest.raises(NotMinimalAtResolution):
        lawson_tau(3, 1, 16, 8, minimal_tol=1e-9)
    # and an explicit loose tolerance passes
    lawson_tau(3, 1, 16, 8, minimal_tol=10.0)


def test_bipolar_sampling_grid_constraints():
    with pytest.raises(ValueError):
        lawson_tau(3, 1, 30, 18, sampling="bipolar")   # nu not 0 mod 4
    with pytest.raises(ValueError):
        lawson_tau(3, 1, 32, 16, sampling="bipolar")   # nv not 2 mod 4
    with pytest.raises(ValueError):
        lawson_tau(1, 1, 32, 18, sampling="bipolar")   # only (3, 1)
    with pytest.raises(ValueError):
        lawson_tau(3, 1, 16, 8, sampling="smooth")


# ---------------------------------------------------------------------------
# bipolar surfaces


def test_bipolar_of_tau11_is_the_clifford_torus():
    t = lawson_tau(1, 1, 32, 16)
    b = bipolar(t)
    assert b.rank == 4
    assert b.mesh.n_vertices == t.n_vertices // 2        # wedge is 2-to-1
    assert euler_characteristic(b.mesh) == 0 and b.mesh.orientable
    assert abs(_area(b.mesh) - CLIFFORD_AREA) / CLIFFORD_AREA < 1e-2
    assert max_mean_curvature(b.mesh) < 1e-10            # exactly minimal
    small = b.in_smallest_sphere()
    assert small.dimension == 3


def test_bipolar_of_clifford_is_minimal_with_positive_area():
    b = bipolar(clifford_torus(24, 24))
    assert b.rank == 4
    a = _area(b.mesh)
    assert np.isfinite(a) and a > 1.0
    assert max_mean_curvature(b.mesh) < 0.05


def test_bipolar_of_tau31_is_a_klein_bottle_in_s4():
    t = lawson_tau(3, 1, 48, 18, sampling="bipolar")
    b = bipolar(t)
    assert b.rank == 5
    assert b.mesh.n_vertices == t.n_vertices // 4        # deck group of order 4
    assert not b.mesh.orientable
    assert euler_characteristic(b.mesh) == 0
    target = TAU31_AREA / 2                              # 6 pi E(2 sqrt2/3)
    assert abs(_area(b.mesh) - target) / target < 2e-2


def test_bipolar_area_converges_and_h_decreases():
    prev_err, prev_h = np.inf, np.inf
    target = TAU31_AREA / 2
    for (nu, nv) in [(32, 10), (64, 18), (128, 38)]:
        b = bipolar(lawson_tau(3, 1, nu, nv, sampling="bipolar"))
        err = abs(_area(b.mesh) - target) / target
        h = max_mean_curvature(b.mesh)
        assert err < prev_err and h < prev_h
        prev_err, prev_h = err, h
    assert prev_h < 0.05


def test_bipolar_commutes_with_ambient_isometries():
    # rotating the source changes the wedge image by an isometry of R^6,
    # so all measured invariants agree
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    t = lawson_tau(3, 1, 32, 10, sampling="bipolar")
    from spherelab.mesh import SurfaceMesh

    moved = SurfaceMesh(3, t.vertices @ q.T, t.faces, name="moved",
                        vertex_normals=t.vertex_normals @ q.T)
    b0, b1 = bipolar(t), bipolar(moved)
    assert b0.rank == b1.rank
    assert b0.mesh.n_vertices == b1.mesh.n_vertices
    assert abs(_area(b0.mesh) - _area(b1.mesh)) < 1e-8
    assert abs(max_mean_curvature(b0.mesh) - max_mean_curvature(b1.mesh)) < 1e-8


def _hemi_icosahedron_s3():
    # antipodal quotient of the icosahedron: 6-vertex RP^2, padded into S^3
    from scipy.spatial import ConvexHull

    from spherelab.mesh import SurfaceMesh

    g = (1.0 + np.sqrt(5.0)) / 2.0
    base = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            base += [(0, s1, s2 * g), (s1, s2 * g, 0), (s2 * g, 0, s1)]
    P = np.array(sorted(set(base)))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    rep = {i: min(i, int(np.argmin(np.linalg.norm(P + P[i], axis=1))))
           for i in range(len(P))}
    order = sorted(set(rep.values()))
    index = {k: n for n, k in enumerate(order)}
    faces = {frozenset(index[rep[int(v)]] for v in s)
             for s in ConvexHull(P).simplices}
    F = sorted(tuple(sorted(t)) for t in faces if len(t) == 3)
    V = np.column_stack([P[order], np.zeros(len(order))])
    return SurfaceMesh(3, V, np.array(F), orientable=False, name="hemi")


def test_bipolar_rejects_bad_sources():
    vr = veronese_rp2(2)
    with pytest.raises(NonOrientableSource):
        bipolar(vr)                      # wrong ambient dimension
    with pytest.raises(NonOrientableSource):
        bipolar(_hemi_icosahedron_s3())  # non-orientable source


def test_bipolar_refuses_a_source_without_attached_normals(tmp_path):
    # aggregated face normals are not the wedge's normals: on this grid they
    # would weld twice the vertices into a non-minimal surface of rank 6
    from spherelab.mesh import load_mesh, save_mesh

    t = lawson_tau(3, 1, 32, 10, sampling="bipolar")
    save_mesh(t, tmp_path / "t.mesh.json")
    for bare in (SurfaceMesh(3, t.vertices, t.faces),
                 load_mesh(tmp_path / "t.mesh.json")):
        with pytest.raises(NonOrientableSource, match="normals"):
            bipolar(bare)


def test_bipolar_on_a_uniform_grid_fails_loudly():
    # a uniform tau_{3,1} grid is deck-symmetric only along the special
    # circles y = 0, pi/2, so the weld identifies those circles and nothing
    # else; the pinched complex cannot pass mesh validation.  (This is the
    # reason lawson_tau has the adapted sampling mode.)
    from spherelab.errors import MeshInvariantError, WeldFailure

    t = lawson_tau(3, 1, 32, 16)
    with pytest.raises((MeshInvariantError, WeldFailure)):
        bipolar(t)


# ---------------------------------------------------------------------------
# Veronese


def test_veronese_is_a_minimal_projective_plane():
    vr = veronese_rp2(3)
    assert euler_characteristic(vr) == 1
    assert not vr.orientable
    assert vr.dimension == 4
    assert abs(_area(vr) - 6 * np.pi) / (6 * np.pi) < 5e-3
    with pytest.raises(ValueError):
        veronese_rp2(0)


def test_veronese_counts_halve_under_the_antipodal_weld():
    for level in (1, 2, 3):
        vr = veronese_rp2(level)
        assert vr.n_vertices == (10 * 4 ** level + 2) // 2
        assert vr.n_faces == 20 * 4 ** level // 2


def test_veronese_area_converges():
    errs = [abs(_area(veronese_rp2(level)) - 6 * np.pi) for level in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# the minimality certificate


def _wrong_normal_bipolar(nu, nv):
    # face-aggregated normals attached in place of the analytic ones: the
    # missing-normals refusal does not see them, and the image is not minimal
    from spherelab.extrinsic import _aggregated_normals

    t = lawson_tau(3, 1, nu, nv, "bipolar")
    return bipolar(SurfaceMesh(3, t.vertices, t.faces,
                               vertex_normals=_aggregated_normals(t)))


def _flat_torus(a, n):
    # (cos a e^{ix}, sin a e^{iy}): |H| = |cot a - tan a| everywhere
    x = 2 * np.pi * np.arange(n) / n
    xx, yy = (g.ravel() for g in np.meshgrid(x, x, indexing="ij"))
    V = np.column_stack([np.cos(a) * np.cos(xx), np.cos(a) * np.sin(xx),
                         np.sin(a) * np.cos(yy), np.sin(a) * np.sin(yy)])
    F = _quad_faces(n, n, lambda i, j: (i % n) * n + j % n)
    return SurfaceMesh(3, V, F, name=f"flat_torus({a},{n})")


def test_certificate_refuses_wrong_surfaces():
    for nu, nv in [(32, 10), (64, 22), (128, 38)]:
        with pytest.raises(NotMinimalAtResolution):
            _wrong_normal_bipolar(nu, nv)
    for n in (16, 64):
        with pytest.raises(NotMinimalAtResolution):
            _certify_minimal(_flat_torus(0.6, n))


def test_certificate_accepts_exact_minimal_surfaces(tmp_path):
    from spherelab import cli

    assert veronese_rp2(6).n_faces == 20 * 4 ** 6 // 2
    out = tmp_path / "veronese6.mesh.json"
    assert cli.main(["build", "veronese", "--level", "6", "-o", str(out)]) == 0
    assert out.exists()
    errs = [abs(_area(veronese_rp2(level)) - 6 * np.pi) for level in (4, 5, 6)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders


def test_certificate_margin_and_metric_count(monkeypatch):
    # the coarsest minimal grids the suite builds pass with 20 % to spare
    tight = 0.8 * _MINIMAL_RMS_PER_H
    for mesh in (lawson_tau(3, 1, 8, 4), lawson_tau(3, 1, 16, 4),
                 lawson_tau(5, 1, 16, 8),
                 bipolar(lawson_tau(3, 1, 16, 6, "bipolar")).mesh,
                 veronese_rp2(1)):
        _certify_minimal(mesh, tol=tight)
    # the certificate reads the metric mean_curvature_vector builds anyway:
    # one guarded spherical induced metric per certified mesh, whose flat
    # twin shares its checked lengths and runs no guard of its own
    from spherelab.mesh import DiscreteMetric

    calls = []
    post_init = DiscreteMetric.__post_init__

    def counted(self):
        calls.append(self.convention)
        post_init(self)

    monkeypatch.setattr(DiscreteMetric, "__post_init__", counted)
    lawson_tau(3, 1, 24, 6)
    assert len(calls) == 1
    calls.clear()
    bipolar(lawson_tau(3, 1, 32, 10, "bipolar"))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# welding utilities


def test_weld_merges_offset_copies():
    V, F = icosphere(0)
    V2 = V * (1.0 + 1e-12)
    rotated_odd = F[::-1][::2][:, [1, 2, 0]]   # faces 19, 17, ..., 1, corners rotated
    # (faces, welded faces): the copy's faces collapse onto the first ones,
    # also with reversed winding; duplicates in other corner orders keep
    # their first occurrence, in input order
    cases = [
        (np.vstack([F, F + len(V)]), F),
        (np.vstack([F, F[:, ::-1] + len(V)]), F),
        (np.vstack([F[::2], rotated_odd + len(V), F[1::2][:, [2, 1, 0]]]),
         np.vstack([F[::2], rotated_odd])),
    ]
    for faces, expected in cases:
        welded = weld_vertices(2, np.vstack([V, V2]), faces, tol=1e-9)
        assert np.array_equal(welded.vertices, V)
        assert np.array_equal(welded.faces, expected)


def test_weld_face_keys_do_not_wrap_past_32_bits():
    # 2**16 input vertices: a chain of near copies of vertex 0 (each within tol
    # of the next) welds into it.  In 32-bit arithmetic the key (a n + b) n + c
    # loses a n n, and faces sharing their two highest corners would collide.
    V, F = icosphere(0)
    top_two = np.sort(F, axis=1)[:, 1:]
    assert len(np.unique(top_two, axis=0)) < len(F)
    steps = np.arange(1, 2**16 - len(V) + 1)[:, None]
    chain = V[0] + 6e-10 * steps * np.array([1.0, 0.0, 0.0])
    welded = weld_vertices(2, np.vstack([V, chain]), F, tol=1e-9)
    assert np.array_equal(welded.vertices, V)
    assert np.array_equal(welded.faces, F)


def test_weld_failure_on_collapsing_tolerance():
    V, F = icosphere(0)
    with pytest.raises(WeldFailure):
        weld_vertices(2, V, F, tol=1.2)


def test_reduce_to_linear_span_recovers_rank_and_geometry():
    rng = np.random.default_rng(17)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    X = rng.standard_normal((40, 3)) @ basis[:, :3].T
    coords, rank = reduce_to_linear_span(X)
    assert rank == 3
    assert coords.shape == (40, 3)
    assert np.max(np.abs(coords @ coords.T - X @ X.T)) < 1e-10
