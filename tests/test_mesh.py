import itertools
import json
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from spherelab import mesh as M
from spherelab.errors import DegenerateTriangle, MeshInvariantError, TriangleViolation


# ---------------------------------------------------------------------------
# fixtures: small meshes with exactly-known geometry


def _octahedron():
    """Regular octahedron on the great 2-sphere of S^3; octant faces tile S^2."""
    V = np.zeros((6, 4))
    V[0, 0], V[1, 0] = 1.0, -1.0
    V[2, 1], V[3, 1] = 1.0, -1.0
    V[4, 2], V[5, 2] = 1.0, -1.0
    F = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return M.SurfaceMesh(3, V, F, name="octahedron")


def _disc_fan(n=6, colat=0.8):
    """Geodesic cap triangulated as a fan around the pole; one boundary loop."""
    apex = np.array([[0.0, 0.0, 0.0, 1.0]])
    phi = 2 * np.pi * np.arange(n) / n
    ring = np.column_stack([
        np.sin(colat) * np.cos(phi),
        np.sin(colat) * np.sin(phi),
        np.zeros(n),
        np.full(n, np.cos(colat)),
    ])
    V = np.vstack([apex, ring])
    F = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
    return M.SurfaceMesh(3, V, F, boundary_loops=[list(range(1, n + 1))], name="cap")


def _hemi_icosahedron():
    """Antipodal quotient of the icosahedron: a 6-vertex triangulation of RP^2."""
    g = (1 + np.sqrt(5)) / 2
    base = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            base += [(0, s1, s2 * g), (s1, s2 * g, 0), (s2 * g, 0, s1)]
    P = np.array(sorted(set(base)))
    P = P / np.linalg.norm(P, axis=1, keepdims=True)
    hull = ConvexHull(P)
    rep = {}
    order = []
    for i in range(len(P)):
        j = int(np.argmin(np.linalg.norm(P + P[i], axis=1)))
        k = min(i, j)
        rep[i] = k
        if k not in order:
            order.append(k)
    index = {k: n for n, k in enumerate(order)}
    faces = set()
    for simplex in hull.simplices:
        tri = frozenset(index[rep[int(v)]] for v in simplex)
        if len(tri) == 3:
            faces.add(tri)
    F = [tuple(sorted(t)) for t in sorted(faces, key=sorted)]
    assert len(F) == 10
    V = np.zeros((6, 4))
    V[:, :3] = P[order]
    return V, F


# ---------------------------------------------------------------------------
# combinatorics and validation


def test_octahedron_combinatorics():
    m = _octahedron()
    assert (m.n_vertices, m.n_edges, m.n_faces) == (6, 12, 8)
    assert M.euler_characteristic(m) == 2
    assert m.is_closed
    assert m.orientable


def test_disc_combinatorics():
    m = _disc_fan()
    assert M.euler_characteristic(m) == 1
    assert not m.is_closed
    assert int(np.sum(m.boundary_vertex_mask)) == 6


def _edge_table_by_rows(faces):
    """The row-unique edge table that the integer keys replace (reference)."""
    opp = np.sort(faces[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(opp, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1, 3)


def test_edge_table_matches_the_row_unique_reference():
    from spherelab.zoo import clifford_torus, great_sphere, veronese_rp2

    relabel = np.random.default_rng(3).permutation(256)
    inputs = [
        _octahedron().faces,
        _disc_fan().faces,
        veronese_rp2(2).faces,     # dimension 4, non-orientable
        great_sphere(3).faces,
        relabel[clifford_torus(16).faces],
        np.zeros((0, 3), dtype=np.int64),
    ]
    for F in inputs:
        edges, ids = M._edge_table(F)
        ref_edges, ref_ids = _edge_table_by_rows(F)
        assert edges.dtype == ref_edges.dtype and ids.dtype == ref_ids.dtype
        assert np.array_equal(edges, ref_edges) and edges.shape == ref_edges.shape
        assert np.array_equal(ids, ref_ids) and ids.shape == ref_ids.shape


def test_empty_face_list_is_orientable():
    assert M.probe_orientability(np.zeros((0, 3), dtype=np.int64))


def test_closed_mesh_rejects_declared_boundary():
    m = _octahedron()
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, m.vertices, m.faces, boundary_loops=[[0, 2, 4]])


def test_open_mesh_requires_declared_boundary():
    m = _disc_fan()
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, m.vertices, m.faces)


def test_nonunit_vertex_rejected():
    m = _octahedron()
    V = m.vertices.copy()
    V[0] *= 1.0 + 1e-9
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, V, m.faces)


def test_unreferenced_vertex_rejected():
    m = _octahedron()
    V = np.vstack([m.vertices, [[0.0, 0.0, 0.0, 1.0]]])
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, V, m.faces)


def test_edge_in_three_faces_rejected():
    m = _octahedron()
    F = np.vstack([m.faces, m.faces[:1]])
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, m.vertices, F)


def test_orientation_scan_accepts_mixed_windings():
    m = _octahedron()
    F = m.faces.copy()
    F[::2] = F[::2][:, ::-1]  # scramble windings; surface is still orientable
    m2 = M.SurfaceMesh(3, m.vertices, F)
    # oriented_faces must emit each directed halfedge exactly once
    he = m2.oriented_faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    assert len(np.unique(he, axis=0)) == len(he)


def test_orientation_of_two_components_keeps_each_lowest_face():
    m = _octahedron()
    rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    V = np.vstack([m.vertices, m.vertices @ rot.T])
    F = np.vstack([m.faces, m.faces[:, ::-1] + 6])  # second copy wound backwards
    scrambled = np.zeros(16, dtype=bool)
    scrambled[[1, 4, 10, 15]] = True
    F[scrambled] = F[scrambled][:, ::-1]
    two = M.SurfaceMesh(3, V, F)
    assert M.euler_characteristic(two) == 4
    # the lowest face of each component (0 and 8) keeps its winding; exactly
    # the scrambled faces are turned back
    flipped = np.any(two.oriented_faces != F, axis=1)
    assert np.array_equal(flipped, scrambled)
    he = two.oriented_faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    assert len(np.unique(he, axis=0)) == len(he)


def test_nonorientable_surface_detected():
    V, F = _hemi_icosahedron()
    m = M.SurfaceMesh(3, V, F, orientable=False)
    assert M.euler_characteristic(m) == 1
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, V, F, orientable=True)


def test_vertex_normals_validated():
    m = _octahedron()
    N = np.zeros_like(m.vertices)
    N[:, 3] = 1.0  # orthogonal to every vertex, unit
    M.SurfaceMesh(3, m.vertices, m.faces, vertex_normals=N)
    with pytest.raises(MeshInvariantError):
        M.SurfaceMesh(3, m.vertices, m.faces, vertex_normals=m.vertices)


def test_nan_vertex_or_normal_is_refused_by_its_own_guard():
    m = _octahedron()
    V = m.vertices.copy()
    V[0, 0] = np.nan
    with pytest.raises(MeshInvariantError, match="vertex norms deviate from 1 by nan"):
        M.SurfaceMesh(3, V, m.faces)
    N = np.zeros_like(m.vertices)
    N[:, 3] = 1.0
    N[0, 3] = np.nan
    with pytest.raises(MeshInvariantError, match="not unit"):
        M.SurfaceMesh(3, m.vertices, m.faces, vertex_normals=N)


def test_boundary_vertex_mask_is_computed_once_and_read_only():
    m = _disc_fan()
    assert m.boundary_vertex_mask is m.boundary_vertex_mask
    assert not m.boundary_vertex_mask.flags.writeable
    assert not _octahedron().boundary_vertex_mask.any()


# ---------------------------------------------------------------------------
# metric quantities with exact oracles


def test_induced_lengths_are_quarter_circles():
    m = _octahedron()
    g = M.induced_metric(m)
    assert np.allclose(g.lengths, np.pi / 2, atol=1e-14)


def test_octant_face_areas_exact():
    g = M.induced_metric(_octahedron())
    assert np.allclose(g.areas, np.pi / 2, atol=1e-13)


def test_sphere_area_exact_across_refinement():
    m = _octahedron()
    for _ in range(3):
        g = M.induced_metric(m)
        # geodesic triangles of a refined octahedron still tile the sphere
        assert abs(M.total_area(m, g) - 4 * np.pi) < 1e-10
        m = M.refine(m)


def test_great_sphere_scalar_curvature_is_two():
    m = M.refine(_octahedron())
    g = M.induced_metric(m)
    s = M.angle_defect_curvature(m, g).values
    assert np.max(np.abs(s - 2.0)) < 1e-9


def test_spherical_gauss_bonnet():
    m = M.refine(M.refine(_octahedron()))
    g = M.induced_metric(m)
    s = M.angle_defect_curvature(m, g).values
    A = M.vertex_dual_areas(m, g).values
    chi = M.euler_characteristic(m)
    assert abs(float(s @ A) - 4 * np.pi * chi) < 1e-9


def test_euclidean_gauss_bonnet():
    m = M.refine(_octahedron())
    g = M.induced_metric(m).as_euclidean()
    s = M.angle_defect_curvature(m, g).values
    A = M.vertex_dual_areas(m, g).values
    assert abs(float(s @ A) - 8 * np.pi) < 1e-10


def test_dual_areas_sum_to_total():
    m = M.refine(_disc_fan())
    g = M.induced_metric(m)
    assert abs(float(np.sum(M.vertex_dual_areas(m, g).values)) -
               M.total_area(m, g)) < 1e-12


def test_spherical_excess_octant_triangle():
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    g = M.DiscreteMetric(edges, np.full(3, np.pi / 2), M.SPHERICAL,
                         np.array([[0, 1, 2]]), 3)
    assert abs(float(g.areas[0]) - np.pi / 2) < 1e-14
    assert np.allclose(g.angles, np.pi / 2, atol=1e-14)


def test_the_per_face_record_is_read_only():
    g = M.induced_metric(_octahedron())
    for metric in (g, g.as_euclidean()):
        for name in ("face_corner_lengths", "angles", "half_cotangents", "areas"):
            record = getattr(metric, name)
            # every reader gets this one array, so no reader may write it
            assert getattr(metric, name) is record
            with pytest.raises(ValueError):
                record[0] = 1.0


def test_heron_345():
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    g = M.DiscreteMetric(edges, np.array([3.0, 4.0, 5.0]), M.EUCLIDEAN,
                         np.array([[0, 1, 2]]), 3)
    assert abs(float(g.areas[0]) - 6.0) < 1e-13
    # the order in which the sides come changes no bit of the area
    for sides in ((3.0, 4.0, 5.0), (1.0, 1.0 + 1e-12, 2e-9)):
        areas = M._heron(np.array(list(itertools.permutations(sides))))
        assert np.all(areas == areas[0])


def test_triangle_inequality_enforced():
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    with pytest.raises(DegenerateTriangle):
        M.DiscreteMetric(edges, np.array([1.0, 1.0, 2.5]), M.EUCLIDEAN,
                         np.array([[0, 1, 2]]), 3)


def test_triangle_violation_is_a_degenerate_triangle_listing_the_faces():
    # face 0 = (0, 1, 2) is equilateral, face 1 = (1, 2, 3) has sides 1, 1, 2.5
    edges = np.array([[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]])
    face_edge_ids = np.array([[2, 1, 0], [4, 3, 2]])
    lengths = np.array([1.0, 1.0, 1.0, 1.0, 2.5])
    with pytest.raises(DegenerateTriangle) as exc:
        M.DiscreteMetric(edges, lengths, M.EUCLIDEAN, face_edge_ids, 4)
    assert isinstance(exc.value, TriangleViolation)
    assert exc.value.faces == [1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lengths_are_triangle_violations(bad):
    # NaN passes both the sign test and the slack test; inf reads as an
    # exact zero area.  Both must name their face, without an inf/inf warning.
    edges = np.array([[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]])
    face_edge_ids = np.array([[2, 1, 0], [4, 3, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for convention in (M.EUCLIDEAN, M.SPHERICAL):
            with pytest.raises(TriangleViolation) as exc:
                M.DiscreteMetric(edges, np.array([1.0, 1.0, 1.0, 1.0, bad]),
                                 convention, face_edge_ids, 4)
            assert exc.value.faces == [1]
            with pytest.raises(TriangleViolation) as exc:
                M.DiscreteMetric(edges, np.full(5, bad), convention, face_edge_ids, 4)
            assert exc.value.faces == [0, 1]


def _list_reduce_slacks(L):
    """The triangle-slack formula as first written: a three-way list
    reduction over the slacks and a row maximum over the sides."""
    a, b, c = L[:, 0], L[:, 1], L[:, 2]
    return np.minimum.reduce([b + c - a, c + a - b, a + b - c]) / np.max(L, axis=1)


def test_pairwise_triangle_slacks_match_the_list_reduction():
    rng = np.random.default_rng(20240611)
    random = rng.uniform(0.1, 2.0, size=(4000, 3))
    # slacks within about 1e-16 of the rejection threshold, on both sides:
    # sides (x, y, (x + y) / (1 + sigma)) have relative slack sigma
    x, y = rng.uniform(0.3, 1.0, size=(2, 4000))
    sigma = M._TRIANGLE_SLACK + rng.uniform(-1e-16, 1e-16, size=4000)
    edge = np.column_stack([x, y, (x + y) / (1.0 + sigma)])
    edge = np.take_along_axis(edge, rng.permuted(np.tile([0, 1, 2], (4000, 1)),
                                                 axis=1), axis=1)
    near = _list_reduce_slacks(edge)
    assert np.max(np.abs(near - M._TRIANGLE_SLACK)) < 1e-15
    assert np.any(near <= M._TRIANGLE_SLACK) and np.any(near > M._TRIANGLE_SLACK)
    for L in (random, edge):
        for scale in (1e-6, 1.0, 1e6):
            want = _list_reduce_slacks(scale * L)
            got = M._triangle_slacks(scale * L)
            assert got.tobytes() == want.tobytes()


def test_spherical_lengths_below_pi():
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    with pytest.raises(DegenerateTriangle):
        M.DiscreteMetric(edges, np.array([3.2, 1.0, 3.0]), M.SPHERICAL,
                         np.array([[0, 1, 2]]), 3)


# ---------------------------------------------------------------------------
# refinement and persistence


def test_refine_combinatorics():
    m = _octahedron()
    r = M.refine(m)
    assert r.n_vertices == m.n_vertices + m.n_edges
    assert r.n_faces == 4 * m.n_faces
    assert M.euler_characteristic(r) == 2


def test_refine_preserves_boundary():
    m = _disc_fan()
    r = M.refine(m)
    assert len(r.boundary_loops) == 1
    assert len(r.boundary_loops[0]) == 2 * len(m.boundary_loops[0])
    assert r.boundary_loops[0][::2] == m.boundary_loops[0]
    assert M.euler_characteristic(r) == 1


def test_save_load_roundtrip(tmp_path):
    m = M.refine(_octahedron())
    p = tmp_path / "mesh.json"
    M.save_mesh(m, p)
    m2 = M.load_mesh(p)
    assert m2.dimension == m.dimension
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.faces, m.faces)
    assert m2.name == m.name
    # byte-stable output
    doc1 = p.read_bytes()
    M.save_mesh(m2, p)
    assert p.read_bytes() == doc1


def test_mesh_json_field_names(tmp_path):
    p = tmp_path / "m.json"
    M.save_mesh(_octahedron(), p)
    doc = json.loads(p.read_text())
    assert set(doc) == {"dimension", "vertices", "faces", "boundary_loops",
                        "orientable", "name"}
