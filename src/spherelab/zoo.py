"""Builders for the classical minimal surfaces of round spheres.

Every builder returns a validated :class:`~spherelab.mesh.SurfaceMesh` whose
vertices are exact samples of the smooth parametrization (no smoothing, no
optimisation), so measured quantities converge to the analytic values purely
by refinement.  Builders of minimal surfaces self-certify with one rule read
off the mesh alone: the area-weighted RMS of the cotan mean curvature, over
the mesh's longest edge h, must stay under a fixed constant; they refuse to
return otherwise.

The torus family tau_{m,k} is parametrized by

    psi(x, y) = (cos mx cos y, sin mx cos y, cos kx sin y, sin kx sin y)

which satisfies Delta psi = -2 psi, hence is minimal in S^3, for any
integers m, k.  When m and k are both odd the immersion already closes up
on the lattice generated by (2 pi, 0) and (pi, pi) (half the naive torus);
otherwise the full (2 pi, 2 pi) lattice is needed.

The bipolar surface of an oriented surface in S^3 is the wedge psi ^ nu of
position with unit normal, a surface of S^5.  On tau_{3,1} the wedge map is
4-to-1 onto a Klein bottle lying in a great S^4; the quotient is obtained
here by sampling the torus on a grid that the deck transformations permute
and welding coincident wedge images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    ModulusOutOfRange,
    NonOrientableSource,
    NotMinimalAtResolution,
    WeldFailure,
    WrongEuler,
)
from .extrinsic import _cotan_mean_curvature
from .mesh import (
    SurfaceMesh,
    _edge_table,
    _subdivide,
    euler_characteristic,
    probe_orientability,
)

__all__ = [
    "icosphere",
    "great_sphere",
    "geodesic_sphere",
    "clifford_torus",
    "lawson_tau",
    "lawson_tau_area",
    "bipolar",
    "BipolarSurface",
    "veronese_rp2",
    "weld_vertices",
    "reduce_to_linear_span",
]


# ---------------------------------------------------------------------------
# spheres


def _icosahedron():
    """Vertices (12, 3) and outward-oriented faces of the unit icosahedron.

    The vertex set is exactly antipodally symmetric in floating point, which
    the antipodal weld of the Veronese builder relies on.
    """
    g = (1.0 + np.sqrt(5.0)) / 2.0
    V = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            V += [(0.0, s1, s2 * g), (s1, s2 * g, 0.0), (s2 * g, 0.0, s1)]
    V = np.array(V)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    from scipy.spatial import ConvexHull

    F = []
    for tri in ConvexHull(V).simplices:
        a, b, c = (V[t] for t in tri)
        if np.linalg.det(np.stack([a, b, c])) < 0:
            tri = tri[::-1]
        F.append(tuple(int(t) for t in tri))
    return V, sorted(F)


def icosphere(level: int):
    """Subdivided icosahedron on S^2: raw (vertices, faces) arrays.

    Midpoint subdivision with radial projection; the vertex set stays
    exactly antipodally symmetric at every level.  20 * 4**level faces.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    V, F = _icosahedron()
    F = np.array(F, dtype=np.int64)
    for _ in range(level):
        V, F = _subdivide(V, F, *_edge_table(F))
    return V, F


def geodesic_sphere(level: int, rho: float) -> SurfaceMesh:
    """Geodesic 2-sphere of geodesic radius rho about a pole of S^3.

    Mean curvature points at the centre with length 2 cot(rho); rho = pi/2
    gives the totally geodesic great sphere.
    """
    if not (0.0 < rho <= np.pi / 2):
        raise ValueError("geodesic radius must lie in (0, pi/2]")
    P, F = icosphere(level)
    V = np.column_stack([np.sin(rho) * P, np.full(len(P), np.cos(rho))])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return SurfaceMesh(3, V, F, name=f"geodesic_sphere(level={level},rho={rho:g})")


def great_sphere(level: int) -> SurfaceMesh:
    """Totally geodesic 2-sphere in S^3 (the round sphere of area 4 pi)."""
    m = geodesic_sphere(level, np.pi / 2)
    m.name = f"great_sphere(level={level})"
    return m


# ---------------------------------------------------------------------------
# tori


def _quad_faces(nu, nv, vid, alternating=False):
    """Triangulated quad grid, row by row, two triangles per quad;
    ``vid(i, j)`` resolves wrap-around indices of integer arrays.

    With ``alternating`` the diagonal direction flips with row parity, which
    the bipolar weld needs so that deck images of faces are again faces.
    """
    j, i = np.meshgrid(np.arange(nv), np.arange(nu), indexing="ij")
    a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
    tris = np.stack([a, b, c, a, c, d], axis=-1)
    if alternating:
        flip = (j % 2 == 1)[..., None]
        tris = np.where(flip, np.stack([a, b, d, b, c, d], axis=-1), tris)
    return tris.reshape(-1, 3)


def clifford_torus(nu: int, nv: int | None = None) -> SurfaceMesh:
    """The flat minimal torus (cos x, sin x, cos y, sin y)/sqrt(2) in S^3."""
    nv = nu if nv is None else nv
    if nu < 8 or nv < 8:
        raise ValueError("grid needs at least 8 samples per direction")
    u = 2 * np.pi * np.arange(nu) / nu
    v = 2 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    V = np.column_stack([np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)]) / np.sqrt(2)
    N = np.column_stack([-np.cos(uu), -np.sin(uu), np.cos(vv), np.sin(vv)]) / np.sqrt(2)

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    F = _quad_faces(nu, nv, vid)
    return SurfaceMesh(3, V, F, name=f"clifford_torus({nu}x{nv})", vertex_normals=N)


def _check_lawson_pair(m: int, k: int):
    if m < 1 or k < 1:
        raise ValueError("the torus family needs positive integers m, k")
    if np.gcd(m, k) != 1:
        raise ValueError("m and k must be coprime")


def _lawson_psi(m, k, x, y):
    return np.column_stack([
        np.cos(m * x) * np.cos(y), np.sin(m * x) * np.cos(y),
        np.cos(k * x) * np.sin(y), np.sin(k * x) * np.sin(y),
    ])


def _lawson_nu(m, k, x, y):
    E = m * m * np.cos(y) ** 2 + k * k * np.sin(y) ** 2
    root = np.sqrt(E)
    return np.column_stack([
        -k * np.sin(m * x) * np.sin(y), k * np.cos(m * x) * np.sin(y),
        m * np.sin(k * x) * np.cos(y), -m * np.cos(k * x) * np.cos(y),
    ]) / root[:, None]


def _bipolar_adapted_ys(ntheta: int) -> np.ndarray:
    """y-samples on which the tau_{3,1} wedge deck maps act by permutation.

    Uniform, half-step-offset samples of the substituted coordinate theta
    with tan(theta/2) = tan(y)/sqrt(3): the deck involution tan y tan y' = 3
    becomes theta -> 2 pi - theta, an exact grid symmetry.
    """
    beta = 2 * np.pi * (np.arange(ntheta) + 0.5) / ntheta
    return np.arctan2(np.sqrt(3.0) * np.sin(beta / 2), np.cos(beta / 2))


def lawson_tau(m: int, k: int, nu: int, nv: int, sampling: str = "uniform",
               minimal_tol: float | None = None) -> SurfaceMesh:
    """Minimal torus tau_{m,k} in S^3 on its fundamental lattice.

    For odd m, k the fundamental domain is x in [0, 2 pi), y in [0, pi)
    with the glue (x, y + pi) ~ (x - pi, y), so ``nu`` must be even; for
    mixed parity the domain is the full (2 pi, 2 pi) torus.  Analytic unit
    normals are attached.

    ``sampling="bipolar"`` (tau_{3,1} only) places the y-samples so that the
    deck transformations of the wedge map psi ^ nu permute the grid, which
    makes :func:`bipolar` weld the image exactly; it needs nu = 0 mod 4 and
    nv = 2 mod 4.

    The builder certifies minimality with :func:`_certify_minimal` and
    raises NotMinimalAtResolution when the area-weighted RMS of the cotan
    |H| exceeds ``minimal_tol`` times the mesh's longest edge (default
    ``_MINIMAL_RMS_PER_H``) — a wrong period or parity choice fails loudly
    here.
    """
    _check_lawson_pair(m, k)
    both_odd = bool(m % 2 and k % 2)
    if nu < 8 or nv < 4:
        raise ValueError("need nu >= 8 and nv >= 4")
    if both_odd and nu % 2:
        raise ValueError("odd pairs need even nu for the half-lattice glue")
    if sampling == "uniform":
        y_period = np.pi if both_odd else 2 * np.pi
        ys = y_period * np.arange(nv) / nv
        alternating = False
    elif sampling == "bipolar":
        if (m, k) != (3, 1):
            raise ValueError("bipolar-adapted sampling is implemented for (3, 1) only")
        if nu % 4 or nv % 4 != 2 or nv < 6:
            raise ValueError("bipolar sampling needs nu = 0 mod 4 and nv = 2 mod 4, nv >= 6")
        ys = _bipolar_adapted_ys(nv)
        alternating = True
    else:
        raise ValueError(f"unknown sampling {sampling!r}")

    xs = 2 * np.pi * np.arange(nu) / nu
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    xx, yy = xx.ravel(), yy.ravel()
    V = _lawson_psi(m, k, xx, yy)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    N = _lawson_nu(m, k, xx, yy)

    shift = nu // 2 if both_odd else 0  # crossing y = pi shifts x by -pi

    def vid(i, j):
        return (np.where(j >= nv, i - shift, i) % nu) * nv + j % nv

    F = _quad_faces(nu, nv, vid, alternating=alternating)
    mesh = SurfaceMesh(3, V, F, name=f"lawson_tau({m},{k},{nu}x{nv},{sampling})",
                       vertex_normals=N)
    _certify_minimal(mesh, tol=minimal_tol)
    return mesh


# Bound on RMS|H| / h, the certificate's statistic.  Measured values:
#   tau_{3,1} 8x4, 16x4, 24x6, 32x8 ... 256x64    0.237, 0.308, 0.293, 0.268 ... 0.049
#   tau_{2,1} / tau_{5,1} / tau_{3,2} at 16x8      0.246 / 0.274 / 0.205
#   bipolar 16x6, 32x10 ... 128x38                 0.163, 0.130 ... 0.090
#   Veronese levels 1 ... 5                        0.065 ... 0.080
#   great sphere levels 0-5; Clifford 8 ... 128    <= 0.083; 0 to 1e-15
#   bipolar from aggregated (wrong) normals,
#     16x6, 32x10, 48x18, 64x22, 128x38            0.461, 1.349, 4.80, 7.16, 20.85
# so 0.4 holds every minimal surface at least 1.3x under it and refuses
# every wrong image.
_MINIMAL_RMS_PER_H = 0.4


def _certify_minimal(mesh: SurfaceMesh, tol: float | None = None):
    """Raise NotMinimalAtResolution unless RMS|H| <= tol * h.

    RMS|H| weights the cotan |H_i| by the mixed Voronoi areas, and h is the
    mesh's longest geodesic edge; ``tol`` defaults to ``_MINIMAL_RMS_PER_H``.
    The RMS, not max |H|, because cotan H does not converge pointwise on
    irregular vertex stars (Hildebrandt, Polthier and Wardetzky 2006;
    Wardetzky et al. 2007): the exactly minimal Veronese surface keeps
    max |H| near 0.067 at every level while its RMS falls with h.
    """
    H, A, metric = _cotan_mean_curvature(mesh)
    tol = _MINIMAL_RMS_PER_H if tol is None else tol
    rms = float(np.sqrt(np.sum(A * np.sum(H * H, axis=1)) / np.sum(A)))
    h = float(np.max(metric.lengths))
    if rms > tol * h:
        raise NotMinimalAtResolution(
            f"{mesh.name}: RMS |H| = {rms:.3e} exceeds {tol:.3g} h, h = {h:.3e} "
            f"({rms / h:.3g} h); refine the grid or review the parametrization")


def lawson_tau_area(m: int, k: int) -> float:
    """Analytic area of tau_{m,k} on its fundamental lattice.

    2 pi * integral of sqrt(m^2 cos^2 y + k^2 sin^2 y) over one y-period
    (pi for odd pairs, 2 pi otherwise), by direct quadrature.  The
    elliptic-integral route lives in the functionals module; the two are
    cross-checked in the tests.
    """
    from scipy.integrate import quad

    _check_lawson_pair(m, k)
    val, err = quad(lambda y: np.sqrt(m * m * np.cos(y) ** 2 + k * k * np.sin(y) ** 2),
                    0.0, np.pi, epsabs=1e-13, epsrel=1e-13)
    if err > 1e-9:
        raise ModulusOutOfRange(f"quadrature failed to converge: err={err:.3e}")
    scale = 1.0 if (m % 2 and k % 2) else 2.0
    return 2 * np.pi * val * scale


# ---------------------------------------------------------------------------
# welding


def weld_vertices(dimension: int, vertices: np.ndarray, faces: np.ndarray,
                  tol: float = 1e-9, name: str = "") -> SurfaceMesh:
    """Identify vertices closer than ``tol`` and rebuild the quotient mesh.

    Each connected component of the closer-than-``tol`` graph becomes one
    vertex, placed at and numbered in the order of its lowest input vertex.
    Duplicate faces (same vertex set) collapse to their first occurrence; a
    face that degenerates (two of its corners welded together) means the
    tolerance does not match the geometry and raises WeldFailure.
    Orientability is probed from the quotient.
    """
    from scipy.spatial import cKDTree

    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    n = len(vertices)
    pairs = cKDTree(vertices).query_pairs(r=tol, output_type="ndarray")
    close = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(n, n))
    # components are labelled in the order of their lowest vertex
    _, label = connected_components(close, directed=False)
    _, keep = np.unique(label, return_index=True)
    fmap = label.astype(np.int64)[faces]   # scipy labels are int32: too narrow for face keys
    if np.any((fmap[:, 0] == fmap[:, 1]) | (fmap[:, 1] == fmap[:, 2]) |
              (fmap[:, 0] == fmap[:, 2])):
        raise WeldFailure("a face degenerated under welding; tolerance mismatch")
    # one int64 key (a n + b) n + c per sorted face: exact below 2**21 (2.09 M) vertices
    a, b, c = np.sort(fmap, axis=1).T
    _, first = np.unique((a * n + b) * n + c, return_index=True)
    fnew = fmap[np.sort(first)]
    return SurfaceMesh(dimension, vertices[keep], fnew,
                       orientable=probe_orientability(fnew), name=name)


def reduce_to_linear_span(vertices: np.ndarray):
    """Rotate points of R^n into coordinates of their linear span.

    Returns (coordinates, rank); the rank counts singular values above 1e-8
    times the largest.  The basis is deterministic: right singular vectors
    with the largest-magnitude component made positive.
    """
    X = np.asarray(vertices, dtype=float)
    _, sv, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    B = Vt[:rank]
    for r in range(rank):
        lead = np.argmax(np.abs(B[r]))
        if B[r, lead] < 0:
            B[r] = -B[r]
    return X @ B.T, rank


# ---------------------------------------------------------------------------
# bipolar surfaces


def _wedge_rows(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row-wise exterior product R^4 x R^4 -> R^6, basis order
    (e12, e13, e14, e23, e24, e34)."""
    return np.column_stack([
        p[:, 0] * n[:, 1] - p[:, 1] * n[:, 0],
        p[:, 0] * n[:, 2] - p[:, 2] * n[:, 0],
        p[:, 0] * n[:, 3] - p[:, 3] * n[:, 0],
        p[:, 1] * n[:, 2] - p[:, 2] * n[:, 1],
        p[:, 1] * n[:, 3] - p[:, 3] * n[:, 1],
        p[:, 2] * n[:, 3] - p[:, 3] * n[:, 2],
    ])


@dataclass(frozen=True)
class BipolarSurface:
    """A welded bipolar image together with the rank of its linear span.

    ``rank`` = 5 means the surface lies in a great S^4 of S^5 (the case of
    tau_{3,1}); ``in_smallest_sphere()`` returns the mesh rotated into those
    rank coordinates.
    """

    mesh: SurfaceMesh
    rank: int

    def in_smallest_sphere(self) -> SurfaceMesh:
        coords, rank = reduce_to_linear_span(self.mesh.vertices)
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        return SurfaceMesh(rank - 1, coords, self.mesh.faces,
                           orientable=self.mesh.orientable,
                           name=self.mesh.name + "|S^" + str(rank - 1))


def bipolar(mesh: SurfaceMesh) -> BipolarSurface:
    """Bipolar surface psi ^ nu of an oriented surface in S^3.

    Vertices are welded whenever the wedge map identifies them, so the
    output is the honest image when the source sample grid is symmetric
    under the wedge map's deck transformations (see the ``sampling`` option
    of :func:`lawson_tau`); on a generic grid nothing coincides and the
    output is a multiple cover; images closer than 1e-8 are welded.
    The normals must be attached to the mesh (the builders' analytic ones):
    aggregated face normals are not the wedge's normals and give a
    different, non-minimal surface, so a mesh without them is refused.

    The result lives in S^5 (coordinates = six wedge components); the rank
    of the linear span is reported alongside, 5 for tau_{3,1} whose bipolar
    surface is a Klein bottle inside a great S^4.
    """
    if mesh.dimension != 3:
        raise NonOrientableSource("bipolar construction needs a surface in S^3")
    if not mesh.orientable:
        raise NonOrientableSource("bipolar construction needs an orientable source")
    if mesh.vertex_normals is None:
        raise NonOrientableSource("bipolar construction needs the source's "
                                  "vertex_normals attached; mesh files carry none")
    B = _wedge_rows(mesh.vertices, mesh.vertex_normals)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    welded = weld_vertices(5, B, mesh.faces, tol=1e-8,
                           name="bipolar(" + (mesh.name or "mesh") + ")")
    if not welded.is_closed:
        raise WeldFailure("bipolar weld produced a bordered mesh")
    _, rank = reduce_to_linear_span(welded.vertices)
    _certify_minimal(welded)
    return BipolarSurface(welded, rank)


# ---------------------------------------------------------------------------
# the Veronese projective plane


def veronese_rp2(level: int) -> SurfaceMesh:
    """Veronese embedding of RP^2 as a minimal surface of S^4, area 6 pi.

    The map (x, y, z) -> (sqrt3 xy, sqrt3 xz, sqrt3 yz, (sqrt3/2)(x^2 - y^2),
    (1/2)(x^2 + y^2 - 2 z^2)) sends the unit 2-sphere onto S^4 (the scale is
    forced by the unit-norm requirement) and identifies antipodes; every
    component is an even monomial, so the antipodal weld of the icosphere
    is exact in floating point.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    P, F = icosphere(level)
    x, y, z = P[:, 0], P[:, 1], P[:, 2]
    r3 = np.sqrt(3.0)
    V = np.column_stack([
        r3 * x * y, r3 * x * z, r3 * y * z,
        (r3 / 2) * (x * x - y * y),
        0.5 * (x * x + y * y - 2 * z * z),
    ])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    welded = weld_vertices(4, V, F, tol=1e-10,
                           name=f"veronese_rp2(level={level})")
    if welded.n_vertices != len(P) // 2 or welded.orientable:
        raise WeldFailure("antipodal weld of the Veronese image failed")
    if euler_characteristic(welded) != 1:
        raise WrongEuler(f"chi = {euler_characteristic(welded)} for RP^2")
    _certify_minimal(welded)
    return welded
