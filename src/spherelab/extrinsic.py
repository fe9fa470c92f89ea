"""Extrinsic curvature of embedded meshes: H, |alpha|^2 and the Gauss residual.

Two estimator routes live here, with distinct jobs:

* a weighted quadric fit over the two-ring of each vertex in geodesic
  normal coordinates of the ambient sphere, where the second-order Taylor
  coefficients of the graph are exactly the second fundamental form.  The
  :class:`ExtrinsicField` bundle takes both ``alpha_sq`` (squared Frobenius
  norm) and ``mean_curvature`` (the trace, summed over normal directions)
  from this one fitted tensor, so the Gauss residual compares it against
  the fully independent angle-defect curvature.  The fit is pointwise
  consistent on any shape-regular stencil -- which matters: icosphere-based
  builders keep fifteen asymptotically irregular vertex stars (the original
  icosahedral edge midpoints) at every refinement level, and Laplacian
  curvature stalls at an O(1) floor exactly there.  The two-ring is the
  default stencil because a one-ring is under-determined in higher
  codimension (and a regular one-ring lies on a conic, which makes its
  quadric fit singular).  Vertices are grouped by exact two-ring size and
  each group runs in fixed chunks through one batched kernel (log map,
  tangent frames, weighted design, one batched normal-equations solve);
  vertices whose normal equations fail the condition test run through it
  again on the stencil widened by one more ring before the fit gives up.
  On an orientable surface in S^3 the tangent frames come from normals
  aggregated over the faces, never from normals a builder attached, so a
  mesh read back from a file fits exactly like the mesh that was built.

* the cotan Laplacian through the identity  Delta_Sigma x = H - 2 x  for
  surfaces of the unit sphere (so minimal surfaces satisfy Delta x = -2x,
  and the sphere-tangent part of -(L x)_i / A_i is the discrete H).  This
  is :func:`mean_curvature_vector` / :func:`max_mean_curvature`: sparse
  algebra with no per-vertex fitting.  Its area-weighted RMS, against the
  mesh's longest edge, is the cheap certificate the surface builders check
  themselves against on every construction.

The discrete scalar curvature (angle defect) then has to reproduce
``s = 2 + |H|^2 - |alpha|^2`` up to discretisation error; closing that loop
is the main self-check of the whole curvature stack.

Sign convention: H is the full trace of the second fundamental form (not the
average), and the mean curvature vector of a geodesic sphere points towards
its centre with length 2 cot(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    IllConditionedFit,
    InsufficientNeighborhood,
)
from .mesh import (
    DiscreteMetric,
    SurfaceMesh,
    VertexField,
    angle_defect_curvature,
    induced_metric,
    vertex_dual_areas,
)
from .sphere import tangent_project_rows

__all__ = [
    "cotan_laplacian",
    "mean_curvature_vector",
    "max_mean_curvature",
    "surface_normals",
    "second_fundamental_norm",
    "gauss_equation_residual",
    "ExtrinsicField",
    "ResidualReport",
]

# threshold on the condition number of the normal equations (design^T design)
_COND_LIMIT = 1e8
_MIN_NEIGHBORS = 5
# vertices per batched fit: bounds the working arrays at no cost in speed
_CHUNK = 256
# faces per block of the normal aggregation, for the same reason
_FACE_BLOCK = 4096


def cotan_laplacian(mesh: SurfaceMesh, metric: DiscreteMetric | None = None) -> sp.csr_matrix:
    """Positive semi-definite cotan matrix of the intrinsic metric.

    The weights are the ``half_cotangents`` of the flat layout of the
    metric's lengths (``metric.as_euclidean()``, the intrinsic simplicial
    metric; ``metric`` defaults to the induced one), which is the standard
    discretisation of the Laplace-Beltrami operator.  A Euclidean metric is
    read as it is, so its cached record serves every other reader too.  Note
    the sign: this matrix approximates ``-A_i * Delta``.
    """
    if metric is None:
        metric = induced_metric(mesh)
    # the cotangent at corner c weights the edge opposite c
    edge_w = np.bincount(mesh.face_edge_ids.ravel(),
                         metric.as_euclidean().half_cotangents.ravel(),
                         minlength=mesh.n_edges)
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    V = mesh.n_vertices
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-edge_w, -edge_w, edge_w, edge_w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(V, V)).tocsr()


def _mixed_voronoi_areas(mesh: SurfaceMesh, metric: DiscreteMetric) -> np.ndarray:
    """Circumcentric dual areas (clamped in obtuse faces) of the flat layout.

    The cotan Laplacian integrates against the circumcentric dual cell, so
    pointwise mean curvature must be normalised by this area; dividing by
    barycentric thirds instead leaves O(1) errors at skewed vertices.  All
    other quadratures in the package stay barycentric.
    """
    em = metric.as_euclidean()
    # doubling a half-cotangent is exact: these are the bits of cos / sin
    lc = em.face_corner_lengths ** 2 * (2.0 * em.half_cotangents)
    # corner c's share of the circumcentric cell uses its two other corners
    voronoi = (np.roll(lc, -1, axis=1) + np.roll(lc, -2, axis=1)) / 8.0
    obtuse = em.angles > np.pi / 2
    A = em.areas[:, None]
    mixed = np.where(obtuse.any(axis=1, keepdims=True),
                     np.where(obtuse, A / 2, A / 4), voronoi)
    # corner-major order fixes the rounding of each vertex's sum, so the bits of H
    return np.bincount(mesh.faces.T.ravel(), mixed.T.ravel(), minlength=mesh.n_vertices)


def _cotan_mean_curvature(mesh: SurfaceMesh):
    """(H rows, mixed Voronoi areas A, flat induced metric) of a closed mesh.

    The kernel of :func:`mean_curvature_vector`; the minimality certificate
    of the builders reads all three from this one evaluation.
    """
    if not mesh.is_closed:
        raise ValueError("mean curvature vectors are only defined for closed meshes")
    metric = induced_metric(mesh).as_euclidean()
    L = cotan_laplacian(mesh, metric)
    A = _mixed_voronoi_areas(mesh, metric)
    lap = L @ mesh.vertices
    return tangent_project_rows(mesh.vertices, -lap / A[:, None]), A, metric


def mean_curvature_vector(mesh: SurfaceMesh) -> np.ndarray:
    """Per-vertex mean curvature vectors of the surface inside S^d.

    ``H_i`` is the sphere-tangent part of ``-(L x)_i / A_i`` (equivalently
    of ``-(L x)_i / A_i + 2 x_i``, whose radial part the projection kills),
    with L and A_i (the circumcentric dual area) from the flat layout of the
    induced metric, built once so both read one per-face record.  Rows are
    tangent to the sphere at the corresponding vertex.  Closed meshes only;
    the formula has no boundary correction.
    """
    return _cotan_mean_curvature(mesh)[0]


def max_mean_curvature(mesh: SurfaceMesh) -> float:
    """max_i |H_i| of the cotan estimator.

    A diagnostic only: cotan H does not converge pointwise on irregular
    vertex stars, so the builders certify minimality by its area-weighted
    RMS instead (``zoo._certify_minimal``).
    """
    H = mean_curvature_vector(mesh)
    return float(np.max(np.linalg.norm(H, axis=1)))


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise generalised cross product in R^4 (orthogonal to a, b, c).

    Component k is (-1)^k times the 3x3 minor without column k, expanded
    along a over the 2x2 minors p_ij of (b, c).
    """
    def p(i, j):
        return b[:, i] * c[:, j] - b[:, j] * c[:, i]

    p01, p02, p03, p12, p13, p23 = p(0, 1), p(0, 2), p(0, 3), p(1, 2), p(1, 3), p(2, 3)
    a0, a1, a2, a3 = a.T
    return np.column_stack([
        a1 * p23 - a2 * p13 + a3 * p12,
        -(a0 * p23 - a2 * p03 + a3 * p02),
        a0 * p13 - a1 * p03 + a3 * p01,
        -(a0 * p12 - a1 * p02 + a2 * p01),
    ])


def _aggregated_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Unit vertex normals of an orientable mesh in S^3 from its vertices and
    faces alone: the R^4 cross product of (centroid, edge, edge) of each
    oriented face, summed over the faces around each vertex, projected
    tangent to the sphere and normalised.  Faces run in blocks of
    ``_FACE_BLOCK`` so the working arrays stay small on large meshes."""
    X, F = mesh.vertices, mesh.oriented_faces
    n = len(X)
    acc = np.zeros((n, 4))
    for lo in range(0, len(F), _FACE_BLOCK):
        f = F[lo:lo + _FACE_BLOCK]
        v0, v1, v2 = X[f[:, 0]], X[f[:, 1]], X[f[:, 2]]
        n_face = _cross4((v0 + v1 + v2) / 3.0, v1 - v0, v2 - v0)
        for k in range(4):
            for c in range(3):
                acc[:, k] += np.bincount(f[:, c], n_face[:, k], minlength=n)
    acc = tangent_project_rows(X, acc)
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    if np.any(norms <= 1e-14):
        raise InsufficientNeighborhood("vanishing aggregated normal at a vertex")
    return acc / norms


def surface_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Unit normal field of a surface in S^3 (codimension one in the sphere).

    Returns the builder-provided analytic normals when present; otherwise
    the aggregated normals of the oriented faces, the ones the quadric fit
    builds its tangent frames from.  Only defined for dimension 3.
    """
    if mesh.dimension != 3:
        raise DimensionMismatch(
            "a single normal field needs codimension one, i.e. a surface in S^3")
    if mesh.vertex_normals is not None:
        return mesh.vertex_normals.copy()
    return _aggregated_normals(mesh)


# ---------------------------------------------------------------------------
# quadric fitting


def _rings(mesh: SurfaceMesh):
    """(adjacency, two_ring) as CSR matrices; row v of two_ring omits v."""
    V = mesh.n_vertices
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    ones = np.ones(len(i))
    A = sp.coo_matrix((ones, (i, j)), shape=(V, V))
    A = (A + A.T).tocsr()
    return A, _strip_centres(((A + A @ A) > 0).tocsr(), np.arange(V))


def _strip_centres(S: sp.csr_matrix, centres: np.ndarray) -> sp.csr_matrix:
    """Row r of S without column ``centres[r]``, the rest in their order."""
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    keep = S.indices != centres[rows]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=S.shape[0]))])
    return sp.csr_matrix((np.ones(int(keep.sum()), dtype=bool), S.indices[keep], indptr),
                         shape=S.shape)


def _widen(adjacency: sp.csr_matrix, stencil: sp.csr_matrix, centres: np.ndarray):
    """Grow each stencil row by one ring (union of its members' one-rings)."""
    grown = ((stencil + stencil @ adjacency) > 0).tocsr()
    grown.sort_indices()
    return _strip_centres(grown, centres)


def _log_map(X: np.ndarray, ids: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Log map of the positions X[nb] (n, k stencils) into the tangent
    spaces of the sphere at X[ids]."""
    centres, neighbors = X[ids], X[nb]
    dots = np.clip((neighbors @ centres[:, :, None])[..., 0], -1.0, 1.0)
    theta = np.arccos(dots)
    w = neighbors - dots[..., None] * centres[:, None, :]
    wn = np.linalg.norm(w, axis=2)
    dup = np.flatnonzero(np.any(wn <= 1e-300, axis=1))
    if len(dup):
        raise InsufficientNeighborhood(
            f"duplicate neighbour position in the ring of vertex {ids[dup[0]]}")
    return w * (theta / wn)[..., None]


def _unit_rows(t: np.ndarray) -> np.ndarray:
    # norms by a dot product per row, the arithmetic np.linalg.norm uses on
    # one vector, so a frame does not depend on the chunk it is built in
    return t / np.sqrt(t[:, None, :] @ t[:, :, None])[:, 0]


def _tangent_frames(X: np.ndarray, normals, ids: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Orthonormal (n, 2, d+1) surface-tangent frames at vertices ``ids``.

    With vertex normals (orientable meshes in S^3, see
    :func:`_aggregated_normals`) each is the exact orthogonal complement of
    span(position, normal); otherwise (``normals`` is None: surfaces in S^4
    and S^5, non-orientable meshes) a PCA of the log-mapped neighbourhood
    directions W.
    """
    if normals is not None:
        x, nu = X[ids], normals[ids]
        span = np.stack([x, nu], axis=1)
        e = np.eye(4)[np.argmin(np.sum(span ** 2, axis=1), axis=1)]
        t1 = _unit_rows(e - (span.transpose(0, 2, 1) @ (span @ e[:, :, None]))[..., 0])
        return np.stack([t1, _unit_rows(_cross4(x, nu, t1))], axis=1)
    r = np.linalg.norm(W, axis=2)
    Wn = W / np.maximum(r, 1e-300)[..., None]
    _, sv, Vt = np.linalg.svd(Wn, full_matrices=False)
    flat = np.flatnonzero(sv[:, 1] <= 1e-8 * sv[:, 0])
    if len(flat):
        raise InsufficientNeighborhood(
            f"neighbourhood of vertex {ids[flat[0]]} does not span a tangent plane")
    return Vt[:, :2]


def _fit_chunk(X: np.ndarray, normals, ids: np.ndarray, nb: np.ndarray):
    """(alpha_sq, trace, ok) of the quadric fits at vertices ``ids`` over the
    (n, k) stencils ``nb`` of the positions X; ok is False where the design
    is ill-conditioned, and those rows are not solved."""
    W = _log_map(X, ids, nb)
    T = _tangent_frames(X, normals, ids, W)
    uv = W @ T.transpose(0, 2, 1)
    normal_part = W - uv @ T
    r = np.linalg.norm(uv, axis=2)
    scale = np.mean(r, axis=1)[:, None]
    wts = np.sqrt(1.0 / (r + 0.1 * scale))
    u, w = uv[..., 0] / scale, uv[..., 1] / scale
    design = np.stack([
        np.ones_like(u), u, w, 0.5 * u * u, u * w, 0.5 * w * w,
    ], axis=2) * wts[..., None]
    rhs = (normal_part / scale[..., None]) * wts[..., None]
    # normal equations: cond(M) = lam_max / lam_min is cond(design)^2
    At = design.transpose(0, 2, 1)
    M = At @ design
    lam = np.linalg.eigvalsh(M)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (lam[:, 0] > 0.0) & (lam[:, -1] / lam[:, 0] <= _COND_LIMIT)
    coef = np.zeros((len(ids), 6, X.shape[1]))
    coef[ok] = np.linalg.solve(M[ok], At[ok] @ rhs[ok])
    # coordinates and heights were divided by `scale`, so the quadratic
    # coefficients come back multiplied by one factor of it
    a, b, c = (coef[:, 3:] / scale[..., None]).transpose(1, 0, 2)
    alpha_sq = np.sum(a * a + 2.0 * b * b + c * c, axis=1)
    return alpha_sq, a + c, ok


def _fit_stencils(X: np.ndarray, normals, ids: np.ndarray, stencil: sp.csr_matrix):
    """(alpha_sq, trace, ok) at vertices ``ids`` over the rows of ``stencil``,
    grouped by exact stencil size and fitted in chunks of ``_CHUNK``."""
    n = len(ids)
    alpha_sq, trace = np.empty(n), np.empty((n, X.shape[1]))
    ok = np.empty(n, dtype=bool)
    sizes = np.diff(stencil.indptr)
    for k in np.unique(sizes):
        group = np.flatnonzero(sizes == k)
        for rows in np.split(group, np.arange(_CHUNK, len(group), _CHUNK)):
            nb = stencil.indices[stencil.indptr[rows, None] + np.arange(k)]
            alpha_sq[rows], trace[rows], ok[rows] = _fit_chunk(X, normals, ids[rows], nb)
    return alpha_sq, trace, ok


def _quadric_scan(mesh: SurfaceMesh):
    """alpha_sq and fitted-trace H per vertex: two-ring stencil by default,
    widened by one more ring where the normal equations are degenerate.
    Orientable meshes in S^3 take their frames from the aggregated normals,
    computed once here; any attached ``vertex_normals`` are ignored, so a
    mesh fits the same whether it was built or loaded from a file."""
    adjacency, two = _rings(mesh)
    sizes = np.diff(two.indptr)
    few = np.flatnonzero(sizes < _MIN_NEIGHBORS)
    if len(few):
        raise InsufficientNeighborhood(
            f"vertex {few[0]} has only {sizes[few[0]]} two-ring neighbours")
    X = mesh.vertices
    normals = _aggregated_normals(mesh) if mesh.dimension == 3 and mesh.orientable else None
    alpha_sq, trace, ok = _fit_stencils(X, normals, np.arange(mesh.n_vertices), two)
    redo = np.flatnonzero(~ok)
    if len(redo):
        a, t, ok = _fit_stencils(X, normals, redo, _widen(adjacency, two[redo], redo))
        if not ok.all():
            raise IllConditionedFit(
                f"quadric fit at vertex {redo[~ok][0]} is ill-conditioned even on "
                "a widened stencil")
        alpha_sq[redo], trace[redo] = a, t
    return alpha_sq, trace


def second_fundamental_norm(mesh: SurfaceMesh) -> VertexField:
    """|alpha|^2 per vertex from a weighted quadric fit in normal coordinates.

    At each vertex the neighbourhood is log-mapped to the tangent space of
    the ambient sphere, split into surface-tangent coordinates (u, v) and
    normal heights, and each height component is fitted by a full quadratic
    ``c0 + c1 u + c2 v + a u^2/2 + b uv + c v^2/2`` with inverse-distance
    weights.  |alpha|^2 is the squared Frobenius norm of the fitted Hessian,
    summed over the normal directions.  The (u, v) frame of an orientable
    surface in S^3 completes span(position, aggregated normal), so the fit
    reads only vertices and faces; other surfaces take a PCA frame of the
    log-mapped neighbourhood.  The stencil is the two-ring; vertices with
    equally many neighbours are fitted together, in fixed-size chunks, by
    one batched solve of the 6x6 normal equations, and those whose normal
    equations exceed condition number 1e8 are fitted again on the stencil
    widened by one more ring.
    Raises InsufficientNeighborhood below 5 neighbours, on duplicate
    positions or a neighbourhood spanning no tangent plane, and
    IllConditionedFit when a widened fit stays ill-conditioned.
    """
    alpha_sq, _ = _quadric_scan(mesh)
    return VertexField(np.maximum(alpha_sq, 0.0))


@dataclass(frozen=True)
class ResidualReport:
    """A per-vertex residual field with its summary statistics."""

    values: np.ndarray
    max: float
    median: float      # area-weighted


def _area_weighted_median(values: np.ndarray, areas: np.ndarray) -> float:
    order = np.argsort(values)
    cum = np.cumsum(areas[order])
    return float(values[order][np.searchsorted(cum, 0.5 * cum[-1])])


@dataclass(frozen=True)
class ExtrinsicField:
    """The extrinsic curvature bundle of a closed embedded mesh.

    ``mean_curvature`` rows are orthogonal both to the vertex position
    (tangent to the sphere) and to the fitted surface tangent plane: they
    are the trace of the same fitted quadric that yields ``alpha_sq``, so
    the bundle's H and alpha describe one tensor and the Gauss residual
    plays it against the independent angle-defect curvature.
    ``dual_areas``, the quadrature weights of every integral over the mesh,
    come from the induced metric the angle defect was measured on.
    """

    mean_curvature: np.ndarray
    alpha_sq: np.ndarray
    scalar_curvature: np.ndarray
    residual: np.ndarray
    dual_areas: np.ndarray

    def __post_init__(self):
        if np.any(self.alpha_sq < -1e-12):
            raise ValueError("alpha_sq below -1e-12")

    @classmethod
    def compute(cls, mesh: SurfaceMesh) -> "ExtrinsicField":
        g = induced_metric(mesh)
        dual = vertex_dual_areas(mesh, g).values
        s = angle_defect_curvature(mesh, g, dual).values
        alpha_sq, H = _quadric_scan(mesh)
        alpha_sq = np.maximum(alpha_sq, 0.0)
        h2 = np.sum(H * H, axis=1)
        res = s - (2.0 + h2 - alpha_sq)
        return cls(H, alpha_sq, s, res, dual)

    def check_invariants(self, mesh: SurfaceMesh):
        dots = np.abs(np.sum(self.mean_curvature * mesh.vertices, axis=1))
        if float(np.max(dots)) > 1e-10:
            raise ValueError("mean curvature not tangent to the sphere")


def gauss_equation_residual(mesh: SurfaceMesh) -> ResidualReport:
    """Pointwise defect of s = 2 + |H|^2 - |alpha|^2 with summary statistics.

    ``s`` is the intrinsic-spherical angle-defect curvature; the median is
    weighted by vertex dual areas.
    """
    field = ExtrinsicField.compute(mesh)
    res = np.abs(field.residual)
    return ResidualReport(field.residual, float(np.max(res)),
                          _area_weighted_median(res, field.dual_areas))
