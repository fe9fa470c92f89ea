"""Triangle meshes with vertices on S^d and their induced discrete metrics.

A :class:`SurfaceMesh` is pure combinatorics plus unit-vector vertex
positions.  All measurement goes through a :class:`DiscreteMetric`, a bag of
edge lengths tagged with one of two conventions:

``spherical``
    lengths are great-circle distances and faces are treated as geodesic
    triangles of the unit sphere (angles by the spherical law of cosines,
    areas by spherical excess).  This matches the embedded geometry.

``euclidean``
    lengths are abstract and faces are flat triangles (law of cosines,
    Heron areas).  The conformal flow lives entirely in this convention.

Mixing conventions raises; conversions are explicit.

A metric computes its per-face record (corner lengths, angles, half-cotangents,
areas) once, on first read, as read-only arrays every reader shares.  The
cotangents are 0.5 cos/sin of the angles: the length form (b^2 + c^2 - a^2)/4A
rounds differently and moves the cotan-H certificate and Plateau preconditioner.

The discrete scalar curvature is twice the angle defect over the vertex dual
area.  In the spherical convention each face additionally carries interior
curvature (a geodesic triangle of the unit sphere has curvature 1 inside),
whose barycentric share adds exactly +2 to the vertex density; without that
share a geodesic triangulation of a great 2-sphere would report curvature 0
instead of 2.  Both conventions satisfy the polyhedral Gauss-Bonnet theorem
to rounding error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    FieldMeshMismatch,
    MeshInvariantError,
    TriangleViolation,
)
from .sphere import geodesic_distances

__all__ = [
    "SurfaceMesh",
    "DiscreteMetric",
    "VertexField",
    "probe_orientability",
    "induced_metric",
    "euler_characteristic",
    "vertex_dual_areas",
    "total_area",
    "angle_defect_curvature",
    "refine",
    "save_mesh",
    "load_mesh",
]

SPHERICAL = "spherical"
EUCLIDEAN = "euclidean"

_TRIANGLE_SLACK = 1e-10


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class VertexField:
    """One real value per vertex."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("vertex field must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex field contains non-finite entries")


# ---------------------------------------------------------------------------
# the mesh


def _edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One integer key per undirected edge {u, v} of vertices below ``n``:
    lo * n + hi, which sorts exactly as the sorted (lo, hi) rows do."""
    return np.minimum(u, v).astype(np.int64, copy=False) * n + np.maximum(u, v)


def _edge_table(faces: np.ndarray):
    """Undirected edges and the face->edge incidence.

    Returns ``edges`` (E, 2) with sorted rows in lexicographic order, and
    ``face_edge_ids`` (F, 3) where column c is the edge opposite corner c.
    """
    opp = faces[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
    n = int(faces.max(initial=0)) + 1
    keys, inverse = np.unique(_edge_keys(opp[:, 0], opp[:, 1], n), return_inverse=True)
    return np.column_stack([keys // n, keys % n]), inverse.reshape(-1, 3)


def _interior_halfedge_pairs(face_edge_ids: np.ndarray, n_edges: int):
    """The two halfedges (3f + c) of every edge shared by exactly two faces,
    as int32 arrays to keep the orientation graph small."""
    e_flat = face_edge_ids.ravel()
    order = np.argsort(e_flat, kind="stable").astype(np.int32)
    counts = np.bincount(e_flat, minlength=n_edges)
    first = (np.cumsum(counts) - counts)[counts == 2]
    return order[first], order[first + 1]


def _orientation_scan(faces: np.ndarray, edges: np.ndarray, face_edge_ids: np.ndarray):
    """Try to orient all faces consistently.

    Returns (orientable, flips): reversing the flagged faces orients the mesh
    whenever it is orientable, and the lowest face of each connected component
    keeps its winding.  Node f of the orientation double cover is face f as
    given and node F + f its reverse; the mesh is orientable exactly when no
    face's two nodes share a component.
    """
    F = faces.shape[0]
    # for each (face, corner): does the face traverse the opposite edge in
    # ascending vertex order?
    ascending = (faces[:, [1, 2, 0]] < faces[:, [2, 0, 1]]).ravel()  # halfedge 3f + c

    h, g = _interior_halfedge_pairs(face_edge_ids, edges.shape[0])
    # consistent <=> the faces traverse the edge in opposite directions, so
    # equal directions join each face to the other one reversed
    swap = F * (ascending[h] == ascending[g])
    rows = np.concatenate([h // 3, h // 3 + F])
    cols = np.concatenate([g // 3 + swap, g // 3 + F - swap])
    cover = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(2 * F, 2 * F))
    _, label = connected_components(cover, directed=False)
    orientable = not np.any(label[:F] == label[F:])
    # the lowest face node of each component; a face is flipped when its
    # reversed copy sits with its component's lowest face
    lowest = np.full(2 * F, F)
    np.minimum.at(lowest, label[:F], np.arange(F))
    flips = lowest[label[F:]] < lowest[label[:F]]
    return orientable, flips


def probe_orientability(faces: np.ndarray) -> bool:
    """Whether a face list admits a globally consistent orientation."""
    faces = np.asarray(faces, dtype=np.int64)
    edges, face_edge_ids = _edge_table(faces)
    orientable, _ = _orientation_scan(faces, edges, face_edge_ids)
    return orientable


class SurfaceMesh:
    """Closed or bordered triangle mesh with vertices on S^d.

    Parameters
    ----------
    dimension:
        d of the ambient sphere S^d; vertices have d+1 coordinates.
    vertices:
        (V, d+1) array of unit vectors.
    faces:
        (F, 3) integer array of vertex triples.
    boundary_loops:
        vertex index cycles covering exactly the edges incident to one face.
    orientable:
        declared flag; checked against a consistent-orientation scan.
    vertex_normals:
        optional (V, d+1) unit field orthogonal to both the position and the
        surface; attached by parametric builders in S^3 that know it exactly.

    Validation keeps ``edges`` and ``face_edge_ids`` (``_edge_table``) and
    the read-only ``boundary_vertex_mask``.
    """

    def __init__(self, dimension, vertices, faces, boundary_loops=(), orientable=True,
                 name="", vertex_normals=None):
        self.dimension = int(dimension)
        self.vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        self.faces = np.ascontiguousarray(np.asarray(faces, dtype=np.int64))
        self.boundary_loops = [list(map(int, loop)) for loop in boundary_loops]
        self.orientable = bool(orientable)
        self.name = str(name)
        self.vertex_normals = None if vertex_normals is None else \
            np.ascontiguousarray(np.asarray(vertex_normals, dtype=float))
        self._validate()

    # -- derived combinatorics ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def is_closed(self) -> bool:
        return len(self.boundary_loops) == 0

    @property
    def oriented_faces(self) -> np.ndarray:
        """Faces with a globally consistent orientation (orientable meshes)."""
        if not self.orientable:
            raise MeshInvariantError("mesh is not orientable")
        out = self.faces.copy()
        flip = self._orientation_flips
        out[flip] = out[flip][:, ::-1]
        return out

    # -- validation -----------------------------------------------------------

    def _validate(self):
        d = self.dimension
        if d < 2:
            raise MeshInvariantError(f"ambient dimension {d} below 2")
        V = self.vertices
        if V.ndim != 2 or V.shape[1] != d + 1:
            raise DimensionMismatch(
                f"vertices have shape {V.shape}, expected (*, {d + 1})")
        norms = np.linalg.norm(V, axis=1)
        worst = float(np.max(np.abs(norms - 1.0))) if len(norms) else 0.0
        if not worst <= 1e-12:  # NaN would pass ``worst > 1e-12``
            raise MeshInvariantError(f"vertex norms deviate from 1 by {worst:.3e}")

        F = self.faces
        if F.ndim != 2 or F.shape[1] != 3 or F.shape[0] == 0:
            raise MeshInvariantError("faces must be a nonempty (F, 3) array")
        if F.min() < 0 or F.max() >= self.n_vertices:
            raise MeshInvariantError("face indices out of range")
        if np.any((F[:, 0] == F[:, 1]) | (F[:, 1] == F[:, 2]) | (F[:, 0] == F[:, 2])):
            raise MeshInvariantError("a face repeats a vertex")

        referenced = np.zeros(self.n_vertices, dtype=bool)
        referenced[F.ravel()] = True
        if not referenced.all():
            missing = int(np.flatnonzero(~referenced)[0])
            raise MeshInvariantError(f"vertex {missing} belongs to no face")

        edges, face_edge_ids = _edge_table(F)
        counts = np.bincount(face_edge_ids.ravel(), minlength=edges.shape[0])
        if counts.max(initial=0) > 2:
            raise MeshInvariantError("an edge is shared by more than two faces")
        boundary = set(map(tuple, edges[counts == 1]))
        declared = set()
        for loop in self.boundary_loops:
            if len(loop) < 3:
                raise MeshInvariantError("boundary loop shorter than 3 vertices")
            for u, v in zip(loop, loop[1:] + loop[:1]):
                declared.add(tuple(sorted((u, v))))
        if boundary != declared:
            raise MeshInvariantError(
                f"boundary loops cover {len(declared)} edges but the mesh has "
                f"{len(boundary)} boundary edges")
        self.edges = edges
        self.face_edge_ids = face_edge_ids
        # every loop vertex now ends a mesh edge, so it indexes in range
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[[v for loop in self.boundary_loops for v in loop]] = True
        self.boundary_vertex_mask = _read_only(mask)

        computed, flips = _orientation_scan(F, edges, face_edge_ids)
        if computed != self.orientable:
            raise MeshInvariantError(
                f"declared orientable={self.orientable} but the orientation "
                f"scan says {computed}")
        self._orientation_flips = flips

        N = self.vertex_normals
        if N is not None:
            if N.shape != V.shape:
                raise DimensionMismatch("vertex_normals shape mismatch")
            if not float(np.max(np.abs(np.linalg.norm(N, axis=1) - 1.0))) <= 1e-8:
                raise MeshInvariantError("vertex normals are not unit")
            if not float(np.max(np.abs(np.sum(N * V, axis=1)))) <= 1e-8:
                raise MeshInvariantError("vertex normals are not tangent to the sphere")

    # -- misc -----------------------------------------------------------------

    def with_vertices(self, vertices: np.ndarray) -> "SurfaceMesh":
        """Same combinatorics, new positions (normals are dropped)."""
        return SurfaceMesh(self.dimension, vertices, self.faces,
                           self.boundary_loops, self.orientable, self.name)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "vertices": self.vertices.tolist(),
            "faces": self.faces.tolist(),
            "boundary_loops": [list(l) for l in self.boundary_loops],
            "orientable": self.orientable,
            "name": self.name,
        }


def euler_characteristic(mesh: SurfaceMesh) -> int:
    return mesh.n_vertices - mesh.n_edges + mesh.n_faces


# ---------------------------------------------------------------------------
# metrics


def _triangle_slacks(corner_lengths: np.ndarray) -> np.ndarray:
    """Min triangle-inequality slack per face for (F, 3) side lengths, over
    the longest side: scale-free, so one ``_TRIANGLE_SLACK`` serves metrics
    of every size."""
    a, b, c = corner_lengths[:, 0], corner_lengths[:, 1], corner_lengths[:, 2]
    # min and max do no arithmetic, so no bit depends on the pairing order
    return (np.minimum(np.minimum(b + c - a, c + a - b), a + b - c)
            / np.maximum(np.maximum(a, b), c))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiscreteMetric:
    """Edge lengths over fixed mesh combinatorics.

    ``face_corner_lengths[f, c]`` is the length of the edge opposite corner c
    of face f, the layout every angle/area formula wants.  Construction is
    the package's one triangle-inequality guard (TriangleViolation).  The
    per-face record is computed once and read-only (module docstring).
    """

    edges: np.ndarray
    lengths: np.ndarray
    convention: str
    face_edge_ids: np.ndarray
    n_vertices: int

    def __post_init__(self):
        if self.convention not in (SPHERICAL, EUCLIDEAN):
            raise ValueError(f"unknown length convention {self.convention!r}")
        lengths = np.asarray(self.lengths, dtype=float)
        object.__setattr__(self, "lengths", lengths)
        if not np.isfinite(lengths).all():  # NaN would pass every test below
            bad = np.flatnonzero(~np.isfinite(self.face_corner_lengths).all(axis=1))
            raise TriangleViolation(f"{len(bad)} faces have non-finite edge lengths",
                                    faces=[int(f) for f in bad[:32]])
        if np.any(lengths <= 0.0):
            raise DegenerateTriangle("non-positive edge length")
        if self.convention == SPHERICAL and np.any(lengths >= np.pi):
            raise DegenerateTriangle("spherical edge length >= pi")
        slack = _triangle_slacks(self.face_corner_lengths)
        bad = np.flatnonzero(slack <= _TRIANGLE_SLACK)
        if len(bad):
            raise TriangleViolation(
                f"{len(bad)} faces violate the triangle inequality "
                f"(least relative slack {float(slack[bad].min()):.3e})",
                faces=[int(f) for f in bad[:32]])

    @cached_property
    def face_corner_lengths(self) -> np.ndarray:
        return _read_only(self.lengths[self.face_edge_ids])

    @cached_property
    def angles(self) -> np.ndarray:
        """Interior angles (F, 3) by the law of cosines; column c is corner c."""
        L = self.face_corner_lengths
        out = np.empty_like(L)
        for c in range(3):
            a, b, cc = L[:, c], L[:, (c + 1) % 3], L[:, (c + 2) % 3]
            if self.convention == SPHERICAL:
                num = np.cos(a) - np.cos(b) * np.cos(cc)
                den = np.sin(b) * np.sin(cc)
            else:
                num = b * b + cc * cc - a * a
                den = 2.0 * b * cc
            out[:, c] = np.arccos(np.clip(num / den, -1.0, 1.0))
        return _read_only(out)

    @cached_property
    def half_cotangents(self) -> np.ndarray:
        """0.5 cot per corner (F, 3), the cotan weight on the opposite edge."""
        return _read_only(0.5 * np.cos(self.angles) / np.sin(self.angles))

    @cached_property
    def areas(self) -> np.ndarray:
        """Per-face areas: spherical excess or Heron, per the convention."""
        L = self.face_corner_lengths
        return _read_only(_spherical_excess(L) if self.convention == SPHERICAL
                          else _heron(L))

    def as_euclidean(self) -> "DiscreteMetric":
        """Reinterpret the same numbers as flat-triangle lengths.

        The twin shares the corner lengths and skips the guard, every flat
        test of which these lengths passed as spherical ones.
        """
        if self.convention == EUCLIDEAN:
            return self
        twin = object.__new__(DiscreteMetric)
        twin.__dict__.update(edges=self.edges, lengths=self.lengths,
                             convention=EUCLIDEAN, face_edge_ids=self.face_edge_ids,
                             n_vertices=self.n_vertices,
                             face_corner_lengths=self.face_corner_lengths)
        return twin


def _check_pair(mesh: SurfaceMesh, metric: DiscreteMetric):
    if metric.n_vertices != mesh.n_vertices or \
            metric.face_edge_ids.shape != mesh.face_edge_ids.shape:
        raise FieldMeshMismatch("metric does not match mesh combinatorics")


def induced_metric(mesh: SurfaceMesh) -> DiscreteMetric:
    """Geodesic edge lengths pulled back from the ambient sphere."""
    p = mesh.vertices[mesh.edges[:, 0]]
    q = mesh.vertices[mesh.edges[:, 1]]
    lengths = geodesic_distances(p, q)
    return DiscreteMetric(mesh.edges, lengths, SPHERICAL,
                          mesh.face_edge_ids, mesh.n_vertices)


def _heron(L: np.ndarray) -> np.ndarray:
    # Kahan's numerically stable Heron on the sides a >= b >= c; picking them
    # by min/max does no arithmetic, so the sides are exactly a sort's
    x, y, z = L[:, 0], L[:, 1], L[:, 2]
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    a = np.maximum(hi, z)
    b = np.maximum(lo, np.minimum(hi, z))
    c = np.minimum(lo, z)
    prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.maximum(prod, 0.0))


def _spherical_excess(L: np.ndarray) -> np.ndarray:
    # l'Huilier's formula from side lengths alone
    s = np.sum(L, axis=1) / 2.0
    t = np.tan(s / 2.0)
    for c in range(3):
        t = t * np.tan((s - L[:, c]) / 2.0)
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


def vertex_dual_areas(mesh: SurfaceMesh, metric: DiscreteMetric) -> VertexField:
    """Barycentric dual areas: one third of each incident face."""
    _check_pair(mesh, metric)
    dual = np.bincount(mesh.faces.ravel(), np.repeat(metric.areas / 3.0, 3),
                       minlength=mesh.n_vertices)
    if np.any(dual <= 0.0):
        raise DegenerateTriangle("a vertex has non-positive dual area")
    return VertexField(dual)


def total_area(mesh: SurfaceMesh, metric: DiscreteMetric) -> float:
    _check_pair(mesh, metric)
    return float(np.sum(metric.areas))


def angle_defect_curvature(mesh: SurfaceMesh, metric: DiscreteMetric,
                           dual: np.ndarray | None = None) -> VertexField:
    """Discrete scalar curvature s_i = 2 * defect_i / A_i (plus the spherical
    face-interior share, see the module docstring).

    Interior vertices use the 2*pi defect; boundary vertices (Plateau
    patches) use pi.  A caller that already holds the metric's vertex dual
    areas passes them as ``dual``, so they are not computed twice.
    """
    _check_pair(mesh, metric)
    if dual is None:
        dual = vertex_dual_areas(mesh, metric).values
    angle_sum = np.bincount(mesh.faces.ravel(), metric.angles.ravel(),
                            minlength=mesh.n_vertices)
    full = np.where(mesh.boundary_vertex_mask, np.pi, 2.0 * np.pi)
    defect = full - angle_sum
    s = 2.0 * defect / dual
    if metric.convention == SPHERICAL:
        s = s + 2.0
    return VertexField(s)


# ---------------------------------------------------------------------------
# refinement


def _subdivide(V: np.ndarray, F: np.ndarray, edges: np.ndarray,
               face_edge_ids: np.ndarray):
    """1-to-4 midpoint subdivision of raw arrays, midpoints projected to the
    sphere; ``edges``/``face_edge_ids`` as from :func:`_edge_table`.  Edge e
    gets the new vertex len(V) + e."""
    mid = V[edges[:, 0]] + V[edges[:, 1]]
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    m = len(V) + face_edge_ids  # midpoint index per (face, corner)
    faces = np.vstack([
        np.column_stack([F[:, 0], m[:, 2], m[:, 1]]),
        np.column_stack([F[:, 1], m[:, 0], m[:, 2]]),
        np.column_stack([F[:, 2], m[:, 1], m[:, 0]]),
        np.column_stack([m[:, 0], m[:, 1], m[:, 2]]),
    ])
    return np.vstack([V, mid]), faces


def refine(mesh: SurfaceMesh) -> SurfaceMesh:
    """1-to-4 midpoint subdivision with radial re-projection."""
    edges = mesh.edges
    verts, faces = _subdivide(mesh.vertices, mesh.faces, edges, mesh.face_edge_ids)

    n = mesh.n_vertices
    keys = _edge_keys(edges[:, 0], edges[:, 1], n)
    loops = []
    for loop in mesh.boundary_loops:
        u = np.array(loop)
        e = np.searchsorted(keys, _edge_keys(u, np.roll(u, -1), n))
        loops.append(np.column_stack([u, n + e]).ravel())

    return SurfaceMesh(mesh.dimension, verts, faces, loops, mesh.orientable, mesh.name)


# ---------------------------------------------------------------------------
# persistence


def save_mesh(mesh: SurfaceMesh, path) -> None:
    doc = mesh.to_dict()
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _field(doc: dict, key: str, kind, what: str, source: str, default=None):
    """``doc[key]`` (``default`` when it is given and the key is absent),
    refused with a ValueError naming the field unless it is of ``kind``.
    JSON true and false are bools, which Python counts as integers."""
    value = doc[key] if default is None or key in doc else default
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{source} field {key!r} must be {what}, not "
                         f"{type(value).__name__}")
    return value


def _array(value, key: str, ndim: int, integer: bool) -> np.ndarray:
    """A mesh list field as an ``ndim``-dimensional array of integers or of
    numbers; a plain int64 cast would read a face index 2.5 as 2."""
    a = np.array(value)
    if a.ndim != ndim or a.size and a.dtype.kind not in ("iu" if integer else "iuf"):
        raise ValueError(f"mesh field {key!r} must be {ndim}-dimensional, of "
                         f"{'integers' if integer else 'numbers'}, not "
                         f"{a.ndim}-dimensional {a.dtype}")
    return a


def load_mesh(path) -> SurfaceMesh:
    """Read a ``save_mesh`` file.  Raises ValueError naming the field when
    the document is not a JSON object, ``dimension`` is not an integer,
    ``orientable`` not a boolean, ``vertices`` not a table of numbers, or
    ``faces`` or a boundary loop not a table or list of integer indices."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a mesh file holds a JSON object, not "
                         f"{type(doc).__name__}")
    loops = _field(doc, "boundary_loops", list, "a list", "mesh", [])
    return SurfaceMesh(
        dimension=_field(doc, "dimension", int, "an integer", "mesh"),
        vertices=_array(doc["vertices"], "vertices", 2, integer=False),
        faces=_array(doc["faces"], "faces", 2, integer=True),
        boundary_loops=[_array(loop, "boundary_loops", 1, integer=True)
                        for loop in loops],
        orientable=_field(doc, "orientable", bool, "true or false", "mesh", True),
        name=doc.get("name", ""),
    )
