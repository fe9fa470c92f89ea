"""Tube-supported extension of conformal factors and its gradient flow.

The conformal factor u produced by the uniformization flow lives on the
surface; here it is extended to the ambient sphere by

    phi_t(x) = u_t(closest surface point of x) * bump(dist(x, surface))

with a C^2 quintic cutoff that is identically 1 within distance epsilon of
the surface and identically 0 beyond 2 epsilon.  Inside the inner tube the
field is constant in the normal directions, so its gradient is tangent to
the surface there; beyond the outer shell the field — and hence the flow —
vanishes identically.  Particles are advected by the sphere-tangent
gradient with classical RK4, re-projecting to the unit sphere each stage.

Distances for the tube profile are Euclidean (chordal) distances to the
piecewise-linear surface; for small tubes these agree with arc length to
second order, and using them keeps the implemented gradient exactly the
derivative of the implemented value (the finite-difference tests depend on
that).  Surface-fixing, by contrast, is measured against the *curved*
faces (radial projections of the flat faces onto the sphere), because the
exact flow of a surface point moves along the great 2-sphere spanned by
its face, never along the chordal triangle.

Closest faces come from two candidate sources, and one evaluator ranks
either kind.  The first is a k-d tree over face centroids: the k nearest
centroids of x0 certify its closest face when cd_k(x0), the k-th centroid
distance, exceeds d_best(x0) + max_spread (the largest centroid-to-vertex
distance of any face), since every other face lies at least cd_k - max_spread
away.  The second is the record of those certificates, which the integrator
keeps across RK4 stages and steps: a point x with

    |x - x0| + margin < delta = (cd_k(x0) - max_spread - d_best(x0)) / 2

reuses the candidates of x0 without a tree query, because by the triangle
inequality every other face stays d_best(x0) + delta away, beyond
d_best(x) <= d_best(x0) + |x - x0|.  The certifying round has already
measured dist(x0, f) for every candidate f, and the record keeps those exact
distances.  Within a reused set a face is skipped when

    dist(x0, f) > max(d_2(x0), d_best(x0) + 1e-9) + 2 (|x - x0| + margin),

d_2 being the runner-up distance: the distance to a face is 1-Lipschitz, so
that face is neither the best nor the runner-up at x, nor within 1e-9 of the
best, and the ambiguity guard still sees every near tie.  Exactly tied faces
are taken in face order, which makes reused and fresh candidate sets give
bit-identical answers.

Each (point, face) pair is classified by the standard region test for the
closest point on a triangle (Ericson, Real-Time Collision Detection, 2004,
5.1.5): six dot products decide whether the closest point is a corner, an
edge or the face.  The fifteen sign tests the test makes are packed into one
key, and a table of all 2^15 keys gives the region the test would claim
first, so a batch of pairs takes one lookup instead of six masked claims.

So each point's closest faces are a pure function of the point.  Two kinds
of particle have zero velocity at every t by construction: those at distance
2 epsilon or more (the cutoff is 0), and those within epsilon whose closest
point is a mesh corner (cp is constant, the cutoff's slope is 0) and ties
with no face of another sheet (the ambiguity guard reads u(t) there).  After
the first RK4 step the integrator certifies both stage points of each row
that did not move, x and its re-projection, and drops certified rows from
every later batch: their stage velocities would all be 0, so the flow stays
bit-exact.  An observed zero is no certificate: at t = 0 the flow's u is 0.

u is interpolated linearly in time between schedule samples; that choice
is a convention, not a claim.
"""

from __future__ import annotations

import functools
import io
import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ClosestPointAmbiguous, StepTooLarge
from .extrinsic import (_area_weighted_median, max_mean_curvature,
                        second_fundamental_norm)
from .flow import conformal_lengths
from .mesh import SurfaceMesh, VertexField, induced_metric, vertex_dual_areas
from .sphere import AmbientPoint, TangentVector, geodesic_distances

__all__ = [
    "TubeField",
    "ParticleEnsemble",
    "evaluate_tube_field",
    "integrate_palais_flow",
    "build_ensemble",
    "conformality_residual",
    "residual_json",
    "trajectory_csv",
    "area_preservation_residual",
    "curved_surface_distance",
]

_AMBIGUITY_DIST = 1e-9
_AMBIGUITY_U = 1e-6
# absolute allowance for rounding in computed distances
_REUSE_MARGIN = 1e-12
# rejection rounds for outside particles before epsilon is refused as too wide
_OUTSIDE_ROUNDS = 1000
# farthest a transported surface particle may end from the curved surface
SURFACE_FIXING_BOUND = 1e-4


def _bump(rho: np.ndarray, eps: float):
    """Quintic cutoff: (value, d/d rho); 1 on [0, eps], 0 on [2 eps, inf)."""
    rho = np.asarray(rho, dtype=float)
    s = np.minimum(np.maximum((rho - eps) / eps, 0.0), 1.0)
    value = 1.0 - (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)
    slope = -30.0 * s ** 2 * (1.0 - s) ** 2 / eps
    return value, slope


class _FaceCache:
    """Precomputed face geometry plus a centroid tree for candidate lookup."""

    def __init__(self, mesh: SurfaceMesh):
        from scipy.spatial import cKDTree

        V, F = mesh.vertices, mesh.faces
        self.faces = F
        self.v0 = V[F[:, 0]]
        self.ab = V[F[:, 1]] - self.v0
        self.ac = V[F[:, 2]] - self.v0
        centroids = (V[F[:, 0]] + V[F[:, 1]] + V[F[:, 2]]) / 3.0
        self.tree = cKDTree(centroids)
        diam = np.maximum(np.linalg.norm(self.ab, axis=1),
                          np.linalg.norm(self.ac, axis=1))
        diam = np.maximum(diam, np.linalg.norm(self.ab - self.ac, axis=1))
        self.max_diam = float(np.max(diam))
        # bounding radius of each face about its centroid; the worst one is
        # the certification radius of the candidate search (any face can
        # beat its centroid distance by at most this)
        radius = np.max([np.linalg.norm(V[F[:, k]] - centroids, axis=1)
                         for k in range(3)], axis=0)
        self.max_spread = float(radius.max())
        # a curved face also sags outward from its flat face by at most
        # 1 - |z| <= 1 - |z|^2 = sum_{i<j} b_i b_j |v_i - v_j|^2 <= diam^2 / 3
        self.curved_spread = float(np.max(radius + diam * diam / 3.0))
        self.n_faces = len(F)
        # jacobian[f, code] maps (u1 - u0, u2 - u0) to the gradient of u o cp
        # when cp lies on the feature of face f whose corners are the bits of
        # code (1, 2, 4 for corners 0, 1, 2): edges 3, 5, 6 and the face 7;
        # cp is constant at a corner, so codes 0, 1, 2 and 4 stay zero
        e0, e1, e2 = self.ab, self.ac, self.ac - self.ab
        m00 = np.sum(e0 * e0, axis=1)[:, None]
        m01 = np.sum(e0 * e1, axis=1)[:, None]
        m11 = np.sum(e1 * e1, axis=1)[:, None]
        det = m00 * m11 - m01 * m01
        J = np.zeros((len(F), 8, V.shape[1], 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            J[:, 3, :, 0] = e0 / m00
            J[:, 5, :, 1] = e1 / m11
            J[:, 6, :, 1] = e2 / np.sum(e2 * e2, axis=1)[:, None]
            J[:, 6, :, 0] = -J[:, 6, :, 1]
            J[:, 7, :, 0] = (m11 * e0 - m01 * e1) / det
            J[:, 7, :, 1] = (m00 * e1 - m01 * e0) / det
        self.jacobian = J


class _CandidateRecord:
    """Closest-face certificates of moving points (see the module docstring).

    Row i holds the anchor x0 of its last certificate, the candidate faces in
    face order with their exact distances dist(x0, f) (inf as padding), the
    reach max(d_2(x0), d_best(x0) + 1e-9) and the slack delta (-inf: no
    record).
    """

    def __init__(self, n: int, dim: int):
        self.anchor = np.zeros((n, dim))
        self.faces = np.zeros((n, 0), dtype=np.int64)
        self.lower = np.zeros((n, 0))
        self.reach = np.zeros(n)
        self.slack = np.full(n, -np.inf)

    def keep(self, rows: np.ndarray):
        for name in ("anchor", "faces", "lower", "reach", "slack"):
            setattr(self, name, getattr(self, name)[rows])


@functools.cache
def _region_table() -> np.ndarray:
    """Region of ``_closest_on_triangles`` for each 15-bit sign key.

    Bits 0-8 say q <= 0 and bits 9-14 say q >= 0 for the quantities q of
    ``_closest_on_triangles``; the value is the first region whose claim the
    bits meet, in the order corner A, B, C, edge AB, AC, BC, else the face (6).
    Built on first use, so that commands which test no triangle never pay
    for it.
    """
    d1, d2, d3, d6, e43, e56, vc, vb, va = (1 << i for i in range(9))
    g1, g2, g3, g6, g43, g56 = (1 << i for i in range(9, 15))
    claims = (d1 | d2, g3 | e43, g6 | e56, vc | g1 | d3, vb | g2 | d6,
              va | g43 | g56)
    keys = np.arange(1 << 15, dtype=np.uint16)
    return np.select([keys & c == c for c in claims],
                     np.arange(6, dtype=np.uint8), np.uint8(6))


_KEY_BITS = np.array([1 << i for i in range(15)], dtype=np.uint16)


def _closest_on_triangles(P, A, AB, AC):
    """Closest points of row-paired triangles; returns (points, barycentric).

    Standard region decomposition, one ``_region_table`` lookup per pair;
    barycentric entries are exactly zero on the region boundaries, which
    downstream gradient code relies on.
    """
    n = len(P)
    AP = P - A
    BP = AP - AB
    CP = AP - AC
    # bits 0-8 of the region key say q <= 0 and bits 9-14 say q >= 0 for the
    # first six rows; d4 - d3 <= 0 and d4 <= d3 agree on finite values
    q = np.empty((9, n))
    d1, d2, d3, d6, e43, e56, vc, vb, va = q
    np.einsum("ij,ij->i", AB, AP, out=d1)
    np.einsum("ij,ij->i", AC, AP, out=d2)
    np.einsum("ij,ij->i", AB, BP, out=d3)
    d4 = np.einsum("ij,ij->i", AC, BP)
    d5 = np.einsum("ij,ij->i", AB, CP)
    np.einsum("ij,ij->i", AC, CP, out=d6)
    np.subtract(d4, d3, out=e43)
    np.subtract(d5, d6, out=e56)
    np.subtract(d1 * d4, d3 * d2, out=vc)
    np.subtract(d5 * d2, d1 * d6, out=vb)
    np.subtract(d3 * d6, d5 * d4, out=va)
    bits = np.empty((15, n), dtype=bool)
    np.less_equal(q, 0.0, out=bits[:9])
    np.greater_equal(q[:6], 0.0, out=bits[9:])
    region = _region_table()[_KEY_BITS @ bits.view(np.uint8)]

    # barycentrics of every region for every pair: corners A, B, C, edges
    # AB, AC, BC, face
    table = np.zeros((7, n, 3))
    table[0, :, 0] = table[1, :, 1] = table[2, :, 2] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        v = d1 / (d1 - d3)
        table[3, :, 0], table[3, :, 1] = 1 - v, v
        w = d2 / (d2 - d6)
        table[4, :, 0], table[4, :, 2] = 1 - w, w
        w = e43 / (e43 + e56)
        table[5, :, 1], table[5, :, 2] = 1 - w, w
        denom = va + vb + vc
        v, w = vb / denom, vc / denom
        table[6, :, 0], table[6, :, 1], table[6, :, 2] = 1 - v - w, v, w
    bary = table[region, np.arange(n)]
    cp = A + bary[:, 1:2] * AB + bary[:, 2:3] * AC
    return cp, bary


def _closest_faces(cache: _FaceCache, X: np.ndarray,
                   _record: _CandidateRecord | None = None):
    """Exact closest face per query point, and the runner-up among candidates.

    Returns (face, closest point, barycentric, distance, runner-up distance,
    runner-up barycentric, runner-up face).  A row within the slack of its
    ``_record`` row reads the recorded faces that can still win (module
    docstring); every other row asks the centroid tree (k = 32, then 4k until
    certified), and each new certificate refreshes its row.  Both candidate
    sources feed ``_best_candidates``.
    """
    n = len(X)
    if not n:
        return _no_answers(0, X.shape[1])
    rec = _CandidateRecord(*X.shape) if _record is None else _record
    D = X - rec.anchor
    drift = np.sqrt(np.add.reduce(D * D, axis=1)) + _REUSE_MARGIN
    reuse = drift < rec.slack
    keep = rec.lower <= (rec.reach + 2.0 * drift)[:, None]
    if reuse.all():
        return _best_candidates(cache, X, rec.faces, keep)[0]
    out = _no_answers(n, X.shape[1])
    if reuse.any():
        found, _ = _best_candidates(cache, X[reuse], rec.faces[reuse],
                                    keep[reuse])
        for o, a in zip(out, found):
            o[reuse] = a
    rows, k = np.flatnonzero(~reuse), 32
    while len(rows):
        k_eff = min(k, cache.n_faces)
        cd, ci = cache.tree.query(X[rows], k=k_eff)
        cd, ci = cd.reshape(-1, k_eff), ci.reshape(-1, k_eff)
        # in face order the first of exactly tied distances is the same in
        # every candidate set that holds them, reused or fresh
        ci = np.take_along_axis(ci, np.argsort(ci, axis=1), axis=1)
        found, exact = _best_candidates(cache, X[rows], ci,
                                        np.ones(ci.shape, dtype=bool))
        d_best = found[3]
        full = k_eff == cache.n_faces
        done = full | (cd[:, -1] > d_best + cache.max_spread)
        slot, d0 = rows[done], d_best[done]
        if k_eff > rec.faces.shape[1]:
            pad = ((0, 0), (0, k_eff - rec.faces.shape[1]))
            rec.faces = np.pad(rec.faces, pad)
            rec.lower = np.pad(rec.lower, pad, constant_values=np.inf)
        rec.anchor[slot] = X[slot]
        rec.faces[slot, :k_eff] = ci[done]
        rec.lower[slot] = np.inf
        rec.lower[slot, :k_eff] = exact[done]
        rec.reach[slot] = np.maximum(found[4][done], d0 + _AMBIGUITY_DIST)
        rec.slack[slot] = np.inf if full else \
            0.5 * (cd[done, -1] - cache.max_spread - d0)
        for o, a in zip(out, found):
            o[slot] = a[done]
        rows, k = rows[~done], 4 * k
    return out


def _best_candidates(cache: _FaceCache, X: np.ndarray, cand: np.ndarray,
                     keep: np.ndarray):
    """Best and runner-up among the kept faces ``cand[i][keep[i]]`` of X[i].

    One triangle test per kept (point, face) pair; of exactly tied distances
    the earlier column wins.  Returns the seven answers of ``_closest_faces``
    and every candidate's exact distance (inf where not kept).
    """
    rr, cc = np.nonzero(keep)
    P = X[rr]
    F = cand[rr, cc]
    cp, bary = _closest_on_triangles(P, cache.v0[F], cache.ab[F], cache.ac[F])
    D = P - cp
    dist = np.full(keep.shape, np.inf)
    dist[rr, cc] = np.sqrt(np.add.reduce(D * D, axis=1))
    flat = np.zeros(keep.shape, dtype=np.int64)
    flat[rr, cc] = np.arange(len(rr))
    local = np.arange(len(X))
    best = np.argmin(dist, axis=1)
    d_best = dist[local, best]
    dist[local, best] = np.inf
    second = np.argmin(dist, axis=1)
    d_second = dist[local, second]
    dist[local, best] = d_best
    fb, fs = flat[local, best], flat[local, second]
    return (cand[local, best], cp[fb], bary[fb], d_best, d_second, bary[fs],
            cand[local, second]), dist


def _no_answers(n: int, dim: int):
    """Uninitialized outputs of ``_closest_faces`` for n points in R^dim."""
    return (np.empty(n, dtype=np.int64), np.empty((n, dim)), np.empty((n, 3)),
            np.empty(n), np.empty(n), np.empty((n, 3)),
            np.empty(n, dtype=np.int64))


@dataclass(frozen=True)
class TubeField:
    """A time-dependent conformal factor extended to a tube in the sphere.

    ``u_schedule`` is a tuple of (time, per-vertex values), linearly
    interpolated in time.  ``epsilon`` is the inner tube radius; the field
    is supported within 2 epsilon (quintic cutoff ``_bump``).  The face
    cache of ``source_mesh`` is built at construction.
    """

    source_mesh: SurfaceMesh
    u_schedule: tuple
    epsilon: float
    _cache: object = dataclass_field(default=None, init=False, compare=False,
                                     repr=False)
    _times: object = dataclass_field(default=None, init=False, compare=False,
                                     repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon = {self.epsilon} must be finite and positive")
        times = [t for t, _ in self.u_schedule]
        if len(times) < 1 or list(times) != sorted(times):
            raise ValueError("u_schedule must be nonempty and time-sorted")
        for _, u in self.u_schedule:
            if len(u) != self.source_mesh.n_vertices:
                raise ValueError("schedule field does not match the mesh")
        object.__setattr__(self, "_cache", _FaceCache(self.source_mesh))
        object.__setattr__(self, "_times", np.array(times, dtype=float))

    @classmethod
    def from_flow(cls, mesh: SurfaceMesh, u_final: np.ndarray,
                  epsilon: float | None = None) -> "TubeField":
        """Schedule from u(0) = 0 to the uniformized factors, linear in t.

        Default epsilon is half the focal-distance estimate
        min_i 1 / |alpha_i| of the surface.
        """
        if epsilon is None:
            alpha = second_fundamental_norm(mesh).values
            epsilon = 0.5 / np.sqrt(max(float(np.max(alpha)), 1e-12))
        schedule = ((0.0, np.zeros(mesh.n_vertices)),
                    (1.0, np.asarray(u_final, dtype=float)))
        return cls(mesh, schedule, float(epsilon))

    def u_at(self, t: float) -> np.ndarray:
        times = self._times
        if t <= times[0]:
            return self.u_schedule[0][1]
        if t >= times[-1]:
            return self.u_schedule[-1][1]
        j = int(np.searchsorted(times, t, side="right"))
        t0, u0 = self.u_schedule[j - 1]
        t1, u1 = self.u_schedule[j]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * u0 + w * u1


def _feature_code(bary: np.ndarray) -> np.ndarray:
    """Corner bits 1, 2, 4 of each closest feature; 0 if an entry is negative."""
    return np.where((bary >= 0).all(axis=1), (bary > 0) @ np.array([1, 2, 4]), 0)


def _sheet_ties(cache: _FaceCache, face, dist, dist2, face2) -> np.ndarray:
    """Rows whose runner-up ties with the best face and shares none of its
    vertices: two sheets touch (adjacent faces tie where cp changes feature)."""
    tie = np.flatnonzero(dist2 - dist < _AMBIGUITY_DIST)
    if not len(tie):
        return tie
    fa, fb = cache.faces[face[tie]], cache.faces[face2[tie]]
    return tie[~(fa[:, :, None] == fb[:, None, :]).any(axis=(1, 2))]


def _field_batch(field: TubeField, X: np.ndarray, t: float,
                 _record: _CandidateRecord | None = None):
    """(values, ambient gradients) of the tube field at a batch of points.

    The gradient is the exact derivative of the implemented value: the
    closest-point map contributes the face (or edge) Jacobian, the cutoff
    contributes its radial term (zero on the surface), and the result is
    projected tangent to the sphere at each query point.  Every row takes
    one path.  Points at distance 2 epsilon or more get exact zeros; so do
    the gradients of the other rows ``_never_moves`` certifies.  ``_record``
    is passed on to ``_closest_faces``.
    """
    cache, eps = field._cache, field.epsilon
    fi, cp, bary, dist, dist2, bary2, fi2 = _closest_faces(cache, X, _record)
    live = dist < 2.0 * eps

    u = field.u_at(t)
    tie = _sheet_ties(cache, fi, dist, dist2, fi2)
    tie = tie[live[tie]]  # the rows inside the support, in row order
    if len(tie):
        fa, fb = cache.faces[fi[tie]], cache.faces[fi2[tie]]
        gap = np.abs(np.sum(bary[tie] * u[fa], axis=1)
                     - np.sum(bary2[tie] * u[fb], axis=1))
        gap = gap[gap > _AMBIGUITY_U]
        if len(gap):
            raise ClosestPointAmbiguous(
                f"two non-adjacent faces within {_AMBIGUITY_DIST} of a "
                f"query point disagree on u by {gap[0]:.3e}; "
                f"shrink epsilon")

    U = u[cache.faces[fi]]
    u_cp = bary[:, 0] * U[:, 0] + bary[:, 1] * U[:, 1] + bary[:, 2] * U[:, 2]
    B, dB = _bump(dist, eps)
    vals = u_cp * B

    # Jacobian of u o cp from the closest feature's code
    g = np.einsum("nij,nj->ni", cache.jacobian[fi, _feature_code(bary)],
                  U[:, 1:] - U[:, :1])

    radial = np.divide(dB, dist, out=np.zeros_like(dist), where=dist > 0)
    total = B[:, None] * g + (X - cp) * radial[:, None] * u_cp[:, None]
    # sphere-tangent projection at the query points
    total -= np.sum(total * X, axis=1)[:, None] * X
    vals[~live] = 0.0
    total[~live] = 0.0
    return vals, total


def _never_moves(field: TubeField, X: np.ndarray, rec: _CandidateRecord):
    """Rows of X where the gradient is zero at every t: at distance 2 epsilon
    or more, or within epsilon on a corner code and with no ``_sheet_ties``."""
    cache, eps = field._cache, field.epsilon
    face, _, bary, dist, dist2, _, face2 = _closest_faces(cache, X, rec)
    still = (dist <= eps) & np.isin(_feature_code(bary), (0, 1, 2, 4))
    still[_sheet_ties(cache, face, dist, dist2, face2)] = False
    return still | (dist >= 2.0 * eps)


def evaluate_tube_field(field: TubeField, x: AmbientPoint, t: float):
    """Field value and sphere-tangent gradient at one ambient point."""
    vals, grads = _field_batch(field, x.coords[None, :], t)
    return float(vals[0]), TangentVector(x, grads[0])


# ---------------------------------------------------------------------------
# particles


@dataclass
class ParticleEnsemble:
    """Tagged ambient particles with their trajectory log."""

    positions: np.ndarray
    tags: list
    log: list

    def __post_init__(self):
        n = len(self.positions)
        if not n or len(self.tags) != n:
            raise ValueError(f"{len(self.tags)} tags for {n} particles: "
                             f"an ensemble needs one tag per particle and "
                             f"at least one particle")
        norms = np.linalg.norm(self.positions, axis=1)
        off = np.count_nonzero(~(np.abs(norms - 1.0) <= 1e-8))
        if off:
            raise ValueError(f"{off} of {n} particles are off the unit sphere")


def build_ensemble(field: TubeField, n_surface: int = 20, n_tube: int = 20,
                   n_outside: int = 20, seed: int = 7) -> ParticleEnsemble:
    """Seeded particle placement on, near, and away from the surface.

    Surface particles sit on the curved faces (barycentric samples pushed
    to the sphere); tube particles are surface samples moved a fraction of
    the tube radius along a random tangent of the ambient sphere; outside
    particles are rejection-sampled beyond the 2-epsilon support.  Raises
    ValueError when ``_OUTSIDE_ROUNDS`` rounds of samples find too few: the
    tube then fills (nearly) the whole sphere.
    """
    rng = np.random.default_rng(seed)
    mesh = field.source_mesh
    dim = mesh.vertices.shape[1]
    eps = field.epsilon
    cache = field._cache

    def surface_points(count):
        f = rng.integers(0, mesh.n_faces, size=count)
        r1, r2 = rng.random(count), rng.random(count)
        swap = r1 + r2 > 1
        r1[swap], r2[swap] = 1 - r1[swap], 1 - r2[swap]
        pts = cache.v0[f] + r1[:, None] * cache.ab[f] + r2[:, None] * cache.ac[f]
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)

    on_surface = surface_points(n_surface)

    base = surface_points(n_tube)
    v = rng.standard_normal((n_tube, dim))
    v -= np.sum(v * base, axis=1)[:, None] * base
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    delta = rng.uniform(0.3, 1.4, size=n_tube) * eps
    in_tube = np.cos(delta)[:, None] * base + np.sin(delta)[:, None] * v

    outside = np.empty((0, dim))
    for _ in range(_OUTSIDE_ROUNDS):
        if len(outside) >= n_outside:
            break
        cand = rng.standard_normal((4 * n_outside, dim))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        d, _ = cache.tree.query(cand, k=1)
        far = cand[d - cache.max_diam > 2.2 * eps]
        if len(far) == 0:
            # fine meshes leave no slack via the crude centroid bound; fall
            # back to exact distances, which a centroid distance bounds from
            # above (the centroid lies on its face)
            beyond = np.flatnonzero(d > 2.1 * eps - _REUSE_MARGIN)
            if len(beyond):
                dist = _closest_faces(cache, cand[beyond])[3]
                far = cand[beyond[dist > 2.1 * eps]]
        outside = np.vstack([outside, far[: n_outside - len(outside)]])
    if len(outside) < n_outside:
        raise ValueError(
            f"epsilon = {eps:g} is too wide: {_OUTSIDE_ROUNDS} rounds found "
            f"{len(outside)} of {n_outside} points beyond 2.1 epsilon")

    positions = np.vstack([on_surface, in_tube, outside])
    tags = (["on_surface"] * n_surface + ["in_tube"] * n_tube
            + ["outside"] * n_outside)
    return ParticleEnsemble(positions, tags, [(0.0, positions.copy())])


def _gradient_bound(field: TubeField) -> float:
    """Analytic bound on |grad phi| over space and schedule times."""
    worst = 0.0
    cache = field._cache
    F = field.source_mesh.faces
    lens = np.stack([np.linalg.norm(cache.ab, axis=1),
                     np.linalg.norm(cache.ac, axis=1)])
    for _, u in field.u_schedule:
        umax = float(np.max(np.abs(u)))
        du = np.stack([u[F[:, 1]] - u[F[:, 0]], u[F[:, 2]] - u[F[:, 0]]])
        gbound = float(np.max(np.sum(np.abs(du) / lens, axis=0), initial=0.0))
        worst = max(worst, umax * 1.875 / field.epsilon + gbound)
    return worst


def integrate_palais_flow(field: TubeField, ensemble: ParticleEnsemble,
                          t_end: float, dt: float | None = None) -> ParticleEnsemble:
    """Advect the ensemble by RK4 along the tube-field gradient.

    Stages re-project to the sphere; a particle whose four stage velocities
    all vanish is left bit-identical (the field's support guarantee).  After
    the first step, the rows that ``_never_moves`` certifies at both stage
    points of a resting row leave every later batch (module docstring).
    Raises ValueError unless dt > 0 and t_end >= 0 are finite, and
    StepTooLarge unless dt <= epsilon / (4 max|grad|), so no particle can
    cross the tube shell in a single step.  With dt left out the step is
    half that largest stable step; when u vanishes everywhere any step is
    stable, and the flow takes one step to t_end (or 1.0 when t_end is 0).
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} = {value} must be finite")
    if dt is not None and not dt > 0:
        raise ValueError(f"dt = {dt} must be positive")
    if not t_end >= 0:
        raise ValueError(f"t_end = {t_end} must be nonnegative")
    bound = _gradient_bound(field)
    if dt is None:
        dt = 0.5 * field.epsilon / (4.0 * bound) if bound > 0 else (t_end or 1.0)
    if bound > 0 and dt > field.epsilon / (4.0 * bound):
        raise StepTooLarge(
            f"dt = {dt} exceeds epsilon / (4 max|grad|) = "
            f"{field.epsilon / (4 * bound):.3e}")
    X = ensemble.positions.copy()
    log = list(ensemble.log)
    steps = int(np.ceil(t_end / dt - 1e-12))
    # the rows that may still move, and their closest-face certificates
    # carried across stages and steps
    live = np.arange(len(X))
    rec = _CandidateRecord(*X.shape)
    t = 0.0
    for step in range(steps):
        h = min(dt, t_end - t)
        Y = X[live]
        _, k1 = _field_batch(field, Y, t, rec)
        _, k2 = _field_batch(field, _reproject(Y + 0.5 * h * k1), t + 0.5 * h, rec)
        _, k3 = _field_batch(field, _reproject(Y + 0.5 * h * k2), t + 0.5 * h, rec)
        _, k4 = _field_batch(field, _reproject(Y + h * k3), t + h, rec)
        moved = np.abs(np.hstack([k1, k2, k3, k4])).max(axis=1) > 0.0
        Yn = Y[moved] + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)[moved]
        X[live[moved]] = _reproject(Yn)
        t += h
        log.append((t, X.copy()))
        if step == 0:
            # x and its re-projection are the only stage points of a row at rest
            stay = moved | ~(_never_moves(field, X, rec)
                             & _never_moves(field, _reproject(X), rec))
            live = live[stay]
            rec.keep(stay)
    return ParticleEnsemble(X, list(ensemble.tags), log)


def _reproject(X: np.ndarray) -> np.ndarray:
    return X / np.sqrt(np.add.reduce(X * X, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# measurements


def curved_surface_distance(field: TubeField, X: np.ndarray) -> np.ndarray:
    """Distance from each point to the curved surface.

    Faces are radially projected onto the sphere: each becomes the patch of
    the great 2-sphere spanned by its vertices with nonnegative cone
    coefficients.  Each point is measured against the k faces with the
    nearest centroids (k = 12 first), their curved edges and their
    vertices.  A point of a curved face lies within r_f + diam_f^2 / 3 of
    the face's centroid (``_FaceCache.curved_spread`` is the largest such
    bound), so the distance is certified once the k-th centroid distance
    minus that bound reaches it; the other points retry with 4k faces.  A
    face or edge with vertex rows T counts when its cone coefficients
    q = (T T^t)^-1 T x are all >= -1e-12 and T^t q is nonzero; the point is
    then T^t q / |T^t q|.
    """
    cache = field._cache
    best = np.empty(len(X))
    rows, k = np.arange(len(X)), 12
    while len(rows):
        k_eff = min(k, cache.n_faces)
        cd, cand = cache.tree.query(X[rows], k=k_eff)
        cd, cand = cd.reshape(len(rows), -1), cand.reshape(len(rows), -1)
        d = _curved_distance_to(field.source_mesh, X[rows], cand)
        done = (k_eff == cache.n_faces) | (cd[:, -1] - cache.curved_spread >= d)
        best[rows[done]] = d[done]
        rows, k = rows[~done], 4 * k
    return best


def _curved_distance_to(mesh: SurfaceMesh, X: np.ndarray, candidates: np.ndarray):
    """Distance from each point X[i] to the curved faces ``candidates[i]``."""
    tri = mesh.vertices[mesh.faces[candidates]]     # (n, k, 3, d)
    best = np.linalg.norm(tri - X[:, None, None], axis=3).min(axis=(1, 2))
    x = X[:, None, :, None]
    for corners in ([0, 1, 2], [0, 1], [0, 2], [1, 2]):  # the face, its edges
        T = tri[:, :, corners]
        Tt, G = T.swapaxes(2, 3), T @ T.swapaxes(2, 3)
        q = np.linalg.solve(G, T @ x)
        # G squares T's condition number; one refinement step brings the
        # projection back to the accuracy of a least-squares solve
        q += np.linalg.solve(G, T @ (x - Tt @ q))
        p = (Tt @ q)[..., 0]
        norm = np.linalg.norm(p, axis=2)
        counts = (q[..., 0] >= -1e-12).all(axis=2) & (norm > 1e-14)
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = np.linalg.norm(X[:, None] - p / norm[..., None], axis=2)
        best = np.minimum(best, np.where(counts, dist, np.inf).min(axis=1))
    return best


def conformality_residual(field: TubeField, flowed_vertices: np.ndarray,
                          u: np.ndarray, surface_fixing_error: float = np.nan) -> dict:
    """Per-edge comparison of flowed geodesic lengths with e^{(ui+uj)/2} l.

    Reports the max and the dual-area-weighted median relative mismatch,
    plus the maximum mean curvature of the flowed mesh.  No pass threshold
    is attached: a constant u moves nothing (zero gradient) and must show
    mismatch e^c - 1, the control case separating particle transport from
    the pullback-metric statement.
    """
    mesh = field.source_mesh
    g = induced_metric(mesh)
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    flowed = _reproject(np.asarray(flowed_vertices, dtype=float))
    d_new = geodesic_distances(flowed[i], flowed[j])
    expected = np.exp(0.5 * (u[i] + u[j])) * g.lengths
    rel = np.abs(d_new - expected) / expected
    A = vertex_dual_areas(mesh, g).values
    median = _area_weighted_median(rel, A[i] + A[j])
    flowed_mesh = SurfaceMesh(mesh.dimension, flowed, mesh.faces,
                              orientable=mesh.orientable,
                              name=(mesh.name or "mesh") + "|flowed")
    return {
        "max_conformality_residual": float(np.max(rel)),
        "median_conformality_residual": median,
        "max_H_after": float(max_mean_curvature(flowed_mesh)),
        "surface_fixing_error": float(surface_fixing_error),
    }


def residual_json(report: dict) -> str:
    ordered = {k: report[k] for k in sorted(report)}
    return json.dumps({k: (f"{v:.17g}" if isinstance(v, float) else v)
                       for k, v in ordered.items()}, indent=2) + "\n"


def trajectory_csv(ensemble: ParticleEnsemble) -> str:
    """Long-format CSV of the trajectory log: particle_id,tag,t,x0..x_d."""
    dim = ensemble.positions.shape[1]
    out = io.StringIO()
    out.write("particle_id,tag,t," + ",".join(f"x{k}" for k in range(dim)) + "\n")
    # one template per log entry: t joins the pieces, the coordinates fill it
    row = ",%.17g" * dim + "\n"
    heads = [f"{pid},{tag.replace('%', '%%')},"
             for pid, tag in enumerate(ensemble.tags)]
    pieces = heads[:1] + [row + head for head in heads[1:]] + [row]
    for t, X in ensemble.log:
        out.write(("%.17g" % t).join(pieces) % tuple(X.ravel().tolist()))
    return out.getvalue()


def area_preservation_residual(mesh: SurfaceMesh, u: np.ndarray) -> float:
    """|integral of (e^{2u} - 1) dmu| / area, as the area-functional change.

    The discrete conformal area is the area of the rescaled metric, so the
    integral identity collapses to an exact area comparison; for factors
    coming out of the area-preserving flow this is machine zero.
    """
    base = induced_metric(mesh).as_euclidean()
    scaled = conformal_lengths(base, VertexField(np.asarray(u, dtype=float)))
    a0 = float(np.sum(base.areas))
    a1 = float(np.sum(scaled.areas))
    return abs(a1 - a0) / a0
