"""Geometry primitives for the round unit sphere S^d inside R^(d+1).

Points are unit vectors, tangent vectors live in the hyperplane orthogonal to
their base point, and ambient isometries are orthogonal matrices.  The ambient
dimension d is a runtime value (typically 3, 4 or 5) carried by every object;
mixing dimensions raises :class:`~spherelab.errors.DimensionMismatch`.

All functions are pure.  The mesh layer works on raw ``(n, d+1)`` arrays and
uses the vectorised helpers (``geodesic_distances``, ``project_rows``) rather
than the scalar wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalPair,
    DegenerateFrame,
    DimensionMismatch,
    NonOrthonormalBasis,
    ZeroVector,
)

__all__ = [
    "AmbientPoint",
    "TangentVector",
    "SphereIsometry",
    "project_to_sphere",
    "geodesic_distance",
    "geodesic_distances",
    "exp_map",
    "log_map",
    "split_tangent_normal",
    "reflection_across_great_circle",
]

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-10
SMALL_ANGLE = 1e-4
ANTIPODAL_MARGIN = 1e-8


def _check_same_dim(*arrays) -> int:
    n = {a.shape[-1] for a in arrays}
    if len(n) != 1:
        raise DimensionMismatch(f"ambient coordinate lengths differ: {sorted(n)}")
    return n.pop() - 1


@dataclass(frozen=True)
class AmbientPoint:
    """A point of S^d: a unit vector with d+1 coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", c)
        n = float(np.linalg.norm(c))
        if not abs(n - 1.0) <= UNIT_TOL:
            raise ValueError(f"point is not on the unit sphere: |v| - 1 = {n - 1.0:.3e}")

    @property
    def dim(self) -> int:
        return self.coords.shape[0] - 1


@dataclass(frozen=True)
class TangentVector:
    """A vector tangent to S^d at ``base`` (orthogonal to the base point)."""

    base: AmbientPoint
    vec: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vec, dtype=float))
        object.__setattr__(self, "vec", v)
        _check_same_dim(self.base.coords, v)
        dot = float(np.dot(self.base.coords, v))
        if abs(dot) > TANGENT_TOL * max(1.0, float(np.linalg.norm(v))):
            raise ValueError(f"vector is not tangent: <v, base> = {dot:.3e}")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@dataclass(frozen=True)
class SphereIsometry:
    """An orthogonal matrix acting on ambient coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("isometry matrix must be square")
        err = float(np.max(np.abs(m.T @ m - np.eye(m.shape[0]))))
        if not err <= 1e-12:
            raise NonOrthonormalBasis(f"matrix is not orthogonal: |Q^T Q - I| = {err:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 1

    def apply_rows(self, points: np.ndarray) -> np.ndarray:
        """Apply to an (n, d+1) array of row vectors, re-normalising rows."""
        q = points @ self.matrix.T
        return q / np.linalg.norm(q, axis=1, keepdims=True)

    def compose(self, other: "SphereIsometry") -> "SphereIsometry":
        return SphereIsometry(self.matrix @ other.matrix)


def project_to_sphere(v: np.ndarray) -> AmbientPoint:
    """Radial projection of a nonzero ambient vector onto the sphere.

    Raises :class:`ZeroVector` when ``|v| <= 1e-14``.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = float(np.linalg.norm(v))
    if n <= 1e-14:
        raise ZeroVector(f"cannot project vector of norm {n:.3e}")
    return AmbientPoint(v / n)


def project_rows(vectors: np.ndarray) -> np.ndarray:
    """Row-wise radial projection; raises ZeroVector if any row is ~0."""
    v = np.asarray(vectors, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n <= 1e-14):
        raise ZeroVector("cannot project a row of norm <= 1e-14")
    return v / n


def geodesic_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Great-circle distances between paired rows of unit vectors.

    Uses arccos of the clamped inner product, switching to the chord-based
    formula 2*arcsin(|p-q|/2) below 1e-4 where arccos loses precision.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dots = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
    ang = np.arccos(dots)
    small = ang < SMALL_ANGLE
    if np.any(small):
        chord = np.linalg.norm(p - q, axis=-1)
        ang = np.where(small, 2.0 * np.arcsin(np.clip(chord / 2.0, -1.0, 1.0)), ang)
    return ang


def geodesic_distance(p: AmbientPoint, q: AmbientPoint) -> float:
    """Great-circle distance between two points of the same sphere."""
    _check_same_dim(p.coords, q.coords)
    return float(geodesic_distances(p.coords[None, :], q.coords[None, :])[0])


def exp_map(v: TangentVector) -> AmbientPoint:
    """Geodesic exponential: walk distance |v| from the base along v."""
    theta = v.norm
    p = v.base.coords
    if theta <= 1e-300:
        return v.base
    q = np.cos(theta) * p + np.sin(theta) * (v.vec / theta)
    return AmbientPoint(q / np.linalg.norm(q))


def log_map(p: AmbientPoint, q: AmbientPoint) -> TangentVector:
    """Inverse of the exponential at ``p``: tangent vector pointing at ``q``.

    Raises :class:`AntipodalPair` when the points are within 1e-8 of
    antipodal, where the direction is not defined.
    """
    _check_same_dim(p.coords, q.coords)
    theta = geodesic_distance(p, q)
    if theta >= np.pi - ANTIPODAL_MARGIN:
        raise AntipodalPair(f"log map undefined near antipode (distance {theta!r})")
    w = q.coords - np.dot(p.coords, q.coords) * p.coords
    wn = float(np.linalg.norm(w))
    if wn <= 1e-300 or theta == 0.0:
        return TangentVector(p, np.zeros_like(p.coords))
    return TangentVector(p, (theta / wn) * w)


def tangent_project_rows(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Remove from each row of ``vectors`` its component along the paired point."""
    dots = np.sum(points * vectors, axis=-1, keepdims=True)
    return vectors - dots * points


def split_tangent_normal(frame: list[TangentVector], v: TangentVector):
    """Split ``v`` into its component in span(frame) and the complement.

    The frame vectors need not be orthonormal, only linearly independent
    (Gram determinant above 1e-12, else :class:`DegenerateFrame`).  Returns a
    pair of TangentVectors at the same base whose sum reproduces ``v``.
    """
    if not frame:
        raise DegenerateFrame("empty tangent frame")
    base = frame[0].base
    for f in frame:
        if f.base.coords is not base.coords and not np.array_equal(f.base.coords, base.coords):
            raise ValueError("frame vectors must share a base point")
    _check_same_dim(base.coords, v.base.coords)
    F = np.stack([f.vec for f in frame])
    gram = F @ F.T
    if abs(float(np.linalg.det(gram))) < 1e-12:
        raise DegenerateFrame("tangent frame is numerically dependent")
    coeff = np.linalg.solve(gram, F @ v.vec)
    tangential = coeff @ F
    return TangentVector(base, tangential), TangentVector(base, v.vec - tangential)


def reflection_across_great_circle(plane_basis: np.ndarray) -> SphereIsometry:
    """Isometry fixing the great circle spanned by two orthonormal vectors.

    ``plane_basis`` is a (2, d+1) array of orthonormal rows.  The returned map
    is 2 B^T B - I: identity on the span, minus identity on the orthogonal
    complement, hence an involution.
    """
    B = np.asarray(plane_basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != 2:
        raise NonOrthonormalBasis("plane basis must be two row vectors")
    err = float(np.max(np.abs(B @ B.T - np.eye(2))))
    if err > 1e-10:
        raise NonOrthonormalBasis(f"basis is not orthonormal: |B B^T - I| = {err:.3e}")
    n = B.shape[1]
    return SphereIsometry(2.0 * (B.T @ B) - np.eye(n))
