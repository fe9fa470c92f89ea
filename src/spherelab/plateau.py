"""Plateau solver for geodesic polygons and reflection closure of the orbit.

A minimal patch spanning a geodesic polygon in S^d is found by
preconditioned descent on total spherical area (Pinkall and Polthier,
1993).  Each iteration solves the cotan Dirichlet problem of the current
patch, boundary vertices pinned on the polygon, with right-hand side the
discrete mean-curvature vector H times the barycentric dual area: minus the
surface-normal part of the exact gradient of the summed spherical face
areas.  The preconditioner makes the full step 1 mesh-independent, so the
number of solves stays flat under refinement where an explicit step of
order h^2 needs 1/h^2 iterations.  A backtracking line search accepts a
step only when the spherical area actually drops and every flat triangle
keeps quality 4*sqrt(3)*A/sum(l^2) above ``QUALITY_FLOOR`` = 0.05.  Each
vertex array is measured once: one chord per edge of the disk's edge table,
gathered to the faces by ``face_edge_ids``, the arcs over the chords, and
l'Huilier (``mesh._spherical_excess``) on the arcs.  The area test sums the
excess, the quality floor takes A from Heron (``mesh._heron``) on the
chords, and the accepted trial's measurement serves the next gradient and
dual areas.  The descent either reaches ``max interior |H| < tol``, runs
out of iterations (the residual of the returned patch is for the caller to
judge), or stalls with the line search unable to shrink the area any
further, which raises StalledDescent rather than silently accepting.

The closed surface is the orbit of the solved patch under the group
generated by reflections across the great circles carrying the boundary
arcs.  Tiles are enumerated by breadth-first closure (deduplicated by
centroid), copies reached by an odd number of reflections get their face
windings flipped, and the stack is welded within ``WELD_TOL`` = 1e-6.  An
orbit that needs more than ``MAX_TILES`` = 512 tiles is refused.  The Euler
characteristic of the quotient must equal 2 - 2*expected_genus.

The canonical genus-k quadrilateral in S^3 alternates between the two
orthogonal great circles span{e1,e2} and span{e3,e4}: corners e1, e3,
(cos(pi/(k+1)), sin(pi/(k+1)), 0, 0), e4.  Its orbit closes after
4*(k+1) tiles; k = 2 gives the genus-2 surface, k = 3 genus 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import splu

from .errors import AntipodalPair, StalledDescent, WeldFailure, WrongEuler
from .extrinsic import cotan_laplacian
from .mesh import (EUCLIDEAN, DiscreteMetric, SurfaceMesh, _field, _heron,
                   _spherical_excess, euler_characteristic)
from .sphere import (AmbientPoint, SphereIsometry, geodesic_distances,
                     reflection_across_great_circle)
from .zoo import weld_vertices

__all__ = [
    "PlateauProblem",
    "PlateauSolution",
    "geodesic_arc",
    "quadrilateral_disk",
    "solve_plateau",
    "assemble_by_reflection",
    "lawson_xi_quadrilateral",
    "load_plateau_problem",
    "build_xi",
]

QUALITY_FLOOR = 0.05
WELD_TOL = 1e-6
MAX_TILES = 512


def geodesic_arc(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sample the minor great-circle arc from ``a`` to ``b`` at fractions ``t``.

    Endpoints come back bit-exact (the slerp weights degenerate to 1 and 0),
    which the disk builder and the weld rely on.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ang = float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))
    if ang < 1e-12:
        raise ValueError("arc endpoints coincide; no geodesic to sample")
    if abs(ang - np.pi) < 1e-9:
        raise AntipodalPair("arc endpoints are antipodal; the minor arc is ambiguous")
    t = np.asarray(t, dtype=float)[:, None]
    return (np.sin((1.0 - t) * ang) * a + np.sin(t * ang) * b) / np.sin(ang)


@dataclass(frozen=True)
class PlateauProblem:
    """A geodesic polygon, a disk spanning it, and one reflection per arc.

    Arc i runs from corner i to corner i+1 (cyclically).  Validation checks
    that each generator is an involution fixing its arc -- both corners and
    the geodesic midpoint move by less than 1e-10, which certifies at the
    same time that the stated arc really is the geodesic the reflection
    mirrors across -- and that every boundary vertex of the disk lies on
    the polygon (it must be fixed by at least one generator).
    """

    boundary: tuple
    interior_init: SurfaceMesh
    reflection_generators: tuple

    def __post_init__(self):
        corners = tuple(
            p if isinstance(p, AmbientPoint) else AmbientPoint(np.asarray(p, dtype=float))
            for p in self.boundary
        )
        gens = tuple(
            g if isinstance(g, SphereIsometry) else SphereIsometry(np.asarray(g, dtype=float))
            for g in self.reflection_generators
        )
        object.__setattr__(self, "boundary", corners)
        object.__setattr__(self, "reflection_generators", gens)
        if len(corners) < 3:
            raise ValueError("a geodesic polygon needs at least three corners")
        if len(gens) != len(corners):
            raise ValueError(
                f"{len(corners)} boundary arcs but {len(gens)} reflection generators"
            )
        dim = corners[0].dim
        if any(p.dim != dim for p in corners) or any(g.dim != dim for g in gens):
            raise ValueError("corners and generators disagree about the ambient dimension")
        if self.interior_init.dimension != dim:
            raise ValueError("interior_init lives in a different sphere than the boundary")
        C = np.array([p.coords for p in corners])
        n = len(corners)
        eye = np.eye(dim + 1)
        for i, g in enumerate(gens):
            R = g.matrix
            if float(np.max(np.abs(R @ R - eye))) > 1e-10:
                raise ValueError(f"generator {i} is not an involution")
            a, b = C[i], C[(i + 1) % n]
            m = geodesic_arc(a, b, np.array([0.5]))[0]
            moved = max(
                float(np.linalg.norm(R @ a - a)),
                float(np.linalg.norm(R @ b - b)),
                float(np.linalg.norm(R @ m - m)),
            )
            if moved > 1e-10:
                raise ValueError(
                    f"generator {i} does not fix boundary arc {i} (moved by {moved:.3e})"
                )
        if self.interior_init.is_closed:
            raise ValueError("interior_init must be a disk, not a closed mesh")
        if euler_characteristic(self.interior_init) != 1:
            raise ValueError("interior_init is not a topological disk (chi != 1)")
        rim = self.interior_init.vertices[self.interior_init.boundary_vertex_mask]
        on_polygon = np.zeros(len(rim), dtype=bool)
        for g in gens:
            on_polygon |= (
                np.linalg.norm(rim @ g.matrix.T - rim, axis=1) < 1e-8
            )
        if not on_polygon.all():
            off = int(np.count_nonzero(~on_polygon))
            raise ValueError(
                f"{off} boundary vertices of the disk do not lie on the polygon"
            )


@dataclass(frozen=True)
class PlateauSolution:
    """A solved patch: the mesh, its residual max|H|, bookkeeping, and the
    ``tol`` it was solved against; it is minimal when residual < tol."""

    mesh: SurfaceMesh
    residual: float
    iterations: int
    area: float
    tol: float


def _measure(V: np.ndarray, edges: np.ndarray, face_edge_ids: np.ndarray) -> tuple:
    """Face chords (F, 3), column c opposite corner c, their great-circle
    arcs, and the spherical excess per face; one chord per edge."""
    chords = np.linalg.norm(V[edges[:, 0]] - V[edges[:, 1]], axis=1)[face_edge_ids]
    arcs = 2.0 * np.arcsin(np.clip(0.5 * chords, 0.0, 1.0))
    return chords, arcs, _spherical_excess(arcs)


def _triangle_quality(chords: np.ndarray) -> np.ndarray:
    """4*sqrt(3)*A / sum(l^2) of the flat triangles with side lengths
    ``chords``: 1 for equilateral, 0 for degenerate."""
    per = np.einsum("ij,ij->i", chords, chords)
    return 4.0 * np.sqrt(3.0) * _heron(chords) / np.maximum(per, 1e-300)


def _spherical_area_gradient(V: np.ndarray, F: np.ndarray, measured: tuple) -> np.ndarray:
    """Exact per-vertex gradient of total spherical area, from ``_measure(V)``.

    l'Huilier differentiated in closed form: with arcs a, b, c, excess E and
    s = (a+b+c)/2, the derivative in an adjacent arc is

        dE/db = sin(E/2)/2 * (1/sin s + 1/sin(s-a) - 1/sin(s-b) + 1/sin(s-c))

    and cyclically, while the gradient of an arc length in its endpoint is
    minus the unit tangent toward the other endpoint.  The rows come out
    tangent to the sphere by construction.  Descending this gradient can
    reach an exact critical point of the discrete area, so the residual is
    not floored by the consistency error a cotan proxy would have near
    sharp polygon corners.
    """
    # arc opposite each corner: a = |p1 p2|, b = |p2 p0|, c = |p0 p1|
    ch, arcs, E = measured
    sin_arc = [h * np.sqrt(np.maximum(1.0 - 0.25 * h * h, 0.0)) for h in ch.T]
    cos_arc = [1.0 - 0.5 * h * h for h in ch.T]
    a, b, c = arcs.T
    s = 0.5 * (a + b + c)
    half = 0.5 * np.sin(0.5 * E)
    inv_s = 1.0 / np.maximum(np.sin(s), 1e-300)
    inv = [1.0 / np.maximum(np.sin(s - x), 1e-300) for x in (a, b, c)]
    # dE/dx carries a minus on its own 1/sin(s - x) term
    dE = [half * (inv_s - inv[i] + inv[(i + 1) % 3] + inv[(i + 2) % 3])
          for i in range(3)]

    def toward(frm, to, arc_idx):
        # unit tangent at `frm` pointing along the arc to `to`
        return (to - cos_arc[arc_idx][:, None] * frm) / \
            np.maximum(sin_arc[arc_idx], 1e-300)[:, None]

    G = np.zeros_like(V)
    corners = V[F[:, 0]], V[F[:, 1]], V[F[:, 2]]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # corner i: adjacent arcs are k (to corner j) and j (to corner k)
        contrib = (-dE[k][:, None] * toward(corners[i], corners[j], k)
                   - dE[j][:, None] * toward(corners[i], corners[k], j))
        np.add.at(G, F[:, i], contrib)
    return G


def _descent_state(V: np.ndarray, F: np.ndarray, measured: tuple, free: np.ndarray,
                   tail: np.ndarray, head: np.ndarray) -> tuple:
    """Mean-curvature direction H and the barycentric dual areas.

    The tangent plane at each vertex is estimated as the two dominant
    eigenvectors of the covariance of its (sphere-tangentialized, unit)
    edge directions; ``tail``/``head`` list every directed edge both ways.
    H is minus the surface-normal part of the exact spherical-area gradient
    per barycentric dual area, and vanishes on pinned rows.  The tangential
    part is dropped because the raw gradient contains pure
    reparametrization components that grind triangle quality into the
    line-search floor without changing the geometry.  H * dual is the
    right-hand side of the preconditioned step, and max |H| the
    termination residual.
    """
    G = _spherical_area_gradient(V, F, measured)
    t = V[head] - np.einsum("ij,ij->i", V[head], V[tail])[:, None] * V[tail]
    t /= np.maximum(np.linalg.norm(t, axis=1), 1e-300)[:, None]
    amb = V.shape[1]
    C = np.zeros((len(V), amb, amb))
    np.add.at(C, tail, t[:, :, None] * t[:, None, :])
    _, Q = np.linalg.eigh(C)
    dual = np.maximum(np.bincount(F.ravel(), np.repeat(measured[2] / 3.0, 3),
                                  minlength=len(V)), 1e-300)

    Gn = G.copy()
    for col in (-1, -2):
        q = Q[:, :, col]
        Gn -= np.einsum("ij,ij->i", Gn, q)[:, None] * q
    H = -Gn / dual[:, None]
    H[~free] = 0.0
    return H, dual


def solve_plateau(problem: PlateauProblem, tol: float = 1e-2,
                  max_iter: int = 20000) -> PlateauSolution:
    """Descend total spherical area until the interior is minimal to ``tol``.

    Each iteration solves the cotan Dirichlet problem L_ff D = (H * dual)_f
    of the current patch (L from ``extrinsic.cotan_laplacian`` on its
    geodesic edge lengths, restricted to the free rows and columns, so the
    boundary stays pinned), moves the free vertices to V + eta * D and
    reprojects them to the sphere.  The step eta starts at 1, the harmonic
    (Pinkall-Polthier) update, and backtracks until the spherical area
    strictly decreases and no triangle quality falls to QUALITY_FLOOR.
    Returns once ``max interior |H| < tol`` or after ``max_iter`` accepted
    steps, with the residual of the patch it returns either way.  Raises
    ValueError unless 0 <= tol < inf and max_iter >= 1, and StalledDescent
    -- carrying the residual, the iteration count and the best mesh -- when
    the line search cannot decrease the area at all while the residual
    still exceeds ``tol``.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol = {tol} must be finite and nonnegative")
    if not max_iter >= 1:
        raise ValueError(f"max_iter = {max_iter} must be at least 1")
    disk = problem.interior_init
    V = disk.vertices.copy()
    F = disk.faces
    free = ~disk.boundary_vertex_mask
    if not free.any():
        raise ValueError("the disk has no interior vertices to move")

    ends, fe = disk.edges, disk.face_edge_ids
    measured = _measure(V, ends, fe)
    area = float(np.sum(measured[2]))
    eta = 1.0
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])

    for it in range(max_iter + 1):  # every iterate it can return is measured
        H, dual = _descent_state(V, F, measured, free, tail, head)
        residual = float(np.max(np.linalg.norm(H, axis=1)))
        if residual < tol or it == max_iter:
            break
        # the cotan weights read the flat layout, so build it directly
        metric = DiscreteMetric(ends, geodesic_distances(V[ends[:, 0]], V[ends[:, 1]]),
                                EUCLIDEAN, fe, disk.n_vertices)
        L = cotan_laplacian(disk, metric)[free][:, free]
        D = splu(L.tocsc()).solve(H[free] * dual[free, None])
        while True:
            Vt = V.copy()
            moved = V[free] + eta * D
            Vt[free] = moved / np.linalg.norm(moved, axis=1)[:, None]
            measured_t = _measure(Vt, ends, fe)
            trial = float(np.sum(measured_t[2]))
            if trial < area and float(np.min(_triangle_quality(measured_t[0]))) > QUALITY_FLOOR:
                break
            eta *= 0.5
            if eta < 1e-14:
                raise StalledDescent(
                    f"line search stalled at residual {residual:.3e} (tol {tol:.3e})",
                    residual=residual, iterations=it, mesh=disk.with_vertices(V))
        V, area, measured = Vt, trial, measured_t
        eta = min(1.3 * eta, 1.0)
    return PlateauSolution(disk.with_vertices(V), residual, it, area, tol)


def assemble_by_reflection(patch, generators, expected_genus: int,
                           name: str = "") -> SurfaceMesh:
    """Close up a fundamental patch by reflecting it across its boundary arcs.

    Breadth-first closure over reflection words: reflecting the copy with
    matrix M across the image of arc j yields the copy with matrix
    M @ R_j, so the orbit is enumerated by right-multiplication, with tiles
    deduplicated by centroid (distinct tiles of these tessellations sit far
    apart compared to the weld tolerance).  Copies reached by an odd number
    of reflections have their face windings flipped so the quotient can be
    consistently oriented.  Raises WeldFailure when the orbit fails to
    close into a boundaryless mesh within ``MAX_TILES`` copies, WrongEuler
    when the Euler characteristic is not 2 - 2*expected_genus.
    """
    if isinstance(patch, PlateauSolution):
        patch = patch.mesh
    V, F = patch.vertices, patch.faces
    gens = tuple(g.matrix if isinstance(g, SphereIsometry) else np.asarray(g, dtype=float)
                 for g in generators)
    centroid = V.mean(axis=0)
    mats = [np.eye(V.shape[1])]
    parity = [0]
    seen = [centroid.copy()]
    cursor = 0
    while cursor < len(mats):
        M, p = mats[cursor], parity[cursor]
        cursor += 1
        for R in gens:
            Mn = M @ R
            c = Mn @ centroid
            if min(float(np.linalg.norm(c - s)) for s in seen) < WELD_TOL:
                continue
            if len(mats) >= MAX_TILES:
                raise WeldFailure(
                    f"reflection orbit did not close within {MAX_TILES} tiles")
            mats.append(Mn)
            parity.append(1 - p)
            seen.append(c)

    nv = len(V)
    verts = np.concatenate([V @ M.T for M in mats])
    faces = np.concatenate([
        (F[:, ::-1] if p else F) + k * nv
        for k, (M, p) in enumerate(zip(mats, parity))
    ])
    welded = weld_vertices(patch.dimension, verts, faces, tol=WELD_TOL,
                           name=name or (patch.name + "|assembled"))
    if not welded.is_closed:
        raise WeldFailure("reflection assembly left open boundary edges")
    chi = euler_characteristic(welded)
    want = 2 - 2 * expected_genus
    if chi != want:
        raise WrongEuler(
            f"assembled surface has chi = {chi}, expected {want} "
            f"for genus {expected_genus}")
    return welded


def quadrilateral_disk(corners: np.ndarray, n: int, name: str = "") -> SurfaceMesh:
    """Coons-blended disk over a geodesic quadrilateral, (n+1)^2 grid.

    The four boundary rows are overwritten with exact arc samples, so they
    are fixed by the arc reflections to rounding and assembled copies weld
    cleanly; the blended interior is radially projected to the sphere.
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape[0] != 4:
        raise ValueError("the disk builder expects exactly four corners")
    if n < 2:
        raise ValueError("need at least a 3x3 grid")
    c0, c1, c2, c3 = corners
    t = np.linspace(0.0, 1.0, n + 1)
    bottom = geodesic_arc(c0, c1, t)
    top = geodesic_arc(c3, c2, t)
    left = geodesic_arc(c0, c3, t)
    right = geodesic_arc(c1, c2, t)

    s = t[:, None, None]      # along bottom/top, index i
    u = t[None, :, None]      # along left/right, index j
    P = ((1.0 - u) * bottom[:, None, :] + u * top[:, None, :]
         + (1.0 - s) * left[None, :, :] + s * right[None, :, :]
         - ((1.0 - s) * (1.0 - u) * c0 + s * (1.0 - u) * c1
            + s * u * c2 + (1.0 - s) * u * c3))
    norms = np.linalg.norm(P, axis=2)
    if float(norms.min()) < 1e-6:
        raise ValueError("Coons blend collapsed to the origin; degenerate quadrilateral")
    P /= norms[:, :, None]
    P[:, 0] = bottom
    P[:, n] = top
    P[0, :] = left
    P[n, :] = right

    ids = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    # cell (i, j) has corners a, b, c, d = (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    # and splits along ac when i + j is odd, along bd (corners rotated by one)
    # when it is even; cells run row-major, two faces each
    quad = np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]],
                    axis=-1).reshape(-1, 4)
    even = 1 - np.add.outer(np.arange(n), np.arange(n)).reshape(-1, 1) % 2
    corner = (np.array([0, 1, 2, 0, 2, 3]) + even) % 4
    faces = np.take_along_axis(quad, corner, axis=1).reshape(-1, 3)
    loop = np.concatenate([ids[:n, 0], ids[n, :n], ids[n:0:-1, n], ids[0, n:0:-1]])
    return SurfaceMesh(corners.shape[1] - 1, P.reshape(-1, corners.shape[1]),
                       faces, boundary_loops=[loop],
                       orientable=True, name=name or f"quad-disk-{n}")


def lawson_xi_quadrilateral(k: int):
    """Corners and arc reflections of the genus-k Plateau quadrilateral in S^3.

    Corners alternate between the orthogonal great circles span{e1,e2} and
    span{e3,e4}: e1, e3, (cos a, sin a, 0, 0) with a = pi/(k+1), e4.  The
    corner angles are pi/2 on the first circle and pi/(k+1) on the second,
    so the reflected orbit closes after 4*(k+1) tiles into a genus-k
    surface.
    """
    if k < 1:
        raise ValueError("genus parameter k must be at least 1")
    a = np.pi / (k + 1)
    e1, e3, e4 = np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]
    p2 = np.array([np.cos(a), np.sin(a), 0.0, 0.0])
    corners = np.array([e1, e3, p2, e4])
    planes = [np.array([e1, e3]), np.array([e3, p2]),
              np.array([p2, e4]), np.array([e4, e1])]
    gens = tuple(reflection_across_great_circle(B) for B in planes)
    return corners, gens


def load_plateau_problem(config) -> tuple:
    """Build a PlateauProblem from a JSON config (path or dict).

    Fields: ``boundary_vertices`` (corner coordinates, one quadrilateral),
    ``generators`` (one orthogonal matrix per arc), ``expected_genus``,
    ``tol``, ``max_iter``; optional ``resolution`` (grid density of the
    initial disk, default 12), ``name`` and a free-text ``note``.  Returns
    the problem together with the parsed config dict.  Raises ValueError
    naming the field when the config is not a JSON object or a field is not
    of its kind.
    """
    cfg = json.loads(Path(config).read_text()) \
        if isinstance(config, (str, Path)) else config
    if not isinstance(cfg, dict):
        raise ValueError(f"a Plateau config is a JSON object, not "
                         f"{type(cfg).__name__}")
    for key, kind, what in (("tol", (int, float), "a number"),
                            ("max_iter", int, "an integer"),
                            ("expected_genus", int, "an integer")):
        _field(cfg, key, kind, what, "config")
    corners = np.asarray(_field(cfg, "boundary_vertices", list, "a list", "config"),
                         dtype=float)
    gens = tuple(SphereIsometry(np.asarray(m, dtype=float))
                 for m in _field(cfg, "generators", list, "a list", "config"))
    disk = quadrilateral_disk(corners,
                              _field(cfg, "resolution", int, "an integer", "config", 12),
                              name=str(cfg.get("name", "")) + "|disk")
    problem = PlateauProblem(boundary=tuple(corners), interior_init=disk,
                             reflection_generators=gens)
    return problem, cfg


def build_xi(config) -> tuple:
    """Solve the configured Plateau problem and close it up by reflection.

    Returns ``(closed_mesh, patch_solution)`` whether or not the patch met
    its ``tol``; exceptions from the solver (StalledDescent) and the
    assembler (WeldFailure, WrongEuler) propagate so callers can report them.
    """
    problem, cfg = load_plateau_problem(config)
    solution = solve_plateau(problem, tol=float(cfg["tol"]),
                             max_iter=int(cfg["max_iter"]))
    closed = assemble_by_reflection(solution.mesh, problem.reflection_generators,
                                    int(cfg["expected_genus"]),
                                    name=str(cfg.get("name", "")))
    return closed, solution
