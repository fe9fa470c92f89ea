import json
from pathlib import Path

import numpy as np
import pytest

from spherelab.errors import AntipodalPair, StalledDescent, WrongEuler
from spherelab.extrinsic import max_mean_curvature
from spherelab.mesh import (SurfaceMesh, euler_characteristic, induced_metric,
                            total_area)
from spherelab.plateau import (
    PlateauProblem,
    PlateauSolution,
    assemble_by_reflection,
    build_xi,
    geodesic_arc,
    lawson_xi_quadrilateral,
    load_plateau_problem,
    quadrilateral_disk,
    solve_plateau,
)
from spherelab import plateau
from spherelab.plateau import _measure, _spherical_area_gradient, _triangle_quality

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _xi_problem(k, n):
    corners, gens = lawson_xi_quadrilateral(k)
    disk = quadrilateral_disk(corners, n)
    return PlateauProblem(boundary=tuple(corners), interior_init=disk,
                          reflection_generators=gens), corners, gens


def _polar_cap(n_rings=6, m=16):
    """Geodesic cap mesh of the upper hemisphere of S^2, rim on the equator."""
    V = [np.array([0.0, 0.0, 1.0])]
    for r in range(1, n_rings + 1):
        th = 0.5 * np.pi * r / n_rings
        for j in range(m):
            ph = 2 * np.pi * j / m
            V.append([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    F = [(0, 1 + j, 1 + (j + 1) % m) for j in range(m)]
    for r in range(1, n_rings):
        b0, b1 = 1 + (r - 1) * m, 1 + r * m
        for j in range(m):
            a, b = b0 + j, b0 + (j + 1) % m
            c, d = b1 + j, b1 + (j + 1) % m
            F.extend([(a, c, d), (a, d, b)])
    loop = list(range(1 + (n_rings - 1) * m, 1 + n_rings * m))
    return SurfaceMesh(2, np.array(V), np.array(F, dtype=np.int64),
                       boundary_loops=[loop], orientable=True, name="cap")


# ---------------------------------------------------------------------------
# arcs and the disk builder


def test_geodesic_arc_endpoints_exact_and_evenly_spaced():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(4)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        t = np.linspace(0, 1, 9)
        P = geodesic_arc(a, b, t)
        assert np.array_equal(P[0], a) and np.array_equal(P[-1], b)
        assert np.max(np.abs(np.linalg.norm(P, axis=1) - 1)) < 1e-14
        # consecutive chords of an even geodesic subdivision are equal
        steps = np.linalg.norm(np.diff(P, axis=0), axis=1)
        assert np.max(np.abs(steps - steps[0])) < 1e-13


def test_geodesic_arc_rejects_degenerate_pairs():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        geodesic_arc(e1, e1, np.array([0.5]))
    with pytest.raises(AntipodalPair):
        geodesic_arc(e1, -e1, np.array([0.5]))


def test_quadrilateral_disk_is_a_disk_with_boundary_on_the_arcs():
    corners, _ = lawson_xi_quadrilateral(2)
    n = 8
    disk = quadrilateral_disk(corners, n)
    assert not disk.is_closed
    assert euler_characteristic(disk) == 1
    assert disk.n_vertices == (n + 1) ** 2
    assert disk.n_faces == 2 * n * n
    assert len(disk.boundary_loops[0]) == 4 * n
    assert np.max(np.abs(np.linalg.norm(disk.vertices, axis=1) - 1)) < 1e-14
    # every corner appears verbatim among the vertices
    keys = {tuple(v) for v in disk.vertices}
    assert all(tuple(c) in keys for c in corners)
    # rim rows are exact arc samples: each is fixed by one arc reflection
    _, gens = lawson_xi_quadrilateral(2)
    rim = disk.vertices[disk.boundary_vertex_mask]
    fixed = np.zeros(len(rim), dtype=bool)
    for g in gens:
        fixed |= np.linalg.norm(rim @ g.matrix.T - rim, axis=1) < 1e-12
    assert fixed.all()


def test_quadrilateral_disk_matches_the_cell_by_cell_triangulation():
    corners, _ = lawson_xi_quadrilateral(3)
    for n in (2, 7, 12):
        disk = quadrilateral_disk(corners, n)
        ref = []
        for i in range(n):
            for j in range(n):
                a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
                c, d = b + 1, a + 1
                ref.extend([(a, b, c), (a, c, d)] if (i + j) % 2
                           else [(b, c, d), (b, d, a)])
        assert disk.faces.dtype == np.int64
        assert np.array_equal(disk.faces, np.array(ref))
        # the rim runs j = 0, i = n, j = n, i = 0, each side from its start
        # corner up to (not including) the next
        grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
        rim = ([grid[i, 0] for i in range(n)] + [grid[n, j] for j in range(n)]
               + [grid[i, n] for i in range(n, 0, -1)]
               + [grid[0, j] for j in range(n, 0, -1)])
        assert list(disk.boundary_loops[0]) == rim


# ---------------------------------------------------------------------------
# problem validation


def test_problem_validation_accepts_the_canonical_quadrilateral():
    prob, corners, gens = _xi_problem(2, 6)
    assert len(prob.boundary) == 4
    assert prob.interior_init.n_vertices == 49


def test_problem_rejects_generator_that_moves_its_arc():
    _, corners, gens = _xi_problem(2, 6)
    disk = quadrilateral_disk(corners, 6)
    shuffled = (gens[1], gens[0], gens[2], gens[3])
    with pytest.raises(ValueError, match="does not fix"):
        PlateauProblem(boundary=tuple(corners), interior_init=disk,
                       reflection_generators=shuffled)


def test_problem_rejects_non_involution():
    _, corners, gens = _xi_problem(2, 6)
    disk = quadrilateral_disk(corners, 6)
    th = 0.3
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    bad = (rot,) + gens[1:]
    with pytest.raises(ValueError, match="involution"):
        PlateauProblem(boundary=tuple(corners), interior_init=disk,
                       reflection_generators=bad)


def test_problem_rejects_generator_count_mismatch():
    _, corners, gens = _xi_problem(2, 6)
    disk = quadrilateral_disk(corners, 6)
    with pytest.raises(ValueError):
        PlateauProblem(boundary=tuple(corners), interior_init=disk,
                       reflection_generators=gens[:3])


def test_problem_rejects_rim_vertex_off_the_polygon():
    _, corners, gens = _xi_problem(2, 6)
    disk = quadrilateral_disk(corners, 6)
    V = disk.vertices.copy()
    rim = np.where(disk.boundary_vertex_mask)[0]
    v = V[rim[3]] + 0.01 * np.array([0.3, -0.2, 0.5, 0.1])
    V[rim[3]] = v / np.linalg.norm(v)
    moved = disk.with_vertices(V)
    with pytest.raises(ValueError, match="do not lie on the polygon"):
        PlateauProblem(boundary=tuple(corners), interior_init=moved,
                       reflection_generators=gens)


# ---------------------------------------------------------------------------
# the spherical-area gradient the descent runs on


def test_area_gradient_matches_finite_differences():
    corners, _ = lawson_xi_quadrilateral(2)
    disk = quadrilateral_disk(corners, 6)
    V, F = disk.vertices, disk.faces
    measured = _measure(V, disk.edges, disk.face_edge_ids)
    G = _spherical_area_gradient(V, F, measured)
    # the edge-table excess is the mesh module's spherical face area
    assert np.allclose(measured[2], induced_metric(disk).areas, atol=1e-15)
    # rows are tangent to the sphere
    assert np.max(np.abs(np.einsum("ij,ij->i", G, V))) < 1e-12
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        i = int(rng.integers(0, len(V)))
        d = rng.standard_normal(4)
        d -= (d @ V[i]) * V[i]
        d /= np.linalg.norm(d)

        def area_at(eps):
            W = V.copy()
            p = V[i] + eps * d
            W[i] = p / np.linalg.norm(p)
            return float(np.sum(_measure(W, disk.edges, disk.face_edge_ids)[2]))

        fd = (area_at(h) - area_at(-h)) / (2 * h)
        assert abs(fd - float(G[i] @ d)) < 1e-8


def test_spherical_areas_tile_the_hemisphere_exactly():
    cap = _polar_cap()
    # spherical excess is additive, so the cap areas sum to 2 pi to rounding
    E = _measure(cap.vertices, cap.edges, cap.face_edge_ids)[2]
    assert abs(float(np.sum(E)) - 2 * np.pi) < 1e-12


# ---------------------------------------------------------------------------
# solving


def test_hemisphere_is_already_minimal_and_closes_to_a_sphere():
    cap = _polar_cap()
    corners = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    R = np.diag([1.0, 1.0, -1.0])
    prob = PlateauProblem(boundary=tuple(corners), interior_init=cap,
                          reflection_generators=(R, R, R, R))
    sol = solve_plateau(prob, tol=1e-6, max_iter=50)
    assert sol.iterations == 0
    assert sol.residual < 1e-6
    assert abs(sol.area - 2 * np.pi) < 1e-12
    sphere = assemble_by_reflection(sol, (R,), expected_genus=0)
    assert sphere.is_closed
    assert euler_characteristic(sphere) == 2
    assert sphere.n_faces == 2 * cap.n_faces


def test_solver_converges_below_tol_and_decreases_area():
    prob, corners, gens = _xi_problem(2, 8)
    disk = prob.interior_init
    a0 = float(np.sum(_measure(disk.vertices, disk.edges, disk.face_edge_ids)[2]))
    sol = solve_plateau(prob, tol=1e-3, max_iter=20000)
    assert isinstance(sol, PlateauSolution)
    assert sol.residual < 1e-3
    assert 0 < sol.iterations < 20000
    assert sol.area < a0
    chords = _measure(sol.mesh.vertices, disk.edges, disk.face_edge_ids)[0]
    assert float(np.min(_triangle_quality(chords))) > 0.05
    # pinned rows never move, bit for bit
    bm = prob.interior_init.boundary_vertex_mask
    assert np.array_equal(sol.mesh.vertices[bm], prob.interior_init.vertices[bm])


def test_no_iterate_is_measured_twice(monkeypatch):
    prob, *_ = _xi_problem(2, 8)
    measure, seen = plateau._measure, []

    def counted(V, edges, face_edge_ids):
        seen.append(V.tobytes())
        return measure(V, edges, face_edge_ids)

    monkeypatch.setattr(plateau, "_measure", counted)
    sol = solve_plateau(prob, tol=1e-3, max_iter=20000)
    # the start, then one measurement per line-search trial
    assert sol.iterations > 0 and len(seen) > sol.iterations
    assert len(set(seen)) == len(seen)


def test_the_cotan_weights_read_a_flat_metric(monkeypatch):
    # cotan_laplacian reads the flat layout of any metric, so the descent
    # builds that layout directly and no spherical twin beside it
    from spherelab.mesh import DiscreteMetric

    prob, *_ = _xi_problem(2, 8)
    built = []
    post_init = DiscreteMetric.__post_init__

    def counted(metric):
        built.append(metric.convention)
        post_init(metric)

    monkeypatch.setattr(DiscreteMetric, "__post_init__", counted)
    sol = solve_plateau(prob, tol=1e-3, max_iter=20000)
    assert sol.iterations > 0
    assert built == ["euclidean"] * sol.iterations


def test_solve_count_stays_flat_under_refinement():
    # the cotan preconditioner makes the full step mesh-independent, so the
    # count must not grow like 1/h^2 when the grid is refined
    counts = []
    for n in (8, 16):
        prob, *_ = _xi_problem(2, n)
        sol = solve_plateau(prob, tol=1e-3, max_iter=40)
        assert sol.residual < 1e-3
        counts.append(sol.iterations)
    assert max(counts) <= 40
    assert counts[1] <= counts[0] + 5


def test_solver_is_deterministic():
    prob, *_ = _xi_problem(2, 6)
    a = solve_plateau(prob, tol=2e-3, max_iter=20000)
    b = solve_plateau(prob, tol=2e-3, max_iter=20000)
    assert a.iterations == b.iterations
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)


def test_max_iter_exhaustion_returns_the_achieved_residual():
    prob, *_ = _xi_problem(2, 8)
    sol = solve_plateau(prob, tol=1e-12, max_iter=5)
    assert sol.iterations == 5
    assert sol.residual > 1e-12


def test_an_iterate_within_tol_at_the_last_allowed_iteration_is_returned():
    # xi21 converges in exactly 12 iterations, so a budget of 12 must see
    # that iterate's residual, not the one before
    prob, _ = load_plateau_problem(CONFIG_DIR / "xi21.json")
    free = solve_plateau(prob, tol=1e-3, max_iter=20000)
    bounded = solve_plateau(prob, tol=1e-3, max_iter=12)
    assert free.iterations == bounded.iterations == 12
    assert bounded.residual < 1e-3
    assert bounded.residual == free.residual
    assert np.array_equal(bounded.mesh.vertices, free.mesh.vertices)


def test_a_budget_exit_reports_the_residual_of_the_returned_patch():
    prob, *_ = _xi_problem(2, 8)
    sol = solve_plateau(prob, tol=1e-12, max_iter=5)
    disk = prob.interior_init
    V, ends = sol.mesh.vertices, disk.edges
    H, _ = plateau._descent_state(
        V, disk.faces, _measure(V, ends, disk.face_edge_ids),
        ~disk.boundary_vertex_mask, np.concatenate([ends[:, 0], ends[:, 1]]),
        np.concatenate([ends[:, 1], ends[:, 0]]))
    assert sol.residual == float(np.max(np.linalg.norm(H, axis=1)))


@pytest.mark.parametrize("tol, max_iter, named", [
    (np.inf, 20000, "tol ="), (np.nan, 20000, "tol ="), (-1.0, 20000, "tol ="),
    (1e-3, 0, "max_iter ="), (1e-3, -3, "max_iter ="),
])
def test_options_that_skip_or_cannot_end_the_descent_are_refused(tol, max_iter,
                                                                  named):
    # tol = inf would return the initial disk, nan or < 0 would run every
    # iteration, and max_iter < 1 would report an infinite residual
    prob, *_ = _xi_problem(2, 4)
    with pytest.raises(ValueError, match=named):
        solve_plateau(prob, tol=tol, max_iter=max_iter)


def test_solution_records_the_tol_it_was_solved_against():
    prob, *_ = _xi_problem(2, 6)
    assert solve_plateau(prob, tol=2e-3, max_iter=20000).tol == 2e-3
    assert solve_plateau(prob, tol=1e-12, max_iter=3).tol == 1e-12


def test_stalled_descent_reports_rather_than_accepting():
    prob, corners, gens = _xi_problem(2, 8)
    sol = solve_plateau(prob, tol=1e-3, max_iter=20000)
    # restart from the solved patch demanding the impossible: the line
    # search dies at the float equilibrium and must say so
    again = PlateauProblem(boundary=tuple(corners), interior_init=sol.mesh,
                           reflection_generators=gens)
    with pytest.raises(StalledDescent) as err:
        solve_plateau(again, tol=0.0, max_iter=20000)
    assert err.value.residual > 0
    assert isinstance(err.value.mesh, SurfaceMesh)
    assert err.value.iterations > 0


# ---------------------------------------------------------------------------
# reflection assembly


def test_xi21_assembles_to_genus_two():
    prob, corners, gens = _xi_problem(2, 8)
    sol = solve_plateau(prob, tol=1e-3, max_iter=20000)
    closed = assemble_by_reflection(sol, gens, expected_genus=2, name="xi21-test")
    assert closed.is_closed
    assert closed.orientable
    assert euler_characteristic(closed) == -2
    # 12 tiles; welding identifies arc copies and corner orbits exactly:
    # 12 interiors + 24 open arcs + 6 corners meeting 4 tiles + 4 meeting 6
    n = 8
    assert closed.n_faces == 12 * 2 * n * n
    assert closed.n_vertices == 12 * (n - 1) ** 2 + 24 * (n - 1) + 6 + 4


def test_wrong_expected_genus_is_refused():
    prob, corners, gens = _xi_problem(2, 8)
    sol = solve_plateau(prob, tol=1e-3, max_iter=20000)
    with pytest.raises(WrongEuler):
        assemble_by_reflection(sol, gens, expected_genus=1)


def test_config_pipeline_builds_both_xi_surfaces_with_ordered_areas():
    xi21, sol21 = build_xi(f"{CONFIG_DIR}/xi21.json")
    xi31, sol31 = build_xi(f"{CONFIG_DIR}/xi31.json")
    assert euler_characteristic(xi21) == -2
    assert euler_characteristic(xi31) == -4
    assert sol21.residual < 1e-3 and sol31.residual < 1e-3
    a21 = total_area(xi21, induced_metric(xi21))
    a31 = total_area(xi31, induced_metric(xi31))
    assert 2 * np.pi ** 2 < a21 < a31 < 8 * np.pi
    # the closed-up patches are near-minimal as measured by the global
    # estimator too, not just by the solver's own residual
    assert max_mean_curvature(xi21) < 0.2
    assert max_mean_curvature(xi31) < 0.5


def test_config_fields_round_trip():
    prob, cfg = load_plateau_problem(f"{CONFIG_DIR}/xi21.json")
    assert set(cfg) >= {"boundary_vertices", "generators", "expected_genus",
                        "tol", "max_iter"}
    assert cfg["expected_genus"] == 2
    assert len(cfg["generators"]) == 4
    assert prob.interior_init.n_vertices == (cfg["resolution"] + 1) ** 2
    # the loader must round-trip a dict too
    prob2, _ = load_plateau_problem(json.loads(open(f"{CONFIG_DIR}/xi21.json").read()))
    assert np.array_equal(prob2.interior_init.vertices, prob.interior_init.vertices)
