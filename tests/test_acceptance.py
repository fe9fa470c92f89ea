"""Acceptance gate: the published constants and convergence guarantees.

One test per numbered guarantee, each printing a single ``[PASS]``/``[FAIL]``
line with the measured numbers (visible with ``pytest -s`` and in failure
output; ``pytest -v`` gives the per-criterion verdict either way).  Meshes are
cached across criteria so the finest ladder rungs are built once.

Ladders (~10^3 to ~10^5 faces):
    sphere     icosphere levels 4 / 5 / 6
    Clifford   square grids 32 / 96 / 256
    tau_{3,1}  grids 64x16 / 128x32 / 256x64
    Veronese   levels 3 / 4 / 5
    bipolar    source grids (32,10) / (64,18) / (128,38), adapted sampling

Two checks run against machine-exactness floors rather than genuine
discretisation error and need floor escapes:

  * great-sphere areas come from spherical excess, which tiles the sphere
    additively, so area and Willmore errors sit at 1e-14..1e-13 on every
    rung -- the level-to-level error-ratio test is vacuous there and is
    waived when both errors are below 1e-12 relative;
  * the great-sphere Gauss-equation residual is pure fitting noise
    (1e-11..1e-9, mildly *growing* with refinement), so monotone decrease
    is only enforced on rungs whose median exceeds a 1e-6 floor.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from spherelab import sphere
from spherelab.ambient import (
    ParticleEnsemble,
    TubeField,
    _gradient_bound,
    area_preservation_residual,
    build_ensemble,
    conformality_residual,
    curved_surface_distance,
    evaluate_tube_field,
    integrate_palais_flow,
)
from spherelab.errors import StalledDescent
from spherelab.extrinsic import (
    ExtrinsicField,
    gauss_equation_residual,
    max_mean_curvature,
)
from spherelab.flow import run_uniformization
from spherelab.functionals import (
    complete_elliptic_E,
    evaluate_functionals,
    sigma_of_class,
)
from spherelab.mesh import (
    SurfaceMesh,
    angle_defect_curvature,
    euler_characteristic,
    induced_metric,
    total_area,
    vertex_dual_areas,
)
from spherelab.plateau import build_xi
from spherelab.zoo import (
    bipolar,
    clifford_torus,
    great_sphere,
    lawson_tau,
    veronese_rp2,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SPHERE_AREA = 4.0 * np.pi
SPHERE_W = 16.0 * np.pi
CLIFFORD_AREA = 2.0 * np.pi**2
CLIFFORD_W = 8.0 * np.pi**2
VERONESE_AREA = 6.0 * np.pi
VERONESE_W = 24.0 * np.pi
VERONESE_SIGMA = (4.0 / np.sqrt(6.0)) * np.sqrt(np.pi)
BIPOLAR_MODULUS = 2.0 * np.sqrt(2.0) / 3.0

# relative error below this is summation noise, not discretisation error
MACHINE_FLOOR = 1e-12
RESIDUAL_FLOOR = 1e-6


def _verdict(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:>2} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# cached builders: each ladder rung is constructed and measured once


@lru_cache(maxsize=None)
def _mesh(kind, *args):
    if kind == "sphere":
        return great_sphere(args[0])
    if kind == "clifford":
        return clifford_torus(args[0], args[0])
    if kind == "tau31":
        return lawson_tau(3, 1, args[0], args[1])
    if kind == "veronese":
        return veronese_rp2(args[0])
    if kind == "bipolar":
        src = lawson_tau(3, 1, args[0], args[1], sampling="bipolar")
        return bipolar(src).mesh
    raise KeyError(kind)


@lru_cache(maxsize=None)
def _measured(kind, *args):
    m = _mesh(kind, *args)
    ext = ExtrinsicField.compute(m)
    return m, ext, evaluate_functionals(m, ext)


@lru_cache(maxsize=None)
def _flowed(kind, *args):
    trace, u = run_uniformization(_mesh(kind, *args), tol=1e-4)
    return trace, u


def _rel(x, target):
    return abs(x - target) / abs(target)


def _ratios_ok(errors):
    """Successive error ratio >= 3, waived once both sit at the float floor."""
    for a, b in zip(errors, errors[1:]):
        if a < MACHINE_FLOOR and b < MACHINE_FLOOR:
            continue
        if not a / max(b, 1e-300) >= 3.0:
            return False
    return True


# ---------------------------------------------------------------------------


def test_01_sphere_area_and_willmore_constants():
    area_err, w_err = [], []
    for lvl in (4, 5, 6):
        _, _, rep = _measured("sphere", lvl)
        area_err.append(_rel(rep.area, SPHERE_AREA))
        w_err.append(_rel(rep.willmore, SPHERE_W))
    ok = (area_err[-1] < 2e-3 and w_err[-1] < 2e-3
          and _ratios_ok(area_err) and _ratios_ok(w_err))
    _verdict(1, "sphere constants 4pi / 16pi", ok,
             f"area rel errs {[f'{e:.1e}' for e in area_err]}, "
             f"W rel errs {[f'{e:.1e}' for e in w_err]} "
             f"(spherical excess tiles exactly; ratio test at float floor)")


def test_02_clifford_area_willmore_alpha():
    m, ext, rep = _measured("clifford", 256)
    a_err = _rel(rep.area, CLIFFORD_AREA)
    w_err = _rel(rep.willmore, CLIFFORD_W)
    A = vertex_dual_areas(m, induced_metric(m)).values
    order = np.argsort(ext.alpha_sq)
    cum = np.cumsum(A[order])
    alpha_med = float(ext.alpha_sq[order][np.searchsorted(cum, 0.5 * cum[-1])])
    alpha_err = _rel(alpha_med, 2.0)
    ok = a_err < 1e-3 and w_err < 2e-3 and alpha_err < 1e-2
    _verdict(2, "Clifford constants 2pi^2 / 8pi^2 / alpha^2=2", ok,
             f"area rel {a_err:.2e} (<1e-3), W rel {w_err:.2e} (<2e-3), "
             f"alpha^2 median {alpha_med:.4f} rel {alpha_err:.2e} (<1e-2)")


def test_03_gauss_bonnet_both_conventions():
    reps = [("sphere", 5), ("sphere", 6), ("clifford", 96), ("clifford", 256),
            ("tau31", 128, 32), ("tau31", 256, 64), ("veronese", 4),
            ("veronese", 5), ("bipolar", 64, 18), ("bipolar", 128, 38)]
    worst_euc, worst_sph, lines = 0.0, 0.0, []
    for key in reps:
        m = _mesh(*key)
        chi = euler_characteristic(m)
        target = 4.0 * np.pi * chi
        g_sph = induced_metric(m)
        g_euc = g_sph.as_euclidean()
        for g, law in ((g_euc, "euc"), (g_sph, "sph")):
            s = angle_defect_curvature(m, g).values
            A = vertex_dual_areas(m, g).values
            total = float(s @ A)
            err = abs(total - target)
            rel = err / max(4.0 * np.pi, abs(target))
            if law == "euc":
                worst_euc = max(worst_euc, err)
            else:
                worst_sph = max(worst_sph, rel)
        lines.append(f"{m.name} chi={chi}")
    ok = worst_euc < 1e-9 and worst_sph < 1e-3
    _verdict(3, "Gauss-Bonnet 4πχ on every built surface", ok,
             f"worst Euclidean-law abs err {worst_euc:.2e} (<1e-9), "
             f"worst spherical-law rel err {worst_sph:.2e} (<1e-3) over "
             f"{len(reps)} meshes [{', '.join(lines[:4])}, ...]")


def test_04_gauss_equation_residual_ladder():
    ladders = {
        "sphere": [("sphere", l) for l in (4, 5, 6)],
        "clifford": [("clifford", n) for n in (32, 96, 256)],
        "tau31": [("tau31", n, m) for n, m in ((64, 16), (128, 32), (256, 64))],
    }
    ok, parts = True, []
    finest = {}
    for name, rungs in ladders.items():
        meds = [gauss_equation_residual(_mesh(*key)).median for key in rungs]
        for a, b in zip(meds, meds[1:]):
            if a < RESIDUAL_FLOOR and b < RESIDUAL_FLOOR:
                continue            # both at the fitting-noise floor
            ok = ok and b < a
        finest[name] = meds[-1]
        parts.append(f"{name} medians {[f'{x:.1e}' for x in meds]}")
    ok = ok and finest["sphere"] < 0.05 and finest["clifford"] < 0.05
    _verdict(4, "Gauss-equation residual decreases along ladders", ok,
             "; ".join(parts) + " (sphere rungs at the noise floor)")


def test_05_minimality_certification():
    ladders = {
        "tau31": [("tau31", n, m) for n, m in ((64, 16), (128, 32), (256, 64))],
        "veronese": [("veronese", l) for l in (3, 4, 5)],
        "bipolar": [("bipolar", n, m) for n, m in ((32, 10), (64, 18), (128, 38))],
    }
    ok, parts = True, []
    for name, rungs in ladders.items():
        hs = [float(np.linalg.norm(_measured(*key)[1].mean_curvature,
                                   axis=1).max()) for key in rungs]
        ok = ok and all(b < a for a, b in zip(hs, hs[1:])) and hs[-1] < 0.05
        parts.append(f"{name} max|H| {[f'{h:.3f}' for h in hs]}")
    _verdict(5, "minimality: max|H| shrinks along ladders, final < 0.05", ok,
             "; ".join(parts))


def _agm_elliptic_E(k, iterations=40):
    # E = K (1 - sum 2^{n-1} c_n^2), K = pi / (2 agm(1, k'))
    a, b, c = 1.0, np.sqrt(1.0 - k * k), k
    s = 0.5 * c * c
    pow2 = 0.5
    for _ in range(iterations):
        a, b, c = (a + b) / 2, np.sqrt(a * b), (a - b) / 2
        pow2 *= 2.0
        s += pow2 * c * c
        if c < 1e-18:
            break
    return np.pi / (2 * a) * (1.0 - s)


def test_06_nonorientable_constants_and_elliptic_oracle():
    _, _, rep = _measured("veronese", 5)
    a_err = _rel(rep.area, VERONESE_AREA)
    w_err = _rel(rep.willmore, VERONESE_W)
    sig = sigma_of_class(rep.willmore, rep.euler)
    s_err = _rel(sig.sigma_class, VERONESE_SIGMA)

    e_mod = complete_elliptic_E(BIPOLAR_MODULUS)
    e_gap = abs(e_mod - _agm_elliptic_E(BIPOLAR_MODULUS))
    target = VERONESE_AREA * e_mod          # 6 pi E(2 sqrt2 / 3)
    _, _, brep = _measured("bipolar", 128, 38)
    b_err = _rel(brep.area, target)

    ok = (a_err < 5e-3 and w_err < 5e-3 and s_err < 5e-3
          and e_gap < 1e-10 and b_err < 1e-2)
    _verdict(6, "nonorientable constants 6pi / 24pi / (4/sqrt6)sqrt(pi)", ok,
             f"Veronese area rel {a_err:.2e}, W rel {w_err:.2e}, "
             f"sigma {sig.sigma_class:.4f} rel {s_err:.2e} (all <5e-3); "
             f"E({BIPOLAR_MODULUS:.4f})={e_mod:.12f} vs AGM gap {e_gap:.1e} "
             f"(<1e-10); bipolar area {brep.area:.4f} vs 6piE {target:.4f} "
             f"rel {b_err:.2e} (<1e-2)")


def test_07_uniformization_flow_targets():
    trace, _ = _flowed("tau31", 64, 16)
    rows = trace.rows
    areas = np.array([r["area"] for r in rows])
    proxy = np.array([r["willmore_proxy"] for r in rows])
    dev = rows[-1]["curvature_dev"]
    drift = abs(areas[-1] - areas[0]) / areas[0]
    chi = euler_characteristic(_mesh("tau31", 64, 16))
    target_sbar = 4.0 * np.pi * chi / areas[-1]
    meas_sbar = rows[-1]["total_scalar"] / rows[-1]["area"]
    proxy_err = float(np.max(np.abs(proxy - 4.0 * areas))) / proxy[0]

    vtrace, _ = _flowed("veronese", 4)
    vbar = vtrace.rows[-1]["total_scalar"] / vtrace.rows[-1]["area"]
    vdev = vtrace.rows[-1]["curvature_dev"]

    ok = (dev < 1e-4 and drift < 1e-9 and target_sbar == 0.0
          and abs(meas_sbar) < 1e-12 and proxy_err < 1e-9
          and vdev < 1e-4 and abs(vbar - 2.0 / 3.0) < 1e-3)
    _verdict(7, "uniformization flow targets", ok,
             f"tau31: dev {dev:.2e} (<1e-4), area drift {drift:.2e} (<1e-9), "
             f"target sbar {target_sbar} (exactly 0 for chi=0; measured "
             f"{meas_sbar:.1e}), proxy-4a rel {proxy_err:.1e} (<1e-9); "
             f"Veronese: dev {vdev:.2e}, sbar {vbar:.6f} vs 2/3 "
             f"(gap {abs(vbar - 2 / 3):.2e} < 1e-3)")


def test_08_ambient_palais_flow():
    m = _mesh("tau31", 64, 16)
    _, u = _flowed("tau31", 64, 16)
    field = TubeField.from_flow(m, u.values)
    dt = 0.125 * field.epsilon / (4.0 * _gradient_bound(field))

    ens = build_ensemble(field, 20, 20, 20, seed=7)
    out = integrate_palais_flow(field, ens, 1.0, dt)
    outside_fixed = bool(np.array_equal(out.positions[40:], ens.positions[40:]))
    fixing = float(curved_surface_distance(field, out.positions[:20]).max())

    # tube-field gradient against central differences along tangent directions
    rng = np.random.default_rng(17)
    h, fd_worst = 1e-6, 0.0
    for idx in rng.choice(40, size=6, replace=False):
        x = ens.positions[idx]
        for t in (0.35, 0.9):
            _, grad = evaluate_tube_field(field, sphere.AmbientPoint(x), t)
            e = rng.standard_normal(x.size)
            e -= (e @ x) * x
            e /= np.linalg.norm(e)
            vp, _ = evaluate_tube_field(
                field, sphere.AmbientPoint(np.cos(h) * x + np.sin(h) * e), t)
            vm, _ = evaluate_tube_field(
                field, sphere.AmbientPoint(np.cos(h) * x - np.sin(h) * e), t)
            fd_worst = max(fd_worst, abs((vp - vm) / (2 * h) - grad.vec @ e))

    apr = area_preservation_residual(m, u.values)

    # conformality residual: no pass bar, report the ladder trend
    trend = []
    for (nu, nv) in ((24, 6), (32, 8)):
        src = _mesh("tau31", nu, nv)
        _, usrc = _flowed("tau31", nu, nv)
        f2 = TubeField.from_flow(src, usrc.values)
        dt2 = 0.5 * f2.epsilon / (4.0 * _gradient_bound(f2))
        carrier = ParticleEnsemble(src.vertices.copy(),
                                   ["on_surface"] * src.n_vertices, [])
        moved = integrate_palais_flow(f2, carrier, 1.0, dt2)
        rep = conformality_residual(
            f2, moved.positions, usrc.values,
            float(curved_surface_distance(f2, moved.positions).max()))
        trend.append((nu, nv, rep["median_conformality_residual"],
                      rep["max_conformality_residual"]))

    ok = (outside_fixed and fixing < 1e-4 and fd_worst < 1e-5 and apr < 1e-6
          and all(np.isfinite(t[2]) for t in trend))
    _verdict(8, "ambient Palais flow", ok,
             f"outside bit-identical {outside_fixed}, surface fixing "
             f"{fixing:.2e} (<1e-4), grad FD gap {fd_worst:.2e} (<1e-5), "
             f"|int(e^2u - 1)|/area {apr:.2e} (<1e-6); conformality trend "
             + ", ".join(f"{nu}x{nv} med {md:.3f} max {mx:.3f}"
                         for nu, nv, md, mx in trend)
             + " (reported, no threshold)")


def test_09_xi_surface_bounds_expected():
    results = {}
    for name in ("xi21", "xi31"):
        cfg_path = CONFIG_DIR / f"{name}.json"
        cfg = json.loads(cfg_path.read_text())
        try:
            closed, sol = build_xi(cfg_path)
        except StalledDescent as err:
            print(f"[SKIP]  9 xi bounds: {name} stalled at residual "
                  f"{err.residual:.3e} after {err.iterations} iterations")
            pytest.skip(f"{name}: StalledDescent at residual {err.residual:.3e}")
        results[name] = (closed, sol, float(cfg["tol"]))

    closed21, sol21, tol21 = results["xi21"]
    closed31, sol31, tol31 = results["xi31"]
    chi21 = euler_characteristic(closed21)
    chi_ok = chi21 == -2
    a21 = total_area(closed21, induced_metric(closed21))
    a31 = total_area(closed31, induced_metric(closed31))

    if sol21.residual <= tol21 and sol31.residual <= tol31:
        order_ok = CLIFFORD_AREA < a21 < a31 < 8.0 * np.pi
        ok = chi_ok and order_ok
        _verdict(9, "xi-surface bounds (EXPECTED)", ok,
                 f"chi(xi21)={chi21} (=-2), residuals {sol21.residual:.2e}/"
                 f"{sol31.residual:.2e} meet tol {tol21:g}, areas "
                 f"2pi^2={CLIFFORD_AREA:.4f} < {a21:.4f} < {a31:.4f} < "
                 f"8pi={8 * np.pi:.4f}")
    else:
        _verdict(9, "xi-surface bounds (EXPECTED)", chi_ok,
                 f"chi(xi21)={chi21} (=-2); residuals {sol21.residual:.2e}/"
                 f"{sol31.residual:.2e} miss tol {tol21:g}, area ordering "
                 f"not asserted (a21={a21:.4f}, a31={a31:.4f})")

    # refinement ladder: every level must converge, close up with the right
    # chi and keep the ordering; the extrapolation is reported, not gated
    ladder = {}
    for n in (24, 48):
        for name, genus in (("xi21", 2), ("xi31", 3)):
            cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
            cfg["resolution"] = n
            closed, sol = build_xi(cfg)
            chi = euler_characteristic(closed)
            ladder[name, n] = total_area(closed, induced_metric(closed))
            _verdict(9, f"xi ladder {name} n={n}",
                     chi == 2 - 2 * genus and sol.residual <= float(cfg["tol"]),
                     f"chi={chi} (={2 - 2 * genus}), residual {sol.residual:.2e} "
                     f"after {sol.iterations} iterations (tol {cfg['tol']:g}), "
                     f"area {ladder[name, n]:.4f}")
        _verdict(9, f"xi ladder ordering n={n}",
                 CLIFFORD_AREA < ladder["xi21", n] < ladder["xi31", n] < 8.0 * np.pi,
                 f"2pi^2={CLIFFORD_AREA:.4f} < {ladder['xi21', n]:.4f} < "
                 f"{ladder['xi31', n]:.4f} < 8pi={8 * np.pi:.4f}")
    for name, genus in (("xi21", 2), ("xi31", 3)):
        coarse, fine = ladder[name, 24], ladder[name, 48]
        trend = 8.0 * np.pi * (1.0 - np.log(2.0) / (2.0 * (genus + 1)))
        print(f"[INFO]  9 {name}: Richardson (24, 48; error O(h^2)) "
              f"{fine + (fine - coarse) / 3.0:.4f}, trend 8pi(1 - ln2/(2(g+1))) "
              f"= {trend:.2f} (asymptotic in g, not a gate)")


def test_10_property_suites_spot_checks():
    rng = np.random.default_rng(23)

    # geometry round-trips: exp/log and reflection involution
    geo_worst = 0.0
    for _ in range(25):
        p = sphere.project_to_sphere(rng.standard_normal(4))
        v = rng.standard_normal(4)
        v -= (v @ p.coords) * p.coords
        v *= 0.4 * np.pi / np.linalg.norm(v)
        q = sphere.exp_map(sphere.TangentVector(p, v))
        w = sphere.log_map(p, q)
        geo_worst = max(geo_worst, float(np.linalg.norm(w.vec - v)))
    basis, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    refl = sphere.reflection_across_great_circle(basis.T)
    X = sphere.project_rows(rng.standard_normal((40, 4)))
    invol = float(np.abs(refl.apply_rows(refl.apply_rows(X)) - X).max())

    # functional wiring identities on a live report
    m, _, rep = _measured("clifford", 96)
    wire = max(
        abs(rep.willmore - (2 * rep.theta + rep.psi)) / rep.willmore,
        abs(rep.total_scalar - (rep.willmore - rep.dfun)),
        abs(rep.dfun - (rep.theta + rep.pi_)) / rep.dfun,
    )

    # isometry equivariance of the measured functionals
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    moved = SurfaceMesh(3, sphere.SphereIsometry(q).apply_rows(m.vertices),
                        m.faces, orientable=m.orientable, name="moved")
    mrep = evaluate_functionals(moved, ExtrinsicField.compute(moved))
    equiv = max(_rel(mrep.area, rep.area), _rel(mrep.willmore, rep.willmore))

    # flow conservation: area is held along the trace
    trace, _ = _flowed("tau31", 32, 8)
    areas = np.array([r["area"] for r in trace.rows])
    drift = float(abs(areas[-1] - areas[0]) / areas[0])

    ok = (geo_worst < 1e-10 and invol < 1e-12 and wire < 1e-9
          and equiv < 1e-8 and drift < 1e-9)
    _verdict(10, "property suites standalone", ok,
             f"exp/log roundtrip {geo_worst:.1e} (<1e-10), reflection "
             f"involution {invol:.1e} (<1e-12), wiring identities {wire:.1e} "
             f"(<1e-9), isometry equivariance {equiv:.1e} (<1e-8), flow area "
             f"drift {drift:.1e} (<1e-9)")
