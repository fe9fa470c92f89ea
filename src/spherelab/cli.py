"""Batch front end: build surfaces, measure them, run flows, emit tables.

One command per process.  Exit codes: 0 success, 2 validation failure,
3 numerical non-convergence, 4 I/O trouble.  The error's type decides
between 2 and 3: a ``NumericFailure`` exits 3, any other ``SpherelabError``
(and a ``ValueError`` or ``KeyError``) exits 2.  Every number prints with 17
significant digits and all summation orders are fixed, so rerunning a
command with the same arguments produces byte-identical output; the only
randomness anywhere is the particle placement of ``ambient``, seeded by
``--seed`` with a fixed default.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .ambient import (
    SURFACE_FIXING_BOUND,
    ParticleEnsemble,
    TubeField,
    build_ensemble,
    conformality_residual,
    curved_surface_distance,
    integrate_palais_flow,
    residual_json,
    trajectory_csv,
)
from .errors import (NonConvergence, NumericFailure, SpherelabError,
                     SurfaceNotFixed)
from .extrinsic import ExtrinsicField
from .flow import run_uniformization, trace_csv
from .functionals import (evaluate_functionals, functional_csv, sigma_of_class,
                          willmore_bound_table)
from .mesh import euler_characteristic, load_mesh, save_mesh
from .plateau import build_xi
from .zoo import bipolar, clifford_torus, great_sphere, lawson_tau, veronese_rp2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _g(x) -> str:
    return f"{float(x):.17g}"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "mesh"


def _write(path, text: str) -> None:
    Path(path).write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# build


def _built_mesh(args):
    if args.surface == "sphere":
        return great_sphere(args.level)
    if args.surface == "clifford":
        return clifford_torus(args.nu, args.nv)
    if args.surface == "tau":
        return lawson_tau(args.m, args.k, args.nu, args.nv)
    if args.surface == "veronese":
        return veronese_rp2(args.level)
    if args.surface == "bipolar":
        # tau_{3,1} welds only on the grid its deck maps permute
        sampling = "bipolar" if (args.m, args.k) == (3, 1) else "uniform"
        return bipolar(lawson_tau(args.m, args.k, args.nu, args.nv, sampling)).mesh
    if args.surface == "xi":
        if not args.config:
            raise ValueError("build xi needs --config")
        mesh, solution = build_xi(args.config)
        print(f"plateau residual={_g(solution.residual)} "
              f"iterations={solution.iterations} patch_area={_g(solution.area)}")
        if not solution.residual < solution.tol:
            raise NonConvergence(
                f"plateau residual {_g(solution.residual)} is not below tol "
                f"{_g(solution.tol)} after max_iter {solution.iterations} "
                "iterations; the patch is not minimal")
        return mesh
    raise ValueError(f"unknown builder: {args.surface}")


def cmd_build(args) -> int:
    mesh = _built_mesh(args)
    chi = euler_characteristic(mesh)
    print(f"name={mesh.name} chi={chi} V={mesh.n_vertices} E={mesh.n_edges} "
          f"F={mesh.n_faces} orientable={mesh.orientable}")
    out = args.output or f"{_safe_name(mesh.name)}.mesh.json"
    save_mesh(mesh, out)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# measure


def _measure_text(mesh) -> str:
    rep = evaluate_functionals(mesh, ExtrinsicField.compute(mesh))
    sig = sigma_of_class(rep.willmore, rep.euler)
    out = functional_csv([(mesh.name, rep)])
    out += ("\nclass_area_a,s2a,sigma_class,bounds_ok\n"
            f"{sig.class_area_a:.17g},{sig.s2a:.17g},"
            f"{sig.sigma_class:.17g},{int(sig.bounds_ok)}\n")
    return out


def cmd_measure(args) -> int:
    mesh = load_mesh(args.mesh)
    text = _measure_text(mesh)
    sys.stdout.write(text)
    if args.output:
        _write(args.output, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow


def cmd_flow(args) -> int:
    mesh = load_mesh(args.mesh)
    out = args.output or f"{_safe_name(mesh.name)}.trace.csv"
    try:
        trace, u = run_uniformization(mesh, tol=args.tol, max_steps=args.max_steps)
    except NonConvergence as err:
        if getattr(err, "trace", None) is not None:
            _write(out, trace_csv(err.trace))
        raise
    last = trace.rows[-1]
    print(f"steps={last['step']} time={_g(last['time'])} "
          f"curvature_dev={_g(last['curvature_dev'])} area={_g(last['area'])} "
          f"s_bar={_g(last['total_scalar'] / last['area'])} "
          f"willmore_proxy={_g(last['willmore_proxy'])}")
    _write(out, trace_csv(trace))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ambient


def cmd_ambient(args) -> int:
    mesh = load_mesh(args.mesh)
    _, u_field = run_uniformization(mesh, tol=args.flow_tol, max_steps=args.max_steps)
    u = u_field.values
    field = TubeField.from_flow(mesh, u, epsilon=args.epsilon)
    dt = args.dt or None
    ensemble = integrate_palais_flow(field, build_ensemble(field, seed=args.seed),
                                     t_end=args.t_end, dt=dt)
    carrier = ParticleEnsemble(mesh.vertices.copy(), ["vertex"] * mesh.n_vertices, [])
    carrier = integrate_palais_flow(field, carrier, t_end=args.t_end, dt=dt)
    on_surface = ensemble.positions[np.array(ensemble.tags) == "on_surface"]
    fixing = float(np.max(curved_surface_distance(field, on_surface)))
    report = conformality_residual(field, carrier.positions, u,
                                   surface_fixing_error=fixing)

    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rj = residual_json(report)
    sys.stdout.write(rj + "\n")
    _write(outdir / "residuals.json", rj + "\n")
    _write(outdir / "trajectories.csv", trajectory_csv(ensemble))
    if not fixing <= SURFACE_FIXING_BOUND:  # a NaN distance fails too
        raise SurfaceNotFixed(
            f"surface_fixing_error {_g(fixing)} is not within "
            f"{_g(SURFACE_FIXING_BOUND)}: surface particles left the surface")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    rows = []
    for path in args.meshes:
        mesh = load_mesh(path)
        rows.append((mesh.name, evaluate_functionals(mesh, ExtrinsicField.compute(mesh))))
    table = willmore_bound_table(rows)
    lines = ["name,willmore,sigma,w_in_range,sigma_in_bound"]
    for r in table["rows"]:
        lines.append(f"{r['name']},{r['willmore']:.17g},{r['sigma']:.17g},"
                     f"{int(r['w_in_range'])},{int(r['sigma_in_bound'])}")
    lines.append("")
    for key in sorted(table["summary"]):
        lines.append(f"{key},{int(table['summary'][key])}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        _write(args.output, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spherelab",
        description="surfaces minimally embedded in round spheres: "
                    "builders, functionals, flows")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a surface and write its mesh file")
    b.add_argument("surface", choices=["sphere", "clifford", "tau", "veronese",
                                       "bipolar", "xi"])
    b.add_argument("--level", type=int, default=3)
    b.add_argument("--nu", type=int, default=64)
    b.add_argument("--nv", type=int, default=64)
    b.add_argument("--m", type=int, default=3)
    b.add_argument("--k", type=int, default=1)
    b.add_argument("--config", help="Plateau config JSON (build xi)")
    b.add_argument("-o", "--output")
    b.set_defaults(func=cmd_build)

    m = sub.add_parser("measure", help="functional + sigma report for a mesh file")
    m.add_argument("--mesh", required=True)
    m.add_argument("-o", "--output")
    m.set_defaults(func=cmd_measure)

    f = sub.add_parser("flow", help="area-preserving uniformization flow")
    f.add_argument("--mesh", required=True)
    f.add_argument("--tol", type=float, default=1e-4)
    f.add_argument("--max-steps", type=int, default=20000)
    f.add_argument("-o", "--output")
    f.set_defaults(func=cmd_flow)

    a = sub.add_parser("ambient", help="tube-extended ambient flow: residuals + trajectories")
    a.add_argument("--mesh", required=True)
    a.add_argument("--flow-tol", type=float, default=1e-4)
    a.add_argument("--max-steps", type=int, default=20000)
    a.add_argument("--t-end", type=float, default=1.0)
    a.add_argument("--dt", type=float, default=0.0,
                   help="integration step (default: half the largest stable step)")
    a.add_argument("--epsilon", type=float, default=None,
                   help="tube half-width (default: from the surface's bending scale)")
    a.add_argument("--seed", type=int, default=7)
    a.add_argument("--out-dir", default=".")
    a.set_defaults(func=cmd_ambient)

    t = sub.add_parser("table", help="Willmore bound table over mesh files")
    t.add_argument("--meshes", nargs="+", required=True)
    t.add_argument("-o", "--output")
    t.set_defaults(func=cmd_table)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (SpherelabError, ValueError, KeyError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
