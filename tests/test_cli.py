import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherelab.mesh import load_mesh, save_mesh
from spherelab.zoo import great_sphere

REPO = Path(__file__).resolve().parents[1]
XI_CONFIG = str(REPO / "configs" / "xi21.json")


def _child_env():
    # the child runs from its own cwd, so this checkout's src goes first on
    # its path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, cwd, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "spherelab.cli", *args],
                          cwd=cwd, env=_child_env(), capture_output=True, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# build


def test_build_clifford_writes_mesh_file_and_counts(tmp_path):
    rc, out, _ = run_cli(["build", "clifford", "--nu", "16", "--nv", "16"], tmp_path)
    assert rc == 0
    assert "chi=0" in out and "orientable=True" in out
    assert "V=256" in out and "F=512" in out
    path = tmp_path / "clifford_torus-16x16.mesh.json"
    assert path.exists()
    # exact file schema: fixed field names
    doc = json.loads(path.read_text())
    assert set(doc) >= {"dimension", "vertices", "faces", "boundary_loops",
                       "orientable", "name"}
    mesh = load_mesh(path)
    assert mesh.n_vertices == 256 and mesh.dimension == 3


def test_build_veronese_is_nonorientable_chi_one(tmp_path):
    rc, out, _ = run_cli(["build", "veronese", "--level", "2"], tmp_path)
    assert rc == 0
    assert "chi=1" in out and "orientable=False" in out


def test_build_bipolar_welds_the_adapted_tau31_grid(tmp_path):
    rc, out, err = run_cli(["build", "bipolar", "--nu", "32", "--nv", "10",
                            "-o", "bipolar.mesh.json"], tmp_path)
    assert rc == 0, err
    assert "chi=0" in out and "orientable=False" in out
    assert load_mesh(tmp_path / "bipolar.mesh.json").is_closed


def test_build_bipolar_default_grid_names_the_sampling_constraint(tmp_path):
    # the default 64x64 grid has nv = 0 mod 4, which the deck maps do not permute
    rc, _, err = run_cli(["build", "bipolar"], tmp_path)
    assert rc == 2
    assert "nv = 2 mod 4" in err


def test_build_xi_reports_genus_two(tmp_path):
    rc, out, _ = run_cli(
        ["build", "xi", "--config", XI_CONFIG, "-o", "xi.mesh.json"], tmp_path)
    assert rc == 0
    assert "chi=-2" in out
    assert "plateau residual=" in out
    assert load_mesh(tmp_path / "xi.mesh.json").is_closed


def test_build_xi_wrong_genus_exits_validation(tmp_path):
    cfg = json.loads(open(XI_CONFIG).read())
    cfg["expected_genus"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc, _, err = run_cli(["build", "xi", "--config", str(bad)], tmp_path)
    assert rc == 2
    assert "WrongEuler" in err


def test_build_xi_short_of_tol_exits_numeric(tmp_path):
    # five iterations leave the patch far from minimal: a numeric failure,
    # not a mesh to measure
    cfg = json.loads(open(XI_CONFIG).read())
    cfg["max_iter"] = 5
    short = tmp_path / "short.json"
    short.write_text(json.dumps(cfg))
    rc, out, err = run_cli(["build", "xi", "--config", str(short),
                            "-o", "xi.mesh.json"], tmp_path)
    assert rc == 3
    assert "plateau residual=" in out and "iterations=5" in out
    assert "tol 0.001" in err and "max_iter 5" in err
    assert not (tmp_path / "xi.mesh.json").exists()


def test_build_xi_out_of_iterations_leaves_through_nonconvergence(tmp_path):
    # a missed tolerance is a NumericFailure like any other exit 3
    cfg = json.loads(open(XI_CONFIG).read())
    (tmp_path / "short.json").write_text(json.dumps(dict(cfg, max_iter=5)))
    rc, _, err = run_cli(["build", "xi", "--config", "short.json"], tmp_path)
    assert rc == 3
    assert "error: NonConvergence: plateau residual" in err


def test_build_xi_converging_on_its_last_allowed_iteration_writes_the_mesh(tmp_path):
    # xi21 meets its tol on iteration 12: a budget of 12 is enough
    cfg = json.loads(open(XI_CONFIG).read())
    (tmp_path / "budget.json").write_text(json.dumps(dict(cfg, max_iter=12)))
    rc, out, err = run_cli(["build", "xi", "--config", "budget.json",
                            "-o", "xi.mesh.json"], tmp_path)
    assert rc == 0, err
    assert "plateau residual=0.00071586191499688038 iterations=12" in out
    assert (tmp_path / "xi.mesh.json").exists()


@pytest.mark.parametrize("key, value, named", [
    ("tol", float("inf"), "tol = inf"),
    ("tol", float("nan"), "tol = nan"),
    ("tol", -1, "tol = -1"),
    ("max_iter", 0, "max_iter = 0"),
    ("max_iter", -3, "max_iter = -3"),
])
def test_build_xi_refuses_plateau_options_it_cannot_meet(tmp_path, key, value,
                                                         named):
    # tol = inf would write the unsolved patch as the surface (exit 0)
    cfg = json.loads(open(XI_CONFIG).read())
    (tmp_path / "bad.json").write_text(json.dumps(dict(cfg, **{key: value})))
    rc, out, err = run_cli(["build", "xi", "--config", "bad.json",
                            "-o", "xi.mesh.json"], tmp_path)
    assert rc == 2, err
    assert named in err and "plateau residual" not in out
    assert not (tmp_path / "xi.mesh.json").exists()


def test_build_xi_nan_generator_is_refused_as_not_orthogonal(tmp_path):
    cfg = json.loads(open(XI_CONFIG).read())
    cfg["generators"][0][0][0] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    rc, _, err = run_cli(["build", "xi", "--config", "bad.json"], tmp_path)
    assert rc == 2
    assert "matrix is not orthogonal: |Q^T Q - I| = nan" in err


def test_unknown_builder_rejected_before_computation(tmp_path):
    rc, _, err = run_cli(["build", "mobius"], tmp_path)
    assert rc == 2


def test_nonpositive_tolerance_rejected(tmp_path):
    run_cli(["build", "clifford", "--nu", "8", "--nv", "8"], tmp_path)
    rc, _, err = run_cli(
        ["flow", "--mesh", "clifford_torus-8x8.mesh.json", "--tol", "-1"], tmp_path)
    assert rc == 2
    assert "positive" in err


_LAZY_IMPORT_PROBE = """
import json, sys
import spherelab.cli as cli
lazy = ("scipy.integrate", "scipy.spatial")
seen = {"import": [m in sys.modules for m in lazy]}
assert cli.main(["build", "clifford", "--nu", "8", "--nv", "8", "-o", "c.mesh.json"]) == 0
assert cli.main(["measure", "--mesh", "c.mesh.json", "-o", "c.csv"]) == 0
assert cli.main(["flow", "--mesh", "c.mesh.json", "-o", "c.trace.csv"]) == 0
assert cli.main(["table", "--meshes", "c.mesh.json", "-o", "t.csv"]) == 0
seen["commands"] = [m in sys.modules for m in lazy]
from spherelab.mesh import load_mesh
from spherelab.zoo import lawson_tau_area, weld_vertices
mesh = load_mesh("c.mesh.json")
weld_vertices(mesh.dimension, mesh.vertices, mesh.faces)
lawson_tau_area(3, 1)
seen["called"] = [m in sys.modules for m in lazy]
print(json.dumps(seen))
"""


def test_quadrature_and_tree_are_imported_only_where_they_run(tmp_path):
    # measure, flow, table and build clifford call neither quad nor a k-d
    # tree; the imports still happen inside the functions that use them
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_PROBE], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [False, False], "commands": [False, False],
                    "called": [True, True]}


# ---------------------------------------------------------------------------
# measure


def test_measure_clifford_row_and_determinism(tmp_path):
    run_cli(["build", "clifford", "--nu", "24", "--nv", "24"], tmp_path)
    args = ["measure", "--mesh", "clifford_torus-24x24.mesh.json", "-o", "m.csv"]
    rc, out1, _ = run_cli(args, tmp_path)
    assert rc == 0
    header, row = out1.splitlines()[:2]
    assert header.startswith("name,area,theta,psi,pi,willmore,")
    cells = row.split(",")
    area, willmore = float(cells[1]), float(cells[5])
    assert abs(area - 2 * np.pi ** 2) < 0.01 * 2 * np.pi ** 2
    assert abs(willmore - 8 * np.pi ** 2) < 0.02 * 8 * np.pi ** 2
    # torus: chi = 0 so sigma = 0 exactly
    assert cells[9] == "0"
    # reruns must be byte-identical, not merely numerically close
    rc, out2, _ = run_cli(args, tmp_path)
    assert out1 == out2
    # the written file carries the same text the command printed
    assert (tmp_path / "m.csv").read_text() == out1[: out1.index("wrote")]


def test_measure_of_a_mesh_file_reports_the_built_meshs_willmore_energy(tmp_path):
    from spherelab.extrinsic import ExtrinsicField
    from spherelab.functionals import evaluate_functionals
    from spherelab.zoo import lawson_tau

    rc, _, err = run_cli(["build", "tau", "--m", "3", "--k", "1", "--nu", "64", "--nv", "16",
                          "-o", "tau.mesh.json"], tmp_path)
    assert rc == 0, err
    rc, out, err = run_cli(["measure", "--mesh", "tau.mesh.json"], tmp_path)
    assert rc == 0, err
    # the name holds commas: willmore is the sixth column from the right
    willmore = float(out.splitlines()[1].split(",")[-6])
    built = lawson_tau(3, 1, 64, 16)
    assert willmore == evaluate_functionals(built, ExtrinsicField.compute(built)).willmore
    assert abs(willmore - 170.0354) < 1e-4


def test_measure_missing_file_is_io_error(tmp_path):
    rc, _, err = run_cli(["measure", "--mesh", "nope.mesh.json"], tmp_path)
    assert rc == 4


def _last_face_off_grid(doc):
    faces = [list(f) for f in doc["faces"]]
    faces[-1][2] += 0.5  # an int64 cast would read the same face
    return dict(doc, faces=faces)


def test_measure_nan_vertex_is_refused_naming_the_vertex_norms(tmp_path):
    doc = great_sphere(1).to_dict()
    doc["vertices"][0][0] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    rc, _, err = run_cli(["measure", "--mesh", "bad.json"], tmp_path)
    assert rc == 2
    assert "vertex norms deviate from 1 by nan" in err


@pytest.mark.parametrize("command, edit, named", [
    ("measure", lambda doc: [], "JSON object"),
    ("measure", lambda doc: dict(doc, boundary_loops=5), "'boundary_loops'"),
    ("measure", _last_face_off_grid, "'faces'"),
    ("measure", lambda doc: dict(doc, dimension=[3]), "'dimension'"),
    ("measure", lambda doc: dict(doc, vertices={}), "'vertices'"),
    ("measure", lambda doc: dict(doc, orientable="false"), "'orientable'"),
    ("measure", lambda doc: dict(doc, boundary_loops=[[[0, 1]]]), "'boundary_loops'"),
    ("build", lambda cfg: [], "JSON object"),
    ("build", lambda cfg: dict(cfg, boundary_vertices=3), "'boundary_vertices'"),
    ("build", lambda cfg: dict(cfg, tol=[1e-3]), "'tol'"),
    ("build", lambda cfg: dict(cfg, max_iter=2.5), "'max_iter'"),
], ids=["mesh-list", "mesh-loops-int", "mesh-face-float", "mesh-dimension-list",
        "mesh-vertices-object", "mesh-orientable-string", "mesh-loop-nested",
        "config-list", "config-corners-int", "config-tol-list",
        "config-max-iter-float"])
def test_malformed_input_files_exit_two_naming_the_field(tmp_path, command,
                                                         edit, named):
    if command == "measure":
        source = tmp_path / "s.mesh.json"
        save_mesh(great_sphere(1), source)
        args = ["measure", "--mesh", "bad.json"]
    else:
        source = Path(XI_CONFIG)
        args = ["build", "xi", "--config", "bad.json", "-o", "xi.mesh.json"]
    doc = edit(json.loads(source.read_text()))
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    rc, _, err = run_cli(args, tmp_path)
    assert rc == 2 and "Traceback" not in err, err
    assert named in err


# ---------------------------------------------------------------------------
# flow


def test_flow_sphere_converges_fast(tmp_path):
    # the smooth sphere is already uniformized; its discrete stand-in only
    # has to even out the valence-5/6 angle-defect spread, a few dozen steps
    run_cli(["build", "sphere", "--level", "2"], tmp_path)
    meshfile = next(tmp_path.glob("*.mesh.json")).name
    rc, out, _ = run_cli(["flow", "--mesh", meshfile, "-o", "trace.csv"], tmp_path)
    assert rc == 0
    steps = int(out.split("steps=")[1].split()[0])
    assert steps <= 50
    dev = float(out.split("curvature_dev=")[1].split()[0])
    assert dev < 1e-4
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,")


def test_flow_tau31_converges_to_zero_mean_curvature_target(tmp_path):
    run_cli(["build", "tau", "--m", "3", "--k", "1", "--nu", "32", "--nv", "8"],
            tmp_path)
    meshfile = next(tmp_path.glob("lawson*.mesh.json")).name
    rc, out, _ = run_cli(["flow", "--mesh", meshfile], tmp_path)
    assert rc == 0
    # chi = 0: the flow's curvature target is exactly zero; the printed
    # mean is the measured integral over the final metric, so only
    # summation rounding separates it from zero
    s_bar = float(out.split("s_bar=")[1].split()[0])
    assert abs(s_bar) < 1e-12
    dev = float(out.split("curvature_dev=")[1].split()[0])
    assert dev < 1e-4


def test_flow_exhausted_step_budget_exits_three_with_partial_trace(tmp_path):
    run_cli(["build", "tau", "--m", "3", "--k", "1", "--nu", "24", "--nv", "6"],
            tmp_path)
    meshfile = next(tmp_path.glob("lawson*.mesh.json")).name
    rc, out, err = run_cli(
        ["flow", "--mesh", meshfile, "--tol", "1e-12", "--max-steps", "1",
         "-o", "partial.csv"], tmp_path)
    assert rc == 3
    assert "NonConvergence" in err
    assert (tmp_path / "partial.csv").exists()


def test_flow_within_tol_on_its_last_allowed_step_exits_zero(tmp_path):
    run_cli(["build", "tau", "--nu", "32", "--nv", "8", "-o", "t.mesh.json"],
            tmp_path)
    rc, out, err = run_cli(["flow", "--mesh", "t.mesh.json", "--tol", "1e-3",
                            "--max-steps", "2", "-o", "t.csv"], tmp_path)
    assert rc == 0, err
    assert out.startswith("steps=2 ")
    assert (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# ambient


def test_ambient_emits_residuals_and_trajectories(tmp_path):
    run_cli(["build", "tau", "--m", "3", "--k", "1", "--nu", "24", "--nv", "6"],
            tmp_path)
    meshfile = next(tmp_path.glob("lawson*.mesh.json")).name
    rc, out, err = run_cli(
        ["ambient", "--mesh", meshfile, "--t-end", "0.1", "--out-dir", "amb"],
        tmp_path)
    assert rc == 0, err
    report = json.loads((tmp_path / "amb" / "residuals.json").read_text())
    assert set(report) == {"max_H_after", "max_conformality_residual",
                           "median_conformality_residual", "surface_fixing_error"}
    assert float(report["surface_fixing_error"]) < 1e-4
    lines = (tmp_path / "amb" / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "particle_id,tag,t,x0,x1,x2,x3"
    tags = {ln.split(",")[1] for ln in lines[1:]}
    assert tags == {"on_surface", "in_tube", "outside"}
    # the integrated trajectories are written, not just the seeded positions
    assert float(lines[-1].split(",")[2]) == 0.1


def test_ambient_off_the_surface_exits_three_after_writing_its_files(tmp_path):
    # seed 5 leaves surface particles 2.75e-4 off the curved surface at
    # t = 0.25, above the 1e-4 bound (the default seed at t = 0.1 stays
    # within 1e-15 and exits 0: test_ambient_emits_residuals_and_trajectories)
    run_cli(["build", "tau", "--nu", "24", "--nv", "6", "-o", "t.mesh.json"],
            tmp_path)
    rc, out, err = run_cli(["ambient", "--mesh", "t.mesh.json", "--t-end", "0.25",
                            "--seed", "5", "--out-dir", "amb"], tmp_path)
    assert rc == 3
    assert ("error: SurfaceNotFixed: surface_fixing_error 0.00027477949769572643 "
            "is not within 0.0001") in err
    assert (tmp_path / "amb" / "residuals.json").exists()
    assert (tmp_path / "amb" / "trajectories.csv").exists()
    assert '"surface_fixing_error": "0.00027477949769572643"' in out


def test_ambient_too_wide_a_tube_exits_two(tmp_path):
    run_cli(["build", "tau", "--m", "3", "--k", "1", "--nu", "24", "--nv", "6"],
            tmp_path)
    meshfile = next(tmp_path.glob("lawson*.mesh.json")).name
    # no outside particle fits beyond 2.1 epsilon on this surface; the
    # timeout turns a sampling loop without exit into a failure
    rc, _, err = run_cli(["ambient", "--mesh", meshfile, "--epsilon", "0.25",
                          "--t-end", "0.01", "--out-dir", "amb"], tmp_path,
                         timeout=120)
    assert rc == 2
    assert "epsilon = 0.25" in err


def test_ambient_on_a_uniform_surface_moves_nothing(tmp_path):
    # the Clifford torus is uniformized from the start: u is 0, so is the
    # gradient bound, and the default dt must not divide by it
    run_cli(["build", "clifford", "--nu", "16", "--nv", "16", "-o",
             "s.mesh.json"], tmp_path)
    rc, _, err = run_cli(["ambient", "--mesh", "s.mesh.json", "--t-end", "0.1",
                          "--out-dir", "amb"], tmp_path, timeout=120)
    assert rc == 0, err
    rows = [ln.split(",") for ln in
            (tmp_path / "amb" / "trajectories.csv").read_text().splitlines()[1:]]
    assert sorted({float(r[2]) for r in rows}) == [0.0, 0.1]
    start = {r[0]: r[3:] for r in rows if float(r[2]) == 0.0}
    end = {r[0]: r[3:] for r in rows if float(r[2]) == 0.1}
    assert len(start) == 60 and end == start


@pytest.mark.parametrize("command, args, name", [
    ("flow", ["--max-steps", "0"], "max_steps"),
    ("flow", ["--max-steps", "-3"], "max_steps"),
    ("ambient", ["--t-end", "-0.1"], "t_end"),
    ("ambient", ["--dt", "-0.001"], "dt"),
    ("ambient", ["--t-end", "inf"], "t_end"),
    ("ambient", ["--epsilon", "nan"], "epsilon"),
    ("ambient", ["--flow-tol", "nan"], "tol"),
    ("flow", ["--tol", "nan"], "tol"),
    ("flow", ["--tol", "inf"], "tol"),
])
def test_invalid_step_inputs_exit_two_naming_the_argument(tmp_path, command,
                                                          args, name):
    # the Clifford torus is uniformized from the start, so only the invalid
    # input can stop the flow; the ambient flow needs a nonzero factor
    surface = (["clifford", "--nu", "16", "--nv", "16"] if command == "flow" else
               ["tau", "--m", "3", "--k", "1", "--nu", "24", "--nv", "6"])
    run_cli(["build", *surface, "-o", "s.mesh.json"], tmp_path)
    rc, _, err = run_cli([command, "--mesh", "s.mesh.json", *args], tmp_path,
                         timeout=300)
    assert rc == 2, err
    assert f"{name} =" in err


# ---------------------------------------------------------------------------
# exit codes


_NUMERIC_CLASSES = {"NonConvergence", "StalledDescent", "ClosestPointAmbiguous",
                    "NotMinimalAtResolution", "WeldFailure", "IllConditionedFit",
                    "InsufficientNeighborhood", "SurfaceNotFixed"}


def test_the_error_type_decides_between_exit_two_and_three(monkeypatch, tmp_path):
    # a failed computation exits 3, bad input exits 2, for every error the
    # package raises
    import inspect

    from spherelab import cli, errors

    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.SpherelabError)
               and c not in (errors.SpherelabError, errors.NumericFailure)]
    assert _NUMERIC_CLASSES < {c.__name__ for c in classes}
    codes = {}
    for cls in classes:
        err = cls("boom", 1.0, 1) if cls is errors.StalledDescent else cls("boom")

        def load_mesh(path, err=err):
            raise err

        monkeypatch.setattr(cli, "load_mesh", load_mesh)
        codes[cls.__name__] = cli.main(["measure", "--mesh", str(tmp_path / "m.json")])
    assert {name for name, code in codes.items() if code == 3} == _NUMERIC_CLASSES
    assert {code for name, code in codes.items() if name not in _NUMERIC_CLASSES} == {2}


# ---------------------------------------------------------------------------
# table


def test_table_over_mixed_surfaces(tmp_path):
    run_cli(["build", "sphere", "--level", "2"], tmp_path)
    run_cli(["build", "clifford", "--nu", "16", "--nv", "16"], tmp_path)
    meshes = sorted(p.name for p in tmp_path.glob("*.mesh.json"))
    rc, out, _ = run_cli(["table", "--meshes", *meshes, "-o", "table.csv"], tmp_path)
    assert rc == 0
    assert out.splitlines()[0] == "name,willmore,sigma,w_in_range,sigma_in_bound"
    assert "all_sigma_in_bound,1" in out
    assert "sphere_attains_lower_end,1" in out
    rc2, out2, _ = run_cli(["table", "--meshes", *meshes], tmp_path)
    assert out2.startswith(out.split("wrote")[0])


def test_threads_flag_is_rejected(tmp_path):
    # BLAS reads its thread count when numpy is imported, before any flag is
    # parsed, so the CLI has no --threads option
    rc, _, err = run_cli(["--threads", "2", "build", "clifford",
                          "--nu", "8", "--nv", "8"], tmp_path)
    assert rc == 2
    assert err.startswith("usage: spherelab")
