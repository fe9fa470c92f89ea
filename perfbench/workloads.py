"""The three workloads, each driving spherelab through its public entry points.

survey      the ``spherelab`` commands in-process through ``cli.main(argv)``:
            build, measure, table.  The one-shot, large-array geometry path
            (quadric fit, Plateau descent, mesh validation and JSON i/o);
            nothing from ``flow`` or ``ambient`` runs.
uniformize  ``flow --tol 1e-4`` on a Lawson torus and the Veronese surface.
            The flow dominates, and it calls ``mesh`` as thousands of small
            metric evaluations instead of one validation of a large array,
            so a change that helps one use of ``mesh`` and hurts the other
            shows up in one of the two workloads.
transport   the ``ambient`` public API in the order ``cli.cmd_ambient`` calls
            it, keeping the ensembles the integrations return so that the
            transport itself can be checked (the command discards them).
            The k-d-tree closest-face search dominates.

Each pass returns the operations it ran and the output checks that failed.
The seed orders the commands of ``survey`` and ``uniformize`` and seeds the
extra particle ensemble of the ``transport`` known-defect probe; it never
changes what a command computes.

``known_defect()`` runs once per run, after the measured passes, and shows a
defect of the program that the measured operations avoid: it returns a line
to print and the failures of the checks that still hold despite the defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Op:
    key: str        # identifies the operation across passes
    command: str    # build, measure, table, flow or ambient
    seconds: float
    exit_code: int
    stdout: str
    output_bytes: int  # stdout and written file of a CLI command
    ok: bool = True  # false once one of its output checks fails


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str, *ops: Op) -> None:
        if not ok:
            self.failures.append(what)
            for op in ops:
                op.ok = False


def run_cli(argv: list, key: str, command: str, out_file: Path | None = None) -> Op:
    """``spherelab <argv>`` in-process, stdout captured."""
    from spherelab import cli

    buf, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    text = buf.getvalue()
    size = len(text.encode())
    if out_file is not None and out_file.exists():
        size += out_file.stat().st_size
    return Op(key, command, seconds, code, text + err.getvalue(), size)


def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _measured_area(stdout: str) -> float:
    # functional_csv row: name,area,...; names may contain commas, so
    # count the ten numeric columns from the right
    return float(stdout.splitlines()[1].split(",")[-10])


class Survey:
    name = "survey"

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.configs = {k: root / "configs" / f"{k}.json" for k in ("xi21", "xi31")}
        builds = {
            "sphere": ["sphere", "--level", "5"],
            "clifford": ["clifford", "--nu", "128", "--nv", "128"],
            "tau": ["tau", "--m", "3", "--k", "1", "--nu", "128", "--nv", "32"],
            "veronese": ["veronese", "--level", "4"],
            "xi21": ["xi", "--config", str(self.configs["xi21"])],
            "xi31": ["xi", "--config", str(self.configs["xi31"])],
        }
        order = sorted(builds)
        random.Random(seed).shuffle(order)
        self.builds = [(k, builds[k]) for k in order]

    def setup(self) -> None:
        pass

    def mesh(self, key: str) -> Path:
        return self.work / f"{key}.mesh.json"

    def run_pass(self) -> Pass:
        from spherelab.zoo import lawson_tau_area

        p = Pass()
        built = {}
        for key, argv in self.builds:
            op = run_cli(["build", *argv, "-o", str(self.mesh(key))], f"build {key}",
                         "build", self.mesh(key))
            p.ops.append(op)
            built[key] = op
        measured = {}
        for key, _ in self.builds:
            op = run_cli(["measure", "--mesh", str(self.mesh(key))], f"measure {key}",
                         "measure")
            p.ops.append(op)
            measured[key] = op
        table = ["veronese", "xi21", "xi31"]
        p.ops.append(run_cli(["table", "--meshes", *map(str, map(self.mesh, table))],
                             "table", "table"))
        for op in p.ops:
            p.check(op.exit_code == 0, f"{op.key} exited {op.exit_code}", op)
        if p.failures:
            return p

        area = {k: _measured_area(op.stdout) for k, op in measured.items()}
        exact = {"sphere": 4 * math.pi, "clifford": 2 * math.pi ** 2,
                 "veronese": 6 * math.pi, "tau": lawson_tau_area(3, 1)}
        for key, want in exact.items():
            p.check(abs(area[key] / want - 1) <= 1e-2,
                    f"area of {key} {area[key]!r} not within 1e-2 of {want!r}",
                    measured[key])
        for key, chi in (("xi21", -2), ("xi31", -4)):
            lines = built[key].stdout.splitlines()
            residual = float(_fields(lines[0])["residual"])
            tol = json.loads(self.configs[key].read_text())["tol"]
            p.check(residual <= tol, f"{key} Plateau residual {residual!r} > tol {tol!r}",
                    built[key])
            got = int(_fields(lines[1])["chi"])
            p.check(got == chi, f"{key} has chi {got}, want {chi}", built[key])
        p.check(2 * math.pi ** 2 < area["xi21"] < area["xi31"] < 8 * math.pi,
                f"area ordering 2pi^2 < xi21 < xi31 < 8pi fails: "
                f"{area['xi21']!r}, {area['xi31']!r}", measured["xi21"], measured["xi31"])
        return p

    def known_defect(self) -> tuple:
        """``build bipolar`` at its defaults; exits 2 (see README)."""
        code = run_cli(["build", "bipolar", "-o", str(self.mesh("bipolar"))],
                       "build bipolar", "build").exit_code
        line = f"build bipolar exit {code} (2 = MeshInvariantError)"
        return line, [] if code in (0, 2) else [f"build bipolar exited {code}, want 2 or 0"]


class Uniformize:
    name = "uniformize"
    inputs = {
        "tau": ["tau", "--m", "3", "--k", "1", "--nu", "64", "--nv", "16"],
        "veronese": ["veronese", "--level", "4"],
    }

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.order = sorted(self.inputs)
        random.Random(seed).shuffle(self.order)

    def mesh(self, key: str) -> Path:
        return self.work / f"{key}.mesh.json"

    def setup(self) -> None:
        for key, argv in self.inputs.items():
            op = run_cli(["build", *argv, "-o", str(self.mesh(key))], key, "build")
            if op.exit_code:
                raise RuntimeError(f"set-up build {key} exited {op.exit_code}: {op.stdout}")

    def run_pass(self) -> Pass:
        p = Pass()
        for key in self.order:
            out = self.work / f"{key}.trace.csv"
            op = run_cli(["flow", "--mesh", str(self.mesh(key)), "--tol", "1e-4",
                          "-o", str(out)], f"flow {key}", "flow", out)
            p.ops.append(op)
            p.check(op.exit_code == 0, f"{op.key} exited {op.exit_code}", op)
            if op.exit_code == 0:
                dev = float(_fields(op.stdout.splitlines()[0])["curvature_dev"])
                p.check(dev < 1e-4, f"{op.key} ended at curvature_dev {dev!r}", op)
        return p


class Transport:
    name = "transport"
    t_end = 0.25
    # the default --seed of ``spherelab ambient``; the --seed ensemble goes to
    # known_defect(), because surface particles leave the surface for some
    # seeds (see README)
    ensemble_seed = 7

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.path = work / "tau24x6.mesh.json"
        self.field = None

    def setup(self) -> None:
        op = run_cli(["build", "tau", "--m", "3", "--k", "1", "--nu", "24", "--nv", "6",
                      "-o", str(self.path)], "tau", "build")
        if op.exit_code:
            raise RuntimeError(f"set-up build exited {op.exit_code}: {op.stdout}")

    def run_pass(self) -> Pass:
        # module attributes are looked up at call time so that a traced
        # pass goes through the traced bindings
        from spherelab import ambient, flow, mesh
        from spherelab.errors import SpherelabError

        p = Pass()
        t0 = time.perf_counter()
        try:
            m = mesh.load_mesh(self.path)
            trace, u_field = flow.run_uniformization(m, tol=1e-4, max_steps=20000)
            u = u_field.values
            field_ = ambient.TubeField.from_flow(m, u)
            dt = 0.5 * field_.epsilon / (4.0 * ambient._gradient_bound(field_))
            self.field, self.dt = field_, dt
            ens0 = ambient.build_ensemble(field_, seed=self.ensemble_seed)
            ens = ambient.integrate_palais_flow(field_, ens0, t_end=self.t_end, dt=dt)
            carrier0 = ambient.ParticleEnsemble(m.vertices.copy(),
                                                ["vertex"] * m.n_vertices, [])
            carrier = ambient.integrate_palais_flow(field_, carrier0, t_end=self.t_end, dt=dt)
            tags = np.array(ens.tags)
            fixing = float(np.max(ambient.curved_surface_distance(
                field_, ens.positions[tags == "on_surface"])))
            report = ambient.conformality_residual(field_, carrier.positions, u,
                                                   surface_fixing_error=fixing)
            text = ambient.residual_json(report) + ambient.trajectory_csv(ens)
        except SpherelabError as err:
            op = Op("ambient", "ambient", time.perf_counter() - t0, 1, repr(err), 0)
            p.ops.append(op)
            p.check(False, f"ambient API raised {err!r}", op)
            return p
        op = Op("ambient", "ambient", time.perf_counter() - t0, 0, text, 0)
        p.ops.append(op)

        p.check(trace.rows[-1]["curvature_dev"] < 1e-4, "flow did not reach 1e-4", op)
        p.check(fixing < 1e-4, f"surface-fixing distance {fixing!r} >= 1e-4", op)
        p.check(all(math.isfinite(v) for v in report.values()),
                f"non-finite residual in {report}", op)
        for failure in (self._transport_failures(ens0, ens)
                        + self._transport_failures(carrier0, carrier, "vertices")):
            p.check(False, failure, op)
        return p

    def _transport_failures(self, before, after, name="particles") -> list:
        """Outside particles bit-identical and ``ceil(t_end/dt)`` RK4 steps."""
        out = []
        outside = np.array(before.tags) == "outside"
        if not np.array_equal(after.positions[outside], before.positions[outside]):
            out.append(f"{name}: outside particles moved")
        steps = math.ceil(self.t_end / self.dt - 1e-12)
        if len(after.log) - len(before.log) != steps:
            out.append(f"{name}: {len(after.log) - len(before.log)} RK4 steps, want {steps}")
        return out

    def known_defect(self) -> tuple:
        """Surface-fixing distance of the ``--seed`` ensemble after the transport.

        It is above 1e-4 for about a quarter of the seeds (see README), so it
        is printed, not checked; its other transport checks still hold.
        """
        from spherelab import ambient

        if self.field is None:
            return "transport probe not run: no pass built a tube field", []
        ens0 = ambient.build_ensemble(self.field, seed=self.seed)
        ens = ambient.integrate_palais_flow(self.field, ens0, t_end=self.t_end, dt=self.dt)
        on = np.array(ens.tags) == "on_surface"
        fixing = float(np.max(ambient.curved_surface_distance(self.field, ens.positions[on])))
        failures = self._transport_failures(ens0, ens)
        if not math.isfinite(fixing):
            failures.append(f"seed-{self.seed} ensemble: surface-fixing distance {fixing!r}")
        return (f"surface-fixing distance of the seed-{self.seed} ensemble {fixing!r} "
                f"(1e-4 is checked on the seed-{self.ensemble_seed} ensemble only)"), failures


WORKLOADS = {w.name: w for w in (Survey, Uniformize, Transport)}
