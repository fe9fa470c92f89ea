"""spherelab benchmark: one workload per process, one client in a closed loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 28 --trace 0

A run sets up its inputs, then runs passes of the workload back to back
for ``--seconds``; the pass under way when the time is up runs to its end,
so a transport pass of about 20 s is measured twice in a 28 s run rather
than once.  ``--trace 0`` reports end-to-end metrics as medians over
passes.  ``--trace 1`` runs one untraced pass, then traced passes, and
reports per-layer metrics; the gap between the traced and untraced pass is
the tracing overhead.  Every metric is printed by name with its unit, the
last line is one JSON object, and the full result goes to
``.perfbench/results/``.  The exit code is 0 when the run completed, even if
an output check failed (then ``correct`` is false).
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spherelab.cli; "
                "print(time.perf_counter() - t)")
COMMANDS = ("build", "measure", "table", "flow", "ambient")


def import_seconds() -> float:
    """Time of ``import spherelab.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def setup_samples(wl) -> tuple:
    """``SETUP_ROUNDS`` timings of the import and of writing the inputs."""
    imports = [import_seconds() for _ in range(SETUP_ROUNDS)]
    writes = []
    for _ in range(SETUP_ROUNDS):
        t = time.perf_counter()
        wl.setup()
        writes.append(time.perf_counter() - t)
    return imports, writes


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def timed_pass(workload, tracer=None):
    """One pass: (Pass, wall seconds, index of its first span)."""
    first = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    p = tracer.run("pass", workload.run_pass) if tracer else workload.run_pass()
    return p, time.perf_counter() - start, first


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(workload, deadline: float, tracer=None) -> tuple:
    """Passes until ``deadline``, finishing the one under way; at least one.

    Also returns the peak RSS after the first pass, which unlike the peak at
    the end does not depend on how many passes fit.
    """
    out = [timed_pass(workload, tracer)]
    rss = peak_rss_mb()
    while time.perf_counter() < deadline:
        out.append(timed_pass(workload, tracer))
    return out, rss


def main(argv=None) -> int:
    from_root = ROOT / "src" / "spherelab" / "cli.py"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not from_root.is_file():
        print(f"error: no spherelab sources at {from_root.parent}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        return bench(args, spec, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, spec: dict, work: Path, results: Path) -> int:
    from workloads import WORKLOADS

    import spherelab.cli  # noqa: F401  (the in-process import, untimed)

    wl = WORKLOADS[args.workload](ROOT, work, args.seed)
    imports, writes = setup_samples(wl)

    deadline = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        from tracer import Tracer

        untraced = [timed_pass(wl)]
        rss = peak_rss_mb()
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(wl, deadline, tracer)
        finally:
            tracer.uninstall()
    else:
        (untraced, rss), traced = run_passes(wl, deadline), []
    # set up again after the passes, so that the medians span the machine's
    # changes of speed over the whole run, not only its first seconds
    more_imports, more_writes = setup_samples(wl)
    setup_s = statistics.median(imports + more_imports) + statistics.median(writes + more_writes)
    defect, defect_failures = wl.known_defect() if hasattr(wl, "known_defect") else (None, [])

    passes = [p for p, *_ in untraced + traced]
    failures, first_out = [], {}
    for p in passes:
        for op in p.ops:
            if first_out.setdefault(op.key, op.stdout) != op.stdout:
                p.check(False, f"{op.key}: output differs from the first pass", op)
        failures += p.failures
    failures += defect_failures
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(not op.ok for p in passes for op in p.ops)

    walls = [x[1] for x in untraced]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }

    def command_s(cmd):
        """Median over untraced passes of the time one command took in a pass."""
        return statistics.median([sum(op.seconds for op in p.ops if op.command == cmd)
                                  for p, *_ in untraced]) + 0.0

    commands = {f"{cmd}_s": command_s(cmd) for cmd in COMMANDS}
    commands["error_rate"] = failed / attempted

    layer = {}
    if args.trace:
        from tracer import COUNTS, LAYERS, layer_metrics

        stops = [first for *_, first in traced[1:]] + [len(tracer.spans)]
        per = [layer_metrics(tracer, first, stop, wall,
                             sum(op.output_bytes for op in p.ops))
               for (p, wall, first), stop in zip(traced, stops)]
        for key in per[0]:
            vals = [m[key] for m in per]
            if key in COUNTS and len(set(vals)) != 1:
                failures.append(f"count {key} differs between traced passes: {vals}")
            layer[key] = statistics.median(vals)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(walls)
        for m in per:
            total = sum(m[f"{x}.self_s"] for x in LAYERS + ("bench",))
            if abs(total - m["trace.wall_s"]) > 1e-3 * m["trace.wall_s"]:
                failures.append(f"self times add to {total!r}, traced wall is "
                                f"{m['trace.wall_s']!r}")
        tracer.write(results / f"{args.workload}-seed{args.seed}.spans.jsonl")

    env = environment()
    kind = "per_layer" if args.trace else "end_to_end"
    shown = layer | commands if args.trace else e2e | commands
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"untraced_passes={len(untraced)} traced_passes={len(traced)}")
    print("environment " + json.dumps(env, sort_keys=True))
    if defect is not None:
        print(f"known defect, not one of the measured operations: {defect}")
    for key, value in shown.items():
        print(f"{key} = {value!r} {units[key]}")
    for f in failures:
        print(f"CHECK FAILED: {f}")

    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": env, "failures": failures, "known_defect": defect,
            "metrics": shown, "untraced_walls": walls,
            "traced_walls": [x[1] for x in traced]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
