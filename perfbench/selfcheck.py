"""Steadiness self-check: run the benchmark once per seed and compare the runs.

    python3 perfbench/selfcheck.py --workload survey --seeds 1 2 3 4 5 --seconds 28
    python3 perfbench/selfcheck.py --workload survey --seeds 1 2 --seconds 28 --trace 1

With ``--trace 0`` it prints, for each end-to-end metric, the median and the
quartile spread (q3 - q1) / median over the runs, against the metric's bound
in BENCHMARK.json; a spread above the bound fails, except for ``setup_s``.
With ``--trace 1`` every count must repeat exactly from run to run.  Every
run must report ``correct`` with no failed operation.  Exits 1 on any
failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS  # noqa: E402

EXACT = COUNTS + ("flow.curvature_evals_per_step", "mesh.io_mb", "cli.output_mb")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    problems = []
    runs = []
    for seed in args.seeds:
        r = run(args.workload, seed, args.seconds, args.trace)
        runs.append(r)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                          if not args.trace or k in EXACT or k.endswith("self_s"))
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {values}", flush=True)
        if not r["correct"] or r["failed"]:
            problems.append(f"seed {seed}: correct={r['correct']} failed={r['failed']}")

    if args.trace:
        for key in EXACT:
            vals = {r["metrics"][key]["value"] for r in runs}
            if len(vals) != 1:
                problems.append(f"{key} differs between runs: {sorted(vals)}")
    else:
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"{m['name']}: median {med:.6g} {m['unit']}, spread {spread:.4f} "
                  f"(bound {m['bound']}, a third {m['bound'] / 3:.4f}) {verdict}")
            if spread > m["bound"] and m["name"] != "setup_s":
                problems.append(f"{m['name']} spread {spread:.4f} exceeds its bound")

    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
