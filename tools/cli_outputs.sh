#!/usr/bin/env bash
# Run a fixed set of spherelab CLI commands against this checkout's src and
# write every command's stdout (<step>.out) and every file it writes into
# OUTDIR.  Two checkouts give output trees that `diff -r` compares, which is
# how a refactor shows that the CLI output stays byte-identical.  Steps that
# exercise a failure path also keep stderr (<step>.err) and the exit code
# (<step>.code) instead of aborting the script.
#
#   tools/cli_outputs.sh OUTDIR
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
REPO=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
cd "$OUT"
export PYTHONPATH="$REPO/src"

run() {
    local step=$1
    shift
    python -m spherelab.cli "$@" > "$step.out"
}

run_code() {
    local step=$1
    shift
    local code=0
    python -m spherelab.cli "$@" > "$step.out" 2> "$step.err" || code=$?
    echo "$code" > "$step.code"
}

run build_sphere build sphere --level 4 -o sphere.mesh.json
run build_clifford build clifford --nu 64 --nv 64 -o clifford.mesh.json
run build_tau31 build tau --m 3 --k 1 --nu 64 --nv 16 -o tau31.mesh.json
run build_veronese build veronese --level 4 -o veronese.mesh.json
run build_xi21 build xi --config "$REPO/configs/xi21.json" -o xi21.mesh.json
run build_xi31 build xi --config "$REPO/configs/xi31.json" -o xi31.mesh.json
run build_tau24 build tau --m 3 --k 1 --nu 24 --nv 6 -o tau24.mesh.json
run build_tau21 build tau --m 2 --k 1 --nu 32 --nv 16 -o tau21.mesh.json
run build_tau32 build tau --m 3 --k 1 --nu 32 --nv 8 -o tau32.mesh.json

meshes=(sphere clifford tau31 veronese xi21 xi31)
for m in "${meshes[@]}"; do
    run "measure_$m" measure --mesh "$m.mesh.json" -o "$m.measure.csv"
done
run table table --meshes "${meshes[@]/%/.mesh.json}" -o table.csv
# the fit on this mesh sets the default tube radius of ambient_tau24
run measure_tau24 measure --mesh tau24.mesh.json -o tau24.measure.csv

run flow_tau31 flow --mesh tau31.mesh.json -o tau31.trace.csv
run flow_veronese flow --mesh veronese.mesh.json -o veronese.trace.csv
# the paper's deformation: a chi < 0 Lawson surface to s_bar = 4 pi chi / a < 0
run flow_xi21 flow --mesh xi21.mesh.json -o xi21.trace.csv
# its tube field on the paper's embedded genus-2 surface, which has no sheet ties
run ambient_xi21 ambient --mesh xi21.mesh.json --t-end 0.1 --out-dir ambient_xi21
run ambient_tau24 ambient --mesh tau24.mesh.json --t-end 0.1 --out-dir ambient
# the benchmark's horizon on a seed whose surface particles leave the surface:
# both files are written, then exit 3
run_code ambient_tau24_seed5 ambient --mesh tau24.mesh.json --t-end 0.25 --seed 5 \
    --out-dir ambient_seed5
# the CLI's own horizon t_end = 1.0, every default: exit 3 on both surfaces
run_code ambient_tau24_default ambient --mesh tau24.mesh.json --out-dir ambient_default
run_code ambient_xi21_default ambient --mesh xi21.mesh.json \
    --out-dir ambient_xi21_default
# at that horizon seed 2 meets a sheet tie where u disagrees: exit 3
run_code ambient_tau24_tie ambient --mesh tau24.mesh.json --seed 2 \
    --out-dir ambient_tie
run_code flow_budget flow --mesh tau31.mesh.json --tol 1e-12 --max-steps 5 \
    -o tau31_budget.trace.csv
# the 2nd and last allowed step meets the tol: exit 0
run_code flow_tau32_budget flow --mesh tau32.mesh.json --tol 1e-3 --max-steps 2 \
    -o tau32_budget.trace.csv
run_code bipolar_tau31 build bipolar --nu 32 --nv 10 -o bipolar.mesh.json
# exactly minimal, though its cotan max |H| stays near 0.067 at every level
run_code build_veronese6 build veronese --level 6 -o veronese6.mesh.json
run_code flow_no_steps flow --mesh clifford.mesh.json --max-steps 0 \
    -o clifford_no_steps.trace.csv
run_code ambient_negative_dt ambient --mesh tau24.mesh.json --t-end 0.1 \
    --dt -0.001 --out-dir ambient_negative_dt
run_code ambient_uniform ambient --mesh clifford.mesh.json --t-end 0.1 \
    --out-dir ambient_uniform
run_code ambient_infinite_t_end ambient --mesh tau24.mesh.json --t-end inf \
    --out-dir ambient_infinite_t_end
# no point of S^3 lies beyond 2.1 epsilon of this surface: exit 2, and the
# centroid bound refuses it without an exact distance
run_code ambient_too_wide ambient --mesh tau24.mesh.json --epsilon 0.25 \
    --t-end 0.01 --out-dir ambient_wide
run_code flow_nan_tol flow --mesh clifford.mesh.json --tol nan --max-steps 5 \
    -o clifford_nan_tol.trace.csv
# variants of configs/xi21.json: a five-iteration budget, a twelve-iteration
# budget the descent meets on its last iteration, the Plateau path on a finer
# initial disk, a genus the assembled surface does not have, and a tolerance
# no residual can miss (json writes it as Infinity)
python -c 'import json, sys
cfg = json.load(open(sys.argv[1]))
open("xi21_short.json", "w").write(json.dumps(dict(cfg, max_iter=5), indent=2))
open("xi21_budget.json", "w").write(json.dumps(dict(cfg, max_iter=12), indent=2))
open("xi21_r24.json", "w").write(json.dumps(dict(cfg, resolution=24), indent=2))
open("xi21_wrong_genus.json", "w").write(
    json.dumps(dict(cfg, expected_genus=1), indent=2))
open("xi21_tol_inf.json", "w").write(
    json.dumps(dict(cfg, tol=float("inf")), indent=2))' \
    "$REPO/configs/xi21.json"
run_code build_xi_short build xi --config xi21_short.json -o xi21_short.mesh.json
# the same mesh as xi21.mesh.json, exit 0
run_code build_xi_budget build xi --config xi21_budget.json -o xi21_budget.mesh.json
# WrongEuler is not a numeric failure: exit 2
run_code build_xi_wrong_genus build xi --config xi21_wrong_genus.json \
    -o xi21_wrong_genus.mesh.json
# it would skip the descent and write the initial disk's orbit: exit 2
run_code build_xi_tol_inf build xi --config xi21_tol_inf.json -o xi21_tol_inf.mesh.json
run build_xi21_r24 build xi --config xi21_r24.json -o xi21_r24.mesh.json
run measure_xi21_r24 measure --mesh xi21_r24.mesh.json -o xi21_r24.measure.csv
