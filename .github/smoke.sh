# Command-line smoke test: runs solve, welfare, check and sweep on configs/
# and on generated markets, asserting exit codes and stderr.  Run it from
# the repository root with the flags of a GitHub Actions bash step:
#   bash --noprofile --norc -eo pipefail .github/smoke.sh
export PYTHONPATH=src
tmp=$(mktemp -d)
expect() {
  want=$1; shift
  rc=0
  python -W error::RuntimeWarning -m datamarket "$@" > "$tmp/out" 2> "$tmp/err" || rc=$?
  if [ "$rc" != "$want" ] || { [ "$want" = 0 ] && [ -s "$tmp/err" ]; }; then
    echo "datamarket $*: exit $rc (want $want), stderr:"; cat "$tmp/err"; exit 1
  fi
}
expect 0 solve configs/two_firm.json
expect 0 welfare configs/two_firm.json
expect 0 check configs/two_firm.json
expect 3 check configs/two_firm.json --perturb 1,1,0.5
expect 1 check configs/two_firm.json --samples 1000
expect 1 check configs/two_firm.json --steps 41
expect 1 check configs/two_firm.json --radius 0.5
# a slope near 1e300: the best replies' arithmetic must not warn
expect 3 check configs/two_firm.json --perturb 1,1,1e300
expect 0 check configs/two_firm_decoupled.json
expect 1 check configs/two_firm_decoupled.json --perturb 1,1,-2.3
# alpha 1e22 shrinks source 1's variance and its payment floor to
# about 1e-21, below the rounding of an exact zero in the
# leave-one-out operator: the payment check must still pass
python - configs/two_firm_decoupled.json > "$tmp/decoupled_alpha.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["sources"][0]["alpha"] = 1e22
print(json.dumps(doc))
EOF
expect 0 check "$tmp/decoupled_alpha.json"
# source 1 at 0.99: buyer 1's payment z on source 2 rounds to zero
# from below, and a z that rounds to zero prints as +0.00
python - configs/two_firm.json > "$tmp/two_firm_x0.99.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["sources"][0]["x"] = 0.99
print(json.dumps(doc))
EOF
expect 0 check "$tmp/two_firm_x0.99.json"
if grep -q "z -0.00" "$tmp/out"; then
  echo "datamarket check at x1 = 0.99: a payment z printed as -0.00:"; cat "$tmp/out"; exit 1
fi
expect 0 sweep configs/sweep_x1.json --out "$tmp/x1.csv"
# the two-firm market with source 1 moved from 0.9999 to 1: a solved
# row, a weighted row past the gate, and the coincident pair, a
# weights error whose xi is past the gate too
printf '{"param": "sources[0].x", "range": {"from": 0.9999, "to": 1.0, "steps": 3}, "base": "%s"}\n' \
  "$PWD/configs/two_firm.json" > "$tmp/gate.json"
expect 0 sweep "$tmp/gate.json" --out "$tmp/gate.csv"
statuses=$(tail -n +2 "$tmp/gate.csv" | awk -F, '{ print $NF }' | tr '\n' ' ')
if [ "$statuses" != "ok no_equilibrium no_equilibrium " ]; then
  echo "datamarket sweep across the gate: statuses $statuses (want ok no_equilibrium no_equilibrium)"; exit 1
fi
# 24 sources and buyers of degrees 1 and 2: the radius matrix is 48
# wide, past the crossover, so rho comes from a Rayleigh-Ritz pair
python - > "$tmp/wide.json" <<'EOF'
import json
n = 24
print(json.dumps({
    "sources": [{"x": -1.0 + (2 * i + 1) / n, "alpha": 1.0} for i in range(n)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": d},
                "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                "delta": [0.0] * 3} for d in (1, 2, 1)],
    "feature_domain": [-1.0, 1.0],
}))
EOF
# rho in solve's --json-out must match max |eigvals| of the R rebuilt
# from the emitted xi, within 1e-12 relative
check_rho() {
  python - "$1" <<'EOF' || exit 1
import json, sys
import numpy as np
from datamarket import coupling_matrix
doc = json.load(open(sys.argv[1]))
want = float(np.abs(np.linalg.eigvals(coupling_matrix(np.array(doc["xi"])))).max())
if not abs(doc["rho"] - want) <= 1e-12 * want:
    sys.exit(f"datamarket solve --json-out {sys.argv[1]}: rho {doc['rho']!r}, want {want!r} within 1e-12 relative")
EOF
}
expect 0 solve "$tmp/wide.json" --json-out "$tmp/wide.out.json"
check_rho "$tmp/wide.out.json"
# 160 sources and buyers of degrees 1 and 2: R is 320 wide and 2-cyclic,
# so -rho is an eigenvalue too, and the Ritz pair read must be that of
# +rho
python - > "$tmp/grid160.json" <<'EOF'
import json
n = 160
print(json.dumps({
    "sources": [{"x": -1.0 + (2 * i + 1) / n, "alpha": 1.0} for i in range(n)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": d},
                "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                "delta": [0.0] * 2} for d in (1, 2)],
    "feature_domain": [-1.0, 1.0],
}))
EOF
rc=0
timeout 60 python -W error::RuntimeWarning -m datamarket solve "$tmp/grid160.json" --json-out "$tmp/grid160.out.json" > "$tmp/out" 2> "$tmp/err" || rc=$?
if [ "$rc" != 0 ] || [ -s "$tmp/err" ]; then
  echo "datamarket solve on 160 sources and 2 buyers: exit $rc (want 0), stderr:"; cat "$tmp/err"; exit 1
fi
check_rho "$tmp/grid160.out.json"
# sources at -1, 0 and 1 and buyers of degrees 1 and 2: the exact
# radius is 1/sqrt(2), a clustered root that eigvals meets on the
# group-major R and misses by 1.2e-8 on a source-major one
python - > "$tmp/clustered.json" <<'EOF'
import json
print(json.dumps({
    "sources": [{"x": x, "alpha": 1.0} for x in (-1.0, 0.0, 1.0)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": d},
                "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                "delta": [0.0] * 2} for d in (1, 2)],
    "feature_domain": [-1.0, 1.0],
}))
EOF
expect 0 solve "$tmp/clustered.json" --json-out "$tmp/clustered.out.json"
if ! grep -qx "spectral radius: 0.707106781187" "$tmp/out"; then
  echo "datamarket solve on the clustered market: rho line wrong:"; cat "$tmp/out"; exit 1
fi
python - "$tmp/clustered.out.json" <<'EOF'
import json, math, sys
rho = json.load(open(sys.argv[1]))["rho"]
if not abs(rho - math.sqrt(0.5)) <= 1e-14:
    sys.exit(f"datamarket solve on the clustered market: rho {rho!r}, want sqrt(1/2) within 1e-14")
EOF
# 100 sources and 24 buyers of degrees 1 and 2, alphas set so that
# the payments are feasible: the dense A would be 2400 wide (46 MB),
# the grouped R is 200 wide
python - > "$tmp/many.json" <<'EOF'
import json
from datamarket import compute_weights, solve_equilibrium_d
from datamarket.cli import market_from_config
n, mm = 100, 24
doc = {
    "sources": [{"x": -1.0 + (2 * i + 1) / n, "alpha": 1.0} for i in range(n)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": 1 + k % 2},
                "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                "delta": [0.0] * mm} for k in range(mm)],
    "feature_domain": [-1.0, 1.0],
}
m = market_from_config(doc)
for source, total in zip(doc["sources"], solve_equilibrium_d(compute_weights(m), m).d_total):
    source["alpha"] = 1.0 / float(total)
print(json.dumps(doc))
EOF
# each command runs under its own Python parent, which records the
# child's peak RSS: check certifies on the grouped R as well, so it
# must stay within 1.2 times solve's peak
for command in solve check; do
  rc=0
  timeout 60 python - "$tmp/$command.rss" "$command" "$tmp/many.json" > "$tmp/out" 2> "$tmp/err" <<'EOF' || rc=$?
import resource, subprocess, sys
argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "datamarket", *sys.argv[2:]]
rc = subprocess.run(argv).returncode
with open(sys.argv[1], "w") as fh:
    fh.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(rc)
EOF
  if [ "$rc" != 0 ] || grep -q Traceback "$tmp/err"; then
    echo "datamarket $command on 100 sources and 24 buyers: exit $rc (want 0), stderr:"; cat "$tmp/err"; exit 1
  fi
done
python - "$tmp/solve.rss" "$tmp/check.rss" <<'EOF'
import sys
solve, check = (int(open(path).read()) for path in sys.argv[1:])
if check > 1.2 * solve:
    sys.exit(f"datamarket check on 100 sources and 24 buyers: peak RSS {check / 1024:.0f} MB, "
             f"over 1.2 times solve's {solve / 1024:.0f} MB")
EOF
# a 2,000-step sweep of 20 sources and buyers of degrees 1, 2 and 1:
# R is 40 wide, so rho comes from a Rayleigh-Ritz pair, and the 43 MB
# CSV is written batch by batch
python - > "$tmp/sweep20.json" <<'EOF'
import json
n = 20
print(json.dumps({
    "param": "sources[0].x",
    "range": {"from": -1.0, "to": -0.9, "steps": 2000},
    "base": {
        "sources": [{"x": -1.0 + (2 * i + 1) / n, "alpha": 1.0} for i in range(n)],
        "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": d},
                    "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                    "delta": [0.0] * 3} for d in (1, 2, 1)],
        "feature_domain": [-1.0, 1.0],
    },
}))
EOF
rc=0
timeout 120 python -W error::RuntimeWarning -m datamarket sweep "$tmp/sweep20.json" --out "$tmp/sweep20.csv" > "$tmp/out" 2> "$tmp/err" || rc=$?
lines=$( { wc -l < "$tmp/sweep20.csv"; } 2> /dev/null || echo none)
if [ "$rc" != 0 ] || [ -s "$tmp/err" ] || [ "$lines" != 2001 ]; then
  echo "datamarket sweep of 20 sources and 3 buyers: exit $rc (want 0), $lines lines (want 2001), stderr:"; cat "$tmp/err"; exit 1
fi
# every 100th row that has a rho: the CSV rho must match max |eigvals|
# of the R rebuilt from the row's xi cells, with ones on the diagonal,
# within 1e-11 relative, the rounding of the 12-digit cells
python - "$tmp/sweep20.csv" <<'EOF' || exit 1
import csv, re, sys
import numpy as np
from datamarket import coupling_matrix
with open(sys.argv[1], newline="") as fh:
    rows = csv.reader(fh)
    header = next(rows)
    at = header.index("rho")
    cells = [(k, [int(t) - 1 for t in m.groups()]) for k, name in enumerate(header)
             if (m := re.fullmatch(r"xi_(\d+)_(\d+)_(\d+)", name))]
    sampled = [row for row in rows if row[at]][::100]
n = 1 + max(i for _, (i, _, _) in cells)
mm = 1 + max(k for _, (_, _, k) in cells)
for row in sampled:
    xi = np.ones((mm, n, n))
    for col, (i, l, k) in cells:
        xi[k, i, l] = float(row[col])
    want = float(np.abs(np.linalg.eigvals(coupling_matrix(xi))).max())
    if not abs(float(row[at]) - want) <= 1e-11 * want:
        sys.exit(f"datamarket sweep of 20 sources and 3 buyers at {row[0]}: rho {row[at]}, want {want!r} within 1e-11 relative")
if len(sampled) < 20:
    sys.exit(f"datamarket sweep of 20 sources and 3 buyers: {len(sampled)} rows with a rho checked, want 20")
EOF
# the two-firm market near the gate: its fixed point is certified at
# x1 = 0.999 (rho = 1 - 2.5e-7) and not at x1 = 0.9999 (rho = 1 -
# 2.5e-9), and check prints the fixed-point line either way
python - "$tmp" <<'EOF'
import json, sys
for x1 in ("0.999", "0.9999"):
    buyer = {"estimator": {"kind": "linear-regression", "degree": 1},
             "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
             "delta": [0.0, 0.0]}
    with open(f"{sys.argv[1]}/two_firm_{x1}.json", "w") as fh:
        json.dump({"sources": [{"x": float(x1), "alpha": 1.0}, {"x": 1.0, "alpha": 1.0}],
                   "buyers": [buyer, buyer], "feature_domain": [-1.0, 1.0]}, fh)
EOF
for case in "0.999 0" "0.9999 3"; do
  set -- $case
  expect "$2" check "$tmp/two_firm_$1.json"
  if ! grep -q "^fixed point: within " "$tmp/out"; then
    echo "datamarket check at x1 = $1: no fixed-point line:"; cat "$tmp/out"; exit 1
  fi
done
# a reader that leaves after one line: exit 0 or 1, never a traceback
python -W error::RuntimeWarning -m datamarket check configs/two_firm.json 2> "$tmp/err" | head -n 1 > /dev/null || true
if grep -q Traceback "$tmp/err"; then
  echo "datamarket check | head -n 1: traceback on stderr:"; cat "$tmp/err"; exit 1
fi
# a value nested 100,000 arrays deep: json.load runs out of recursion
# depth, and the config is reported as invalid JSON, not in a traceback
python - configs/two_firm.json > "$tmp/deep.json" <<'EOF'
import sys
text = open(sys.argv[1], encoding="utf-8").read().lstrip()
print('{"deep": ' + "[" * 100_000 + "]" * 100_000 + ", " + text[1:])
EOF
expect 1 solve "$tmp/deep.json"
if grep -q Traceback "$tmp/err"; then
  echo "datamarket solve on a deeply nested config: traceback on stderr:"; cat "$tmp/err"; exit 1
fi
# the payment means are exact: --seed is accepted but changes nothing
for seed in 1 2; do
  python -W error::RuntimeWarning -m datamarket check configs/two_firm.json --seed "$seed" > "$tmp/seed$seed.out"
done
cmp "$tmp/seed1.out" "$tmp/seed2.out"
# one interpreter, many calls of main: each returns its own exit code,
# with no state carried from the call before
python -W error::RuntimeWarning - "$tmp" > /dev/null 2> "$tmp/err" <<'EOF' || { cat "$tmp/err"; exit 1; }
import sys
from datamarket.cli import main
cfg = "configs/two_firm.json"
codes = [main(["solve", cfg]), main(["check", cfg]),
         main(["check", cfg, "--perturb", "1,1,0.5"]), main(["check", cfg])]
try:
    main(["check", cfg, "--samples", "1000"])
except SystemExit as exc:
    codes.append(exc.code)
codes.append(main(["sweep", "configs/sweep_x1.json", "--out", f"{sys.argv[1]}/x1_again.csv"]))
if codes != [0, 0, 3, 0, 1, 0]:
    sys.exit(f"datamarket.cli.main in one interpreter: exit codes {codes}, want [0, 0, 3, 0, 1, 0]")
EOF
