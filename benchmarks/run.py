"""Closed-loop benchmark of the ``datamarket`` command line.

    python3 benchmarks/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

One process, one client, no extra threads (``DM_THREADS`` unset, one BLAS
thread): each operation is one in-process call of
``datamarket.cli.main(argv)`` on inputs generated from the seed, and the next
starts when it returns.  Every output is checked against an independent
numpy recomputation (check.py).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, their timings calibrated to the host's
speed of the moment (probe()); with ``--trace 1`` each call of the loop
runs once plain and once with span-recording wrappers, and the line carries
the per-layer metrics.  Spans go to ``.bench_work/``.  The program is
imported from ``src/`` of this checkout; without it the run fails.  See
README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 9
# A run stops taking new operations after this much wall time, whatever
# --seconds says, so that it ends well inside three minutes.
WALL_LIMIT_S = 120.0
# An untraced run measures --seconds of calibrated call time, so that a slow
# and a fast host make about the same calls and the tail falls at the same
# place among them; it also stops after this many times --seconds of raw
# call time, so that a host slow throughout keeps the run short.
RAW_LIMIT = 1.3
# Relative errors below these are float dust and read as the floor.
RHO_FLOOR = 1e-9
D_FLOOR = 1e-9
TAIL_BEYOND = 10
# Host-speed calibration (see probe()): times are reported as they would read
# on a host where one probe pass takes this long.
PROBE_REF_S = 1.25e-3
PROBE_REPS = 3
# Probes this close to a call, in seconds, calibrate it: the host's swings
# last longer, and the median of several probes is steadier than two.
PROBE_WINDOW_S = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "markets_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_ratio": "ratio",
    "peak_alloc_mb": "MB",
    "rho_max_rel_err": "ratio",
    "d_max_rel_err": "ratio",
}
# fail_ratio is 0 on a correct run; the result line carries it as
# attempted/failed instead.
E2E_REPORTED = [k for k in E2E_UNITS if k != "fail_ratio"]

# per-layer metric -> (span name, inclusive or self time), per operation
LAYER_TIMES = {
    "equilibrium.spectral_radius_ms": ("equilibrium.spectral_radius", "incl"),
    "estimators.loo_weight_tensor_ms": ("estimators.loo_weight_tensor", "incl"),
    "estimators.loss_weight_matrix_ms": ("estimators.loss_weight_matrix", "incl"),
    "estimators.compute_weights_self_ms": ("estimators.compute_weights", "self"),
    "equilibrium.coupling_matrix_ms": ("equilibrium.coupling_matrix", "incl"),
    "equilibrium.solve_equilibrium_d_ms": ("equilibrium.solve_equilibrium_d", "incl"),
    "equilibrium.complete_solution_ms": ("equilibrium.complete_solution", "incl"),
    "welfare.price_of_anarchy_ms": ("welfare.price_of_anarchy", "incl"),
    "market.validate_market_ms": ("market.validate_market", "incl"),
    "cli.self_ms": ("cli.main", "self"),
    "oracle.monte_carlo_payments_ms": ("oracle.monte_carlo_payments", "incl"),
    "oracle.best_response_check_ms": ("oracle.best_response_check", "incl"),
    "oracle.neumann_dynamics_ms": ("oracle.neumann_dynamics", "incl"),
}
LAYER_CALLS = {
    "equilibrium.spectral_radius_calls": "equilibrium.spectral_radius",
    "estimators.compute_weights_calls": "estimators.compute_weights",
    "equilibrium.coupling_matrix_calls": "equilibrium.coupling_matrix",
}
LAYER_COUNTS = {
    "equilibrium.A_bytes_computed": "B/op",
    "oracle.monte_carlo_draws": "draws/op",
    "oracle.best_response_candidates": "cands/op",
    "oracle.neumann_iters": "iters/op",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def single_threaded() -> dict:
    """Give the process one BLAS thread before numpy loads; returns the
    inherited values.  The default OpenBLAS pool spins a second thread that
    made no call faster on a 2-core host (solve_ladder median 23.8 ms with
    it, 22.9 ms without) while doubling CPU use, which tied every timing to
    the load of other processes."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS thread count was set")
    inherited = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    for k in BLAS_THREAD_VARS:
        os.environ[k] = "1"
    return inherited


def host_record(inherited_blas: dict, dm_threads) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_env_inherited": inherited_blas,
        "DM_THREADS_inherited": dm_threads,
        "commit": git_commit(ROOT),
        "machine_settings": "unchanged: no pinning, no frequency or cache control",
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def import_program():
    """Fresh import of the package from src/, as a user's first call pays it."""
    for name in [n for n in sys.modules if n == "datamarket" or n.startswith("datamarket.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("datamarket")
    importlib.import_module("datamarket.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"datamarket imported from {pkg.__file__}, not from {SRC}")
    return pkg


_probe_data = None


def _probe_pass(np, tiny, big, vec):
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    x = vec[:4]
    for _ in range(40):
        x = tiny @ x
        x = x / np.linalg.norm(x)
    for _ in range(3):
        big @ vec
    json.dumps({str(i): [i, 2 * i] for i in range(250)})


def probe() -> tuple:
    """(midpoint, seconds) of one probe: the mean time of PROBE_REPS fixed
    passes, with the collector off.  A pass has four parts of about equal
    time: a Python float loop, 4x4 power-iteration steps (numpy call
    overhead), three 500x500 matrix-vector products over 2 MB (the shared
    caches) and a JSON dump of a 250-entry dict (allocation).

    The host is shared, and its speed swings by up to 2x for seconds to a
    minute at a time, for the program and this pass alike.  Each call's time
    is scaled by PROBE_REF_S over the probes taken near it (calibrate()),
    which keeps the program's own cost and removes most of the host's swing.
    The parts are the ones whose times tracked the program's best on all
    three workloads.  The pass uses none of the program's code, so a change
    to the program moves the calibrated times as it moves the raw ones."""
    global _probe_data
    import numpy as np  # loaded here, after single_threaded()
    if _probe_data is None:
        rng = np.random.default_rng(0)
        _probe_data = (rng.random((4, 4)), rng.random((500, 500)), rng.random(500))
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            _probe_pass(np, *_probe_data)
        end = time.perf_counter()
    finally:
        gc.enable()
    return 0.5 * (start + end), (end - start) / PROBE_REPS


def calibrate(calls: list, probes: list) -> list:
    """Calibrated seconds of each (start, elapsed) call: elapsed x PROBE_REF_S
    over the median of the probes whose midpoints lie within PROBE_WINDOW_S of
    the call.  ``probes`` are in time order, and one is taken right before
    and one right after every call, so each window holds at least two."""
    times = [t for t, _ in probes]
    out = []
    for start, elapsed in calls:
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + elapsed + PROBE_WINDOW_S)
        out.append(elapsed * PROBE_REF_S / statistics.median(p for _, p in probes[lo:hi]))
    return out


def call(dm, op) -> tuple:
    """One timed ``main(argv)``; returns (seconds, exit code, stdout, output bytes)."""
    if op.out and os.path.exists(op.out):
        os.remove(op.out)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dm.cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # an escaping exception is a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    data = None
    if op.out and os.path.exists(op.out):
        with open(op.out, "rb") as fh:
            data = fh.read()
    return elapsed, rc, out.getvalue(), data


def setup(warm) -> tuple:
    """One timed set-up of the program: a fresh import and the warm-up call.
    Returns (package, seconds, calibrated seconds)."""
    before = probe()
    start = time.perf_counter()
    dm = import_program()
    rc = call(dm, warm)[1]
    elapsed = time.perf_counter() - start
    if rc != warm.expect:
        raise RuntimeError(f"warm-up {' '.join(warm.argv)} exited {rc}, expected {warm.expect}")
    return dm, elapsed, calibrate([(start, elapsed)], [before, probe()])[0]


def closed_loop(dm, ops, checker, seconds: float, tracer=None) -> dict:
    """Run ops cyclically until the calls have taken ``seconds``: calibrated
    seconds without a tracer, raw seconds with one.

    Without a tracer, a probe runs right before and right after each call,
    and the call's calibrated time goes to ``cal`` beside its raw time.
    With a tracer, each call runs once untraced and then once traced, so that
    the overhead ratio compares the two at the same moment of a host whose
    speed drifts; the traced calls are the measured ones, and both are
    checked."""
    res = {"lat": [], "tier": [], "markets": 0, "attempted": 0, "failed": 0,
           "failures": [], "rho_err": 0.0, "d_err": 0.0, "statuses": {},
           "busy": 0.0, "untraced": 0.0, "cal": [], "calls": [], "probes": []}

    def judge(i, op, rc, stdout, data):
        verdict = checker(i % len(ops), op, rc, stdout, data)
        res["attempted"] += 1
        if not verdict.ok:
            res["failed"] += 1
            res["failures"].append(f"op {i} ({op.tier}: {' '.join(op.argv)}): {verdict.cause}")
        return verdict

    wall0 = time.perf_counter()
    i = 0
    cal_busy = 0.0  # from the two probes around each call, for the stop rule
    while (cal_busy if tracer is None else res["busy"] + res["untraced"]) < seconds:
        if (time.perf_counter() - wall0 > WALL_LIMIT_S
                or res["busy"] > RAW_LIMIT * seconds):
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            elapsed, rc, stdout, data = call(dm, op)
            res["untraced"] += elapsed
            judge(i, op, rc, stdout, data)
            tracer.op = i
            tracer.install()
            try:
                elapsed, rc, stdout, data = call(dm, op)
            finally:
                tracer.uninstall()
        else:
            res["probes"].append(probe())
            start = time.perf_counter()
            elapsed, rc, stdout, data = call(dm, op)
            res["probes"].append(probe())
            res["calls"].append((start, elapsed))
            cal_busy += calibrate([(start, elapsed)], res["probes"][-2:])[0]
        verdict = judge(i, op, rc, stdout, data)
        res["busy"] += elapsed
        res["lat"].append(elapsed)
        res["tier"].append(op.tier)
        if verdict.ok:
            res["markets"] += op.markets
            res["rho_err"] = max(res["rho_err"], verdict.rho_err)
            res["d_err"] = max(res["d_err"], verdict.d_err)
            for status, count in verdict.statuses.items():
                res["statuses"][status] = res["statuses"].get(status, 0) + count
        i += 1
    if tracer is None:
        res["cal"] = calibrate(res["calls"], res["probes"])
    return res


def peak_alloc(dm, ops) -> float:
    """Largest heap growth of one call, in bytes, over the first call of
    each tier, from an untimed pass under tracemalloc.  numpy reports its
    buffers to tracemalloc, so this is the program's own peak, which the
    process's resident-set peak would hide under the benchmark's arrays."""
    firsts = {}
    for op in ops:
        firsts.setdefault(op.tier, op)
    peak = 0
    tracemalloc.start()
    try:
        for op in firsts.values():
            # a clean heap and fresh collector counts, so that the collector
            # runs at the same points of the call in every run
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call(dm, op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return float(peak)


def tail(lat: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples, the
    maximum."""
    s = sorted(lat)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - 1 - TAIL_BEYOND
    return s[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def e2e_metrics(res: dict, lat: list, setup_times: list, peak_bytes: float) -> dict:
    """End-to-end metrics from per-call and set-up times, calibrated or raw."""
    tail_v, _, _ = tail(lat)
    return {
        "setup_s": statistics.median(setup_times),
        "markets_per_s": res["markets"] / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_v,
        "fail_ratio": res["failed"] / res["attempted"],
        "peak_alloc_mb": peak_bytes / 2**20,
        "rho_max_rel_err": max(RHO_FLOOR, res["rho_err"]),
        "d_max_rel_err": max(D_FLOOR, res["d_err"]),
    }


def layer_metrics(tracer, res: dict, markets: int) -> tuple:
    """Per-layer metrics (per operation) and a per-tier table of inclusive ms."""
    import spans
    n_ops = len(res["lat"])
    tot = spans.totals(tracer.spans)
    get = lambda name, q: tot.get(name, {}).get(q, 0.0)
    units = {}
    out = {}
    for metric, (name, q) in LAYER_TIMES.items():
        out[metric] = 1e3 * get(name, q) / n_ops
        units[metric] = "ms/op"
    for metric, name in LAYER_CALLS.items():
        out[metric] = get(name, "calls") / n_ops
        units[metric] = "calls/op"
    out["equilibrium.coupling_matrix_calls_per_market"] = (
        get("equilibrium.coupling_matrix", "calls") / markets if markets else 0.0)
    units["equilibrium.coupling_matrix_calls_per_market"] = "calls/market"
    main_s = get("cli.main", "incl")
    out["equilibrium.spectral_radius_share"] = (
        get("equilibrium.spectral_radius", "incl") / main_s if main_s else 0.0)
    units["equilibrium.spectral_radius_share"] = "ratio"
    for metric, unit in LAYER_COUNTS.items():
        out[metric] = tracer.counts.get(metric, 0) / n_ops
        units[metric] = unit
    st = res["statuses"]
    rows = sum(st.values())
    out["cli.sweep_ok_ratio"] = st.get("ok", 0) / rows if rows else 0.0
    units["cli.sweep_ok_ratio"] = "ratio"
    out["trace.overhead_ratio"] = res["busy"] / res["untraced"]
    units["trace.overhead_ratio"] = "ratio"

    by_tier: dict = {}
    for op_id, tier in enumerate(res["tier"]):
        by_tier.setdefault(tier, set()).add(op_id)
    table = {}
    for tier, ids in by_tier.items():
        t = spans.totals(tracer.spans, ids)
        wall = t.get("cli.main", {}).get("incl", 0.0)
        table[tier] = {
            "ops": len(ids),
            "main_ms": 1e3 * wall / len(ids),
            "cli_self_ms": 1e3 * t.get("cli.main", {}).get("self", 0.0) / len(ids),
            "layers_ms": {name: 1e3 * v["incl"] / len(ids) for name, v in sorted(t.items())},
            "shares": {name: v["incl"] / wall for name, v in sorted(t.items()) if wall},
        }
    return out, units, table


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metrics(values: dict, units: dict):
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    inherited_blas = single_threaded()
    # one client and no worker threads: the sweep must not fan out
    dm_threads = os.environ.pop("DM_THREADS", None)
    import gen
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "datamarket", "cli.py")):
        print(f"error: no program to measure: {SRC}/datamarket is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    host = host_record(inherited_blas, dm_threads)

    import check
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(run_dir)
        # Generation redraws a seed-dependent number of candidates, each with
        # a dense reference solve, so it is timed apart from setup_s.
        start = time.perf_counter()
        ops, stats = gen.build(args.workload, args.seed, run_dir, ROOT, import_program())
        gen_s = time.perf_counter() - start
        warm = gen.warmup(args.workload, run_dir, ROOT)
        setup_times, setup_cal = [], []
        for _ in range(SETUP_REPS):
            dm, elapsed, cal = setup(warm)
            setup_times.append(elapsed)
            setup_cal.append(cal)
        rss_setup = maxrss_mb()
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        res = closed_loop(dm, ops, check.Checker(), args.seconds, tracer)
        peak_bytes = None if args.trace else peak_alloc(dm, ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} operations per cycle, "
          f"generator acceptance {stats['accepted']}/{stats['tried']} "
          f"({stats['acceptance_rate']:.3f}) in {gen_s:.3f} s (not part of setup_s); "
          f"setup runs {[round(t, 4) for t in setup_times]} s raw, "
          f"{[round(t, 4) for t in setup_cal]} s calibrated")
    print(f"# process ru_maxrss {rss_setup:.1f} MB after set-up, {maxrss_mb():.1f} MB at the end")
    _, pct, beyond = tail(res["lat"])
    by_tier: dict = {}
    for t, lat in zip(res["tier"], res["lat"]):
        by_tier.setdefault(t, []).append(lat)
    tiers = {t: f"{len(v)} x {1e3 * statistics.median(v):.1f} ms" for t, v in by_tier.items()}
    if res["cal"]:
        cal_tier: dict = {}
        for t, cal in zip(res["tier"], res["cal"]):
            cal_tier.setdefault(t, []).append(cal)
        tiers = {t: f"{v}, calibrated {1e3 * statistics.median(cal_tier[t]):.1f} ms"
                 for t, v in tiers.items()}
    kind = "traced operations (each also run plain)" if args.trace else "operations"
    print(f"# {len(res['lat'])} {kind}, {res['markets']} markets in {res['busy']:.3f} s of calls, "
          f"{len(res['lat']) // len(ops)} complete cycles; "
          f"op_tail_ms is p{pct:.2f} ({beyond} samples beyond); tiers {tiers}")
    if res["statuses"]:
        print(f"# sweep row status mix {res['statuses']}")

    if tracer is None:
        e2e = e2e_metrics(res, res["cal"], setup_cal, peak_bytes)
        raw = e2e_metrics(res, res["lat"], setup_times, peak_bytes)
        probes = [p for _, p in res["probes"]]
        print(f"# raw wall-clock values, not calibrated: setup_s {raw['setup_s']:.6g} s, "
              f"markets_per_s {raw['markets_per_s']:.6g} 1/s, op_p50_ms {raw['op_p50_ms']:.6g} ms, "
              f"op_tail_ms {raw['op_tail_ms']:.6g} ms; probe min/median/max "
              f"{1e3 * min(probes):.4g}/{1e3 * statistics.median(probes):.4g}/{1e3 * max(probes):.4g} ms")
        print(f"# end-to-end (tracing off; times calibrated to a {1e3 * PROBE_REF_S:g} ms probe)")
        print_metrics(e2e, E2E_UNITS)
        metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in E2E_REPORTED}
    else:
        layers, units, table = layer_metrics(tracer, res, res["markets"])
        print("# per layer (traced run, per operation)")
        print_metrics(layers, units)
        print("# per tier: ms per operation in each span, inclusive, and share of cli.main")
        for tier, row in table.items():
            print(f"#   {tier}: {row['ops']} ops, cli.main {row['main_ms']:.3f} ms, "
                  f"of which cli self {row['cli_self_ms']:.3f} ms")
            for name, ms in row["layers_ms"].items():
                print(f"#     {name:<40} {ms:12.4f} ms  {row['shares'].get(name, 0.0):7.2%}")
        spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(spans_path)
        with open(spans_path.replace(".jsonl", ".summary.json"), "w", encoding="utf-8") as fh:
            json.dump({"host": host, "per_layer": layers, "per_tier": table}, fh, indent=1)
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}

    for line in res["failures"][:20]:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
