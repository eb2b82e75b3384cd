"""Tests of the benchmark itself: generator, checker, span arithmetic.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import datamarket  # noqa: E402
import datamarket.cli  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)


def _files(work) -> dict:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def _build(workload, seed, work):
    work.mkdir()
    return gen.build(workload, seed, str(work), ROOT, datamarket)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    ops_a, stats_a = _build(workload, 7, tmp_path / "a")
    ops_b, stats_b = _build(workload, 7, tmp_path / "b")
    _build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert stats_a == stats_b
    assert [op.expect for op in ops_a] == [op.expect for op in ops_b]
    assert 0.0 < stats_a["acceptance_rate"] <= 1.0


def _run_op(op):
    _, rc, stdout, data = run.call(datamarket, op)
    return rc, stdout, data


def _first(ops, kind, expect=0, tier=None):
    return next(op for op in ops if op.kind == kind and op.expect == expect
                and (tier is None or op.tier == tier))


def test_checker_accepts_sweep_and_rejects_corrupted_row(tmp_path):
    ops, _ = _build("sweep_small", 3, tmp_path / "w")
    op = _first(ops, "sweep", tier="pair")
    rc, stdout, data = _run_op(op)
    good = check.Checker()(0, op, rc, stdout, data)
    assert good.ok, good.cause
    assert good.statuses["ok"] > 0

    lines = data.decode().split("\n")
    header = lines[0].split(",")
    rho = header.index("rho")
    row = next(r for r, line in enumerate(lines)
               if line.endswith(",ok") and float(line.split(",")[rho]) > 0.3)
    for column in ("d_1_1", "xi_1_2_1", "rho"):
        cells = lines[row].split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) * 1.01)
        bad = "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]).encode()
        verdict = check.Checker()(0, op, rc, stdout, bad)
        assert not verdict.ok, column
        assert f"row {row}" in verdict.cause


def test_checker_rejects_changed_repeat_and_status(tmp_path):
    ops, _ = _build("sweep_small", 3, tmp_path / "w")
    op = _first(ops, "sweep", tier="pair3")
    rc, stdout, data = _run_op(op)
    checker = check.Checker()
    assert checker(0, op, rc, stdout, data).ok
    lines = data.decode().split("\n")
    rho = lines[0].split(",").index("rho")
    row = next(r for r, line in enumerate(lines)
               if line.endswith(",no_equilibrium") and float(line.split(",")[rho]) > 1.1)
    lines[row] = lines[row][:-len("no_equilibrium")] + "error"
    changed = "\n".join(lines).encode()
    assert "different CSV" in checker(0, op, rc, stdout, changed).cause
    assert "status" in check.Checker()(0, op, rc, stdout, changed).cause


def test_checker_rejects_feasible_row_marked_error(tmp_path):
    ops, _ = _build("sweep_small", 3, tmp_path / "w")
    op = _first(ops, "sweep", tier="pair")
    rc, stdout, data = _run_op(op)
    lines = data.decode().split("\n")
    rho = lines[0].split(",").index("rho")
    row = next(r for r, line in enumerate(lines)
               if line.endswith(",ok") and 0.3 < float(line.split(",")[rho]) < 0.9)
    lines[row] = lines[row][:-len("ok")] + "error"
    verdict = check.Checker()(0, op, rc, stdout, "\n".join(lines).encode())
    assert not verdict.ok
    assert f"row {row}" in verdict.cause and "error row" in verdict.cause


def test_checker_accepts_solve_and_rejects_corrupted_fields(tmp_path):
    ops, _ = _build("solve_ladder", 3, tmp_path / "w")
    op = _first(ops, "solve", tier="n10_m2")
    rc, stdout, data = _run_op(op)
    assert check.Checker()(0, op, rc, stdout, data).ok

    def corrupt(edit):
        doc = json.loads(data)
        edit(doc)
        return check.Checker()(0, op, rc, stdout, json.dumps(doc).encode())

    def scale_d(doc):
        doc["d"][0][0] *= 1.001

    def scale_rho(doc):
        doc["rho"] *= 1.01

    def shift_e(doc):
        doc["c"]["E"][0] += 1e-3

    def scale_effort(doc):
        doc["efforts"][0] *= 1.001

    for edit, word in ((scale_d, "slopes"), (scale_rho, "rho"),
                       (shift_e, "canonical"), (scale_effort, "efforts")):
        verdict = corrupt(edit)
        assert not verdict.ok and word in verdict.cause


def test_checker_wants_the_expected_exit_code(tmp_path):
    ops, _ = _build("solve_ladder", 3, tmp_path / "w")
    op = _first(ops, "solve", expect=2)
    rc, stdout, data = _run_op(op)
    assert rc == 2 and data is None
    assert check.Checker()(0, op, rc, stdout, data).ok
    assert "exit code 0" in check.Checker()(0, op, 0, stdout, data).cause


def test_checker_on_check_output(tmp_path):
    ops, _ = _build("check_certify", 3, tmp_path / "w")
    plain = _first(ops, "check", tier="n2_m2")
    rc, stdout, _ = _run_op(plain)
    assert check.Checker()(0, plain, rc, stdout, None).ok
    flipped = stdout.replace("certification: PASS", "certification: FAIL")
    assert not check.Checker()(0, plain, rc, flipped, None).ok
    line = next(ln for ln in stdout.splitlines() if ln.startswith("payment buyer 1 source 1"))
    analytic = line.split(" analytic ")[1].split()[0]
    wrong = stdout.replace(f"analytic {analytic} ", f"analytic {float(analytic) * 1.01!r} ")
    assert "payments" in check.Checker()(0, plain, rc, wrong, None).cause

    perturbed = _first(ops, "check", expect=3)
    rc, stdout, _ = _run_op(perturbed)
    assert rc == 3 and check.Checker()(0, perturbed, rc, stdout, None).ok


def test_self_time_subtracts_union_of_children():
    sp = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),      # overlaps a: children cover [1, 5] and [7, 8]
        ("c", 2.5, 4.0, 2, 0),      # grandchild: only b's self time shrinks
        ("a", 7.0, 8.0, 0, 0),
    ]
    assert spans.self_times(sp) == pytest.approx([5.0, 2.0, 1.5, 1.5, 1.0])
    t = spans.totals(sp)
    assert t["a"] == {"incl": pytest.approx(3.0), "self": pytest.approx(3.0), "calls": 2}
    assert t["cli.main"]["self"] == pytest.approx(5.0)
    only_first = spans.totals(sp, ops={1})
    assert only_first == {}


def test_recursive_span_counts_once_inclusive():
    sp = [("f", 0.0, 4.0, -1, 0), ("f", 1.0, 2.0, 0, 0)]
    t = spans.totals(sp)
    assert t["f"]["incl"] == pytest.approx(4.0)
    assert t["f"]["self"] == pytest.approx(4.0)


def test_tracer_records_and_restores(tmp_path):
    ops, _ = _build("solve_ladder", 3, tmp_path / "w")
    op = _first(ops, "solve", tier="n10_m2")
    original = datamarket.equilibrium.spectral_radius
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert datamarket.cli.spectral_radius is datamarket.equilibrium.spectral_radius
        assert datamarket.equilibrium.spectral_radius is not original
        tracer.op = 0
        rc, _, _ = _run_op(op)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert datamarket.equilibrium.spectral_radius is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "estimators.compute_weights", "equilibrium.coupling_matrix",
            "equilibrium.spectral_radius", "welfare.price_of_anarchy"} <= names
    assert "cli.market_from_config" not in names
    assert tracer.counts["equilibrium.A_bytes_computed"] == (10 * 2) ** 2 * 8
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]


def test_peak_alloc_sees_the_programs_arrays(tmp_path):
    ops, _ = _build("solve_ladder", 3, tmp_path / "w")
    op = _first(ops, "solve", tier="n40_m5")
    # the stacked coupling matrix alone is (40 * 5)^2 doubles
    assert run.peak_alloc(datamarket, [op]) > (40 * 5) ** 2 * 8


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_warm_up_call_succeeds_whatever_the_seed(tmp_path, workload):
    warm = gen.warmup(workload, str(tmp_path), ROOT)
    rc, _, _ = _run_op(warm)
    assert rc == warm.expect == 0


def test_tail_is_eleventh_largest():
    lat = list(range(100))
    assert run.tail(lat) == (89, 90.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_calibration_divides_by_the_median_of_nearby_probes():
    ref = run.PROBE_REF_S
    w = run.PROBE_WINDOW_S
    # probes at twice the reference halve the time
    assert run.calibrate([(10.0, 0.5)], [(9.9, 2 * ref), (10.6, 2 * ref)]) == [
        pytest.approx(0.25)]
    # the median of the three probes in the window; the one outside is ignored
    probes = [(10.0 - 2 * w, 100 * ref), (9.9, ref), (10.2, 4 * ref), (10.6, 2 * ref)]
    assert run.calibrate([(10.0, 0.5)], probes) == [pytest.approx(0.25)]
    mid, seconds = run.probe()
    assert mid > 0.0 and 0.0 < seconds < 1.0


def test_declared_metrics_match_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {k: run.E2E_UNITS[k] for k in run.E2E_REPORTED}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {k: "ms/op" for k in run.LAYER_TIMES}
    printed.update({k: "calls/op" for k in run.LAYER_CALLS})
    printed.update(run.LAYER_COUNTS)
    printed.update({"equilibrium.coupling_matrix_calls_per_market": "calls/market",
                    "equilibrium.spectral_radius_share": "ratio",
                    "cli.sweep_ok_ratio": "ratio", "trace.overhead_ratio": "ratio"})
    assert layers == printed
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
