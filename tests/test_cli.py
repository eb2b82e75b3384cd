import copy
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import datamarket.cli
import datamarket.equilibrium
import datamarket.estimators
from datamarket import (
    RHO_EXISTENCE_THRESHOLD,
    EtaNotOneError,
    DegenerateSourceError,
    GammaNegativeError,
    NoEquilibriumError,
    NumericFailure,
    SingularDesignError,
    UndefinedPoaError,
    build_coupling_system,
    compute_weights,
    coupling_matrix,
    loo_weight_tensor,
    price_of_anarchy,
    solve_equilibrium_d,
    spectral_radius,
)
from datamarket.cli import ConfigError, main, market_from_config, market_to_config

from conftest import two_firm_market

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Three sources, two linear buyers with strong competition weights: buyer 2's
# adjusted loss weight on source 1 is negative, and rho = 2.
NEG_GAMMA_DELTA = 0.510888884466533
NEG_GAMMA_DOC = {
    "sources": [{"x": x, "alpha": 1.0}
                for x in (-0.4798051045255536, 0.18588203620856802, 0.6797630420628176)],
    "buyers": [
        {"estimator": {"kind": "linear-regression", "degree": 1},
         "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
         "delta": [0.0, NEG_GAMMA_DELTA]},
        {"estimator": {"kind": "linear-regression", "degree": 1},
         "value_dist": {"kind": "point-mass", "params": {"x0": 0.639253438238554}},
         "delta": [NEG_GAMMA_DELTA, 0.0]},
    ],
    "feature_domain": [-1.0, 1.5],
}


def _set_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def write_config(tmp_path, m, name="market.json"):
    path = tmp_path / name
    path.write_text(json.dumps(market_to_config(m), indent=2))
    return path


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    m = two_firm_market(0.37, alphas=(1.2, 0.9), delta=0.25, etas=(1.0, 1.0))
    doc = json.loads(json.dumps(market_to_config(m)))
    assert market_from_config(doc) == m


def test_config_errors():
    with pytest.raises(ConfigError):
        market_from_config({"sources": []})
    with pytest.raises(ConfigError):
        market_from_config({"sources": [], "buyers": [], "feature_domain": [0.0]})
    bad_buyer = {
        "sources": [{"x": 0.0, "alpha": 1.0}],
        "buyers": [{"estimator": {"kind": "linear-regression"},
                    "value_dist": {"kind": "gaussian"},
                    "delta": [0.0]}],
        "feature_domain": [-1.0, 1.0],
    }
    with pytest.raises(ConfigError):
        market_from_config(bad_buyer)


@pytest.mark.parametrize("path, value", [
    (("buyers", 0, "eta"), "abc"),
    (("buyers", 0, "eta"), None),
    (("buyers", 0, "eta"), []),
    (("buyers", 1, "eta"), {}),
    (("sources", 0, "x"), 10 ** 400),
    (("buyers", 0, "delta"), [0.0, 10 ** 400]),
    (("feature_domain", 0), 10 ** 400),
    (("buyers", 0, "value_dist"), {"kind": "discrete", "params": {"points": [None], "weights": [1.0]}}),
])
def test_config_rejects_non_numbers(tmp_path, capsys, path, value):
    doc = market_to_config(two_firm_market(0.0))
    _set_leaf(doc, path, value)
    with pytest.raises(ConfigError):
        market_from_config(doc)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_eta_defaults_to_one():
    doc = market_to_config(two_firm_market(0.0))
    del doc["buyers"][1]["eta"]
    assert market_from_config(doc).buyers[1].eta == 1.0


def test_solve_huge_uniform_bound_exits_1(tmp_path, capsys):
    # finite, but its raw moments overflow a float
    doc = market_to_config(two_firm_market(0.0))
    doc["buyers"][0]["value_dist"]["params"]["hi"] = 1e308
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg)]) == 1
    assert "overflow" in capsys.readouterr().err


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


with open(os.path.join(ROOT, "configs", "two_firm.json"), encoding="utf-8") as _fh:
    _TWO_FIRM = json.load(_fh)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_leaf_paths(_TWO_FIRM)), _JSON_VALUES),
                      min_size=1, max_size=2))
def test_solve_any_config_ends_in_an_exit_code(tmp_path, capsys, edits):
    doc = json.loads(json.dumps(_TWO_FIRM))
    for path, value in edits:
        _set_leaf(doc, path, value)
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "fuzz_solution.json"
    out.unlink(missing_ok=True)
    code = main(["solve", str(cfg), "--json-out", str(out)])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.read_text(), parse_constant=_reject_constant)
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("flags, codes", [
    (["welfare"], (0, 1, 2)),
    (["check", "--samples", "200", "--steps", "5"], (0, 1, 2, 3)),
], ids=["welfare", "check"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_leaf_paths(_TWO_FIRM)), _JSON_VALUES),
                      min_size=1, max_size=2))
def test_welfare_and_check_any_config_end_in_an_exit_code(tmp_path, capsys, flags, codes, edits):
    doc = json.loads(json.dumps(_TWO_FIRM))
    for path, value in edits:
        _set_leaf(doc, path, value)
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(doc))
    assert main(flags + [str(cfg)]) in codes
    capsys.readouterr()


def test_readme_config_example_solves(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"### Market config\n.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "readme.json"
    cfg.write_text(block)
    assert main(["solve", str(cfg)]) == 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_success_with_json(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    out = tmp_path / "solution.json"
    assert main(["solve", str(cfg), "--json-out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "price of anarchy" in stdout

    payload = json.loads(out.read_text())
    assert payload["status"] == "ok"
    assert payload["rho"] == pytest.approx(0.5, rel=1e-11)
    assert np.asarray(payload["d"]) == pytest.approx(
        np.array([[20 / 9, 17 / 9], [20 / 9, 17 / 9]]), rel=1e-9)
    assert payload["c"]["feasible"] is True
    assert payload["welfare"]["poa"] == pytest.approx(1.2779919143512248, rel=1e-9)


def test_solve_no_equilibrium_exits_2(tmp_path, capsys):
    # identical source locations: the full design degenerates but the
    # coupling still certifies nonexistence
    cfg = write_config(tmp_path, two_firm_market(1.0))
    assert main(["solve", str(cfg)]) == 2
    assert "no equilibrium" in capsys.readouterr().err

    # well-conditioned variant past the existence threshold
    cfg2 = write_config(tmp_path, two_firm_market(1.0 - 5e-5), name="near.json")
    assert main(["solve", str(cfg2)]) == 2


@pytest.mark.parametrize("command", ["check", "welfare"])
def test_coincident_sources_exit_2_in_every_command(tmp_path, capsys, command):
    cfg = write_config(tmp_path, two_firm_market(1.0))
    assert main([command, str(cfg)]) == 2
    assert "no equilibrium" in capsys.readouterr().err


def test_negative_gamma_past_the_gate_has_no_equilibrium(tmp_path, capsys, monkeypatch):
    # existence is decided by xi alone, ahead of the negative adjusted weight;
    # the xi fitted with the weights is reused, not fitted a second time
    fits = []
    real = datamarket.estimators._loo_rows

    def counted(*args):
        fits.append(1)
        return real(*args)

    monkeypatch.setattr(datamarket.estimators, "_loo_rows", counted)
    cfg = tmp_path / "neg_gamma.json"
    cfg.write_text(json.dumps(NEG_GAMMA_DOC))
    for command in ("solve", "check", "welfare"):
        fits.clear()
        assert main([command, str(cfg)]) == 2
        assert "no equilibrium: spectral radius 2 " in capsys.readouterr().err
        assert len(fits) == 1

    spec = write_sweep(tmp_path, NEG_GAMMA_DOC, 1.0, 2.0, 2, param="sources[0].alpha")
    out = tmp_path / "neg.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["status"] for r in rows] == ["no_equilibrium"] * 2
    assert all(r["gamma_1_1"] == "" and float(r["rho"]) == pytest.approx(2.0) for r in rows)


# Two linear buyers over sources at 0.3, 0.3 and 0.9: the full design fits,
# but dropping source 2 leaves two coincident points, so the leave-one-out
# fit fails too and no spectral radius decides existence.
LOO_SINGULAR_DOC = {
    "sources": [{"x": x, "alpha": 1.0} for x in (0.3, 0.3, 0.9)],
    "buyers": [
        {"estimator": {"kind": "linear-regression", "degree": 1},
         "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
         "delta": delta}
        for delta in ([0.0, 0.1], [0.1, 0.0])
    ],
    "feature_domain": [-1.0, 1.0],
}


@pytest.mark.parametrize("command", ["solve", "welfare", "check"])
def test_singular_leave_one_out_design_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "loo_singular.json"
    cfg.write_text(json.dumps(LOO_SINGULAR_DOC))
    assert main([command, str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: buyer 0: leave-one-out design dropping source 2 is singular: "
        "design at locations [0.3, 0.3] is rank deficient for degree 1")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command, markets", [("solve", 1), ("welfare", 1), ("check", 1), ("sweep", 3)])
def test_coupling_matrix_built_once_per_market(tmp_path, monkeypatch, command, markets):
    # a sweep builds one stack for all of its markets
    calls = []
    real = datamarket.equilibrium.coupling_matrix

    def counted(xi):
        calls.append(1)
        return real(xi)

    monkeypatch.setattr(datamarket.equilibrium, "coupling_matrix", counted)
    monkeypatch.setattr(datamarket.cli, "coupling_matrix", counted)
    cfg = str(write_config(tmp_path, two_firm_market(0.0)))
    spec = str(write_sweep(tmp_path, market_to_config(two_firm_market(0.0)), -1.0, 0.0, markets))
    argv = {
        "solve": ["solve", cfg],
        "welfare": ["welfare", cfg],
        "check": ["check", cfg, "--samples", "1000", "--steps", "5"],
        "sweep": ["sweep", spec, "--out", str(tmp_path / "rows.csv")],
    }[command]
    assert main(argv) == 0
    assert len(calls) == 1


def test_solve_vanishing_eta_exits_1(tmp_path, capsys):
    # a slope of ~1e308 overflows the per-source total to inf
    cfg = write_config(tmp_path, two_firm_market(0.0, etas=(1e-308, 1.0)))
    out = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "--json-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: source 0 attracts total slope inf")
    assert "nan" not in captured.out.lower()
    assert not out.exists()

    spec = write_sweep(tmp_path, market_to_config(two_firm_market(0.0)), 1e-308, 1.0, 2,
                       param="buyers[0].eta")
    rows_csv = tmp_path / "eta.csv"
    assert main(["sweep", str(spec), "--out", str(rows_csv)]) == 0
    rows = list(csv.DictReader(rows_csv.open()))
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert rows[0]["d_1_1"] == ""


def test_vanishing_eta_writes_only_the_error_line(tmp_path):
    # the overflowing total slope is reported once, with no numpy warning
    # ahead of it; a sweep reports it as a row status and writes nothing
    cfg = write_config(tmp_path, two_firm_market(0.0, etas=(1e-308, 1.0)))
    spec = write_sweep(tmp_path, market_to_config(two_firm_market(0.0)), 1e-308, 1.0, 3,
                       param="buyers[0].eta")
    for argv, lines in ((["solve", str(cfg)], 1), (["welfare", str(cfg)], 1),
                        (["check", str(cfg), "--samples", "200", "--steps", "3"], 1),
                        (["sweep", str(spec), "--out", str(tmp_path / "eta.csv")], 0)):
        proc = subprocess.run([sys.executable, "-m", "datamarket"] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == (0 if argv[0] == "sweep" else 1)
        assert len(proc.stderr.splitlines()) == lines, proc.stderr
        if lines:
            assert proc.stderr.startswith("error: source 0 attracts total slope inf")


def test_subnormal_eta_names_the_buyer(tmp_path):
    # gamma = (beta - delta beta) / eta overflows to inf; the error names the
    # buyer and its eta, with no numpy warning ahead of it, and a sweep
    # reports the row as an error and writes nothing to stderr
    doc = json.loads(json.dumps(_TWO_FIRM))
    doc["buyers"][0]["eta"] = 5e-324
    cfg = tmp_path / "subnormal.json"
    cfg.write_text(json.dumps(doc))
    spec = write_sweep(tmp_path, doc, 5e-324, 1.0, 2, param="buyers[0].eta")
    rows_csv = tmp_path / "subnormal.csv"
    for argv in (["solve", str(cfg)], ["welfare", str(cfg)],
                 ["check", str(cfg), "--samples", "200", "--steps", "3"],
                 ["sweep", str(spec), "--out", str(rows_csv)]):
        proc = subprocess.run([sys.executable, "-m", "datamarket"] + argv,
                              capture_output=True, text=True)
        if argv[0] == "sweep":
            assert proc.returncode == 0
            assert proc.stderr == ""
        else:
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr == ("error: buyer 0: adjusted loss weights overflow at eta 4.94066e-324; "
                                   "the buyer's loss scale is too small\n")
    rows = list(csv.DictReader(rows_csv.open()))
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert rows[0]["gamma_1_1"] == ""


def test_solve_input_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", str(broken)]) == 1

    invalid = write_config(tmp_path, two_firm_market(0.0, alphas=(-1.0, 1.0)), name="bad.json")
    assert main(["solve", str(invalid)]) == 1
    assert "alpha-nonpositive" in capsys.readouterr().err


def test_solve_reports_infeasible_payments(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(-1.0, alphas=(0.1, 0.1)))
    out = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "--json-out", str(out)]) == 0
    assert "infeasible" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["c"]["feasible"] is False
    assert payload["d"]  # equilibrium slopes still reported


def test_solve_delta_asymmetry_rejected(tmp_path, capsys):
    doc = market_to_config(two_firm_market(0.0))
    doc["buyers"][0]["delta"] = [0.0, 0.3]
    doc["buyers"][1]["delta"] = [0.5, 0.0]
    cfg = tmp_path / "asym.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg)]) == 1
    assert "delta-asymmetry" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg), "--seed", "42", "--samples", "20000"]) == 0
    assert "certification: PASS" in capsys.readouterr().out


def test_check_perturbed_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    code = main(["check", str(cfg), "--samples", "5000", "--perturb", "1,1,0.5"])
    assert code == 3
    assert "certification: FAIL" in capsys.readouterr().out


def test_check_bad_perturb_flag(tmp_path):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg), "--perturb", "9,9,0.5", "--samples", "1000"]) == 1


def test_check_overflowing_slopes_exit_1(tmp_path, capsys):
    # a vanishing eta scales the slopes to ~1e308: their total overflows and
    # the solve rejects it before any oracle runs
    cfg = write_config(tmp_path, two_firm_market(0.0, etas=(1e-308, 1.0)))
    assert main(["check", str(cfg), "--samples", "200", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: source 0 attracts total slope inf")
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--samples", "1"], ["--samples", "0"],
    ["--steps", "1"], ["--steps", "0"],
    ["--radius", "-1"], ["--radius", "0"], ["--radius", "nan"], ["--radius", "inf"],
])
def test_check_rejects_vacuous_search(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg)] + flags) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error: check needs")


def test_check_nan_z_score_fails(tmp_path, monkeypatch, capsys):
    real = datamarket.cli.monte_carlo_payments

    def nan_z(*args, **kwargs):
        checks = real(*args, **kwargs)
        return [dataclasses.replace(checks[0], z_score=math.nan)] + checks[1:]

    monkeypatch.setattr(datamarket.cli, "monte_carlo_payments", nan_z)
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg), "--samples", "1000"]) == 3
    assert "certification: FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# welfare
# ---------------------------------------------------------------------------

def test_welfare_command(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["welfare", str(cfg)]) == 0
    assert "price of anarchy: 1.27799191435" in capsys.readouterr().out


def test_welfare_rejects_eta(tmp_path):
    cfg = write_config(tmp_path, two_firm_market(0.0, etas=(2.0, 2.0)))
    assert main(["welfare", str(cfg)]) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def write_sweep(tmp_path, base, frm, to, steps, param="sources[0].x", name="sweep.json"):
    spec = {"param": param, "range": {"from": frm, "to": to, "steps": steps}, "base": base}
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def test_sweep_csv_contract(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, -1.0, 0.0, 5)
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0

    text = out.read_text()
    header = text.splitlines()[0]
    assert header == (
        "param,gamma_1_1,gamma_1_2,gamma_2_1,gamma_2_2,"
        "xi_1_2_1,xi_1_2_2,xi_2_1_1,xi_2_1_2,rho,"
        "d_1_1,d_1_2,d_2_1,d_2_2,e_star_1,e_star_2,e_hat_1,e_hat_2,"
        "loss_eq,loss_opt,poa,status"
    )
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 5
    assert rows[0]["param"] == "-1"
    assert float(rows[0]["poa"]) == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["xi_1_2_1"] == "0"
    assert all(r["status"] == "ok" for r in rows)
    assert float(rows[-1]["d_1_1"]) == pytest.approx(20 / 9, rel=1e-9)


def test_sweep_deterministic_and_threaded(tmp_path, monkeypatch):
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, -1.0, 0.9, 24)
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["sweep", str(spec), "--out", str(out1)]) == 0
    assert main(["sweep", str(spec), "--out", str(out2)]) == 0
    monkeypatch.setenv("DM_THREADS", "4")
    assert main(["sweep", str(spec), "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_sweep_no_equilibrium_rows(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, 0.9, 1.0, 3)
    out = tmp_path / "edge.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["status"] == "ok"
    last = rows[-1]
    assert last["status"] == "no_equilibrium"
    assert float(last["rho"]) >= 1.0 - 1e-9
    assert last["d_1_1"] == ""
    assert last["loss_eq"] == ""
    assert last["poa"] == ""


def test_sweep_eta_parameter(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, 1.0, 2.0, 2, param="buyers[0].eta")
    out = tmp_path / "eta.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["poa"] != ""
    assert rows[1]["poa"] == ""       # welfare undefined off unit eta
    assert rows[1]["d_1_1"] != ""
    assert rows[1]["status"] == "ok"


def test_sweep_base_as_path(tmp_path):
    base_path = write_config(tmp_path, two_firm_market(0.0), name="base.json")
    spec = write_sweep(tmp_path, "base.json", -1.0, 0.0, 3)
    out = tmp_path / "rel.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_sweep_input_errors(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    assert main(["sweep", str(write_sweep(tmp_path, base, -1.0, 0.0, 1, name="s1.json")),
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["sweep", str(write_sweep(tmp_path, base, -1.0, 0.0, 3,
                                          param="sources[0].nope", name="s2.json")),
                 "--out", str(tmp_path / "y.csv")]) == 1
    # swept location leaves the feature domain
    assert main(["sweep", str(write_sweep(tmp_path, base, 0.0, 1.5, 3, name="s3.json")),
                 "--out", str(tmp_path / "z.csv")]) == 1
    # unwritable output
    assert main(["sweep", str(write_sweep(tmp_path, base, -1.0, 0.0, 3, name="s4.json")),
                 "--out", str(tmp_path / "nodir" / "w.csv")]) == 1


# ---------------------------------------------------------------------------
# stacked sweep against the per-row pipeline
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{float(x):.12g}"


def _reference_row(m, value):
    """One sweep row from the one-market pipeline, run on that market alone."""
    n, mm = m.n_sources, m.n_buyers
    w = xi = rho = sol = None
    status = "ok"
    try:
        w = compute_weights(m)
        xi = w.xi
    except (SingularDesignError, GammaNegativeError):
        status = "error"
        try:
            xi = loo_weight_tensor(m)
        except SingularDesignError:
            pass
        else:
            rho = spectral_radius(coupling_matrix(xi))
            if rho >= RHO_EXISTENCE_THRESHOLD:
                status = "no_equilibrium"
    if w is not None:
        system = build_coupling_system(w, m)
        rho = system.rho
        try:
            sol = solve_equilibrium_d(system)
        except NoEquilibriumError:
            status = "no_equilibrium"
        except (NumericFailure, ValueError):
            status = "error"

    blank = [""] * (n * mm)
    gamma = blank if w is None else [_fmt(w.gamma[j, i]) for i in range(n) for j in range(mm)]
    xis = ([""] * (n * (n - 1) * mm) if xi is None else
           [_fmt(xi[j, i, l]) for i in range(n) for l in range(n) if l != i for j in range(mm)])
    head = [_fmt(value)] + gamma + xis + ["" if rho is None else _fmt(rho)]
    if sol is None:
        return head + blank + [""] * (2 * n + 3) + [status]
    welfare = [""] * (n + 3)
    try:
        rep = price_of_anarchy(sol, w, m)
        welfare = [_fmt(v) for v in rep.efforts_opt] + [_fmt(rep.loss_eq), _fmt(rep.loss_opt),
                                                        _fmt(rep.poa)]
    except (EtaNotOneError, DegenerateSourceError, UndefinedPoaError):
        pass
    d = [_fmt(sol.d[j, i]) for i in range(n) for j in range(mm)]
    return head + d + [_fmt(v) for v in sol.efforts] + welfare + ["ok"]


def _reference_csv(spec_path):
    spec = json.loads(spec_path.read_text())
    base = spec["base"]
    if isinstance(base, str):
        base = json.loads((spec_path.parent / base).read_text())
    rng = spec["range"]
    values = np.linspace(float(rng["from"]), float(rng["to"]), rng["steps"])
    markets = []
    for v in values:
        doc = copy.deepcopy(base)
        datamarket.cli._apply_param(doc, spec["param"], float(v))
        markets.append(market_from_config(doc))
    header = datamarket.cli._sweep_columns(markets[0].n_sources, markets[0].n_buyers)
    rows = [_reference_row(m, v) for m, v in zip(markets, values.tolist())]
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def _market_doc(rng, xs, degrees, delta_top=0.05, etas=None):
    mm = len(degrees)
    off = np.triu(np.round(rng.uniform(0.0, delta_top, (mm, mm)), 4), 1)
    delta = off + off.T
    buyers = []
    for k, degree in enumerate(degrees):
        if k % 2:
            dist = {"kind": "point-mass", "params": {"x0": round(float(rng.uniform(-1, 1)), 4)}}
        else:
            lo, hi = float(rng.uniform(-1.0, -0.25)), float(rng.uniform(0.25, 1.0))
            dist = {"kind": "uniform", "params": {"lo": round(lo, 4), "hi": round(hi, 4)}}
        buyers.append({"estimator": {"kind": "polynomial-regression", "degree": int(degree)},
                       "value_dist": dist, "delta": delta[k].tolist(),
                       "eta": 1.0 if etas is None else etas[k]})
    return {"sources": [{"x": float(x), "alpha": round(float(rng.uniform(0.5, 1.5)), 3)} for x in xs],
            "buyers": buyers, "feature_domain": [-1.0, 1.0]}


def _seeded_specs(rng):
    """(param, from, to, steps, base) sweeps over every swept parameter, one
    to three buyers, two to four sources and degrees one to three.

    x sweeps step on a 1/16 grid that holds the other sources, so some rows
    hit a coincident pair (error) and their neighbours couple strongly
    (no_equilibrium); degree N - 1 makes every leave-one-out design
    underdetermined, and strong competition drives adjusted weights negative.
    """
    g = 1.0 / 16.0
    specs = []
    for mm in (1, 2, 3):
        specs.append(("sources[0].x", -1.0, 1.0, 33, _market_doc(rng, [0.0, 1.0], [1] * mm)))
        mid = g * int(rng.integers(-3, 4))
        specs.append(("sources[1].x", -1.0, 1.0, 33,
                      _market_doc(rng, [-1.0, mid, 1.0], [1 + k % 2 for k in range(mm)])))
        specs.append(("sources[2].x", -1.0, 1.0, 17,
                      _market_doc(rng, [-1.0, -0.5, 0.0, 1.0], [3 - k % 3 for k in range(mm)])))
        specs.append((f"sources[{int(rng.integers(0, 3))}].alpha", 0.5, 2.0, 9,
                      _market_doc(rng, [-1.0, g * int(rng.integers(-3, 4)), 1.0], [2] * mm, 0.3)))
        specs.append((f"buyers[{int(rng.integers(0, mm))}].eta", 0.5, 2.0, 9,
                      _market_doc(rng, [-1.0, -0.5, 0.5, 1.0], [3] * mm, 0.9)))
    for _ in range(6):
        xs = sorted(rng.uniform(-1.0, 1.0, 3).round(4).tolist())
        specs.append(("sources[0].x", -1.0, 1.0, 9, _market_doc(rng, xs, [1, 2], 0.9)))
    # every row an error: dropping source 2 leaves two coincident points
    specs.append(("sources[2].alpha", 0.5, 2.0, 5, _market_doc(rng, [0.3, 0.3, 0.9], [1, 1])))
    # every row past the gate: two coincident sources
    specs.append(("sources[0].alpha", 0.5, 2.0, 5, _market_doc(rng, [0.5, 0.5], [1, 1])))
    return specs


@pytest.mark.parametrize("batch_entries", [None, 100])
def test_stacked_sweep_matches_the_per_row_pipeline(tmp_path, monkeypatch, batch_entries):
    # byte-identical CSVs, whether all rows are computed together or a few
    # at a time
    if batch_entries is not None:
        monkeypatch.setattr(datamarket.cli, "_BATCH_ENTRIES", batch_entries)
    spec_paths = [tmp_path / "sweep_x1.json"]
    spec_paths[0].write_text(json.dumps(dict(
        json.loads(open(os.path.join(ROOT, "configs", "sweep_x1.json")).read()),
        base=json.loads(open(os.path.join(ROOT, "configs", "two_firm.json")).read()))))
    for c, (param, lo, hi, steps, base) in enumerate(_seeded_specs(np.random.default_rng(5))):
        spec_paths.append(write_sweep(tmp_path, base, lo, hi, steps, param=param, name=f"s{c}.json"))

    statuses = []
    for path in spec_paths:
        out = tmp_path / (path.stem + ".csv")
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert out.read_text() == _reference_csv(path)
        statuses.append({line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]})
    assert set().union(*statuses) == {"ok", "no_equilibrium", "error"}
    assert statuses[-2] == {"error"} and statuses[-1] == {"no_equilibrium"}


def test_sweep_steps_are_bounded(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, -1.0, 0.0, datamarket.cli.MAX_SWEEP_STEPS + 1)
    assert main(["sweep", str(spec), "--out", str(tmp_path / "x.csv")]) == 1
    spec = write_sweep(tmp_path, base, -1.0, 0.0, 10 ** 18, name="huge.json")
    assert main(["sweep", str(spec), "--out", str(tmp_path / "y.csv")]) == 1


_SWEEP_SPEC = {"param": "sources[0].x", "range": {"from": -1.0, "to": 0.999, "steps": 9},
               "base": _TWO_FIRM}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_leaf_paths(_SWEEP_SPEC)), _JSON_VALUES),
                      min_size=1, max_size=2))
def test_sweep_any_spec_ends_in_an_exit_code(tmp_path, capsys, edits):
    spec = json.loads(json.dumps(_SWEEP_SPEC))
    for path, value in edits:
        _set_leaf(spec, path, value)
    path = tmp_path / "fuzz_sweep.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "fuzz_rows.csv"
    out.unlink(missing_ok=True)
    code = main(["sweep", str(path), "--out", str(out)])
    assert code in (0, 1)
    if code == 0:
        header, *rows = out.read_text().splitlines()
        width = len(header.split(","))
        for row in rows:
            cells = row.split(",")
            assert len(cells) == width
            assert cells[-1] in ("ok", "no_equilibrium", "error")
    capsys.readouterr()


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_python_m_invocation(tmp_path):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    proc = subprocess.run([sys.executable, "-m", "datamarket", "solve", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spectral radius: 0.5" in proc.stdout
