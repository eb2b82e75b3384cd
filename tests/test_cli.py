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
    assert main(["solve", str(cfg)]) in (0, 1, 2)
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


def test_negative_gamma_past_the_gate_has_no_equilibrium(tmp_path, capsys):
    # existence is decided by xi alone, ahead of the negative adjusted weight
    cfg = tmp_path / "neg_gamma.json"
    cfg.write_text(json.dumps(NEG_GAMMA_DOC))
    for command in ("solve", "check", "welfare"):
        assert main([command, str(cfg)]) == 2
        assert "no equilibrium: spectral radius 2 " in capsys.readouterr().err

    spec = write_sweep(tmp_path, NEG_GAMMA_DOC, 1.0, 2.0, 2, param="sources[0].alpha")
    out = tmp_path / "neg.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["status"] for r in rows] == ["no_equilibrium"] * 2
    assert all(r["gamma_1_1"] == "" and float(r["rho"]) == pytest.approx(2.0) for r in rows)


@pytest.mark.parametrize("command, markets", [("solve", 1), ("welfare", 1), ("check", 1), ("sweep", 3)])
def test_coupling_matrix_built_once_per_market(tmp_path, monkeypatch, command, markets):
    calls = []
    real = datamarket.equilibrium.coupling_matrix

    def counted(xi):
        calls.append(1)
        return real(xi)

    monkeypatch.setattr(datamarket.equilibrium, "coupling_matrix", counted)
    monkeypatch.setattr(datamarket.cli, "coupling_matrix", counted)
    cfg = str(write_config(tmp_path, two_firm_market(0.0)))
    spec = str(write_sweep(tmp_path, market_to_config(two_firm_market(0.0)), -1.0, 0.0, 3))
    argv = {
        "solve": ["solve", cfg],
        "welfare": ["welfare", cfg],
        "check": ["check", cfg, "--samples", "1000", "--steps", "5"],
        "sweep": ["sweep", spec, "--out", str(tmp_path / "rows.csv")],
    }[command]
    assert main(argv) == 0
    assert len(calls) == markets


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
    # a vanishing eta scales the slopes to ~1e308: the deviation box overflows
    cfg = write_config(tmp_path, two_firm_market(0.0, etas=(1e-308, 1.0)))
    assert main(["check", str(cfg), "--samples", "200", "--steps", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
# module entry point
# ---------------------------------------------------------------------------

def test_python_m_invocation(tmp_path):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    proc = subprocess.run([sys.executable, "-m", "datamarket", "solve", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spectral radius: 0.5" in proc.stdout
