import copy
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import datamarket.cli
import datamarket.equilibrium
import datamarket.estimators
import datamarket.oracle
from datamarket import (
    RHO_EXISTENCE_THRESHOLD,
    DataBuyer,
    DataSource,
    EstimatorSpec,
    MarketInstance,
    ValueDistribution,
    GammaNegativeError,
    NoEquilibriumError,
    NumericFailure,
    SingularDesignError,
    UndefinedPoaError,
    complete_solution,
    compute_weights,
    coupling_matrix,
    payment_moments,
    best_response_certificate,
    price_of_anarchy,
    solution_from_d,
    solve_equilibrium_d,
    spectral_radius,
    validate_market,
)
from datamarket.cli import ConfigError, main, market_from_config

from conftest import market_to_config, two_firm_market
from test_oracle import CONVEX_SOLVE_DOC, _grid_search

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

# Sources at -1, 0 and 1 and buyers of degrees 1 and 2: two groups, and a
# clustered Perron root 1/sqrt(2) that eigvals meets on the group-major R
CLUSTERED_DOC = {
    "sources": [{"x": x, "alpha": 1.0} for x in (-1.0, 0.0, 1.0)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": d},
                "value_dist": {"kind": "uniform", "params": {"lo": -1.0, "hi": 1.0}},
                "delta": [0.0, 0.0]} for d in (1, 2)],
    "feature_domain": [-1.0, 1.0],
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


def _discrete(points, weights):
    return {"kind": "discrete", "params": {"points": points, "weights": weights}}


@pytest.mark.parametrize("path, value", [
    (("buyers", 0, "eta"), "abc"),
    (("buyers", 0, "eta"), None),
    (("buyers", 0, "eta"), []),
    (("buyers", 1, "eta"), {}),
    (("sources", 0, "x"), 10 ** 400),
    (("buyers", 0, "delta"), [0.0, 10 ** 400]),
    (("feature_domain", 0), 10 ** 400),
    (("buyers", 0, "value_dist"), _discrete([None], [1.0])),
    # JSON booleans and numeric strings are not numbers
    (("sources", 0, "alpha"), True),
    (("buyers", 0, "eta"), "1.5"),
    (("sources", 1, "x"), "inf"),
    (("buyers", 0, "value_dist", "params", "lo"), "-1"),
    (("buyers", 1, "value_dist"), {"kind": "point-mass", "params": {"x0": False}}),
    (("buyers", 0, "delta"), [False, 0.0]),
    (("buyers", 1, "delta"), [0.0, "0"]),
    (("feature_domain", 1), True),
    (("buyers", 0, "value_dist"), _discrete(["0.5"], [1.0])),
    (("buyers", 0, "value_dist"), _discrete([0.5], [True])),
])
def test_config_rejects_non_numbers(tmp_path, capsys, path, value):
    doc = market_to_config(two_firm_market(0.0))
    _set_leaf(doc, path, value)
    with pytest.raises(ConfigError) as info:
        market_from_config(doc)
    assert re.fullmatch(r".* must be (a number, got .*|numbers)", str(info.value))
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def _two_firm_doc(path=None, value=None):
    doc = market_to_config(two_firm_market(0.0))
    if path is not None:
        _set_leaf(doc, path, value)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_two_firm_doc(("sources", 0), {"x": 0.0}), "sources[0]: missing key 'alpha'"),
    (_two_firm_doc(("buyers", 0, "value_dist"), {"params": {}}), "buyers[0]: value_dist needs a 'kind' field"),
    (_two_firm_doc(("buyers", 1, "value_dist"), "uniform"), "buyers[1]: value_dist needs a 'kind' field"),
    (_two_firm_doc(("buyers", 0, "value_dist", "params"), [-1.0, 1.0]),
     "buyers[0]: value_dist params must be an object"),
    (_two_firm_doc(("buyers", 0, "value_dist"), {"kind": "discrete", "params": {"points": [0.5]}}),
     "buyers[0]: discrete value_dist needs 'points' and 'weights' lists"),
    ([], "top level must be an object"),
    (_two_firm_doc(("sources",), {}), "sources must be a list"),
    (_two_firm_doc(("sources", 1), 1.0), "sources[1]: must be an object"),
    (_two_firm_doc(("buyers",), None), "buyers must be a list"),
    (_two_firm_doc(("buyers", 1), []), "buyers[1]: must be an object"),
    (_two_firm_doc(("buyers", 0, "estimator"), {"degree": 1}), "buyers[0]: estimator needs a 'kind' field"),
    (_two_firm_doc(("buyers", 0, "delta"), 0.0), "buyers[0]: delta must be a list"),
], ids=["missing-key", "dist-no-kind", "dist-not-object", "params-not-object", "discrete-no-weights",
        "top-level", "sources-not-list", "source-not-object", "buyers-not-list", "buyer-not-object",
        "estimator-no-kind", "delta-not-list"])
def test_config_structure_errors(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# an effort of log(2 * d_total * alpha) / (2 * alpha) that overflows
_HUGE_ALPHA = [(("sources", 0, "alpha"), 2.2e307)]
# an effort that does not overflow, with 2 * alpha within a float of
# overflowing
_BIG_ALPHA = [(("sources", 0, "alpha"), 2.0e307)]


# a source at 1e300, whose design's Gram matrix overflows
_FAR_SOURCE = [(("feature_domain", 1), 1e300), (("sources", 1, "x"), 1e300)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_leaf_paths(_TWO_FIRM)), _JSON_VALUES),
                      min_size=1, max_size=2))
@example(edits=_HUGE_ALPHA)
@example(edits=_FAR_SOURCE)
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
    (["check"], (0, 1, 2, 3)),
], ids=["welfare", "check"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(_leaf_paths(_TWO_FIRM)), _JSON_VALUES),
                      min_size=1, max_size=2))
@example(edits=_HUGE_ALPHA)
@example(edits=_BIG_ALPHA)
@example(edits=_FAR_SOURCE)
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


@pytest.mark.parametrize("command", ["solve", "welfare", "check"])
def test_near_decoupled_market_exits_0(tmp_path, command):
    # rho is about 2.5e-17 here: the over-supply is far below rounding, so the
    # welfare check must not demand a strict one
    cfg = write_config(tmp_path, two_firm_market(-1.0 + 1e-8))
    assert main([command, str(cfg)]) == 0


def test_near_decoupled_sweep_rho_is_exact(tmp_path):
    # two-firm rho in closed form: (1 + x)**2 / (2 * (1 + x**2)); the CSV
    # prints x to 12 digits, too few for 1 + x, so x is recomputed
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, -1.0, -0.999999, 50)
    out = tmp_path / "near.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["status"] for r in rows] == ["ok"] * 50
    for r, x in zip(rows, np.linspace(-1.0, -0.999999, 50)):
        exact = (1.0 + x) ** 2 / (2.0 * (1.0 + x * x))
        assert abs(float(r["rho"]) - exact) <= 1e-6 * exact


@pytest.mark.parametrize("command", ["check", "welfare"])
def test_coincident_sources_exit_2_in_every_command(tmp_path, capsys, command):
    cfg = write_config(tmp_path, two_firm_market(1.0))
    assert main([command, str(cfg)]) == 2
    assert "no equilibrium" in capsys.readouterr().err


def test_negative_gamma_past_the_gate_has_no_equilibrium(tmp_path, capsys, monkeypatch):
    # existence is decided by xi alone, ahead of the negative adjusted weight;
    # the xi fitted with the weights is reused, not fitted a second time
    fits = []
    real = datamarket.estimators._fit_rows

    def counted(*args):
        fits.append(1)
        return real(*args)

    monkeypatch.setattr(datamarket.estimators, "_fit_rows", counted)
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


def test_rho_is_read_on_the_coupling_matrix_as_built(tmp_path, monkeypatch):
    # spectral_radius receives the very array coupling_matrix returned, not
    # a reordered copy: in a solve, in the existence check ahead of a
    # weights error, and in a sweep batch of several rows
    built, received = [], []
    real_build = datamarket.equilibrium.coupling_matrix
    real_radius = datamarket.equilibrium.spectral_radius

    def build(xi):
        built.append(real_build(xi))
        return built[-1]

    def radius(a):
        received.append(a)
        return real_radius(a)

    for module in (datamarket.equilibrium, datamarket.cli):
        monkeypatch.setattr(module, "coupling_matrix", build)
        monkeypatch.setattr(module, "spectral_radius", radius)
    clustered, neg = tmp_path / "clustered.json", tmp_path / "neg_gamma.json"
    clustered.write_text(json.dumps(CLUSTERED_DOC))
    neg.write_text(json.dumps(NEG_GAMMA_DOC))
    spec = write_sweep(tmp_path, CLUSTERED_DOC, -0.5, 0.5, 5, param="sources[1].x")
    for argv, code in ((["solve", str(clustered)], 0), (["solve", str(neg)], 2),
                       (["sweep", str(spec), "--out", str(tmp_path / "out.csv")], 0)):
        built.clear()
        received.clear()
        assert main(argv) == code
        assert len(received) == 1 and received[0] is built[0]
    assert received[0].shape == (5, 6, 6)


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


# One degree-2 buyer over sources at 1e300, -1 and 0: the square of 1e300
# overflows a float.
FAR_QUADRATIC_DOC = {
    "sources": [{"x": x, "alpha": 1.0} for x in (1e300, -1.0, 0.0)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": 2},
                "value_dist": {"kind": "point-mass", "params": {"x0": 0.5}},
                "delta": [0.0], "eta": 1.0}],
    "feature_domain": [-1.0, 1e300],
}


@pytest.mark.parametrize("doc, message", [
    (FAR_QUADRATIC_DOC, "buyer 0: design at locations [1e+300, -1.0, 0.0] is rank deficient "
                        "for degree 2 (cond inf)"),
    (dict(_TWO_FIRM, feature_domain=[-1.0, 1e300],
          sources=[_TWO_FIRM["sources"][0], {"x": 1e300, "alpha": 1.0}]),
     "buyer 0: design at locations [0.0, 1e+300] is rank deficient for degree 1 (cond inf)"),
    # sources 1e-5 apart fit, but a buyer valuing x = 1e150 has loss weights past 1e308
    ({"sources": [{"x": 0.0, "alpha": 1.0}, {"x": 1e-5, "alpha": 1.0}],
      "buyers": [{"estimator": {"kind": "linear-regression", "degree": 1},
                  "value_dist": {"kind": "point-mass", "params": {"x0": 1e150}},
                  "delta": [0.0], "eta": 1.0}],
      "feature_domain": [0.0, 1.0]},
     "buyer 0, source 0: loss weight inf overflows a float; the buyer's values lie too far from the sources"),
], ids=["far-quadratic", "far-two-firm", "loss-weight"])
@pytest.mark.parametrize("command", ["solve", "welfare", "check"])
def test_weights_that_overflow_exit_1(tmp_path, capsys, doc, message, command):
    # no LAPACK error, no numpy warning and no blame on eta: the one error line
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sweep_to_a_far_source_reports_error_rows(tmp_path, capsys):
    doc = copy.deepcopy(FAR_QUADRATIC_DOC)
    doc["sources"][0]["x"] = 0.6
    spec = write_sweep(tmp_path, doc, 0.6, 1e300, 3)
    out = tmp_path / "far.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [r["status"] for r in csv.DictReader(out.open())] == ["ok", "error", "error"]


# Sources (x, alpha) = (-1, 1e9), (0, 0.5), (1, 1) and a buyer with eta 1e307:
# slopes near 1e-308 give source 1 a negative effort, and sources 0 and 2
# payment bounds of inf, so their slacks are NaN.
NAN_SLACK_DOC = {
    "sources": [{"x": -1.0, "alpha": 1e9}, {"x": 0.0, "alpha": 0.5}, {"x": 1.0, "alpha": 1.0}],
    "buyers": [{"estimator": {"kind": "linear-regression", "degree": 1},
                "value_dist": {"kind": "point-mass", "params": {"x0": 0.5}},
                "delta": [0.0], "eta": 1e307}],
    "feature_domain": [-1.0, 1.0],
}


def test_negative_slack_is_found_beside_nan_slacks(tmp_path, capsys):
    cfg = tmp_path / "nan_slack.json"
    cfg.write_text(json.dumps(NAN_SLACK_DOC))
    reason = "payment polytope of source 1 is empty (participation slack -709.091 < 0)"
    out = tmp_path / "sol.json"
    assert main(["solve", str(cfg), "--json-out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"flat payments: infeasible ({reason})\n" in captured.out
    assert captured.err == ""
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["c"] == {"feasible": False, "reason": reason}
    assert main(["check", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {reason}\n")


# Sources at 0.6 (alpha 1e-200), 0, 0.15 and 0.125, and a linear buyer with
# eta 1e-308: source 0's slope is 1.7e308, so 1.5 times it overflows.
TINY_ETA_DOC = {
    "sources": [{"x": x, "alpha": a} for x, a in ((0.6, 1e-200), (0.0, 1.0), (0.15, 1.0), (0.125, 1.0))],
    "buyers": [{"estimator": {"kind": "linear-regression", "degree": 1},
                "value_dist": {"kind": "discrete", "params": {"points": [1.0, 0.5], "weights": [0.5, 0.5]}},
                "delta": [0.0], "eta": 1e-308}],
    "feature_domain": [0.0, 1.0],
}


def test_slopes_near_the_float_limit_warn_nothing(tmp_path, capsys):
    cfg = tmp_path / "tiny_eta.json"
    cfg.write_text(json.dumps(TINY_ETA_DOC))
    assert main(["solve", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "welfare: skipped (buyer 0 has eta 1e-308; welfare accounting requires eta == 1)" in captured.out
    assert captured.err == ""
    assert main(["welfare", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "error: buyer 0 has eta 1e-308; welfare accounting requires eta == 1\n")
    # the lone buyer's best reply is its loss weight, slope 1.72e308 included
    assert main(["check", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "best response buyer 1: max improvement 0 (tolerance 1e-06) certified\n" in captured.out
    assert "certification: PASS\n" in captured.out
    assert captured.err == ""


# Sources (x, alpha) = (1e-320, 1.63) and (0.0912, 1e-9), and linear buyers at
# point masses 1e150 (eta 1e307) and 0 (eta 1e-308): gamma reaches 1e308 with
# xi near 1, so the solved slopes overflow and the solve residual is NaN.
NAN_RESIDUAL_DOC = {
    "sources": [{"x": 1e-320, "alpha": 1.63}, {"x": 0.0912, "alpha": 1e-9}],
    "buyers": [{"estimator": {"kind": "linear-regression", "degree": 1},
                "value_dist": {"kind": "point-mass", "params": {"x0": x0}},
                "delta": [0.0, 0.0], "eta": eta} for x0, eta in ((1e150, 1e307), (0.0, 1e-308))],
    "feature_domain": [-1.0, 1.0],
}


def test_slopes_that_overflow_are_rejected_without_a_warning(tmp_path, capsys):
    cfg = tmp_path / "nan_residual.json"
    cfg.write_text(json.dumps(NAN_RESIDUAL_DOC))
    for command in ("solve", "welfare", "check"):
        assert main([command, str(cfg)]) == 1
        assert capsys.readouterr() == ("", "error: fixed-point residual nan exceeds 1e-08\n")
    spec = write_sweep(tmp_path, NAN_RESIDUAL_DOC, 1e-9, 1.0, 3, param="sources[1].alpha")
    out = tmp_path / "out.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote 3 rows to {out}\n", "")
    assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]] == ["error"] * 3


@pytest.mark.parametrize("command, markets, x1, code, built", [
    pytest.param("solve", 1, 0.0, 0, 1, id="solve-1"),
    pytest.param("welfare", 1, 0.0, 0, 1, id="welfare-1"),
    # the fixed-point certificate takes its v from the solve
    pytest.param("check", 1, 0.0, 0, 1, id="check-1"),
    pytest.param("sweep", 3, (-1.0, 0.0), 0, 1, id="sweep-3"),
    # a solved row, a weighted row past the gate, and coincident sources (a
    # weights error with xi, past the gate): one batch, one build
    pytest.param("sweep", 3, (0.9999, 1.0), 0, 1, id="sweep-past_gate"),
    # past the gate with weights that fit: the radius and the solve that
    # reports the gate share the one build
    pytest.param("solve", 1, 1.0 - 5e-5, 2, 1, id="solve-past_gate"),
    pytest.param("welfare", 1, 1.0 - 5e-5, 2, 1, id="welfare-past_gate"),
    pytest.param("check", 1, 1.0 - 5e-5, 2, 1, id="check-past_gate"),
])
def test_coupling_matrix_built_once_per_market(tmp_path, monkeypatch, command, markets, x1, code, built):
    # the radius, the solve and check's certificate share one build; a sweep
    # builds one stack for all of its markets
    calls = []
    real = datamarket.equilibrium.coupling_matrix

    def counted(xi):
        calls.append(1)
        return real(xi)

    monkeypatch.setattr(datamarket.equilibrium, "coupling_matrix", counted)
    monkeypatch.setattr(datamarket.cli, "coupling_matrix", counted)
    if command == "sweep":  # x1 is the swept range of sources[0].x
        spec = str(write_sweep(tmp_path, market_to_config(two_firm_market(0.0)), *x1, markets))
        argv = ["sweep", spec, "--out", str(tmp_path / "rows.csv")]
    else:
        argv = [command, str(write_config(tmp_path, two_firm_market(x1)))]
    assert main(argv) == code
    assert len(calls) == built


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
                        (["check", str(cfg)], 1),
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
                 ["check", str(cfg)],
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


_HUGE_ALPHAS = (1e300, 1.7e308, 5)
_TINY_ALPHAS = (1e-320, 1e-319, 3)


@pytest.mark.parametrize("alpha, eta, total, sweep, statuses", [
    (2.2e307, 1.0, "4.44444", _HUGE_ALPHAS, ["ok"] + ["error"] * 4),
    (1.797e308, 1.0, "4.44444", _HUGE_ALPHAS, ["ok"] + ["error"] * 4),
    (1.797e308, 100.0, "0.0444444", _HUGE_ALPHAS, ["ok"] * 3 + ["error"] * 2),  # only 2 * alpha overflows
    (1e-308, 1.0, "4.44444", _TINY_ALPHAS, ["error"] * 3),  # the effort reaches -inf
    (1e-320, 1.0, "4.44444", _TINY_ALPHAS, ["error"] * 3),  # and the variance inf
], ids=["2.2e307", "1.797e308", "1.797e308-eta100", "1e-308", "1e-320"])
def test_overflowing_effort_exits_1(tmp_path, capsys, alpha, eta, total, sweep, statuses):
    # log(2 * alpha * d_total) / (2 * alpha) overflows: the effort is not
    # reported as inf, -inf or 0 (or the variance as 0 or inf), and a sweep
    # row reads error, not ok
    doc = json.loads(json.dumps(_TWO_FIRM))
    doc["sources"][0]["alpha"] = alpha
    for buyer in doc["buyers"]:
        buyer["eta"] = eta
    cfg = tmp_path / "huge_alpha.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    for argv in (["solve", str(cfg), "--json-out", str(out)], ["welfare", str(cfg)],
                 ["check", str(cfg)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: source 0 has alpha {alpha:.6g} at total slope {total}; "
                                "its effort overflows\n")
    assert not out.exists()

    spec = write_sweep(tmp_path, doc, *sweep, param="sources[0].alpha")
    rows_csv = tmp_path / "alpha.csv"
    assert main(["sweep", str(spec), "--out", str(rows_csv)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(rows_csv.open()))
    assert [r["status"] for r in rows] == statuses
    assert all(float(r["e_star_1"]) < 1.0 for r in rows if r["status"] == "ok")
    assert all(r["e_star_1"] == "" and r["d_1_1"] == "" for r in rows if r["status"] == "error")


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


def _json_dump_reference(obj):
    """The row writer's reference: json.dumps with indent=2 of the payload
    with every array as a list."""
    def plain(o):
        if isinstance(o, dict):
            return {k: plain(v) for k, v in o.items()}
        return o.tolist() if isinstance(o, np.ndarray) else o
    return json.dumps(plain(obj), indent=2)


def test_json_writer_matches_json_dumps():
    row = np.array([0.1, -2.5, 7.0])
    payload = {
        "cells": np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1e16]]),
        "finite": np.array([-0.0, 5e-324, 1e16, 1.0 / 3.0]),
        "empty": np.zeros((0,)),
        "empty_rows": np.zeros((2, 0)),
        "none_left": np.zeros((0, 3)),
        "rows": np.stack([row, row, row]),
        "nested": {"row": row, "deeper": {"row": row, "stack": row[None, :]}, "empty": {}},
        "plain": [1, 2.5, "x", None, True],
        "rho": 0.1 + 0.2,
        "n": 3,
        "welfare": None,
        "feasible": False,
        "reason": "payment polytope of source 1 is empty — slack ≥ ∅",
    }
    for obj in (payload, np.zeros((0,)), np.zeros((2, 0)), row, 1.5, {}, []):
        buf = io.StringIO()
        datamarket.cli._write_json(buf, obj)
        assert buf.getvalue() == _json_dump_reference(obj)
    buf = io.StringIO()
    datamarket.cli._write_json(buf, np.zeros((2, 0)))
    assert buf.getvalue() == "[\n  [],\n  []\n]"


@pytest.mark.parametrize("market", ["two_firm.json", "two_firm_decoupled.json", "infeasible"])
def test_solve_json_out_matches_json_dumps(tmp_path, monkeypatch, capsys, market):
    if market == "infeasible":
        cfg = str(write_config(tmp_path, two_firm_market(-1.0, alphas=(0.1, 0.1))))
    else:
        cfg = os.path.join(ROOT, "configs", market)
    assert main(["solve", cfg, "--json-out", str(tmp_path / "rows.json")]) == 0
    monkeypatch.setattr(datamarket.cli, "_write_json",
                        lambda fh, obj: fh.write(_json_dump_reference(obj)))
    assert main(["solve", cfg, "--json-out", str(tmp_path / "reference.json")]) == 0
    written = (tmp_path / "rows.json").read_bytes()
    assert written == (tmp_path / "reference.json").read_bytes()
    assert (b'"feasible": false' in written) == (market == "infeasible")


def test_solve_json_out_unwritable_exits_1(tmp_path, capsys):
    out = tmp_path / "nodir" / "solution.json"
    assert main(["solve", os.path.join(ROOT, "configs", "two_firm.json"), "--json-out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("market: 2 sources, 2 buyers\n")
    assert captured.err == f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg), "--seed", "42"]) == 0
    assert "certification: PASS" in capsys.readouterr().out


def test_check_perturbed_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    code = main(["check", str(cfg), "--perturb", "1,1,0.5"])
    assert code == 3
    assert "certification: FAIL" in capsys.readouterr().out


def test_check_negative_slope_finds_the_best_reply(capsys):
    # d[1,1] = 20/9 - 2.3 < 0, and buyer 1's canonical flat payment sits
    # below its floor, so the book is costed with re-tightened flats like
    # every deviation; both buyers can improve, buyer 1 by far more than any
    # box around the book would find
    cfg = os.path.join(ROOT, "configs", "two_firm.json")
    assert main(["check", cfg, "--perturb", "1,1,-2.3"]) == 3
    captured = capsys.readouterr()
    assert "best response buyer 1: max improvement 0.198 (tolerance 1.76e-06) IMPROVABLE" in captured.out
    assert "best response buyer 2: max improvement 0.00646 (tolerance 2.51e-06) IMPROVABLE" in captured.out
    assert "certification: FAIL" in captured.out
    assert "buyer 2 can improve by 0.00646" in captured.err


def test_check_zero_slope_buyer_certifies(tmp_path, capsys):
    # buyer 1 discounts the others by 1/2 and they hold its weights: its
    # gamma and d are exactly 0, which is its best reply, and a nonzero
    # slope is not
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = tuple(DataBuyer(EstimatorSpec.linear(), dist, row)
                   for row in ((0.0, 0.5, 0.5), (0.5, 0.0, 0.0), (0.5, 0.0, 0.0)))
    m = MarketInstance(sources=(DataSource(-1.0, 3.0), DataSource(1.0, 3.0)), buyers=buyers,
                       feature_domain=(-1.0, 1.0))
    assert not compute_weights(m).gamma[0].any()
    cfg = write_config(tmp_path, m)
    assert main(["check", str(cfg)]) == 0
    assert "best response buyer 1: max improvement 0 (tolerance 1e-06) certified" in capsys.readouterr().out
    assert main(["check", str(cfg), "--perturb", "1,1,0.1"]) == 3
    assert re.search(r"^best response buyer 1: max improvement \S+ \(tolerance \S+\) IMPROVABLE$",
                     capsys.readouterr().out, re.M)


def test_fixed_point_iteration_does_not_use_the_solves_matrix(monkeypatch, capsys):
    # the solve runs on half the coupling matrix: its own residual, taken
    # from xi, rejects it
    real = datamarket.equilibrium.coupling_matrix
    monkeypatch.setattr(datamarket.equilibrium, "coupling_matrix", lambda xi: 0.5 * real(xi))
    cfg = os.path.join(ROOT, "configs", "two_firm.json")
    assert main(["check", cfg]) == 1
    assert re.fullmatch(r"error: fixed-point residual \S+ exceeds 1e-08\n", capsys.readouterr().err)
    # with the residual limit lifted, the fixed-point certificate takes its
    # v from that solve but applies the map from xi, so it cannot certify
    # the solve and says so
    monkeypatch.setattr(datamarket.equilibrium, "_RESIDUAL_HARD_LIMIT", np.inf)
    assert main(["check", cfg]) == 3
    captured = capsys.readouterr()
    assert "fixed point: within 1.19 of the exact solution\n" in captured.out
    assert "  - the solve is not certified within 1e-8 of the fixed point (1.19)\n" in captured.err


def test_check_bad_perturb_flag(tmp_path):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg), "--perturb", "9,9,0.5"]) == 1


def test_check_perturb_that_leaves_slopes_uncheckable_exits_1(capsys):
    # a negative total slope on source 0 leaves its effort undefined
    cfg = os.path.join(ROOT, "configs", "two_firm_decoupled.json")
    assert main(["check", cfg, "--perturb", "1,1,-2.3"]) == 1
    assert capsys.readouterr() == ("", "error: perturbed slopes are not checkable: source 0 attracts "
                                       "total slope -1.63333; its effort is undefined\n")


@pytest.mark.parametrize("x, code, bound, err", [
    # rho = 1 - 2.5e-7: certified, where the iteration it replaced stalled
    (0.999, 0, "4e-09", ""),
    # rho = 1 - 2.5e-9: an equilibrium exists, but its slopes cannot be
    # certified to 1e-8 in floating point
    (0.9999, 3, "3.63e-07", "  - the solve is not certified within 1e-8 of the fixed point (3.63e-07)\n"),
], ids=["rho-1-2.5e-7", "rho-1-2.5e-9"])
def test_check_fixed_point_near_the_gate(tmp_path, capsys, x, code, bound, err):
    cfg = write_config(tmp_path, two_firm_market(x))
    assert main(["check", str(cfg)]) == code
    captured = capsys.readouterr()
    assert f"\nfixed point: within {bound} of the exact solution\n" in captured.out
    assert captured.err == err


def test_check_prints_a_z_that_rounds_to_zero_as_plus_zero(tmp_path, capsys):
    # two_firm with source 1 at 0.99: buyer 1's z on source 2 is a negative
    # rounding residue, whose sign says nothing
    doc = json.loads(open(os.path.join(ROOT, "configs", "two_firm.json")).read())
    doc["sources"][0]["x"] = 0.99
    m = market_from_config(doc)
    w = compute_weights(m)
    assert np.signbit(payment_moments(complete_solution(solve_equilibrium_d(w, m), w), m).z_score[0, 1])
    cfg = tmp_path / "two_firm_0.99.json"
    cfg.write_text(json.dumps(doc))
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^payment buyer 1 source 2: empirical \S+ analytic \S+ z \+0\.00$", out, re.M)
    assert "z -0.00" not in out


def test_check_overflowing_slopes_exit_1(tmp_path, capsys):
    # a vanishing eta scales the slopes to ~1e308: their total overflows and
    # the solve rejects it before any oracle runs
    cfg = write_config(tmp_path, two_firm_market(0.0, etas=(1e-308, 1.0)))
    assert main(["check", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: source 0 attracts total slope inf")
    assert captured.out == ""


@pytest.mark.parametrize("option", [
    ["--samples", "1000"], ["--steps", "41"], ["--radius", "0.5"], ["--f-coeffs", "0,1"],
], ids=["samples", "steps", "radius", "f-coeffs"])
def test_check_rejects_a_removed_option(tmp_path, capsys, option):
    # the payments, best responses and fixed point are certified in closed
    # form, so the options that sized the simulation and the grid are usage
    # errors, reported before the config is read
    with pytest.raises(SystemExit) as exc:
        main(["check", str(tmp_path / "missing.json")] + option)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: datamarket")
    assert captured.err.endswith(f"datamarket: error: unrecognized arguments: {' '.join(option)}\n")


def test_check_rejects_a_negative_seed(tmp_path, capsys):
    # --seed changes nothing, but keeps its old range
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: check needs --seed >= 0\n"


def test_check_output_does_not_depend_on_the_seed(capsys):
    # --seed is still accepted, but nothing the check prints is drawn
    cfg = os.path.join(ROOT, "configs", "two_firm.json")
    outputs = []
    for seed in ("1", "2"):
        assert main(["check", cfg, "--seed", seed]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


def test_check_huge_alpha_is_silent(tmp_path):
    # the market solves with 2 * alpha within a float of overflowing; the
    # certificate's arithmetic raises no numpy warning
    doc = json.loads(json.dumps(_TWO_FIRM))
    doc["sources"][0]["alpha"] = 2.0e307
    cfg = tmp_path / "big_alpha.json"
    cfg.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "datamarket",
                           "check", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "certification: PASS" in proc.stdout


def test_check_huge_slope_is_silent_and_caught():
    # d[1,1] + 1e300 drives source 1's variance to 5e-301; buyer 1's best
    # reply saves about the source's effort, 345.7.  Buyer 2's payment slack
    # on source 1 is a difference of terms near 3.3e298 with no digit left,
    # so its best response is undecided.  No numpy warning is raised.
    cfg = os.path.join(ROOT, "configs", "two_firm.json")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "datamarket",
                           "check", cfg, "--perturb", "1,1,1e300"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "best response buyer 1: max improvement 344 (tolerance 0.000347) IMPROVABLE\n" in proc.stdout
    assert "best response buyer 2: max improvement between 0 and " in proc.stdout
    assert proc.stderr == ("  - buyer 1 can improve by 344\n"
                           "  - buyer 2's best response is undecided\n")


# Eight sources and a quadratic and a linear buyer, delta 0.0046: after
# d[2,4] += 0.01376, buyer 1's best reply saves 1.67e-6 against a tolerance
# of 1.29e-6, a move that falls between the points of a grid search.
GRID_MISS_DOC = {
    "sources": [{"x": x, "alpha": a} for x, a in zip(
        (-0.94944, -0.575493, -0.426831, -0.15986, 0.18205, 0.376469, 0.677073, 0.895958),
        (9.33201, 5.59216, 7.77117, 8.07797, 7.34657, 8.16634, 8.34235, 10.6069))],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": 2},
                "value_dist": {"kind": "uniform", "params": {"lo": -0.346495, "hi": 0.520948}},
                "delta": [0.0, 0.0046], "eta": 1.0},
               {"estimator": {"kind": "linear-regression", "degree": 1},
                "value_dist": {"kind": "uniform", "params": {"lo": -0.551362, "hi": 0.294439}},
                "delta": [0.0046, 0.0], "eta": 1.0}],
    "feature_domain": [-1.0, 1.0],
}


def test_check_catches_a_reply_between_grid_points(tmp_path, capsys):
    cfg = tmp_path / "grid_miss.json"
    cfg.write_text(json.dumps(GRID_MISS_DOC))
    assert main(["check", str(cfg), "--perturb", "2,4,0.013761276528635532"]) == 3
    captured = capsys.readouterr()
    assert "best response buyer 1: max improvement 1.67e-06 (tolerance 1.29e-06) IMPROVABLE\n" in captured.out
    assert "best response buyer 2: max improvement 0.000332 (tolerance 1.27e-06) IMPROVABLE\n" in captured.out
    assert captured.err == "  - buyer 1 can improve by 1.67e-06\n  - buyer 2 can improve by 0.000332\n"
    # the grid search it replaced certified buyer 1
    m = market_from_config(GRID_MISS_DOC)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(w, m), w)
    d = sol.d.copy()
    d[1, 3] += 0.013761276528635532
    pert = solution_from_d(d, w, m)
    rep = best_response_certificate(pert, 0, w, m)
    assert rep.improvable
    assert _grid_search(pert, 0, w, m)[1] <= rep.tolerance


def test_check_undecided_best_response_fails(tmp_path, monkeypatch, capsys):
    # buyer 2's closed-form reply to this book leaves the verdict open; the
    # dual ascent decides it, and cut to the closed form the check fails
    cfg = tmp_path / "convex_solve.json"
    cfg.write_text(json.dumps(CONVEX_SOLVE_DOC))
    argv = ["check", str(cfg), "--perturb", "1,2,1"]
    assert main(argv) == 3
    assert "best response buyer 2: max improvement 0.00626 (tolerance 2.14e-06) IMPROVABLE\n" in (
        capsys.readouterr().out)
    monkeypatch.setattr(datamarket.oracle, "_DUAL_MAX_STEPS", 1)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert ("best response buyer 2: max improvement between 0 and 0.0224 (tolerance 2.14e-06) UNDECIDED\n"
            in captured.out)
    assert "  - buyer 2's best response is undecided\n" in captured.err


@pytest.mark.parametrize("eta", [1e-150, 1e-300])
def test_check_tiny_eta_passes(tmp_path, capsys, eta):
    # variances of ~eta: the exact payment means square no noise, so nothing
    # underflows, and they match the floors within tolerance
    doc = json.loads(json.dumps(_TWO_FIRM))
    doc["buyers"][0]["eta"] = eta
    cfg = tmp_path / "tiny_eta.json"
    cfg.write_text(json.dumps(doc))
    assert main(["check", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "certification: PASS" in captured.out
    zs = [float(z) for z in re.findall(r" z (\S+)$", captured.out, re.M)]
    assert len(zs) == 4
    assert max(abs(z) for z in zs) <= 1.0


def test_check_nan_z_score_fails(tmp_path, monkeypatch, capsys):
    real = datamarket.cli.payment_moments

    def nan_z(*args, **kwargs):
        pay = real(*args, **kwargs)
        z = pay.z_score.copy()
        z[0, 0] = math.nan
        return dataclasses.replace(pay, z_score=z)

    monkeypatch.setattr(datamarket.cli, "payment_moments", nan_z)
    cfg = write_config(tmp_path, two_firm_market(0.0))
    assert main(["check", str(cfg)]) == 3
    assert "certification: FAIL" in capsys.readouterr().out


def test_check_catches_floors_off_by_one_part_in_a_million(monkeypatch, capsys):
    # the sampled means missed a 1% error in L; the exact ones see 1e-6
    real = datamarket.cli.complete_solution

    def scaled_floors(sol, w):
        sol = real(sol, w)
        return dataclasses.replace(sol, c_polytope=dataclasses.replace(
            sol.c_polytope, L=sol.c_polytope.L * (1.0 + 1e-6)))

    monkeypatch.setattr(datamarket.cli, "complete_solution", scaled_floors)
    assert main(["check", os.path.join(ROOT, "configs", "two_firm.json")]) == 3
    captured = capsys.readouterr()
    assert "certification: FAIL" in captured.out
    assert "exact payment means disagree with the payment floors (|z| = " in captured.err


# Five sources, three of them within 0.017 of each other, and one cubic
# buyer: the leave-one-out designs reach condition number 2.5e5, so L, from
# normal equations, is off the exact mean by up to 1.1e-6 relative.
ILL_CONDITIONED_DOC = {
    "sources": [{"x": x, "alpha": 1.0}
                for x in (0.437214, 0.444292, 0.454252, 0.804653, 0.854959)],
    "buyers": [{"estimator": {"kind": "polynomial-regression", "degree": 3},
                "value_dist": {"kind": "uniform", "params": {"lo": -0.524122, "hi": 0.723586}},
                "delta": [0.0], "eta": 1.0}],
    "feature_domain": [-1.0, 1.0],
}


def test_check_ill_conditioned_market_passes(tmp_path, capsys):
    # the tolerance grows with kappa**2, so rounding in L is not a failure
    cfg = tmp_path / "ill_conditioned.json"
    cfg.write_text(json.dumps(ILL_CONDITIONED_DOC))
    assert main(["check", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "certification: PASS" in captured.out
    m = market_from_config(ILL_CONDITIONED_DOC)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(w, m), w)
    tolerance = payment_moments(sol, m).tolerance[0]
    assert 1e-4 < tolerance < 1e-3
    lines = re.findall(r"^payment buyer 1 source (\d): empirical (\S+) analytic (\S+) z (\S+)$",
                       captured.out, re.M)
    assert len(lines) == 5
    gaps = []
    for i, empirical, analytic, z in lines:
        floor = sol.c_polytope.L[0, int(i) - 1]
        gaps.append(abs(float(empirical) - float(analytic)) / floor)
        assert abs(float(z)) <= 1.0
    assert 1e-7 < max(gaps) <= tolerance


@pytest.mark.parametrize("alpha", [1e22, 1e30, 1e300])
def test_check_passes_a_decoupled_market_with_a_vanishing_variance(tmp_path, capsys, alpha):
    # xi[j, 0, 1] is exactly 0, but the computed op[0, 1] is about 1.6e-16:
    # its square times source 2's variance dwarfs source 1's floor, which
    # the huge alpha shrinks toward zero.  That entry is within op's error
    # allowance of zero, so it counts as zero and the printed mean is the
    # floor's, not rounding
    with open(os.path.join(ROOT, "configs", "two_firm_decoupled.json")) as f:
        doc = json.load(f)
    doc["sources"][0]["alpha"] = alpha
    cfg = tmp_path / "decoupled.json"
    cfg.write_text(json.dumps(doc))
    assert main(["check", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = re.findall(r"^payment buyer \d source \d: empirical (\S+) analytic (\S+) z (\S+)$",
                       captured.out, re.M)
    assert len(lines) == 4 and max(abs(float(z)) for _, _, z in lines) <= 0.01
    for empirical, analytic, _ in lines:
        assert float(empirical) == pytest.approx(float(analytic), rel=1e-9, abs=0.0)
    m = market_from_config(doc)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(w, m), w)
    assert (w.xi[:, 0, 1] == 0.0).all()
    assert np.abs(payment_moments(sol, m).z_score).max() < 1e-4


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


def test_sweep_deterministic(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    spec = write_sweep(tmp_path, base, -1.0, 0.9, 24)
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["sweep", str(spec), "--out", str(out1)]) == 0
    assert main(["sweep", str(spec), "--out", str(out2)]) == 0
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


def test_sweep_input_errors(tmp_path, capsys):
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
    # finite bounds whose distance overflows a float: one line, no numpy warning
    capsys.readouterr()
    assert main(["sweep", str(write_sweep(tmp_path, base, -1e308, 1e308, 3, name="s5.json")),
                 "--out", str(tmp_path / "v.csv")]) == 1
    assert capsys.readouterr().err == "error: range from -1e+308 to 1e+308 is wider than a float can hold\n"


@pytest.mark.parametrize("spec, message", [
    ([1.0], "sweep spec must be an object"),
    ({"param": "sources[5].x", "range": {"from": -1.0, "to": 0.0, "steps": 3}, "base": _TWO_FIRM},
     "sweep parameter 'sources[5].x' does not exist in the base config"),
    ({"param": "sources[0].x", "range": {"from": -math.inf, "to": 0.0, "steps": 3}, "base": _TWO_FIRM},
     "range bounds must be finite"),
    ({"param": "sources[0].x", "range": {"from": -1.0, "to": math.nan, "steps": 3}, "base": _TWO_FIRM},
     "range bounds must be finite"),
    ({"param": "sources[0].x", "range": {"from": -1.0, "to": 0.0, "steps": 3}, "base": 5},
     "sweep base must be a config object or a path to one"),
    # JSON booleans and numeric strings are not numbers
    *(({"param": "sources[0].x", "range": {"from": -1.0, "to": 0.5, "steps": 3, **bound}, "base": _TWO_FIRM},
       "range needs numeric 'from', 'to' and integer 'steps'")
      for bound in ({"from": True}, {"from": "-1.0"}, {"to": False}, {"to": "0.5"})),
], ids=["spec-not-object", "missing-parameter", "infinite-bound", "nan-bound", "base-not-object",
        "from-true", "from-string", "to-false", "to-string"])
def test_sweep_spec_errors(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, target, deep", [
    ("solve", "market.json", "market.json"),
    ("sweep", "spec.json", "spec.json"),
    ("sweep", "spec.json", "market.json"),
], ids=["solve", "sweep-spec", "sweep-base"])
def test_deeply_nested_json_exit_1(tmp_path, capsys, command, target, deep):
    # json.load runs out of recursion depth on a value nested 100,000 arrays
    # deep: the file is reported as invalid JSON, not in a traceback
    (tmp_path / "market.json").write_text(json.dumps(_TWO_FIRM))
    write_sweep(tmp_path, "market.json", -1.0, 0.0, 3, name="spec.json")
    path = tmp_path / deep
    path.write_text('{"deep": ' + "[" * 100_000 + "]" * 100_000 + ", " + path.read_text()[1:])
    out = tmp_path / "out"
    flag = "--json-out" if command == "solve" else "--out"
    assert main([command, str(tmp_path / target), flag, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not out.exists()


def test_sweep_welfare_numeric_failure_aborts(tmp_path, monkeypatch, capsys):
    # efforts below the social optimum break a welfare invariant: the sweep
    # stops with the error rather than leaving the row's cells blank
    real = datamarket.cli.solve_rows

    def lowered(*args):
        sol, errors = real(*args)
        return dataclasses.replace(sol, efforts=sol.efforts - 0.1), errors

    monkeypatch.setattr(datamarket.cli, "solve_rows", lowered)
    out = tmp_path / "rows.csv"
    path = write_sweep(tmp_path, _TWO_FIRM, -1.0, 0.0, 3)
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: equilibrium efforts fell below the social optimum\n")
    assert not out.exists()


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("failure", ["numeric", "write"])
def test_aborted_sweep_leaves_no_rows(tmp_path, monkeypatch, capsys, existed, failure):
    # the first batch is written before the second fails: a file the sweep
    # created is removed, and one it overwrote is left empty
    monkeypatch.setattr(datamarket.cli, "_BATCH_ENTRIES", 64)
    real_lines, real_solve = datamarket.cli._sweep_lines, datamarket.cli.solve_rows
    batches = []

    def lowered(*args):
        sol, errors = real_solve(*args)
        return dataclasses.replace(sol, efforts=sol.efforts - 0.1), errors

    def second_fails(fh, *args):
        batches.append(fh.tell())
        if len(batches) == 2:
            if failure == "write":
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(datamarket.cli, "solve_rows", lowered)
        real_lines(fh, *args)

    monkeypatch.setattr(datamarket.cli, "_sweep_lines", second_fails)
    out = tmp_path / "rows.csv"
    if existed:
        out.write_text("rows of an earlier sweep\n")
    path = write_sweep(tmp_path, _TWO_FIRM, -1.0, 0.0, 12)
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    assert len(batches) == 2 and batches[1] > batches[0] > 0
    message = {"numeric": "equilibrium efforts fell below the social optimum",
               "write": f"cannot write {out}: [Errno 28] No space left on device"}[failure]
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert out.exists() == existed
    if existed:
        assert out.read_bytes() == b""


def test_sweep_unwritable_out_exits_1_before_any_fit(tmp_path, monkeypatch, capsys):
    def no_fit(*args):
        raise AssertionError("a row was computed for an output that cannot be written")

    monkeypatch.setattr(datamarket.cli, "weight_rows", no_fit)
    out = tmp_path / "nodir" / "rows.csv"
    path = write_sweep(tmp_path, _TWO_FIRM, -1.0, 0.0, 3)
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_sweep_to_a_full_device_exits_1_and_leaves_it(tmp_path, capsys):
    # the rows reach the device when the file is closed, which fails; a
    # device is neither removed nor truncated
    path = write_sweep(tmp_path, _TWO_FIRM, -1.0, 0.0, 3)
    assert main(["sweep", str(path), "--out", "/dev/full"]) == 1
    assert capsys.readouterr() == (
        "", "error: cannot write /dev/full: [Errno 28] No space left on device\n")
    assert os.path.exists("/dev/full")


def _reference_sweep_error(spec):
    """The error line of an invalid sweep, from a market built and validated
    per value: its first violation at the first value that has one."""
    rng = spec["range"]
    doc = copy.deepcopy(spec["base"])
    for v in np.linspace(float(rng["from"]), float(rng["to"]), rng["steps"]):
        datamarket.cli._apply_param(doc, spec["param"], float(v))
        violations = validate_market(market_from_config(doc))
        if violations:
            v0 = violations[0]
            return (f"error: sweep value {spec['param']}={_fmt(v)} yields an invalid market: "
                    f"[{v0.code}] {v0.where}: {v0.message}\n")
    return None


_ULP = 2.0 ** -52


@pytest.mark.parametrize("param, lo, hi, steps, edits", [
    ("sources[0].x", 0.0, 1.5, 7, ()),              # first bad value 1.25, mid-range
    ("sources[1].x", 1.0, -2.0, 13, ()),            # descending, past the lower end
    ("sources[0].x", 0.5, -3.0, 8, ()),
    ("sources[0].x", -1.0, 1.0 + 2 * _ULP, 3, ()),  # one ulp past the upper end
    ("sources[1].x", 1.0, -1.0 - _ULP, 200, ()),    # one ulp past the lower end
    ("sources[0].x", -1.0 - _ULP, 1.0, 3, ()),      # the first value is bad
    ("sources[0].alpha", 2.0, -1.0, 7, ()),         # alpha crosses 0, both ways
    ("sources[1].alpha", -1.0, 2.0, 7, ()),
    ("sources[0].alpha", 1.0, 0.0, 5, ()),
    ("buyers[0].eta", 2.0, -1.0, 7, ()),            # eta crosses 0, both ways
    ("buyers[1].eta", -0.5, 1.0, 4, ()),
    ("buyers[1].eta", 1.0, 0.0, 200, ()),
    # the first value is validated whole: its first violation is not the
    # swept field's
    ("buyers[1].eta", -1.0, 1.0, 3, ((("sources", 1, "alpha"), -1.0), (("buyers", 0, "eta"), 0.0))),
    ("sources[0].x", -1.0, 0.999, 200, ()),         # valid
    ("buyers[0].eta", 5e-324, 1.0, 3, ()),          # valid, subnormal first eta
])
def test_sweep_validation_messages_match_the_per_row_check(tmp_path, capsys, param, lo, hi, steps,
                                                           edits):
    base = json.loads(json.dumps(_TWO_FIRM))
    for path, value in edits:
        _set_leaf(base, path, value)
    spec = {"param": param, "range": {"from": lo, "to": hi, "steps": steps}, "base": base}
    path = write_sweep(tmp_path, base, lo, hi, steps, param=param)
    want = _reference_sweep_error(spec)
    assert main(["sweep", str(path), "--out", str(tmp_path / "rows.csv")]) == (0 if want is None else 1)
    assert capsys.readouterr().err == ("" if want is None else want)


@pytest.mark.parametrize("to, calls", [(1.0, 1), (1.5, 2)], ids=["valid", "invalid"])
def test_sweep_validates_one_market(tmp_path, monkeypatch, to, calls):
    # the first value's market is validated whole, the other values as one
    # column, up to the domain's end; an invalid value is validated once more
    # for its message
    seen = []
    real = datamarket.cli.validate_market

    def counted(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(datamarket.cli, "validate_market", counted)
    spec = write_sweep(tmp_path, _TWO_FIRM, -1.0, to, 200)
    assert main(["sweep", str(spec), "--out", str(tmp_path / "rows.csv")]) == calls - 1
    assert len(seen) == calls


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
    except (SingularDesignError, GammaNegativeError) as err:
        status = "error"
        if err.xi is not None:
            xi = err.xi
            rho = spectral_radius(coupling_matrix(xi))
            if rho >= RHO_EXISTENCE_THRESHOLD:
                status = "no_equilibrium"
    if w is not None:
        rho = spectral_radius(coupling_matrix(xi))
        try:
            sol = solve_equilibrium_d(w, m)
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
    except UndefinedPoaError:
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


def test_sweep_heap_holds_one_batch_not_the_file(tmp_path, monkeypatch, capsys):
    # rows go to the file as each batch is formatted, so ten times the rows,
    # in batches of five, leave the heap's peak where it was: only the swept
    # values, 8 bytes a step, are held for the whole sweep
    monkeypatch.setattr(datamarket.cli, "_BATCH_ENTRIES", 64)
    base = os.path.join(ROOT, "configs", "two_firm.json")

    def peak(steps):
        spec = write_sweep(tmp_path, base, -1.0, 0.999, steps, name=f"s{steps}.json")
        gc.collect()
        tracemalloc.reset_peak()
        assert main(["sweep", str(spec), "--out", str(tmp_path / "rows.csv")]) == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(200)  # warm-up
        small, large = peak(200), peak(2000)
    finally:
        tracemalloc.stop()
    assert large - 8 * (2000 - 200) <= 1.25 * small, (small, large)


def _joined_row(cells, mask, status):
    """A sweep line as it was built before the %-templates: one f-string a cell."""
    return ",".join([f"{v:.12g}" if keep else "" for v, keep in zip(cells, mask)] + [status]) + "\n"


_EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e308, -1e308, 1e-308, -1e-308,
                1.7976931348623157e308, 0.1 + 0.2, 123456789012.5, 1e16]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats() | st.sampled_from(_EDGE_FLOATS), st.booleans()),
                min_size=1, max_size=40),
       st.sampled_from(["ok", "no_equilibrium", "error"]))
@example([(v, True) for v in _EDGE_FLOATS] + [(v, False) for v in _EDGE_FLOATS], "ok")
def test_row_template_matches_the_per_cell_join(cells_mask, status):
    cells = [v for v, _ in cells_mask]
    mask = [keep for _, keep in cells_mask]
    line = datamarket.cli._row_template(mask) % (*cells, status)
    assert line.encode() == _joined_row(cells, mask, status).encode()


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
@example(edits=[(("range", "from"), -1e308), (("range", "to"), 1e308)])
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
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "spec.json"],
    ["welfare"],
    ["frobnicate", "market.json"],
    [],
], ids=["solve-no-config", "sweep-no-out", "welfare-no-config", "unknown-command",
        "no-command"])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 means "no equilibrium", so bad usage must not share it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: datamarket")
    assert re.search(r"^datamarket( \w+)?: error: ", captured.err, re.M)


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: datamarket")


def _call(capsys, argv, outputs=()):
    """main(argv) as (exit code, stdout, stderr, bytes of each output file),
    with a SystemExit's code as the exit code.  The output files are removed
    first, so that each call's bytes are its own."""
    for path in outputs:
        path.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, [path.read_bytes() for path in outputs]


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    solution, rows = tmp_path / "solution.json", tmp_path / "rows.csv"
    calls = [
        (["solve", "configs/two_firm.json", "--json-out", str(solution)], [solution]),
        (["check", "configs/two_firm.json"], []),
        (["check", "configs/two_firm.json", "--perturb", "1,1,0.5"], []),
        (["sweep", "configs/sweep_x1.json", "--out", str(rows)], [rows]),
        (["welfare", "configs/two_firm.json"], []),
        (["check", "configs/two_firm.json", "--samples", "1000"], []),
        (["check", "--help"], []),
    ]
    datamarket.cli._parser.cache_clear()
    in_one_process = [_call(capsys, argv, outputs) for argv, outputs in calls]
    assert datamarket.cli._parser.cache_info().misses == 1
    assert [result[0] for result in in_one_process] == [0, 0, 3, 0, 0, 1, 0]
    for (argv, outputs), result in zip(calls, in_one_process):
        datamarket.cli._parser.cache_clear()
        assert _call(capsys, argv, outputs) == result, argv


def test_no_state_carries_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    cfg = "configs/two_firm.json"
    assert main(["check", cfg, "--perturb", "1,1,0.5"]) == 3
    capsys.readouterr()
    assert main(["check", cfg]) == 0
    out = capsys.readouterr().out
    assert "perturbed d[" not in out
    assert "certification: PASS" in out

    solution = tmp_path / "solution.json"
    assert main(["solve", cfg, "--json-out", str(solution)]) == 0
    written = solution.read_bytes(), solution.stat().st_mtime_ns
    assert main(["solve", cfg]) == 0
    assert (solution.read_bytes(), solution.stat().st_mtime_ns) == written

    # argparse wraps the usage at the terminal width of the moment it prints
    usage_error = ["check", cfg, "--samples", "1000"]
    monkeypatch.delenv("COLUMNS", raising=False)
    wide = _call(capsys, usage_error)
    monkeypatch.setenv("COLUMNS", "40")
    narrow = _call(capsys, usage_error)
    assert narrow[2].count("\n") > wide[2].count("\n")
    datamarket.cli._parser.cache_clear()
    assert _call(capsys, usage_error) == narrow


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, as after ``| head -1``.  Unbuffered,
    every write raises BrokenPipeError; buffered, writes succeed and the
    flush raises it once.  ``fileno`` is a descriptor the test owns."""

    def __init__(self, fd, buffered):
        self._fd = fd
        self._pending = "" if buffered else None

    def writable(self):
        return True

    def write(self, text):
        if self._pending is None:
            raise BrokenPipeError(32, "Broken pipe")
        self._pending += text
        return len(text)

    def flush(self):
        if self._pending:
            self._pending = ""
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("buffered", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["solve", "configs/two_firm.json"],
    ["check", "configs/two_firm.json"],
    ["sweep", "configs/sweep_x1.json", "--out", "/dev/stdout"],
], ids=["solve", "check", "sweep"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, monkeypatch, capfd, argv, buffered):
    monkeypatch.chdir(ROOT)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, buffered))
        assert main(argv) == 1
        # stdout's descriptor now leads to devnull, so the flush at exit cannot raise
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capfd.readouterr().err == ""


def test_python_m_invocation(tmp_path):
    cfg = write_config(tmp_path, two_firm_market(0.0))
    proc = subprocess.run([sys.executable, "-m", "datamarket", "solve", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spectral radius: 0.5" in proc.stdout
