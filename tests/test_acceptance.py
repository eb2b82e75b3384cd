"""End-to-end acceptance gate.

Each test exercises one contract the package must honor, prints a single
verdict line, and then asserts. Run with ``pytest tests/test_acceptance.py -v -s``
to see the verdict lines inline.
"""

import csv
import json
import time
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre
from numpy.random import default_rng

from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    MarketInstance,
    ValueDistribution,
    best_response_certificate,
    compute_weights,
    coupling_matrix,
    fixed_point_certificate,
    payment_moments,
    price_of_anarchy,
    solution_from_d,
    solve_equilibrium_d,
    spectral_radius,
)
from datamarket.cli import main

from conftest import market_to_config, two_firm_market
from test_oracle import _simulated_payments, _solved, neumann_dynamics


def _verdict(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed {detail}".rstrip()


def test_criterion_1_decoupled_market():
    t0 = time.perf_counter()
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    rep = price_of_anarchy(sol, w, m)
    elapsed = time.perf_counter() - t0

    off_diag = w.xi.copy()
    off_diag[:, np.arange(2), np.arange(2)] = 0.0
    ok = (
        np.abs(off_diag).max() == 0.0
        and np.allclose(w.gamma, 1 / 3, rtol=1e-9, atol=0)
        and np.allclose(sol.d, 1 / 3, rtol=1e-9, atol=0)
        and np.abs(sol.efforts - rep.efforts_opt).max() <= 1e-9
        and abs(rep.poa - 1.0) <= 1e-9
        and elapsed < 1.0
    )
    _verdict(1, "opposed-sources market decouples", ok,
             f"(poa {rep.poa}, elapsed {elapsed:.3f}s)")


def test_criterion_2_coupling_grows_toward_coincidence(tmp_path):
    t0 = time.perf_counter()
    rhos = []
    for x1 in np.linspace(-1.0, 0.999, 200):
        a = coupling_matrix(compute_weights(two_firm_market(float(x1))).xi)
        rhos.append(spectral_radius(a))
    elapsed = time.perf_counter() - t0

    monotone = all(b - a >= -1e-12 for a, b in zip(rhos, rhos[1:]))

    anchors = {}
    closed = {}
    for x1 in (0.9, 0.99, 0.999):
        a = coupling_matrix(compute_weights(two_firm_market(x1)).xi)
        anchors[x1] = spectral_radius(a)
        closed[x1] = (x1 + 1.0) ** 2 / (2.0 * (x1 ** 2 + 1.0))
    ordered = anchors[0.9] < anchors[0.99] < anchors[0.999] < 1.0
    pinned = all(abs(anchors[x] - closed[x]) <= 1e-9 for x in anchors)

    cfg = tmp_path / "coincident.json"
    cfg.write_text(json.dumps(market_to_config(two_firm_market(1.0))))
    refuses = main(["solve", str(cfg)]) == 2

    ok = monotone and ordered and pinned and refuses and elapsed < 5.0
    _verdict(2, "coupling strength is monotone and capped", ok,
             f"(rho(0.999) {anchors[0.999]:.6f}, elapsed {elapsed:.3f}s)")


def test_criterion_3_coupled_point_matches_exact_arithmetic():
    gamma = (Fraction(1, 3), Fraction(4, 3))
    xi_12, xi_21 = Fraction(1, 4), Fraction(1, 1)
    d1 = (gamma[0] + xi_21 * gamma[1]) / (1 - xi_21 * xi_12)
    d2 = gamma[1] + xi_12 * d1
    assert d1 == Fraction(20, 9) and d2 == Fraction(17, 9)
    expected = np.array([[float(d1), float(d2)], [float(d1), float(d2)]])

    m = two_firm_market(0.0)
    w, sol = _solved(m)
    err = np.abs(sol.d / expected - 1.0).max()
    ok = err <= 1e-9
    _verdict(3, "midpoint market matches rational solution", ok, f"(rel err {err:.2e})")


def test_criterion_4_equilibrium_oversupplies_effort(solved_suite, decoupled_suite):
    ok = len(solved_suite) == 200
    for m, w, sol in solved_suite:
        rep = price_of_anarchy(sol, w, m)
        ok = ok and rep.loss_eq > rep.loss_opt
        ok = ok and (sol.efforts - rep.efforts_opt).max() > 0.0
    for m, w, sol in decoupled_suite:
        rep = price_of_anarchy(sol, w, m)
        ok = ok and np.abs(sol.efforts - rep.efforts_opt).max() <= 1e-12
        ok = ok and abs(rep.poa - 1.0) <= 1e-12
    _verdict(4, "coupled markets oversupply, decoupled ones do not", ok,
             f"({len(solved_suite)} coupled, {len(decoupled_suite)} decoupled)")


def test_criterion_5_equilibria_survive_deviation_search(solved_suite):
    ok = True
    worst_eq = 0.0
    worst_pert = np.inf
    for m, w, sol in solved_suite:
        for k in range(m.n_buyers):
            rep = best_response_certificate(sol, k, w, m)
            ok = ok and rep.certified
            worst_eq = max(worst_eq, rep.bound)
        bumped = sol.d.copy()
        bumped[0, 0] += 0.5
        pert = solution_from_d(bumped, w, m)
        rep = best_response_certificate(pert, 0, w, m)
        ok = ok and rep.improvable
        worst_pert = min(worst_pert, rep.improvement)
    _verdict(5, "best-response certificate certifies equilibria only", ok,
             f"(max eq improvement {worst_eq:.2e}, min perturbed gain {worst_pert:.2e})")


def test_criterion_6_payments_cover_effort_exactly(solved_suite):
    ok = True
    worst = 0.0
    for m, w, sol in solved_suite:
        penalties = sol.d * np.einsum("jil,l->ji", w.xi, sol.variances)
        expected_payment = sol.c_polytope.canonical - penalties
        gap = np.abs(expected_payment.sum(axis=0) - sol.efforts).max()
        worst = max(worst, gap)
        ok = ok and gap <= 1e-10
        ok = ok and expected_payment.min() >= -1e-12
    _verdict(6, "canonical payments compensate effort", ok, f"(worst gap {worst:.2e})")


def test_criterion_7_independent_numeric_paths_agree(solved_suite):
    ok = True
    for m, w, sol in solved_suite:
        converged, d, _ = neumann_dynamics(w)
        scale = max(1.0, np.abs(sol.d).max())
        ok = ok and converged
        ok = ok and np.abs(d - sol.d).max() / scale <= 1e-8
        ok = ok and fixed_point_certificate(sol, w) <= 1e-8
    # the certificate holds up to rho = 1 - 2.5e-7, where the iteration stalls
    for x1 in (0.0, 0.9, 0.99, 0.999):
        m = two_firm_market(x1)
        w = compute_weights(m)
        ok = ok and fixed_point_certificate(solve_equilibrium_d(w, m), w) <= 1e-8

    nodes, gl_weights = legendre.leggauss(64)
    rng = default_rng(41)
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 5))
        xs = np.sort(rng.uniform(-1.0, 1.0, size=n))
        if np.min(np.diff(xs)) < 0.3:
            continue
        degree = int(rng.integers(1, min(3, n - 1) + 1))
        buyer = DataBuyer(EstimatorSpec.polynomial(degree), ValueDistribution.uniform(-1.0, 1.0), (0.0,))
        m = MarketInstance(sources=tuple(DataSource(float(x), 1.0) for x in xs), buyers=(buyer,),
                           feature_domain=(-1.0, 1.0))
        beta = compute_weights(m).beta[0]
        # two sources carry the companion's weight; undo the swap
        fit_weights = beta[::-1] if n == 2 else beta
        for i in range(n):
            h = fit_weights[i]
            powers = np.vander(xs, degree + 1, increasing=True)
            weights_op = np.linalg.solve(powers.T @ powers, powers.T)
            basis = np.vander(nodes, degree + 1, increasing=True)
            integrand = (basis @ weights_op[:, i]) ** 2
            quad = 0.5 * gl_weights @ integrand
            ok = ok and abs(h - quad) <= 1e-10 * (1.0 + abs(h))
        checked += 1
    _verdict(7, "fixed point, dynamics and quadrature agree", ok)


def test_criterion_8_simulated_payments_match_analytics():
    # the exact payment means match the floors within tolerance, and a
    # simulation of the protocol lands within 4 standard errors of them
    t0 = time.perf_counter()
    worst_exact = worst_simulated = 0.0
    for x1 in (-1.0, 0.0):
        m = two_firm_market(x1)
        w, sol = _solved(m)
        pay = payment_moments(sol, m)
        worst_exact = max(worst_exact, float(np.abs(pay.z_score).max()))
        for j, i, empirical, _, std_error, _ in _simulated_payments(sol, m, 100000, seed=42):
            worst_simulated = max(worst_simulated, abs(empirical - pay.exact_mean[j, i]) / std_error)
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1.0 and worst_simulated < 4.0 and elapsed < 30.0
    _verdict(8, "simulated payments match analytic means", ok,
             f"(worst exact |z| {worst_exact:.2f}, simulated |z| {worst_simulated:.2f}, "
             f"elapsed {elapsed:.1f}s)")


def test_criterion_9_sweep_is_reproducible_and_coherent(tmp_path):
    base = market_to_config(two_firm_market(0.0))
    spec = {"param": "sources[0].x",
            "range": {"from": -1.0, "to": 0.999, "steps": 200},
            "base": base}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = main(["sweep", str(spec_path), "--out", str(out1)])
    code2 = main(["sweep", str(spec_path), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    rows = list(csv.DictReader(out1.open()))
    all_ok = len(rows) == 200 and all(r["status"] == "ok" for r in rows)

    gammas = [float(r["gamma_1_1"]) for r in rows]
    slopes = [float(r["d_1_1"]) for r in rows]
    xi_last = float(rows[-1]["xi_1_2_1"])
    diverges = gammas[-1] > 1e5 and slopes[-1] > 1e9 and gammas[-1] > gammas[0]
    xi_saturates = rows[0]["xi_1_2_1"] == "0" and abs(xi_last - 1.0) < 2e-3

    def nearest(x):
        return min(rows, key=lambda r: abs(float(r["param"]) - x))

    poa = {x: float(nearest(x)["poa"]) for x in (0.0, 0.9, 0.999)}
    inefficiency_grows = poa[0.999] > poa[0.9] > poa[0.0] >= 1.0

    ok = (code1 == 0 and code2 == 0 and identical and all_ok
          and diverges and xi_saturates and inefficiency_grows)
    _verdict(9, "parameter sweep reproducible and economically coherent", ok,
             f"(poa at 0.999: {poa[0.999]:.3f})")
