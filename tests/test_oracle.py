import ast
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import datamarket.oracle
from datamarket.oracle import _MC_BLOCK, _loo_residual_operator, _residual_moments
from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    MarketInstance,
    ValueDistribution,
    best_response_check,
    complete_solution,
    compute_weights,
    monte_carlo_payments,
    neumann_dynamics,
    solution_from_d,
    solve_equilibrium_d,
)

from conftest import two_firm_market


def _solved(m):
    w = compute_weights(m)
    return w, complete_solution(solve_equilibrium_d(w, m), w)


def _buyer_cost(k, c, d, w, m):
    """Buyer k's expected cost under contract book (c, d): the
    competition-adjusted estimation loss plus the expected payments, in the
    buyer's own units."""
    variances = 1.0 / (2.0 * np.asarray(m.alphas()) * d.sum(axis=0))
    payments = c[k] - d[k] * (w.xi[k] @ variances)
    return m.buyers[k].eta * float(w.gamma[k] @ variances + payments.sum())


def _cost_eq(sol, k, w, m):
    return best_response_check(sol, k, w, m, radius=0.5, steps=5).cost_eq


def _retightened_cost(k, d_k, sol, w, m):
    """Independent re-derivation of the deviation cost used by the checker."""
    alphas = np.asarray(m.alphas())
    d = sol.d.copy()
    d[k] = d_k
    d_total = d.sum(axis=0)
    var = 1.0 / (2.0 * alphas * d_total)
    eff = np.log(2.0 * alphas * d_total) / (2.0 * alphas)
    pen = d * np.einsum("jil,l->ji", w.xi, var)
    E = pen.sum(axis=0) + eff
    others_c = sol.c_polytope.canonical.sum(axis=0) - sol.c_polytope.canonical[k]
    c = sol.c_polytope.canonical.copy()
    c[k] = np.maximum(E - others_c, pen[k])
    return _buyer_cost(k, c, d, w, m)


# ---------------------------------------------------------------------------
# buyer cost
# ---------------------------------------------------------------------------

def test_buyer_cost_anchor():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    got = _cost_eq(sol, 0, w, m)
    var = np.array([9.0 / 80.0, 9.0 / 68.0])
    pen = sol.d[0] * (w.xi[0] @ var)
    expected = float(w.gamma[0] @ var + (sol.c_polytope.canonical[0] - pen).sum())
    assert got == pytest.approx(expected, rel=1e-14)
    assert math.isfinite(got)


def test_local_perturbations_increase_cost():
    # re-tightening the flat payments after each slope move keeps the
    # equilibrium a strict local minimum in every coordinate
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    for k in range(2):
        base = _retightened_cost(k, sol.d[k], sol, w, m)
        assert base == pytest.approx(_cost_eq(sol, k, w, m), rel=1e-12)
        for i in range(2):
            for bump in (0.05, -0.05):
                cand = sol.d[k].copy()
                cand[i] += bump
                assert _retightened_cost(k, cand, sol, w, m) > base


def test_eta_scales_buyer_cost():
    # doubling eta doubles only the payment part of the cost; the estimation
    # loss is measured in the buyer's own units either way
    m1 = two_firm_market(0.3)
    w1, sol1 = _solved(m1)
    m2 = two_firm_market(0.3, etas=(2.0, 2.0))
    w2 = compute_weights(m2)
    cost1 = _cost_eq(sol1, 0, w1, m1)
    cost2 = _cost_eq(sol1, 0, w2, m2)
    pay = float((sol1.c_polytope.canonical[0] - sol1.d[0] * (w1.xi[0] @ sol1.variances)).sum())
    assert cost2 - cost1 == pytest.approx(pay, rel=1e-12)


# ---------------------------------------------------------------------------
# best-response certification
# ---------------------------------------------------------------------------

def test_two_firm_equilibrium_certifies():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    for k in range(2):
        rep = best_response_check(sol, k, w, m, radius=0.5, steps=41)
        assert rep.certified
        assert rep.max_improvement <= rep.tolerance


def test_perturbed_point_fails_certification():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    d_mod = sol.d.copy()
    d_mod[0, 0] += 0.5
    pert = solution_from_d(d_mod, w, m)
    rep = best_response_check(pert, 0, w, m, radius=0.5, steps=41)
    assert not rep.certified
    # the analytic gap along the slope coordinate is about 2.8e-3
    assert rep.max_improvement > 1e-3
    assert rep.argmin_d[0] < d_mod[0, 0]


def test_decoupled_argmin_is_equilibrium():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    rep = best_response_check(sol, 0, w, m, radius=0.5, steps=21)
    assert rep.certified
    assert rep.argmin_d == pytest.approx(sol.d[0], rel=1e-12)


def test_suite_certification_sample(solved_suite):
    for m, w, sol in solved_suite[:25]:
        for k in range(m.n_buyers):
            rep = best_response_check(sol, k, w, m, radius=0.5, steps=21)
            assert rep.certified, (
                f"buyer {k} improves by {rep.max_improvement:.3g} (tol {rep.tolerance:.3g})"
            )


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_neumann_decoupled_single_sweep():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    res = neumann_dynamics(w)
    assert res.converged
    assert res.iters == 1
    assert np.array_equal(res.d, w.gamma)


def test_neumann_matches_direct_solve():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    res = neumann_dynamics(w)
    assert res.converged
    rel = np.abs(res.d - sol.d).max() / (1.0 + np.abs(sol.d).max())
    assert rel <= 1e-8


def test_neumann_stalls_near_unit_radius():
    # the equilibrium exists (rho = 1 - 2.5e-9) but the iteration cannot
    # reach it within the default sweep budget
    m = two_firm_market(0.9999)
    w = compute_weights(m)
    sol = solve_equilibrium_d(w, m)
    assert sol.d_total.min() > 0.0
    res = neumann_dynamics(w)
    assert not res.converged
    assert res.iters == 10000


# ---------------------------------------------------------------------------
# payment simulation
# ---------------------------------------------------------------------------

def test_monte_carlo_two_firm():
    for x1 in (-1.0, 0.0):
        m = two_firm_market(x1)
        w, sol = _solved(m)
        checks = monte_carlo_payments(sol, m, n_samples=30000, seed=7)
        assert len(checks) == 4
        for chk in checks:
            assert abs(chk.z_score) < 4.0


def test_monte_carlo_total_payment_covers_effort():
    # summed over buyers, expected payments compensate effort exactly; the
    # empirical totals should agree within a conservative s.e. budget
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    checks = monte_carlo_payments(sol, m, n_samples=40000, seed=11)
    for i in range(m.n_sources):
        per_source = [c for c in checks if c.source == i]
        total = sum(c.empirical_mean for c in per_source)
        budget = sum(c.std_error for c in per_source)
        assert abs(total - sol.efforts[i]) <= 4.0 * budget


def test_monte_carlo_zero_slope_buyer():
    # a buyer with zero slopes pays its flat payment deterministically
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    d_mod = sol.d.copy()
    d_mod[0] = 0.0
    quiet = solution_from_d(d_mod, w, m)
    checks = monte_carlo_payments(quiet, m, n_samples=2000, seed=3)
    for chk in checks:
        if chk.buyer == 0:
            assert chk.z_score == 0.0
            assert chk.empirical_mean == chk.analytic_mean


def _monte_carlo_payments_loop(sol, w, m, f_coeffs, n_samples, seed):
    """Reference: the protocol simulated on reports f(x) + noise.

    One leave-one-out fit per (buyer, source) on reports that carry the
    ground truth, with the fit's deterministic offset removed; this is the
    simulation that the noise-only ``monte_carlo_payments`` replaced.
    """
    def f(x):
        return npoly.polyval(x, f_coeffs)

    rng = np.random.default_rng(seed)
    xs = np.asarray(m.locations(), dtype=float)
    n = m.n_sources
    sigmas = np.sqrt(np.asarray(sol.variances, dtype=float))

    noise = rng.standard_normal((int(n_samples), n)) * sigmas[None, :]
    reports = f(xs)[None, :] + noise

    out = []
    for j, b in enumerate(m.buyers):
        degree = b.estimator.degree
        for i in range(n):
            rest = [l for l in range(n) if l != i]
            X = np.vander(xs[rest], degree + 1, increasing=True)
            basis_i = xs[i] ** np.arange(degree + 1)
            coefs = reports[:, rest] @ np.linalg.pinv(X).T
            predicted = coefs @ basis_i
            fit_bias = float(basis_i @ np.linalg.pinv(X) @ f(xs[rest]) - f(xs[i]))
            payments = sol.c_polytope.canonical[j, i] - sol.d[j, i] * (reports[:, i] - (predicted - fit_bias)) ** 2

            empirical = float(payments.mean())
            std_error = float(payments.std(ddof=1)) / math.sqrt(n_samples)
            analytic = float(sol.c_polytope.canonical[j, i] - sol.d[j, i] * (w.xi[j, i] @ sol.variances))
            if std_error == 0.0:
                z = 0.0 if empirical == analytic else math.inf
            else:
                z = (empirical - analytic) / std_error
            out.append((j, i, empirical, analytic, std_error, float(z)))
    return out


# (sources, buyer degrees): N from 2 to 8, degrees 1-3, buyers of one
# degree sharing residuals; N = degree + 1 leaves every leave-one-out design
# of that degree underdetermined, where the fit's offset from the truth is
# nonzero
_PAYMENT_CASES = [
    (2, (1, 1)), (3, (2, 1)), (4, (3,)), (4, (3, 1, 3)), (5, (2, 3)),
    (6, (1, 2, 3)), (7, (2, 2)), (8, (1, 2)), (8, (3, 3)),
]


def _contract_book(rng, n, degrees):
    """A market, its weights and a contract book (d, c, variances).

    The simulation settles any book, equilibrium or not, and most markets of
    high degree couple past the existence gate; so the slopes are gamma
    scaled at random, the variances follow from them, and the flat payments
    exceed the expected penalties.
    """
    xs = ((np.arange(n) + rng.uniform(0.2, 0.8, n)) / n) * 2.0 - 1.0
    buyers = tuple(DataBuyer(EstimatorSpec.polynomial(g), ValueDistribution.uniform(-1.0, 1.0),
                             (0.0,) * len(degrees))
                   for g in degrees)
    sources = tuple(DataSource(float(x), float(a)) for x, a in zip(xs, rng.uniform(0.8, 1.6, n)))
    m = MarketInstance(sources=sources, buyers=buyers, feature_domain=(-1.0, 1.0))
    w = compute_weights(m)
    d = w.gamma * rng.uniform(0.5, 1.5, w.gamma.shape)
    variances = 1.0 / (2.0 * np.asarray(m.alphas()) * d.sum(axis=0))
    pen = d * (w.xi @ variances)
    c = pen + rng.uniform(0.0, 1.0, d.shape)
    return m, w, SimpleNamespace(d=d, variances=variances,
                                 c_polytope=SimpleNamespace(L=pen, canonical=c))


@pytest.mark.parametrize("f_coeffs", [(1.5,), (0.0, 1.0), (0.3, -1.0, 0.0, 2.0)],
                         ids=["constant", "linear", "cubic"])
def test_noise_only_payments_match_the_truth_loop(f_coeffs):
    # the ground truth cancels from every settled payment, so the noise-only
    # simulation reproduces the f(x) + noise one from the same draws
    rng = np.random.default_rng(6061)
    for n, degrees in _PAYMENT_CASES:
        m, w, sol = _contract_book(rng, n, degrees)
        got = monte_carlo_payments(sol, m, n_samples=3000, seed=n)
        want = _monte_carlo_payments_loop(sol, w, m, f_coeffs, 3000, seed=n)
        assert len(got) == len(want) == n * len(degrees)
        for chk, (j, i, empirical, analytic, std_error, z) in zip(got, want):
            assert (chk.buyer, chk.source) == (j, i)
            assert chk.empirical_mean == pytest.approx(empirical, rel=1e-12)
            assert chk.analytic_mean == pytest.approx(analytic, rel=1e-12)
            assert chk.std_error == pytest.approx(std_error, rel=1e-9)
            assert abs(chk.z_score - z) <= 1e-9


def _whole_array_moments(op, draws):
    """Reference: mean and spread of the squared residuals over one (S, N) draw."""
    r = op @ draws.T
    np.square(r, out=r)
    return r.mean(axis=1), r.std(axis=1, ddof=1)


def _loo_residual_moments(xs, units, draws, degree):
    """Reference: the whole-array residual moments of one estimator degree.

    This is the path the blocked ``_residual_moments`` replaced: the
    leave-one-out prediction operator built from ``pinv`` and every source's
    residuals over all draws at once, source-major (N, S).
    """
    n = xs.size
    off = ~np.eye(n, dtype=bool)
    designs = np.stack([np.vander(xs[row], degree + 1, increasing=True) for row in off])
    basis = xs[:, None] ** np.arange(degree + 1)
    predict = np.zeros((n, n))
    predict[off] = np.einsum("ik,ikl->il", basis, np.linalg.pinv(designs)).ravel()
    return _whole_array_moments((np.eye(n) - predict) * units[None, :], draws)


_SAMPLE_COUNTS = [2, 3, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 2 * _MC_BLOCK + 7, 100_000]


@pytest.mark.parametrize("n_samples", _SAMPLE_COUNTS)
def test_blocked_moments_match_the_whole_array(n_samples):
    # the merged block moments agree with one pass over the whole draw, for
    # every degree of the stacked operator
    rng = np.random.default_rng(4242)
    for n, degrees in _PAYMENT_CASES:
        xs = np.sort(rng.uniform(-1.0, 1.0, n))
        units = rng.uniform(1e-3, 1.0, n)
        distinct = sorted(set(degrees))
        op = np.vstack([_loo_residual_operator(xs, g) for g in distinct]) * units[None, :]
        mean, spread = _residual_moments(op, np.random.default_rng(n), n_samples)
        draws = np.random.default_rng(n).standard_normal((n_samples, n))
        want = [_loo_residual_moments(xs, units, draws, g) for g in distinct]
        np.testing.assert_allclose(mean, np.concatenate([m for m, _ in want]), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(spread, np.concatenate([s for _, s in want]), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("row_scale", [1e-75, 1e-150])
def test_blocked_moments_of_a_tiny_row(row_scale):
    # a row far below the others: at 1e-150 its squared deviations underflow
    # to zero in both paths, and its mean still agrees
    xs = np.array([-0.9, -0.4, 0.1, 0.5, 0.8])
    op = np.vstack([_loo_residual_operator(xs, 1), _loo_residual_operator(xs, 3)])
    op[2] *= row_scale
    for n_samples in (3, 2 * _MC_BLOCK + 7):
        got = _residual_moments(op, np.random.default_rng(17), n_samples)
        want = _whole_array_moments(op, np.random.default_rng(17).standard_normal((n_samples, 5)))
        for g, w_ in zip(got, want):
            np.testing.assert_allclose(g, w_, rtol=1e-13, atol=0.0)
    assert got[0][2] > 0.0


def test_blocked_draws_are_the_rows_of_one_draw():
    # numpy's Generator fills each output in order, so drawing in blocks
    # consumes the stream exactly as one (S, N) draw does
    n_samples, n = 2 * _MC_BLOCK + 7, 5
    rng = np.random.default_rng(99)
    blocks = [rng.standard_normal((min(_MC_BLOCK, n_samples - start), n))
              for start in range(0, n_samples, _MC_BLOCK)]
    whole = np.random.default_rng(99).standard_normal((n_samples, n))
    assert np.array_equal(np.concatenate(blocks), whole)


def test_payment_simulation_memory_does_not_grow_with_samples():
    # the whole-array path held (S, N) draws plus (N, S) squared residuals
    # and their centered copy, about 18 MB here
    m, w, sol = _contract_book(np.random.default_rng(8), 8, (1, 2))
    tracemalloc.start()
    try:
        monte_carlo_payments(sol, m, n_samples=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_oracle_imports_only_the_weights_type_from_estimators():
    # the oracles certify the weight algebra, so they must not run it
    with open(datamarket.oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "estimators":
            assert [a.name for a in node.names] == ["SeparableWeights"]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(a.name.split(".")[-1] == "estimators" for a in node.names)
