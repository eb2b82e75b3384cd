import ast
import json
import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import datamarket.equilibrium
import datamarket.oracle
from datamarket.cli import market_from_config
from datamarket.oracle import _loo_residual_operator
from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    GammaNegativeError,
    InfeasibleCError,
    MarketInstance,
    NoEquilibriumError,
    ValueDistribution,
    best_response_certificate,
    complete_solution,
    compute_weights,
    coupling_matrix,
    fixed_point_certificate,
    payment_moments,
    solution_from_d,
    solve_equilibrium_d,
    source_response,
    spectral_radius,
)

from conftest import two_firm_market
from test_equilibrium import _dense_coupling_matrix, _solve_rows_dense

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    return best_response_certificate(sol, k, w, m).cost_eq


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
# best-response certification, and the grid search it replaced as the reference
# ---------------------------------------------------------------------------

def _deviation_costs(cands, sol, k, w, m):
    """Reference: buyer k's cost over candidate slope rows, as the grid
    search costed them.

    Opponents keep their equilibrium contracts.  For each candidate the flat
    payments of buyer k are re-tightened: the least c keeping every source
    participating given the opponents' flats, but never below the buyer's
    own acceptability floor.  Candidates at which some source's response is
    not finite get infinite cost.
    """
    alphas = np.asarray(m.alphas(), dtype=float)
    others_d = sol.d.sum(axis=0) - sol.d[k]
    efforts, variances, ok = source_response(others_d[None, :] + cands, alphas[None, :])
    ok = ok.all(axis=1)
    costs = np.full(cands.shape[0], np.inf)
    if not ok.any():
        return costs

    efforts, variances = efforts[ok], variances[ok]
    pen_k = (variances @ w.xi[k].T) * cands[ok]
    pen_others = np.zeros_like(pen_k)
    for j in range(m.n_buyers):
        if j == k:
            continue
        pen_others += (variances @ w.xi[j].T) * sol.d[j][None, :]

    E = pen_k + pen_others + efforts
    canonical = sol.c_polytope.canonical
    others_c = canonical.sum(axis=0) - canonical[k]
    c_k = np.maximum(E - others_c[None, :], pen_k)

    eta_k = m.buyers[k].eta
    costs[ok] = eta_k * ((variances @ w.gamma[k]) + (c_k - pen_k).sum(axis=1))
    return costs


def _grid_search(sol, k, w, m):
    """Reference: the seeded grid search over buyer k's deviations that
    certified best responses, as ``(cost_eq, improvement, argmin_d)``.

    Scans each coordinate over 41 points of the multiplicative box between
    ``d / 2`` and ``3 d / 2``, plus 41**2 seeded random joint moves inside
    it.  A zero slope is searched over ``[0, max|sol.d| / 2]``.
    """
    n = m.n_sources
    d_eq = np.asarray(sol.d[k], dtype=float)
    shrunk, grown = d_eq * 0.5, d_eq * 1.5
    lo, hi = np.minimum(shrunk, grown), np.maximum(shrunk, grown)
    hi[d_eq == 0.0] = 0.5 * float(np.abs(sol.d).max())
    blocks = [d_eq[None, :]]
    for i in range(n):
        block = np.repeat(d_eq[None, :], 41, axis=0)
        block[:, i] = np.linspace(lo[i], hi[i], 41)
        blocks.append(block)
    rng = np.random.default_rng(176522 + k)
    blocks.append(rng.uniform(lo, hi, size=(41 * 41, n)))
    cands = np.vstack(blocks)
    costs = _deviation_costs(cands, sol, k, w, m)
    best = int(np.argmin(costs))
    return float(costs[0]), float(costs[0] - costs[best]), cands[best].copy()


def _best_response_map(sol, k, w):
    """Reference: buyer k's reply ``gamma[k, q] + sum_{j != k, l != q}
    xi[j, l, q] * d[j, l]``, one step of the map ``neumann_dynamics`` iterates."""
    n = sol.d.shape[1]
    pull = np.einsum("jlq,jl->jq", np.where(np.eye(n, dtype=bool), 0.0, w.xi), sol.d)
    return w.gamma[k] + pull.sum(axis=0) - pull[k]


def _perturbed_books(suite, scale=1.3):
    """Each solved market with one slope, chosen by a fixed seed, scaled;
    books whose payment polytope is empty are skipped."""
    rng = np.random.default_rng(1301)
    for m, w, sol in suite:
        d = sol.d.copy()
        d[rng.integers(m.n_buyers), rng.integers(m.n_sources)] *= scale
        try:
            yield m, w, solution_from_d(d, w, m)
        except InfeasibleCError:
            continue


def test_two_firm_equilibrium_certifies():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    for k in range(2):
        rep = best_response_certificate(sol, k, w, m)
        assert rep.certified and not rep.improvable
        assert rep.bound <= 1e-15 * (1.0 + abs(rep.cost_eq))
        assert rep.argmin_d == pytest.approx(sol.d[k], rel=1e-12)


def test_every_point_of_the_payment_polytope_is_an_equilibrium_book():
    # the certificate does not involve the flat payments inside the polytope,
    # so each vertex certifies both buyers, and buyer 1's cost spans
    # eta_1 * [gamma_1 . v, gamma_1 . v + sum_i effort_i] over them
    with open(os.path.join(ROOT, "configs", "two_firm.json"), encoding="utf-8") as fh:
        m = market_from_config(json.load(fh))
    w, sol = _solved(m)
    poly = sol.c_polytope
    costs = []
    for takes in ((1, 1), (1, 0), (0, 1), (0, 0)):
        # buyer 1 pays each source's whole slack, its effort, or none of it
        share = np.array(takes) * sol.efforts
        book = replace(sol, c_polytope=replace(poly, canonical=poly.L + np.stack(
            [share, sol.efforts - share])))
        reps = [best_response_certificate(book, k, w, m) for k in range(2)]
        assert all(rep.certified for rep in reps)
        costs.append(reps[0].cost_eq)
    assert costs == pytest.approx([2.3175, 1.3064, 1.2251, 0.2140], abs=1e-4)
    least = m.buyers[0].eta * float(w.gamma[0] @ sol.variances)
    assert (costs[-1], costs[0]) == pytest.approx((least, least + sol.efforts.sum()), rel=1e-12)
    # 1% of source 1's slack outside: buyer 1 pays below its floor there,
    # buyer 2 above its share, and buyer 1 has a better reply
    c = poly.canonical.copy()
    c[0, 0] = poly.L[0, 0] - 0.01 * sol.efforts[0]
    c[1, 0] = poly.E[0] - c[0, 0]
    outside = replace(sol, c_polytope=replace(poly, canonical=c))
    rep = best_response_certificate(outside, 0, w, m)
    assert not rep.certified and rep.improvable
    assert _grid_search(outside, 0, w, m)[1] > rep.tolerance


def test_perturbed_point_fails_certification():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    d_mod = sol.d.copy()
    d_mod[0, 0] += 0.5
    pert = solution_from_d(d_mod, w, m)
    rep = best_response_certificate(pert, 0, w, m)
    assert not rep.certified and rep.improvable
    # no floor binds at the closed-form reply, so it is the best reply: the
    # bracket is closed, and the saving is the witness's
    assert rep.argmin_d == pytest.approx(_best_response_map(pert, 0, w), rel=1e-12)
    assert rep.improvement == pytest.approx(rep.bound, rel=1e-12)
    saving = rep.cost_eq - _retightened_cost(0, rep.argmin_d, pert, w, m)
    assert rep.improvement == pytest.approx(saving, rel=1e-9)
    assert rep.improvement == pytest.approx(2.743e-3, rel=1e-3)
    assert rep.improvement >= _grid_search(pert, 0, w, m)[1]


def test_decoupled_argmin_is_equilibrium():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    rep = best_response_certificate(sol, 0, w, m)
    assert rep.certified
    assert rep.argmin_d == pytest.approx(sol.d[0], rel=1e-12)


def test_suite_certification_sample(solved_suite):
    for m, w, sol in solved_suite:
        for k in range(m.n_buyers):
            rep = best_response_certificate(sol, k, w, m)
            assert rep.certified, (
                f"buyer {k} may improve by {rep.bound:.3g} (tol {rep.tolerance:.3g})"
            )
            assert rep.bound <= 1e-15 * (1.0 + abs(rep.cost_eq))


@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_certificate_agrees_with_the_grid(solved_suite, scale):
    # the grid's saving is witnessed, so it bounds the best saving from
    # below: the certificate never certifies past it, and never reports less
    books = solved_suite if scale == 1.0 else list(_perturbed_books(solved_suite, scale))
    assert len(books) >= 200
    missed = 0
    for m, w, sol in books:
        for k in range(m.n_buyers):
            rep = best_response_certificate(sol, k, w, m)
            cost_eq, gain, _ = _grid_search(sol, k, w, m)
            assert rep.cost_eq == pytest.approx(cost_eq, rel=1e-12)
            assert rep.certified != rep.improvable
            assert not (rep.certified and gain > rep.tolerance)
            figure = rep.bound if rep.certified else rep.improvement
            assert figure >= gain - 1e-12 * (1.0 + abs(cost_eq))
            assert 0.0 <= rep.improvement <= rep.bound
            saving = rep.cost_eq - _retightened_cost(k, rep.argmin_d, sol, w, m)
            assert saving == pytest.approx(rep.improvement, rel=1e-9, abs=1e-12)
            missed += rep.improvable and gain <= rep.tolerance
    # the grid certifies buyers whose best reply fell between its points
    # (6 of the scaled books' buyers)
    assert (missed > 0) == (scale != 1.0)


# Two sources and two linear buyers: after d[1, 2] += 1 (1-based), buyer 2's
# closed-form reply drives a payment slack below zero, so the closed form
# alone decides nothing.
CONVEX_SOLVE_DOC = {
    "sources": [{"x": 0.068, "alpha": 0.777}, {"x": 0.74, "alpha": 0.861}],
    "buyers": [{"estimator": {"kind": "linear-regression", "degree": 1},
                "value_dist": {"kind": "discrete", "params": {"points": [-0.434, 0.075, -0.096],
                                                              "weights": [0.17, 0.395, 0.435]}},
                "delta": [0.0, 0.2125]},
               {"estimator": {"kind": "linear-regression", "degree": 1},
                "value_dist": {"kind": "point-mass", "params": {"x0": 0.344}},
                "delta": [0.2125, 0.0]}],
    "feature_domain": [-1.0, 1.0],
}


def _convex_solve_book():
    m = market_from_config(CONVEX_SOLVE_DOC)
    w, sol = _solved(m)
    d = sol.d.copy()
    d[0, 1] += 1.0
    return m, w, solution_from_d(d, w, m)


def test_convex_solve_decides_what_the_closed_form_leaves_open(monkeypatch):
    m, w, pert = _convex_solve_book()
    monkeypatch.setattr(datamarket.oracle, "_DUAL_MAX_STEPS", 1)
    closed = best_response_certificate(pert, 1, w, m)
    # the closed-form reply is worse than the book, and the smooth bound is loose
    assert _retightened_cost(1, _best_response_map(pert, 1, w), pert, w, m) > closed.cost_eq
    assert closed.improvement == 0.0 and not closed.certified
    assert closed.bound == pytest.approx(0.0224, rel=1e-2)
    monkeypatch.undo()
    rep = best_response_certificate(pert, 1, w, m)
    assert rep.improvable
    assert rep.bound - rep.improvement <= 1e-12 * (1.0 + abs(rep.cost_eq))
    assert rep.improvement == pytest.approx(6.26e-3, rel=1e-3)
    assert rep.improvement > _grid_search(pert, 1, w, m)[1]
    saving = rep.cost_eq - _retightened_cost(1, rep.argmin_d, pert, w, m)
    assert saving == pytest.approx(rep.improvement, rel=1e-9)


def test_convex_solve_closes_the_bracket_on_books_ulps_apart():
    # the book above with one slope moved 1-3 ulps up or down: near the dual
    # optimum the bound is flat to its last ulp, and the bracket still closes
    m, w, pert = _convex_solve_book()
    for j, i in np.ndindex(pert.d.shape):
        for ulps in (-3, -2, -1, 1, 2, 3):
            d = pert.d.copy()
            for _ in range(abs(ulps)):
                d[j, i] = np.nextafter(d[j, i], ulps * np.inf)
            rep = best_response_certificate(solution_from_d(d, w, m), 1, w, m)
            assert rep.improvable
            assert rep.bound - rep.improvement <= 1e-12 * (1.0 + abs(rep.cost_eq)), (j, i, ulps)

# ---------------------------------------------------------------------------
# fixed-point certificate, and the iteration it replaced as the reference
# ---------------------------------------------------------------------------

def neumann_dynamics(w):
    """Reference: iterate the best-response map from d = gamma.

    Each sweep applies ``d[k, q] <- gamma[k, q] + sum_{j != k, l != q}
    xi[j, l, q] * d[j, l]`` until the relative step drops below 1e-12, at
    most 10,000 times.  Returns (converged, d, sweeps).
    """
    n_buyers, n_sources = w.gamma.shape
    other_buyer = ~np.eye(n_buyers, dtype=bool)[:, None, :, None]
    other_source = ~np.eye(n_sources, dtype=bool)[:, None, :]
    op = np.where(other_buyer & other_source, np.moveaxis(w.xi, -1, 0), 0.0)
    op = op.reshape(n_buyers * n_sources, -1)
    gamma = w.gamma.reshape(-1)
    d = gamma.copy()
    for it in range(1, 10001):
        d_next = op @ d + gamma
        step = float(np.abs(d_next - d).max()) / (1.0 + float(np.abs(d_next).max()))
        d = d_next
        if step < 1e-12:
            return True, d.reshape(n_buyers, n_sources), it
    return False, d.reshape(n_buyers, n_sources), 10000


def _exact_fixed_point_error(sol, w):
    """Reference: ``max|d - d*| / (1 + max|d|)`` with d* the exact rational
    solve of ``(I - op) d* = gamma`` from the same float xi and gamma, op
    built entry by entry, by Gauss-Jordan elimination in fractions."""
    n_buyers, n_sources = w.gamma.shape
    idx = [(k, q) for k in range(n_buyers) for q in range(n_sources)]
    n = len(idx)
    a = [[Fraction(int(row == col)) - (Fraction(float(w.xi[j, l, q])) if j != k and l != q
                                       else 0) for col, (j, l) in enumerate(idx)]
         + [Fraction(float(w.gamma[k, q]))] for row, (k, q) in enumerate(idx)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    err = max(abs(Fraction(float(sol.d[k, q])) - a[i][n] / a[i][i]) for i, (k, q) in enumerate(idx))
    return float(err / (1 + Fraction(float(np.abs(sol.d).max()))))


# rho of the two-firm market at x1: 0.5, 0.9972, 0.99997, 1 - 2.5e-7 and 1 - 2.5e-9
_TWO_FIRM_LADDER = (0.0, 0.9, 0.99, 0.999, 0.9999)


def test_neumann_decoupled_single_sweep():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    converged, d, sweeps = neumann_dynamics(w)
    assert converged and sweeps == 1
    assert np.array_equal(d, w.gamma)
    assert fixed_point_certificate(sol, w) <= 1e-15


def test_neumann_matches_direct_solve():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    converged, d, _ = neumann_dynamics(w)
    assert converged
    assert np.abs(d - sol.d).max() / (1.0 + np.abs(sol.d).max()) <= 1e-8


def test_neumann_stalls_near_unit_radius():
    # the equilibrium exists (rho = 1 - 2.5e-9) but the iteration cannot
    # reach it within 10,000 sweeps; the certificate bounds the solve there
    # in one linear solve, too loosely to pass check's 1e-8
    m = two_firm_market(0.9999)
    w, sol = _solved(m)
    assert not neumann_dynamics(w)[0]
    bound = fixed_point_certificate(sol, w)
    assert 1e-8 < bound < 1e-6
    assert bound >= _exact_fixed_point_error(sol, w)


def test_fixed_point_certificate_bounds_the_exact_error(solved_suite):
    # on the two-firm ladder and 50 random markets the bound is at least the
    # exact error, and tight enough to pass check below rho 1 - 1e-7
    books = [_solved(two_firm_market(x1)) for x1 in _TWO_FIRM_LADDER]
    books += [(w, sol) for _, w, sol in solved_suite[:50]]
    for w, sol in books:
        bound = fixed_point_certificate(sol, w)
        assert bound >= _exact_fixed_point_error(sol, w)
        assert bound <= 1e-8 or sol.rho > 1.0 - 1e-7


def test_fixed_point_certificate_bounds_a_moved_solve():
    # an error planted in the slopes is bounded from above, and not by much
    m = two_firm_market(0.5)
    w, sol = _solved(m)
    moved = replace(sol, d=sol.d + np.array([[1e-6, 0.0], [0.0, 0.0]]))
    bound = fixed_point_certificate(moved, w)
    assert _exact_fixed_point_error(moved, w) <= bound <= 1e-5


@pytest.mark.parametrize("scale, entry", [(3.0, None), (1.0, -1e-3), (1.0, np.nan)],
                         ids=["past-the-gate", "negative-xi", "nan-xi"])
def test_fixed_point_certificate_refuses_without_an_m_matrix(scale, entry):
    # past the gate no positive v has (I - op) v > 0, and a negative or NaN
    # weight leaves op outside the M-matrix theory: nothing is certified
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    xi = scale * w.xi
    if entry is not None:
        xi[1, 0, 1] = entry
    assert fixed_point_certificate(sol, replace(w, xi=xi)) == np.inf


def _dense_fixed_point_certificate(sol, w):
    """Reference: the certificate as it ran on the dense (N*M)-wide operator,
    with v from an LU solve of ``(I - op) v = 1`` and r, s and their
    magnitudes from products with ``I - op``."""
    n_buyers, n_sources = w.gamma.shape
    n = n_buyers * n_sources
    other_buyer = ~np.eye(n_buyers, dtype=bool)[:, None, :, None]
    other_source = ~np.eye(n_sources, dtype=bool)[:, None, :]
    a = np.where(other_buyer & other_source, -np.moveaxis(w.xi, -1, 0), 0.0).reshape(n, n)
    a.flat[::n + 1] = 1.0
    terms = (n_buyers - 1) * (n_sources - 1) + 3
    widen = terms * 2.0 ** -53 / (1.0 - terms * 2.0 ** -53)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        top = 1.0 + np.abs(sol.d).max()
        unit = np.frexp(top)[1]
        d, gamma = np.ldexp(sol.d.reshape(-1), -unit), np.ldexp(w.gamma.reshape(-1), -unit)
        try:
            v = np.linalg.solve(a, np.ones(n))
        except np.linalg.LinAlgError:
            return np.inf
        r, s = a @ d - gamma, a @ v
        magnitudes = np.abs(a, out=a)
        r_hi = np.abs(r) + widen * (magnitudes @ np.abs(d) + np.abs(gamma))
        s_lo = (s - widen * (magnitudes @ v)).min()
        bound = float(r_hi.max() * v.max() / s_lo / np.ldexp(top, -unit) * (1.0 + 2.0 ** -50))
    certified = (w.xi >= 0.0).all() and (v > 0.0).all() and s_lo > 0.0 and bound < np.inf
    return bound if certified else np.inf


def _shared_block_markets(count, seed):
    """Solved markets of 10-12 spread sources and three buyers of degrees 1
    and 2, so that two buyers at least share their xi block."""
    rng = np.random.default_rng(seed)
    dist = ValueDistribution.uniform(-1.0, 1.0)
    out = []
    while len(out) < count:
        n = int(rng.integers(10, 13))
        xs = ((np.arange(n) + rng.uniform(0.2, 0.8, n)) / n) * 2.0 - 1.0
        buyers = tuple(DataBuyer(EstimatorSpec("polynomial-regression", int(degree)), dist, (0.0,) * 3, 1.0)
                       for degree in rng.integers(1, 3, 3))
        m = MarketInstance(sources=tuple(DataSource(float(x), 1.0) for x in xs), buyers=buyers,
                           feature_domain=(-1.0, 1.0))
        w = compute_weights(m)
        try:
            out.append((w, solve_equilibrium_d(w, m)))
        except NoEquilibriumError:
            continue
    return out


def test_fixed_point_certificate_matches_the_dense_reference(solved_suite):
    # on the suite, on markets with shared blocks and on the two-firm pair
    # near the gate, each solve and each solve moved by 1e-6: the same
    # verdict at 1e-8 as the dense certificate, and the same bound wherever
    # it is above rounding
    books = [(w, sol) for _, w, sol in solved_suite] + _shared_block_markets(40, 43)
    books += [_solved(two_firm_market(x1)) for x1 in (0.999, 0.9999)]
    for w, sol in books:
        for d in (sol.d, sol.d + 1e-6):
            got, want = fixed_point_certificate(replace(sol, d=d), w), \
                _dense_fixed_point_certificate(replace(sol, d=d), w)
            assert (got <= 1e-8) == (want <= 1e-8)
            if max(got, want) > 1e-10:
                assert got == pytest.approx(want, rel=1e-6)
    assert [f"{fixed_point_certificate(sol, w):.3g}" for w, sol in books[-2:]] == ["4e-09", "3.63e-07"]
    assert [f"{_dense_fixed_point_certificate(sol, w):.3g}" for w, sol in books[-2:]] == ["4e-09", "3.63e-07"]


@pytest.mark.parametrize("change", ["half", "one_entry_doubled"])
def test_fixed_point_certificate_is_sound_for_any_v(change):
    # v solved on a wrong grouped matrix still bounds the exact error, or
    # certifies nothing: r and s come from xi
    def wrong_y(w):
        R = coupling_matrix(w.xi)
        if change == "half":
            R *= 0.5
        else:
            R.flat[np.argmax(R)] *= 2.0
        group = datamarket.equilibrium._buyer_groups(w.xi)[1]
        return np.linalg.solve(np.eye(len(R)) - R, np.ones(len(R))).reshape(-1, w.gamma.shape[1])[group]

    books = [_solved(two_firm_market(0.5))] + _shared_block_markets(3, 47)
    certified = 0
    for w, sol in books:
        exact = _solve_rows_dense(_dense_coupling_matrix(w.xi[None]), w.gamma[None],
                                  np.ones((1, w.gamma.shape[1])))[0].d[0]
        y = wrong_y(w)
        for d in (sol.d, sol.d + np.eye(*sol.d.shape) * 1e-6):
            bound = fixed_point_certificate(replace(sol, d=d, y=y), w)
            assert bound == np.inf or bound >= np.abs(d - exact).max() / (1.0 + np.abs(d).max())
            certified += bound < np.inf
    assert certified >= 4


def test_fixed_point_certificate_needs_the_solves_y(monkeypatch):
    # v is the solve's y: the certificate builds no R, groups no buyers and
    # solves nothing; slopes rebuilt from d alone carry no y
    m = two_firm_market(0.0)
    w, sol = _solved(m)

    def forbidden(*args):
        raise AssertionError("the certificate repeats the solve's work")

    for module, name in ((np.linalg, "solve"), (datamarket.equilibrium, "coupling_matrix"),
                         (datamarket.equilibrium, "_buyer_groups")):
        monkeypatch.setattr(module, name, forbidden)
    assert fixed_point_certificate(sol, w) <= 1e-12
    with pytest.raises(ValueError, match=r"needs the solve's y"):
        fixed_point_certificate(solution_from_d(sol.d, w, m), w)


def test_fixed_point_certificate_memory_on_a_wide_market():
    # 100 sources and 24 buyers of degrees 1 and 2: the dense operator
    # would be 2400 wide (46 MB), the grouped R is 200 wide
    n, mm = 100, 24
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = tuple(DataBuyer(EstimatorSpec("polynomial-regression", 1 + k % 2), dist, (0.0,) * mm, 1.0)
                   for k in range(mm))
    m = MarketInstance(sources=tuple(DataSource(-1.0 + (2 * i + 1) / n, 1.0) for i in range(n)),
                       buyers=buyers, feature_domain=(-1.0, 1.0))
    w = compute_weights(m)
    sol = solve_equilibrium_d(w, m)
    tracemalloc.start()
    try:
        bound = fixed_point_certificate(sol, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound <= 1e-12
    assert peak < 8e6


# ---------------------------------------------------------------------------
# payment means, and the simulation they replaced as the reference
# ---------------------------------------------------------------------------

def _loo_residual_operator_pinv(xs, degree):
    """Reference: ``I - P`` of one degree from ``np.linalg.pinv`` of each
    leave-one-out design, the route the SVD-based operator replaced."""
    n = xs.size
    off = ~np.eye(n, dtype=bool)
    designs = np.stack([np.vander(xs[row], degree + 1, increasing=True) for row in off])
    basis = xs[:, None] ** np.arange(degree + 1)
    predict = np.zeros((n, n))
    predict[off] = np.einsum("ik,ikl->il", basis, np.linalg.pinv(designs)).ravel()
    return np.eye(n) - predict


def _whole_array_moments(op, draws):
    """Reference: mean and spread of the squared residuals over one (S, N) draw."""
    r = op @ draws.T
    np.square(r, out=r)
    return r.mean(axis=1), r.std(axis=1, ddof=1)


def _simulated_payments(sol, m, n_samples, seed):
    """Reference: the reporting protocol simulated on the noise alone.

    Draws ``n_samples`` rounds of reports at the equilibrium variances, in
    units of the largest standard deviation, settles every (buyer, source)
    contract against its leave-one-out fit, and returns per pair
    ``(buyer, source, empirical, analytic, std_error, z)``: the sample mean
    payment, the canonical payment less the floor ``L``, the mean's
    standard error and their z-score.
    """
    rng = np.random.default_rng(seed)
    xs = np.asarray(m.locations(), dtype=float)
    sigmas = np.sqrt(np.asarray(sol.variances, dtype=float))
    scale = float(sigmas.max())
    degrees = sorted({b.estimator.degree for b in m.buyers})
    op = np.vstack([_loo_residual_operator_pinv(xs, g) for g in degrees]) * (sigmas / scale)[None, :]
    means, spreads = _whole_array_moments(op, rng.standard_normal((int(n_samples), xs.size)))
    moments = dict(zip(degrees, zip(means.reshape(len(degrees), -1),
                                    spreads.reshape(len(degrees), -1))))

    poly = sol.c_polytope
    out = []
    for j, b in enumerate(m.buyers):
        mean, spread = moments[b.estimator.degree]
        slope = sol.d[j] * scale * scale
        empirical = poly.canonical[j] - slope * mean
        std_error = np.abs(slope) * spread / math.sqrt(n_samples)
        analytic = poly.canonical[j] - poly.L[j]
        for i, (e, a, se) in enumerate(zip(empirical.tolist(), analytic.tolist(),
                                           std_error.tolist())):
            if se == 0.0:
                z = 0.0 if e == a else math.inf
            else:
                z = (e - a) / se
            out.append((j, i, e, a, se, z))
    return out


def _assert_in_simulated_band(pay, simulated):
    # every exact mean lies within 4 standard errors of the simulated one
    for j, i, empirical, analytic, std_error, z in simulated:
        assert pay.analytic_mean[j, i] == analytic
        assert abs(pay.exact_mean[j, i] - empirical) <= 4.0 * std_error, (j, i)


def test_monte_carlo_two_firm():
    for x1 in (-1.0, 0.0):
        m = two_firm_market(x1)
        w, sol = _solved(m)
        pay = payment_moments(sol, m)
        assert pay.z_score.shape == (2, 2)
        assert (np.abs(pay.z_score) <= 1.0).all()
        simulated = _simulated_payments(sol, m, n_samples=30000, seed=7)
        assert all(abs(z) < 4.0 for *_, z in simulated)
        _assert_in_simulated_band(pay, simulated)


def test_monte_carlo_total_payment_covers_effort():
    # summed over buyers, expected payments compensate effort exactly; the
    # simulated totals agree within a conservative s.e. budget
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    pay = payment_moments(sol, m)
    np.testing.assert_allclose(pay.exact_mean.sum(axis=0), sol.efforts, rtol=1e-12, atol=0.0)
    simulated = _simulated_payments(sol, m, n_samples=40000, seed=11)
    for i in range(m.n_sources):
        per_source = [(e, se) for _, source, e, _, se, _ in simulated if source == i]
        total = sum(e for e, _ in per_source)
        budget = sum(se for _, se in per_source)
        assert abs(total - sol.efforts[i]) <= 4.0 * budget


def test_monte_carlo_zero_slope_buyer():
    # a buyer with zero slopes pays its flat payment deterministically
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    d_mod = sol.d.copy()
    d_mod[0] = 0.0
    quiet = solution_from_d(d_mod, w, m)
    pay = payment_moments(quiet, m)
    assert (pay.z_score[0] == 0.0).all()
    assert np.array_equal(pay.exact_mean[0], pay.analytic_mean[0])
    for j, i, empirical, analytic, std_error, z in _simulated_payments(quiet, m, 2000, 3):
        if j == 0:
            assert z == 0.0
            assert empirical == analytic


def test_exact_means_lie_in_the_simulated_band():
    # the two-firm config and feasible markets built as the check benchmark
    # builds them (N 2-8, degrees 1-2, alphas set to 1 / d_total so that
    # every effort is positive): the exact means certify, and each lies
    # within 4 standard errors of a 100,000-round simulation
    with open(os.path.join(ROOT, "configs", "two_firm.json"), encoding="utf-8") as fh:
        markets = [market_from_config(json.load(fh))]
    rng = np.random.default_rng(905)
    for n, degrees in ((2, (1, 1)), (3, (2, 2)), (5, (1, 1)), (8, (1, 2)), (8, (1, 1, 1))):
        while True:
            xs = ((np.arange(n) + rng.uniform(0.2, 0.8, n)) / n) * 2.0 - 1.0
            delta = rng.uniform(0.0, 0.05, (len(degrees), len(degrees)))
            np.fill_diagonal(delta, 0.0)
            buyers = tuple(DataBuyer(EstimatorSpec.polynomial(g),
                                     ValueDistribution.uniform(*np.sort(rng.uniform(-1.0, 1.0, 2))),
                                     tuple(row))
                           for g, row in zip(degrees, delta))
            m = MarketInstance(sources=tuple(DataSource(float(x), 1.0) for x in xs),
                               buyers=buyers, feature_domain=(-1.0, 1.0))
            try:
                w = compute_weights(m)
            except GammaNegativeError:
                continue
            if spectral_radius(coupling_matrix(w.xi)) < 0.99:
                break
        d_total = solve_equilibrium_d(w, m).d_total
        markets.append(replace(m, sources=tuple(DataSource(float(x), float(1.0 / t))
                                                for x, t in zip(xs, d_total))))
    for k, m in enumerate(markets):
        w, sol = _solved(m)
        pay = payment_moments(sol, m)
        assert (np.abs(pay.z_score) <= 1.0).all()
        _assert_in_simulated_band(pay, _simulated_payments(sol, m, 100_000, seed=k))


def test_residual_operator_matches_pinv():
    # one SVD per degree gives np.linalg.pinv's operator and the largest
    # condition number of the leave-one-out designs
    rng = np.random.default_rng(5150)
    for n, degrees in _PAYMENT_CASES:
        xs = np.sort(rng.uniform(-1.0, 1.0, n))
        for g in set(degrees):
            op, kappa = _loo_residual_operator(xs, g)
            want = _loo_residual_operator_pinv(xs, g)
            assert np.abs(op - want).max() <= 1e-12 * np.abs(want).max()
            designs = [np.vander(np.delete(xs, i), g + 1, increasing=True) for i in range(n)]
            assert kappa == pytest.approx(max(np.linalg.cond(x) for x in designs), rel=1e-12)


def _monte_carlo_payments_loop(sol, w, m, f_coeffs, n_samples, seed):
    """Reference: the protocol simulated on reports f(x) + noise.

    One leave-one-out fit per (buyer, source) on reports that carry the
    ground truth, with the fit's deterministic offset removed; this is the
    simulation that the noise-only ``_simulated_payments`` replaced.
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

    The protocol settles any book, equilibrium or not, and most markets of
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
    # simulation reproduces the f(x) + noise one from the same draws, and
    # the exact means of every book certify
    rng = np.random.default_rng(6061)
    for n, degrees in _PAYMENT_CASES:
        m, w, sol = _contract_book(rng, n, degrees)
        got = _simulated_payments(sol, m, n_samples=3000, seed=n)
        want = _monte_carlo_payments_loop(sol, w, m, f_coeffs, 3000, seed=n)
        assert len(got) == len(want) == n * len(degrees)
        for (j, i, empirical, analytic, std_error, z), expected in zip(got, want):
            assert (j, i) == expected[:2]
            assert empirical == pytest.approx(expected[2], rel=1e-12)
            assert analytic == pytest.approx(expected[3], rel=1e-12)
            assert std_error == pytest.approx(expected[4], rel=1e-9)
            assert abs(z - expected[5]) <= 1e-9
        assert (np.abs(payment_moments(sol, m).z_score) <= 1.0).all()


def test_oracle_imports_only_the_weights_type_from_estimators():
    # the oracles certify the weight algebra, so they must not run it
    with open(datamarket.oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "estimators":
            assert [a.name for a in node.names] == ["SeparableWeights"]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(a.name.split(".")[-1] == "estimators" for a in node.names)
