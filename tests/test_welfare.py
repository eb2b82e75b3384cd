import dataclasses
import math

import numpy as np
import pytest

from datamarket import (
    DegenerateSourceError,
    EtaNotOneError,
    NumericFailure,
    build_coupling_system,
    compute_weights,
    price_of_anarchy,
    social_loss,
    social_optimum_efforts,
    solve_equilibrium_d,
)

from conftest import two_firm_market


def _solved(m):
    w = compute_weights(m)
    return w, solve_equilibrium_d(build_coupling_system(w, m))


# ---------------------------------------------------------------------------
# social loss and its minimizer
# ---------------------------------------------------------------------------

def test_social_loss_at_zero_effort():
    # with zero effort the loss is just the sum of aggregate weights
    m = two_firm_market(0.0)
    w, _ = _solved(m)
    assert social_loss(np.zeros(2), w, m) == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_social_loss_two_firm_anchor():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    # per source: 2 * (1/3) * 3/4 + log(4/3)/2, doubled
    expected = 2.0 * ((2.0 / 3.0) * 0.75 + math.log(4.0 / 3.0) / 2.0)
    assert social_loss(sol.efforts, w, m) == pytest.approx(expected, rel=1e-12)


def test_social_optimum_closed_form():
    m = two_firm_market(0.0)
    w, _ = _solved(m)
    e_hat = social_optimum_efforts(w, m)
    assert e_hat == pytest.approx([math.log(4 / 3) / 2, math.log(16 / 3) / 2], rel=1e-12)


def test_social_optimum_first_order_condition(solved_suite):
    for m, w, _, _ in solved_suite[:50]:
        e_hat = social_optimum_efforts(w, m)
        weights = w.gamma.sum(axis=0)
        alphas = np.asarray(m.alphas())
        grad = -2.0 * alphas * weights * np.exp(-2.0 * alphas * e_hat) + 1.0
        assert np.abs(grad).max() <= 1e-9


def test_social_optimum_is_minimizer(solved_suite):
    for m, w, _, _ in solved_suite[:30]:
        e_hat = social_optimum_efforts(w, m)
        base = social_loss(e_hat, w, m)
        for q in range(m.n_sources):
            for bump in (1e-3, -1e-3):
                e = e_hat.copy()
                e[q] += bump
                assert social_loss(e, w, m) > base


def test_social_loss_finite_difference():
    m = two_firm_market(0.4)
    w, _ = _solved(m)
    e_hat = social_optimum_efforts(w, m)
    h = 1e-6
    for q in range(2):
        up = e_hat.copy()
        dn = e_hat.copy()
        up[q] += h
        dn[q] -= h
        fd = (social_loss(up, w, m) - social_loss(dn, w, m)) / (2.0 * h)
        assert abs(fd) <= 1e-6


# ---------------------------------------------------------------------------
# price of anarchy
# ---------------------------------------------------------------------------

def test_two_firm_poa_anchor():
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    report = price_of_anarchy(sol, w, m)
    assert report.loss_eq == pytest.approx(2.5314837690593626, rel=1e-11)
    assert report.loss_opt == pytest.approx(1.9808292530117262, rel=1e-11)
    assert report.poa == pytest.approx(1.2779919143512248, rel=1e-11)


def test_decoupled_poa_is_one():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    report = price_of_anarchy(sol, w, m)
    assert abs(report.poa - 1.0) <= 1e-12
    assert report.efforts_eq == pytest.approx(report.efforts_opt, abs=1e-12)


def test_equilibrium_oversupplies_effort(solved_suite):
    for m, w, _, sol in solved_suite:
        report = price_of_anarchy(sol, w, m)
        assert report.loss_eq > report.loss_opt
        assert (report.efforts_eq - report.efforts_opt).max() > 0.0
        assert report.poa > 1.0


def test_decoupled_markets_reach_the_optimum(decoupled_suite):
    for m, w, _, sol in decoupled_suite:
        report = price_of_anarchy(sol, w, m)
        assert np.abs(report.efforts_eq - report.efforts_opt).max() <= 1e-12
        assert abs(report.poa - 1.0) <= 1e-12


def test_eta_not_one_rejected():
    m = two_firm_market(0.0, etas=(1.0, 2.0))
    w, sol = _solved(m)
    with pytest.raises(EtaNotOneError):
        social_loss(sol.efforts, w, m)
    with pytest.raises(EtaNotOneError):
        price_of_anarchy(sol, w, m)


def test_degenerate_source_rejected():
    # full competition between identical buyers cancels every weight
    m = two_firm_market(0.0, delta=1.0)
    w = compute_weights(m)
    assert not w.gamma.any()
    with pytest.raises(DegenerateSourceError):
        social_optimum_efforts(w, m)


@pytest.mark.parametrize("shift, message", [
    (-0.1, "below the social optimum"),
    # a coupled market must over-supply effort somewhere
    (0.0, "over-incentivize"),
])
def test_welfare_invariants_raise_typed_errors(shift, message):
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    efforts = social_optimum_efforts(w, m) + shift
    with pytest.raises(NumericFailure, match=message):
        price_of_anarchy(dataclasses.replace(sol, efforts=efforts), w, m)
