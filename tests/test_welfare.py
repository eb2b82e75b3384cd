import dataclasses
import math

import numpy as np
import pytest

from datamarket import (
    NumericFailure,
    UndefinedPoaError,
    compute_weights,
    price_of_anarchy,
    solve_equilibrium_d,
    welfare_rows,
)

from conftest import two_firm_market


def _solved(m):
    w = compute_weights(m)
    return w, solve_equilibrium_d(w, m)


def _welfare_row(efforts, w, m):
    """welfare_rows on one market; it computes both losses for any effort profile."""
    rep, _ = welfare_rows(np.asarray(efforts, dtype=float)[None], w.xi[None], w.gamma[None],
                          np.array([m.alphas()], dtype=float), np.array([m.etas()], dtype=float))
    return rep


def _social_loss(efforts, w, m):
    return float(_welfare_row(efforts, w, m).loss_eq[0])


def _social_optimum(w, m):
    return _welfare_row(np.zeros(m.n_sources), w, m).efforts_opt[0]


# ---------------------------------------------------------------------------
# social loss and its minimizer
# ---------------------------------------------------------------------------

def test_social_loss_at_zero_effort():
    # with zero effort the loss is just the sum of aggregate weights
    m = two_firm_market(0.0)
    w, _ = _solved(m)
    assert _social_loss(np.zeros(2), w, m) == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_social_loss_two_firm_anchor():
    m = two_firm_market(-1.0)
    w, sol = _solved(m)
    # per source: 2 * (1/3) * 3/4 + log(4/3)/2, doubled
    expected = 2.0 * ((2.0 / 3.0) * 0.75 + math.log(4.0 / 3.0) / 2.0)
    assert _social_loss(sol.efforts, w, m) == pytest.approx(expected, rel=1e-12)


def test_social_optimum_closed_form():
    m = two_firm_market(0.0)
    w, _ = _solved(m)
    e_hat = _social_optimum(w, m)
    assert e_hat == pytest.approx([math.log(4 / 3) / 2, math.log(16 / 3) / 2], rel=1e-12)


def test_social_optimum_first_order_condition(solved_suite):
    for m, w, _ in solved_suite[:50]:
        e_hat = _social_optimum(w, m)
        weights = w.gamma.sum(axis=0)
        alphas = np.asarray(m.alphas())
        grad = -2.0 * alphas * weights * np.exp(-2.0 * alphas * e_hat) + 1.0
        assert np.abs(grad).max() <= 1e-9


def test_social_optimum_is_minimizer(solved_suite):
    for m, w, _ in solved_suite[:30]:
        e_hat = _social_optimum(w, m)
        base = _social_loss(e_hat, w, m)
        for q in range(m.n_sources):
            for bump in (1e-3, -1e-3):
                e = e_hat.copy()
                e[q] += bump
                assert _social_loss(e, w, m) > base


def test_social_loss_finite_difference():
    m = two_firm_market(0.4)
    w, _ = _solved(m)
    e_hat = _social_optimum(w, m)
    h = 1e-6
    for q in range(2):
        up = e_hat.copy()
        dn = e_hat.copy()
        up[q] += h
        dn[q] -= h
        fd = (_social_loss(up, w, m) - _social_loss(dn, w, m)) / (2.0 * h)
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
    assert sol.efforts == pytest.approx(report.efforts_opt, abs=1e-12)


def test_equilibrium_oversupplies_effort(solved_suite):
    for m, w, sol in solved_suite:
        report = price_of_anarchy(sol, w, m)
        assert report.loss_eq > report.loss_opt
        assert (sol.efforts - report.efforts_opt).max() > 0.0
        assert report.poa > 1.0


def test_decoupled_markets_reach_the_optimum(decoupled_suite):
    for m, w, sol in decoupled_suite:
        report = price_of_anarchy(sol, w, m)
        assert np.abs(sol.efforts - report.efforts_opt).max() <= 1e-12
        assert abs(report.poa - 1.0) <= 1e-12


def test_eta_not_one_rejected():
    m = two_firm_market(0.0, etas=(1.0, 2.0))
    w, sol = _solved(m)
    with pytest.raises(UndefinedPoaError) as info:
        price_of_anarchy(sol, w, m)
    assert str(info.value) == "buyer 1 has eta 2.0; welfare accounting requires eta == 1"


def test_degenerate_source_rejected():
    # full competition between identical buyers cancels every weight
    m = two_firm_market(0.0, delta=1.0)
    w = compute_weights(m)
    assert not w.gamma.any()
    # no slope solves this market; the efforts of its delta = 0 twin stand in
    _, sol = _solved(two_firm_market(0.0))
    with pytest.raises(UndefinedPoaError) as info:
        price_of_anarchy(sol, w, m)
    assert str(info.value) == ("source 0 has zero aggregate loss weight; "
                               "the social loss has no finite minimizer")


def test_welfare_rows_name_the_first_undefined_cause():
    # one error class, three causes, checked per row in order: an eta that
    # is not 1, then a source with zero weight, then a non-positive optimum
    w, sol = _solved(two_firm_market(0.0))
    zero = compute_weights(two_firm_market(0.0, delta=1.0))
    rows = [(w, (1.0, 1.0), (1.0, 1.0)), (w, (1.0, 2.0), (1.0, 1.0)), (zero, (1.0, 1.0), (1.0, 1.0)),
            (zero, (3.0, 1.0), (1.0, 1.0)), (w, (1.0, 1.0), (0.01, 0.01))]
    xi, gamma = (np.stack([getattr(r[0], f) for r in rows]) for f in ("xi", "gamma"))
    _, errors = welfare_rows(np.tile(sol.efforts, (len(rows), 1)), xi, gamma,
                             np.array([r[2] for r in rows]), np.array([r[1] for r in rows]))
    assert errors[0] is None
    assert all(type(e) is UndefinedPoaError for e in errors[1:])
    assert [str(e) for e in errors[1:]] == [
        "buyer 1 has eta 2.0; welfare accounting requires eta == 1",
        "source 0 has zero aggregate loss weight; the social loss has no finite minimizer",
        "buyer 0 has eta 3.0; welfare accounting requires eta == 1",
        # sum over sources of (1 + log(2 * alpha * G)) / (2 * alpha), G = (2/3, 8/3)
        "optimal social loss -262.434 is not positive",
    ]


@pytest.mark.parametrize("shift, message", [
    (-0.1, "below the social optimum"),
    # a coupled market must over-supply effort somewhere
    (0.0, "over-incentivize"),
])
def test_welfare_invariants_raise_typed_errors(shift, message):
    m = two_firm_market(0.0)
    w, sol = _solved(m)
    efforts = _social_optimum(w, m) + shift
    with pytest.raises(NumericFailure, match=message):
        price_of_anarchy(dataclasses.replace(sol, efforts=efforts), w, m)
