import math

import numpy as np
import pytest

from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    MarketInstance,
    ValueDistribution,
    Violation,
    source_response,
    validate_market,
)

from conftest import two_firm_market


# ---------------------------------------------------------------------------
# source best response
# ---------------------------------------------------------------------------

def test_effort_zero_crossing():
    # total slope 1/(2 alpha) makes zero effort the stationary point
    alphas = np.array([0.5, 1.0, 2.0, 3.7])
    efforts, _, ok = source_response(1.0 / (2.0 * alphas), alphas)
    assert ok.all()
    np.testing.assert_allclose(efforts, 0.0, rtol=0.0, atol=1e-15)


def test_effort_two_firm_values():
    efforts, _, ok = source_response(np.array([40.0 / 9.0, 2.0 / 3.0]), np.array([1.0, 1.0]))
    assert ok.all()
    assert efforts[0] == pytest.approx(math.log(80.0 / 9.0) / 2.0, rel=1e-15)
    assert efforts[1] == pytest.approx(math.log(4.0 / 3.0) / 2.0, rel=1e-15)


def test_variance_values():
    _, variances, ok = source_response(np.array([40.0 / 9.0, 1.0]), np.array([1.0, 2.0]))
    assert ok.all()
    assert variances[0] == pytest.approx(9.0 / 80.0, rel=1e-15)
    assert variances[1] == pytest.approx(0.25, rel=1e-15)
    alphas = np.array([0.5, 1.0, 2.0])
    _, variances, _ = source_response(1.0 / (2.0 * alphas), alphas)
    np.testing.assert_allclose(variances, 1.0, rtol=1e-15)


def test_effort_variance_consistency():
    # the variance at the stationary effort equals exp(-2 alpha e)
    rng = np.random.default_rng(7)
    d_total = rng.uniform(0.05, 20.0, size=(20, 10))
    alphas = rng.uniform(0.1, 4.0, size=(20, 10))
    efforts, variances, ok = source_response(d_total, alphas)
    assert ok.all()
    np.testing.assert_allclose(variances, np.exp(-2.0 * alphas * efforts), rtol=1e-12)


def test_effort_monotone_in_pressure():
    grid = np.linspace(0.1, 5.0, 40)
    efforts, variances, ok = source_response(grid, 1.3)
    assert ok.all()
    assert (np.diff(efforts) > 0.0).all()
    assert (np.diff(variances) < 0.0).all()


@pytest.mark.parametrize("d_total", [0.0, -1.0])
def test_effort_rejects_nonpositive_pressure(d_total):
    assert not source_response(np.array([d_total]), np.array([1.0]))[2].any()


def test_effort_rejects_nonpositive_alpha():
    assert not source_response(np.array([1.0, 1.0]), np.array([0.0, -2.0]))[2].any()


def test_ok_marks_exactly_the_finite_responses():
    # at the two-firm total slope, a tiny alpha overflows the effort (and at
    # 1e-320 the variance too), and a huge one overflows 2 * alpha * d_total
    alphas = np.array([1e-308, 1e-320, 2.2e307, 1e-300])
    efforts, variances, ok = source_response(40.0 / 9.0, alphas)
    assert ok.tolist() == [False, False, False, True]
    assert (ok == (np.isfinite(efforts) & np.isfinite(variances))).all()


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_uniform_moments():
    d = ValueDistribution.uniform(-1.0, 1.0)
    assert d.moment(0) == pytest.approx(1.0)
    assert d.moment(1) == pytest.approx(0.0)
    assert d.moment(2) == pytest.approx(1.0 / 3.0)
    assert d.moment(3) == pytest.approx(0.0)
    assert d.moment(4) == pytest.approx(1.0 / 5.0)
    shifted = ValueDistribution.uniform(0.0, 2.0)
    assert shifted.moment(1) == pytest.approx(1.0)
    assert shifted.moment(2) == pytest.approx(4.0 / 3.0)


def test_point_and_discrete_moments():
    p = ValueDistribution.point_mass(0.3)
    assert p.moment(2) == pytest.approx(0.09)
    d = ValueDistribution.discrete([-1.0, 1.0], [0.5, 0.5])
    assert d.moment(1) == pytest.approx(0.0)
    assert d.moment(2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _codes(m):
    return [v.code for v in validate_market(m)]


def test_valid_market_has_no_violations():
    assert validate_market(two_firm_market(0.0)) == []
    assert validate_market(two_firm_market(-1.0, delta=0.5)) == []


def test_insufficient_sources():
    buyer = DataBuyer(
        estimator=EstimatorSpec.polynomial(2),
        value_dist=ValueDistribution.uniform(-1.0, 1.0),
        delta_row=(0.0,),
    )
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(0.5, 1.0)),
        buyers=(buyer,),
        feature_domain=(-1.0, 1.0),
    )
    assert "insufficient-sources" in _codes(m)


def test_delta_asymmetry():
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = (
        DataBuyer(EstimatorSpec.linear(), dist, (0.0, 0.3)),
        DataBuyer(EstimatorSpec.linear(), dist, (0.5, 0.0)),
    )
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=buyers,
        feature_domain=(-1.0, 1.0),
    )
    assert "delta-asymmetry" in _codes(m)


def test_alpha_and_location_violations():
    m = MarketInstance(
        sources=(DataSource(0.0, -1.0), DataSource(2.0, 1.0)),
        buyers=two_firm_market(0.0).buyers,
        feature_domain=(-1.0, 1.0),
    )
    codes = _codes(m)
    assert "alpha-nonpositive" in codes
    assert "x-outside-domain" in codes


def test_delta_row_violations():
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = (
        DataBuyer(EstimatorSpec.linear(), dist, (0.2, 0.3)),   # self weight nonzero
        DataBuyer(EstimatorSpec.linear(), dist, (1.5, 0.0)),   # out of range
    )
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=buyers,
        feature_domain=(-1.0, 1.0),
    )
    codes = _codes(m)
    assert "delta-self-nonzero" in codes
    assert "delta-out-of-range" in codes


def test_delta_length_mismatch():
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = (
        DataBuyer(EstimatorSpec.linear(), dist, (0.0,)),
        DataBuyer(EstimatorSpec.linear(), dist, (0.0, 0.0)),
    )
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=buyers,
        feature_domain=(-1.0, 1.0),
    )
    assert "delta-length-mismatch" in _codes(m)


def test_eta_and_distribution_violations():
    bad_dist = ValueDistribution.discrete([0.0, 0.5], [0.5, 0.6])
    buyers = (
        DataBuyer(EstimatorSpec.linear(), bad_dist, (0.0, 0.0), eta=0.0),
        DataBuyer(EstimatorSpec.linear(), ValueDistribution.uniform(1.0, -1.0), (0.0, 0.0)),
    )
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=buyers,
        feature_domain=(-1.0, 1.0),
    )
    codes = _codes(m)
    assert "eta-nonpositive" in codes
    assert codes.count("value-dist-invalid") == 2


@pytest.mark.parametrize("dist, message", [
    (ValueDistribution("gaussian"), "unknown distribution kind 'gaussian'"),
    (ValueDistribution.point_mass(math.inf), "point mass location inf is not finite"),
    (ValueDistribution.point_mass(math.nan), "point mass location nan is not finite"),
    (ValueDistribution.discrete([], []), "discrete distribution needs matching points and weights"),
    (ValueDistribution.discrete([0.0, 0.5], [1.0]), "discrete distribution needs matching points and weights"),
    (ValueDistribution.discrete([-math.inf, 0.5], [0.5, 0.5]), "discrete points must be finite"),
    (ValueDistribution.discrete([0.0, 0.5], [1.5, -0.5]), "discrete weights must be nonnegative"),
], ids=["unknown-kind", "inf-point-mass", "nan-point-mass", "empty-discrete", "mismatched-discrete",
        "inf-point", "negative-weight"])
def test_value_distribution_violation_messages(dist, message):
    buyer = DataBuyer(EstimatorSpec.linear(), dist, (0.0,))
    m = MarketInstance(sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)), buyers=(buyer,),
                       feature_domain=(-1.0, 1.0))
    assert validate_market(m) == [Violation("value-dist-invalid", "buyers[0]", message)]


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_source_location(x):
    m = MarketInstance(sources=(DataSource(0.0, 1.0), DataSource(x, 1.0)),
                       buyers=(DataBuyer(EstimatorSpec.linear(), ValueDistribution.uniform(-1.0, 1.0), (0.0,)),),
                       feature_domain=(-1.0, 1.0))
    assert validate_market(m) == [Violation("x-outside-domain", "sources[1]", f"location {x} is not finite")]


@pytest.mark.parametrize("dist", [
    ValueDistribution.uniform(0.0, 1e308),
    ValueDistribution.point_mass(1e200),
    ValueDistribution.discrete([0.0, 1e200], [0.5, 0.5]),
])
def test_overflowing_moments_rejected(dist):
    # finite bounds whose raw moments up to order 2 do not fit a float
    buyer = DataBuyer(EstimatorSpec.linear(), dist, (0.0,))
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=(buyer,),
        feature_domain=(-1.0, 1.0),
    )
    assert _codes(m) == ["value-dist-invalid"]


def test_estimator_violations():
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = (
        DataBuyer(EstimatorSpec("linear-regression", 2), dist, (0.0, 0.0)),
        DataBuyer(EstimatorSpec("ridge", 1), dist, (0.0, 0.0)),
    )
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=buyers,
        feature_domain=(-1.0, 1.0),
    )
    codes = _codes(m)
    assert "degree-invalid" in codes
    assert "estimator-kind-unknown" in codes


def test_empty_market_and_bad_domain():
    m = MarketInstance(sources=(), buyers=(), feature_domain=(1.0, -1.0))
    codes = _codes(m)
    assert "no-sources" in codes
    assert "no-buyers" in codes
    assert "feature-domain-invalid" in codes


def test_validation_is_deterministic():
    m = MarketInstance(
        sources=(DataSource(0.0, -1.0), DataSource(5.0, 1.0)),
        buyers=two_firm_market(0.0).buyers,
        feature_domain=(-1.0, 1.0),
    )
    assert validate_market(m) == validate_market(m)
