import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import datamarket.estimators
from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    GammaNegativeError,
    MarketInstance,
    SingularDesignError,
    ValueDistribution,
    compute_weights,
    coupling_matrix,
    spectral_radius,
    weight_rows,
)

from conftest import two_firm_market

UNIT = ValueDistribution.uniform(-1.0, 1.0)
LIN = EstimatorSpec.linear()


# ---------------------------------------------------------------------------
# h weights (each sample's variance weight in the fit's expected loss)
# against closed forms
# ---------------------------------------------------------------------------

def _one_buyer_market(locations, dist, spec=LIN):
    sources = tuple(DataSource(float(x), 1.0) for x in locations)
    return MarketInstance(sources=sources, buyers=(DataBuyer(spec, dist, (0.0,)),),
                          feature_domain=(-1.0, 1.0))


def _h_weights(locations, dist, spec=LIN):
    """The fit's own variance weights h: beta, with the two-source companion swap undone."""
    beta = compute_weights(_one_buyer_market(locations, dist, spec)).beta[0]
    return beta[::-1] if len(beta) == 2 else beta


def test_h_weight_two_points_closed_form():
    # degree-1 fit on (a, b), evaluated under U[-1, 1]: the weight on the
    # sample at a is (b^2 + 1/3) / (a - b)^2
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(-1.0, 1.0, 2)
        if abs(a - b) < 0.2:
            continue
        expected_a = (b * b + 1.0 / 3.0) / (a - b) ** 2
        expected_b = (a * a + 1.0 / 3.0) / (a - b) ** 2
        assert _h_weights((a, b), UNIT) == pytest.approx([expected_a, expected_b], rel=1e-12)


def test_h_weight_symmetric_design():
    # samples at -1 and 1 under U[-1, 1] split the loss evenly
    assert _h_weights((-1.0, 1.0), UNIT) == pytest.approx([1.0 / 3.0, 1.0 / 3.0], rel=1e-12)


def test_h_weight_point_mass_interpolation():
    # predicting at a sample location of a well-posed design reproduces the
    # squared interpolation weight
    locs = (-0.8, 0.1, 0.9)
    target = 0.4
    X = np.vander(np.asarray(locs), 2, increasing=True)
    w_fit = np.linalg.solve(X.T @ X, X.T)
    pred_weights = np.array([1.0, target]) @ w_fit
    got = _h_weights(locs, ValueDistribution.point_mass(target))
    assert got == pytest.approx(pred_weights ** 2, rel=1e-12)


def test_h_weight_minimum_norm_single_point():
    # one sample, two coefficients: the minimum-norm fit on the sample at a
    # predicts at x with weight (a*x + 1) / (a^2 + 1).  Under a point mass at
    # x its h weight is xi of the two-source market at (x, a), whose
    # leave-one-out fit keeps the sample at a alone.
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, x = rng.uniform(-1.0, 1.0, 2)
        expected = ((a * x + 1.0) / (a * a + 1.0)) ** 2
        xi = compute_weights(_one_buyer_market((x, a), UNIT)).xi
        assert xi[0, 0, 1] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_h_weight_quadrature_cross_check():
    # fixed-node Gauss-Legendre integration of the squared prediction weight
    # must agree with the moment-matrix route for polynomial estimators
    rng = np.random.default_rng(29)
    nodes, gl_w = np.polynomial.legendre.leggauss(64)
    for _ in range(20):
        degree = int(rng.integers(1, 4))
        n_pts = int(rng.integers(degree + 1, degree + 4))
        locs = rng.uniform(-1.0, 1.0, n_pts)
        if np.diff(np.sort(locs)).min() < 0.05:
            continue
        lo, hi = sorted(rng.uniform(-1.5, 1.5, 2))
        if hi - lo < 0.3:
            continue
        dist = ValueDistribution.uniform(lo, hi)
        exact = _h_weights(locs, dist, EstimatorSpec.polynomial(degree))
        X = np.vander(locs, degree + 1, increasing=True)
        fit = np.linalg.solve(X.T @ X, X.T)
        xs_eval = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        basis = np.vander(xs_eval, degree + 1, increasing=True)
        pred_w = basis @ fit            # (64, n_pts)
        for i in range(n_pts):
            # mean of the squared weight under the uniform density
            quad = float(gl_w @ (pred_w[:, i] ** 2)) / 2.0
            assert abs(quad - exact[i]) <= 1e-10 * (1.0 + abs(exact[i]))


# ---------------------------------------------------------------------------
# full-design loss weights
# ---------------------------------------------------------------------------

def test_two_source_loss_weights_closed_form():
    # in a two-source market each source's loss weight carries the companion
    # point's location: ((x1-x2)^2/3 + (xi^2 - x1 x2)^2) / (x1-x2)^4
    for x1 in (-1.0, -0.4, 0.0, 0.35, 0.8):
        beta = compute_weights(two_firm_market(x1)).beta
        x2 = 1.0
        denom = (x1 - x2) ** 4
        b1 = ((x1 - x2) ** 2 / 3.0 + (x1 * x1 - x1 * x2) ** 2) / denom
        b2 = ((x1 - x2) ** 2 / 3.0 + (x2 * x2 - x1 * x2) ** 2) / denom
        assert beta[0] == pytest.approx([b1, b2], rel=1e-12)
        assert beta[1] == pytest.approx([b1, b2], rel=1e-12)


def test_two_firm_anchor_weights():
    w = compute_weights(two_firm_market(0.0))
    assert w.gamma[0] == pytest.approx([1.0 / 3.0, 4.0 / 3.0], rel=1e-12)
    assert w.gamma[1] == pytest.approx([1.0 / 3.0, 4.0 / 3.0], rel=1e-12)
    assert w.xi[0, 0, 1] == pytest.approx(0.25, rel=1e-12)
    assert w.xi[0, 1, 0] == pytest.approx(1.0, rel=1e-12)

    w = compute_weights(two_firm_market(-1.0))
    assert w.gamma == pytest.approx(np.full((2, 2), 1.0 / 3.0), rel=1e-12)
    assert w.xi[0, 0, 1] == pytest.approx(0.0, abs=1e-15)
    assert w.xi[0, 1, 0] == pytest.approx(0.0, abs=1e-15)


def test_three_source_weights_are_first_principles():
    # with three sources there is no companion convention: weights come
    # straight from the fit operator
    locs = (-0.7, 0.1, 0.8)
    beta = compute_weights(_one_buyer_market(locs, UNIT)).beta
    assert beta[0] == pytest.approx(_h_vector_loop(LIN, locs, UNIT), rel=1e-14)


# ---------------------------------------------------------------------------
# leave-one-out tensor
# ---------------------------------------------------------------------------

def test_loo_closed_forms_two_firm():
    for x1 in (-1.0, -0.3, 0.0, 0.5, 0.9):
        xi = compute_weights(two_firm_market(x1)).xi
        x2 = 1.0
        xi_12 = (x1 * x2 + 1.0) ** 2 / (x2 * x2 + 1.0) ** 2
        xi_21 = (x1 * x2 + 1.0) ** 2 / (x1 * x1 + 1.0) ** 2
        for j in range(2):
            assert xi[j, 0, 1] == pytest.approx(xi_12, rel=1e-12, abs=1e-15)
            assert xi[j, 1, 0] == pytest.approx(xi_21, rel=1e-12, abs=1e-15)
            assert xi[j, 0, 0] == 1.0
            assert xi[j, 1, 1] == 1.0


def test_loo_weights_exact_near_decoupling():
    # as x1 -> -1 both weights vanish like (1 + x1)**2; exact rational
    # arithmetic on the float location is the reference.  A**2 is
    # xi_01 * xi_10 times the identity, so rho is their geometric mean.
    for e in range(3, 12):
        x1 = -1.0 + 10.0 ** -e
        xi = compute_weights(two_firm_market(x1)).xi
        x = Fraction(x1)
        xi_01 = ((1 + x) / 2) ** 2            # fit on x = 1, predicting at x1
        xi_10 = ((1 + x) / (1 + x * x)) ** 2  # fit on x1, predicting at 1
        for j in range(2):
            assert abs(xi[j, 0, 1] / float(xi_01) - 1.0) <= 1e-6
            assert abs(xi[j, 1, 0] / float(xi_10) - 1.0) <= 1e-6
        assert abs(spectral_radius(coupling_matrix(xi)) / float(xi_01 * xi_10) ** 0.5 - 1.0) <= 1e-6


def test_loo_far_end_weights_vanish_exactly():
    # sources at (-1, x, 1), degree 2: with K(s, t) = 1 + s*t + s**2 * t**2
    # the minimum-norm fit on (x, 1) predicts at -1 with a weight on the
    # source at 1 proportional to K(-1, 1) K(x, x) - K(-1, x) K(x, 1), which
    # is 0 because (1 - x + x**2)(1 + x + x**2) = 1 + x**2 + x**4; the same
    # holds mirrored.
    buyer = DataBuyer(EstimatorSpec.polynomial(2), UNIT, (0.0,))
    for x in (-0.8125, -0.5, -0.25, 0.3, 0.9):
        sources = tuple(DataSource(v, 1.0) for v in (-1.0, x, 1.0))
        xi = compute_weights(MarketInstance(sources=sources, buyers=(buyer,),
                                            feature_domain=(-1.0, 1.0))).xi
        assert xi[0, 0, 2] <= 1e-25 and xi[0, 2, 0] <= 1e-25


def test_loo_three_sources_interpolation():
    # dropping one of three sources leaves a two-point degree-1 fit whose
    # prediction weights are the usual interpolation coefficients
    locs = np.array([-0.9, 0.2, 0.7])
    sources = tuple(DataSource(float(x), 1.0) for x in locs)
    buyer = DataBuyer(LIN, UNIT, (0.0,))
    m = MarketInstance(sources=sources, buyers=(buyer,), feature_domain=(-1.0, 1.0))
    xi = compute_weights(m).xi
    for i in range(3):
        rest = [l for l in range(3) if l != i]
        a, b = locs[rest]
        wa = (b - locs[i]) / (b - a)
        wb = (locs[i] - a) / (b - a)
        assert xi[0, i, rest[0]] == pytest.approx(wa ** 2, rel=1e-12)
        assert xi[0, i, rest[1]] == pytest.approx(wb ** 2, rel=1e-12)


def test_identical_estimators_share_xi(solved_suite):
    for m, w, _ in solved_suite[:40]:
        specs = [b.estimator for b in m.buyers]
        for j in range(1, m.n_buyers):
            if specs[j] == specs[0]:
                assert np.array_equal(w.xi[j], w.xi[0])


def test_weights_nonnegative(solved_suite):
    for _, w, _ in solved_suite:
        assert w.beta.min() >= 0.0
        assert w.xi.min() >= 0.0
        assert w.gamma.min() >= 0.0


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_full_design_singular():
    sources = (DataSource(0.3, 1.0), DataSource(0.3, 1.0))
    buyer = DataBuyer(LIN, UNIT, (0.0,))
    m = MarketInstance(sources=sources, buyers=(buyer,), feature_domain=(-1.0, 1.0))
    # buyer 0's full design, not a leave-one-out one
    with pytest.raises(SingularDesignError, match=r"^buyer 0: design at locations \[0\.3, 0\.3\] "):
        compute_weights(m)


def test_loo_design_singular_names_buyer_and_source():
    # duplicated pair: the full design has rank 2, but dropping the third
    # source leaves two identical points
    sources = (DataSource(0.3, 1.0), DataSource(0.3, 1.0), DataSource(0.9, 1.0))
    buyer = DataBuyer(LIN, UNIT, (0.0,))
    m = MarketInstance(sources=sources, buyers=(buyer,), feature_domain=(-1.0, 1.0))
    with pytest.raises(SingularDesignError,
                       match="^buyer 0: leave-one-out design dropping source 2 is singular: "):
        compute_weights(m)


def test_gamma_negative_raises():
    # buyer 0 cares only about predictions at 0 (where its own sample sits),
    # buyer 1 averages over the interval; full mutual competition then
    # drives buyer 0's adjusted weights negative
    focused = DataBuyer(LIN, ValueDistribution.point_mass(0.0), (0.0, 1.0))
    broad = DataBuyer(LIN, UNIT, (1.0, 0.0))
    m = MarketInstance(
        sources=(DataSource(0.0, 1.0), DataSource(1.0, 1.0)),
        buyers=(focused, broad),
        feature_domain=(-1.0, 1.0),
    )
    with pytest.raises(GammaNegativeError):
        compute_weights(m)


def test_gamma_zero_from_full_competition():
    # identical buyers with delta = 1 cancel exactly; that is allowed here
    # and only fails later when the equilibrium needs positive pressure
    w = compute_weights(two_firm_market(0.0, delta=1.0))
    assert np.array_equal(w.gamma, np.zeros((2, 2)))


def test_eta_scales_gamma():
    w1 = compute_weights(two_firm_market(0.0))
    w2 = compute_weights(two_firm_market(0.0, etas=(2.0, 4.0)))
    assert w2.gamma[0] == pytest.approx(w1.gamma[0] / 2.0, rel=1e-14)
    assert w2.gamma[1] == pytest.approx(w1.gamma[1] / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# stacked fits against the per-buyer and per-drop loops
# ---------------------------------------------------------------------------

def _fit_loop(spec, locations):
    """One least-squares fit operator W (coefficients = W @ y), as a single 2-D solve."""
    X = np.vander(np.asarray(locations, dtype=float), spec.degree + 1, increasing=True)
    n_pts, n_coef = X.shape
    gram = X.T @ X if n_pts >= n_coef else X @ X.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularDesignError(
            f"design at locations {[float(v) for v in locations]} is rank deficient "
            f"for degree {spec.degree} (cond {cond:.3g})"
        )
    return np.linalg.solve(gram, X.T) if n_pts >= n_coef else X.T @ np.linalg.inv(gram)


def _h_vector_loop(spec, locations, dist):
    """One least-squares fit and its variance weights under ``dist``."""
    W = _fit_loop(spec, locations)
    mu = np.array([dist.moment(p) for p in range(2 * spec.degree + 1)])
    mom = mu[np.add.outer(np.arange(spec.degree + 1), np.arange(spec.degree + 1))]
    return np.maximum(np.einsum("pi,pq,qi->i", W, mom, W), 0.0)


def _loss_weight_matrix_loop(m):
    xs = np.asarray(m.locations(), dtype=float)
    beta = np.empty((m.n_buyers, m.n_sources))
    for j, b in enumerate(m.buyers):
        try:
            h = _h_vector_loop(b.estimator, xs, b.value_dist)
        except SingularDesignError as err:
            raise SingularDesignError(f"buyer {j}: {err}") from None
        beta[j] = h[::-1] if m.n_sources == 2 else h
    return beta


def _loo_weight_tensor_loop(m):
    xs = np.asarray(m.locations(), dtype=float)
    n = m.n_sources
    xi = np.zeros((m.n_buyers, n, n))
    for j, b in enumerate(m.buyers):
        for i in range(n):
            rest = [l for l in range(n) if l != i]
            try:
                W = _fit_loop(b.estimator, xs[rest])
            except SingularDesignError as err:
                raise SingularDesignError(
                    f"buyer {j}: leave-one-out design dropping source {i} is singular: {err}"
                ) from None
            # squared prediction weight at the dropped source, summed over p in order
            phi = np.vander([xs[i]], b.estimator.degree + 1, increasing=True)[0]
            pred = np.zeros(n - 1)
            for p in range(b.estimator.degree + 1):
                pred += phi[p] * W[p]
            xi[j, i, rest] = pred * pred
            xi[j, i, i] = 1.0
    return xi


def _random_fit_market(rng, n, degrees, coincide=False):
    xs = np.sort(rng.uniform(-1.0, 1.0, n))
    if coincide:
        a, b = rng.choice(n, 2, replace=False)
        xs[a] = xs[b]
    buyers = []
    for degree in degrees:
        u = rng.uniform()
        if u < 0.4:
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
            dist = ValueDistribution.uniform(lo, hi + 0.05)
        elif u < 0.7:
            dist = ValueDistribution.point_mass(rng.uniform(-1.0, 1.0))
        else:
            dist = ValueDistribution.discrete(rng.uniform(-1.0, 1.0, 3), (0.2, 0.3, 0.5))
        buyers.append(DataBuyer(EstimatorSpec.polynomial(int(degree)), dist, (0.0,) * len(degrees)))
    sources = tuple(DataSource(float(x), 1.0) for x in xs)
    return MarketInstance(sources=sources, buyers=tuple(buyers), feature_domain=(-1.0, 1.0))


def _close(got, want, rel):
    return np.all(np.abs(got - want) <= rel * np.abs(want))


def test_stacked_fits_match_the_loops():
    # N = degree + 1 makes every leave-one-out design underdetermined
    rng = np.random.default_rng(41)
    fitted = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        degrees = rng.integers(1, min(3, n - 1) + 1, int(rng.integers(1, 4)))
        m = _random_fit_market(rng, n, degrees)
        try:
            beta, xi = _loss_weight_matrix_loop(m), _loo_weight_tensor_loop(m)
        except SingularDesignError:
            continue
        fitted += 1
        w = compute_weights(m)
        assert _close(w.beta, beta, 1e-12)
        assert _close(w.xi, xi, 1e-12)
    assert fitted > 250


def test_weight_rows_equal_one_market_calls():
    # rows are bit for bit the one-market weights, errors included
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        degrees = rng.integers(1, min(3, n - 1) + 1, int(rng.integers(1, 4)))
        base = _random_fit_market(rng, n, degrees)
        n_rows = int(rng.integers(1, 7))
        xs = np.sort(rng.uniform(-1.0, 1.0, (n_rows, n)), axis=1)
        etas = rng.uniform(0.5, 2.0, (n_rows, len(degrees)))
        if n_rows > 1:
            xs[1, 0] = xs[1, -1]
        if n_rows > 2:
            etas[2, -1] = 5e-324  # overflows that buyer's gamma
        w, errors = weight_rows(base, xs, etas)
        for r in range(n_rows):
            m = MarketInstance(
                sources=tuple(DataSource(float(x), 1.0) for x in xs[r]),
                buyers=tuple(dataclasses.replace(b, eta=float(e)) for b, e in zip(base.buyers, etas[r])),
                feature_domain=(-1.0, 1.0))
            try:
                one = compute_weights(m)
            except (SingularDesignError, GammaNegativeError) as err:
                assert str(errors[r]) == str(err)
                assert (errors[r].xi is None) == (err.xi is None)
                if err.xi is not None:
                    assert np.array_equal(errors[r].xi, err.xi)
                continue
            assert errors[r] is None
            assert np.array_equal(w.beta[r], one.beta)
            assert np.array_equal(w.xi[r], one.xi)
            assert np.array_equal(w.gamma[r], one.gamma)


def _same_error(got, want):
    # the message names the buyer and, for a leave-one-out fit, the dropped source
    if got is None or want is None:
        return got is want
    return str(got) == str(want)


def test_singular_design_errors_match_the_loops():
    # coincident sources and mixed degrees: the failing buyer need not be
    # the first, and the error names the first failure in buyer-major order
    rng = np.random.default_rng(47)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 6))
        degrees = rng.integers(1, min(3, n - 1) + 1, int(rng.integers(1, 4)))
        m = _random_fit_market(rng, n, degrees, coincide=True)
        wants = []
        for loop in (_loss_weight_matrix_loop, _loo_weight_tensor_loop):
            try:
                loop(m)
            except SingularDesignError as want:
                wants.append(want)
                seen.add((str(want).split(":")[0], loop is _loss_weight_matrix_loop))
            else:
                wants.append(None)
        # compute_weights raises a full-design failure before a leave-one-out
        # one, and its error carries xi exactly when the leave-one-out fits
        # succeed; _fit_rows keeps the leave-one-out failure alone
        _, errors = weight_rows(m, np.array([m.locations()]), np.array([m.etas()]))
        assert (errors[0] is None or errors[0].xi is not None) == (wants[1] is None)
        *_, xi_errors = datamarket.estimators._fit_rows(np.array([m.locations()]), m.buyers)
        want = wants[0] or wants[1]
        if want is None:
            compute_weights(m)
        else:
            with pytest.raises(SingularDesignError) as got:
                compute_weights(m)
            assert _same_error(got.value, want)
        assert _same_error(xi_errors[0], wants[1])
    assert {b for b, _ in seen} >= {"buyer 0", "buyer 1"} and {full for _, full in seen} == {True, False}


def test_each_degree_builds_one_design(monkeypatch):
    # the full and the leave-one-out fits of a degree, and the basis the
    # leave-one-out fits predict in, all come from one design
    built = []
    real = datamarket.estimators._design_matrix

    def recorded(locations, degree):
        built.append(degree)
        return real(locations, degree)

    monkeypatch.setattr(datamarket.estimators, "_design_matrix", recorded)
    m = _random_fit_market(np.random.default_rng(53), 6, [2, 1, 2, 3, 1])
    _, errors = weight_rows(m, np.array([m.locations()] * 3), np.array([m.etas()] * 3))
    assert built == [2, 1, 3]
    assert errors == [None] * 3


@pytest.mark.parametrize("degree, xs", [
    (2, (1e300, -1.0, 0.0)),  # the square of 1e300 overflows
    (1, (-1.0, 0.0, 1e155)),  # every power fits a float, the Gram matrix does not
], ids=["power", "gram"])
def test_designs_that_overflow_are_rank_deficient(degree, xs):
    # the design is rank deficient with cond inf, and its loss weights are
    # 0, with no warning and no LAPACK call on inf or NaN
    m = _one_buyer_market((-1.0, 0.0, 1.0), ValueDistribution.point_mass(0.5),
                          EstimatorSpec.polynomial(degree))
    w, errors = weight_rows(m, np.array([[-1.0, 0.0, 1.0], xs]), np.array([[1.0], [1.0]]))
    assert errors[0] is None
    assert str(errors[1]) == (f"buyer 0: design at locations {list(xs)} is rank deficient "
                              f"for degree {degree} (cond inf)")
    assert errors[1].xi is None  # a design keeping the far source fails too
    assert np.isfinite(w.beta).all() and not w.beta[1].any()


def test_weight_errors_carry_the_leave_one_out_tensor():
    # singular full design: xi is still fit, so existence can be decided
    sources = (DataSource(0.3, 1.0), DataSource(0.3, 1.0))
    m = MarketInstance(sources=sources, buyers=(DataBuyer(LIN, UNIT, (0.0,)),),
                       feature_domain=(-1.0, 1.0))
    with pytest.raises(SingularDesignError) as err:
        compute_weights(m)
    rows, errors = weight_rows(m, np.array([m.locations()]), np.array([m.etas()]))
    assert np.array_equal(errors[0].xi, rows.xi[0])
    assert np.array_equal(err.value.xi, rows.xi[0])

    # a singular leave-one-out design leaves nothing to carry
    sources = (DataSource(0.3, 1.0), DataSource(0.3, 1.0), DataSource(0.9, 1.0))
    m = MarketInstance(sources=sources, buyers=(DataBuyer(LIN, UNIT, (0.0,)),),
                       feature_domain=(-1.0, 1.0))
    with pytest.raises(SingularDesignError) as err:
        compute_weights(m)
    assert err.value.xi is None
