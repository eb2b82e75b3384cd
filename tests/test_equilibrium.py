import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datamarket.equilibrium
from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    InfeasibleCError,
    MarketInstance,
    NoEquilibriumError,
    NumericFailure,
    RHO_EXISTENCE_THRESHOLD,
    SeparableWeights,
    SingularDesignError,
    ValueDistribution,
    complete_solution,
    compute_weights,
    coupling_matrix,
    solution_from_d,
    solve_equilibrium_d,
    solve_rows,
    spectral_radius,
)

from datamarket.cli import market_from_config

from conftest import two_firm_market

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_trivial_cases():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.array([[0.7]])) == pytest.approx(0.7, rel=1e-12)
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    assert spectral_radius(np.zeros((0, 4, 4))).shape == (0,)


def test_spectral_radius_periodic_block():
    # 2-cycle structure: eigenvalues come in +/- pairs of equal modulus
    a = np.array([[0.0, 1.0], [0.25, 0.0]])
    assert spectral_radius(a) == pytest.approx(0.5, rel=1e-11)


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        a = rng.uniform(0.0, 1.0, (n, n))
        if rng.uniform() < 0.4:
            # bipartite block form, exercising the periodic case
            k = n // 2
            a[:k, :k] = 0.0
            a[k:, k:] = 0.0
        expected = float(np.abs(np.linalg.eigvals(a)).max())
        got = spectral_radius(a)
        assert abs(got - expected) <= 1e-9 * max(1.0, expected)
        # one radius per matrix of a stack, equal to the one-matrix call
        stacked = spectral_radius(np.stack([a, 0.5 * a]))
        assert stacked.tolist() == [got, spectral_radius(0.5 * a)]


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[0.1, -0.2], [0.0, 0.1]]))
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))
    # a NaN radius would pass the existence gate
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.1, bad], [0.0, 0.1]]))


@pytest.mark.parametrize("x1", [-0.999, -0.99, -0.9, 0.0, 0.5])
def test_spectral_radius_two_firm_closed_form(x1):
    # near-decoupled markets (x1 -> -1) are where an iterative radius is slowest
    m = two_firm_market(x1)
    sol = solve_equilibrium_d(compute_weights(m), m)
    expected = (x1 + 1.0) ** 2 / (2.0 * (x1 ** 2 + 1.0))
    assert sol.rho == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_spectral_radius_deterministic():
    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 1.0, (8, 8))
    assert spectral_radius(a) == spectral_radius(a)


def _dense_radius(a):
    """The reference: the largest modulus of the dense eigenvalues."""
    return np.abs(np.linalg.eigvals(a)).max(axis=-1)


def _radius(xi):
    """Spectral radius of xi's grouped coupling matrix."""
    return spectral_radius(coupling_matrix(xi))


def _count_eigvals(monkeypatch):
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or real(a))
    return calls


def test_large_radius_matches_eigvals_without_calling_it(monkeypatch):
    # Noda's iteration on market R at or above the crossover, and on random
    # irreducible matrices, against dense eigvals computed beforehand
    rng = np.random.default_rng(41)
    cases = []
    markets = [(24, [1, 2]), (24, [2, 1, 1, 2, 2]), (30, [1, 3, 2, 3]), (32, [1, 2, 3]),
               (40, [1, 2]), (40, [1, 2, 1, 2, 1])]
    for n, degrees in markets * 3:
        cases.append(coupling_matrix(_loo_xi(np.sort(rng.uniform(-1.0, 1.0, n)), degrees)))
    for n in (40, 57, 100):
        a = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.3)
        a[np.arange(n), np.roll(np.arange(n), 1)] = rng.uniform(0.1, 1.0, n)  # a cycle: irreducible
        cases.append(a)
    assert min(len(a) for a in cases) >= datamarket.equilibrium._NODA_MIN_SIZE
    assert 80 in {len(a) for a in cases}
    want = [float(_dense_radius(a)) for a in cases]
    calls = _count_eigvals(monkeypatch)
    for a, rho in zip(cases, want):
        assert abs(spectral_radius(a) - rho) <= 1e-12 * rho
    assert calls == []


def test_reducible_large_radius_falls_back_to_eigvals(monkeypatch):
    rng = np.random.default_rng(43)
    n = 60
    # block upper triangular with the larger radius in the upper block:
    # the Perron vector vanishes on the lower block
    triangular = rng.uniform(0.0, 1.0, (n, n))
    triangular[n // 2:, :n // 2] = 0.0
    triangular[n // 2:, n // 2:] *= 0.5
    zero_row = rng.uniform(0.0, 1.0, (n, n))
    zero_row[7] = 0.0
    # row 0 holds only its diagonal, the largest row sum: Noda's first
    # shift, I - a, has a zero row, singular whatever the rounding
    isolated = rng.uniform(0.0, 1.0, (n, n)) / n
    isolated[0] = 0.0
    isolated[0, 0] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(n) - isolated, np.ones(n))
    assert math.isnan(datamarket.equilibrium._noda_radius(isolated))
    cases = [triangular, zero_row, np.zeros((n, n)), isolated]
    want = [float(_dense_radius(a)) for a in cases]
    calls = _count_eigvals(monkeypatch)
    for a, rho in zip(cases, want):
        calls.clear()
        assert spectral_radius(a) == rho
        assert calls == [(1, n, n)]


def test_large_stacked_radius_equals_the_single_calls():
    rng = np.random.default_rng(47)
    xs = np.sort(rng.uniform(-1.0, 1.0, 24))
    market = coupling_matrix(_loo_xi(xs, [1, 2, 1]))
    n = len(market)
    reducible = rng.uniform(0.0, 1.0, (n, n))
    reducible[3] = 0.0
    stack = np.stack([market, 0.7 * market, reducible, rng.uniform(0.0, 1.0, (n, n))])
    single = [spectral_radius(a) for a in stack]
    assert spectral_radius(stack).tolist() == single
    assert spectral_radius(stack.reshape(2, 2, n, n)).tolist() == [single[:2], single[2:]]
    # a row's bits do not depend on its stackmates
    assert spectral_radius(stack[::-1]).tolist() == single[::-1]


# ---------------------------------------------------------------------------
# coupling matrix assembly
# ---------------------------------------------------------------------------

def _dense_coupling_matrix(xi):
    """Reference: the dense (N*M)-wide A as the solve built it before it ran
    on the grouped R.  ``A[(q, k), (l, j)] = xi[j, l, q]`` for ``l != q`` and
    ``j != k``, source-major; leading axes of ``xi`` carry over to A."""
    *lead, n_buyers, n_sources, _ = xi.shape
    A = np.zeros((*lead, n_sources, n_buyers, n_sources, n_buyers))
    other_buyer = ~np.eye(n_buyers, dtype=bool)
    np.copyto(A, np.swapaxes(xi, -1, -3)[..., :, None, :, :],
              where=other_buyer[None, :, None, :])
    own = np.arange(n_sources)
    A[..., own, :, own, :] = 0.0
    return A.reshape(*lead, n_sources * n_buyers, n_sources * n_buyers)


def _solve_rows_dense(A, gamma, alphas):
    """Reference: solve_rows as it ran on the dense A, with one LU solve of
    ``I - A`` per row and the residual taken from A."""
    n_rows, n_buyers, n_sources = gamma.shape
    n = n_sources * n_buyers
    gamma_vec = np.swapaxes(gamma, -1, -2).reshape(n_rows, n)
    eye_minus_a = np.zeros_like(A)
    eye_minus_a[..., np.arange(n), np.arange(n)] = 1.0
    np.subtract(eye_minus_a, A, out=eye_minus_a)
    dvec = np.linalg.solve(eye_minus_a, gamma_vec[..., None])[..., 0]
    scale = 1.0 + np.abs(dvec).max(axis=-1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(dvec - (A @ dvec[..., None])[..., 0] - gamma_vec).max(axis=-1) / scale
    lowest = dvec.min(axis=-1, initial=0.0)
    limit = datamarket.equilibrium._RESIDUAL_HARD_LIMIT
    off_limit = ~(residual <= limit)
    errors = [None] * n_rows
    for r in np.flatnonzero(off_limit | (lowest < -1e-12 * scale)):
        if off_limit[r]:
            errors[r] = NumericFailure(f"fixed-point residual {residual[r]:.3g} exceeds {limit:g}")
        else:
            errors[r] = NumericFailure(f"negative slope {lowest[r]:.3g} in the solved system")
    d = np.maximum(dvec, 0.0).reshape(n_rows, n_sources, n_buyers).swapaxes(-1, -2)
    d_total, efforts, variances, induced_errors = datamarket.equilibrium._induced_quantities(d, alphas)
    sol = datamarket.equilibrium.EquilibriumSolution(
        d=d, d_total=d_total, efforts=efforts, variances=variances, residual=residual)
    return sol, [e or i for e, i in zip(errors, induced_errors)]


def _group_major(A, n_sources):
    """A source-major (N*G)-wide matrix, index ``q * G + g``, reordered
    group-major, index ``g * N + q``; leading axes carry over."""
    *lead, n, _ = A.shape
    n_groups = n // n_sources
    grouped = A.reshape(*lead, n_sources, n_groups, n_sources, n_groups)
    return np.swapaxes(np.swapaxes(grouped, -4, -3), -2, -1).reshape(*lead, n, n)


def _coupling_matrix_loops(xi):
    n_buyers, n_sources, _ = xi.shape
    A = np.zeros((n_sources * n_buyers, n_sources * n_buyers))
    for q in range(n_sources):
        for k in range(n_buyers):
            row = q * n_buyers + k
            for l in range(n_sources):
                if l == q:
                    continue
                for j in range(n_buyers):
                    if j == k:
                        continue
                    A[row, l * n_buyers + j] = xi[j, l, q]
    return A


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["one", "stack", "grid"])
def test_apply_op_is_the_dense_coupling_matrix(lead):
    rng = np.random.default_rng(len(lead))
    n_buyers, n_sources = 3, 4
    xi = rng.uniform(0.0, 2.0, (*lead, n_buyers, n_sources, n_sources))
    x = rng.uniform(-1.0, 1.0, (*lead, n_buyers, n_sources))
    got = datamarket.equilibrium._apply_op(xi, x)
    # the dense A is source-major: index q * M + k
    dense = _dense_coupling_matrix(xi) @ np.swapaxes(x, -1, -2).reshape(*lead, -1, 1)
    want = np.swapaxes(dense.reshape(*lead, n_sources, n_buyers), -1, -2)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    # an unstacked xi applies to every slice of a stacked x
    stacked = datamarket.equilibrium._apply_op(xi[(0,) * len(lead)], x)
    np.testing.assert_array_equal(stacked[(0,) * len(lead)], got[(0,) * len(lead)])


def test_apply_op_never_forms_the_total_over_buyers_or_sources():
    # every entry of A x is one term, 1 * 1e308; a total less the own term
    # would be inf - 1e308
    xi, x = np.ones((2, 2, 2)), np.full((2, 2), 1e308)
    with np.errstate(all="raise"):
        got = datamarket.equilibrium._apply_op(xi, x)
    assert got.tolist() == [[1e308, 1e308], [1e308, 1e308]]


@pytest.mark.parametrize("n_buyers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_sources", [2, 3, 6])
def test_coupling_matrix_matches_loop_assembly(n_buyers, n_sources):
    # no two buyers share a xi block: every buyer is its own group, and R is
    # A, buyer-major
    rng = np.random.default_rng(100 * n_buyers + n_sources)
    xi = rng.uniform(0.0, 2.0, (n_buyers, n_sources, n_sources))
    A = coupling_matrix(xi)
    assert np.array_equal(A, _group_major(_coupling_matrix_loops(xi), n_sources))
    assert np.array_equal(_group_major(_dense_coupling_matrix(xi), n_sources), A)
    assert A.flags.c_contiguous
    assert A.nbytes == (n_sources * n_buyers) ** 2 * 8
    if n_buyers == 1:
        assert not A.any()
    # a leading axis stacks one matrix per tensor
    stacked = coupling_matrix(np.stack([xi, 2.0 * xi, xi[:, ::-1, ::-1]]))
    for got, x in zip(stacked, (xi, 2.0 * xi, xi[:, ::-1, ::-1])):
        assert np.array_equal(got, _group_major(_coupling_matrix_loops(x), n_sources))
    assert coupling_matrix(np.empty((0,) + xi.shape)).shape == (0,) + A.shape


def _loo_xi(xs, degrees):
    """Leave-one-out tensor of a market; xi depends on the locations and degrees alone."""
    buyers = tuple(DataBuyer(EstimatorSpec("polynomial-regression", d), ValueDistribution.uniform(-1.0, 1.0),
                             (0.0,) * len(degrees), 1.0) for d in degrees)
    sources = tuple(DataSource(float(x), 1.0) for x in xs)
    return compute_weights(MarketInstance(sources=sources, buyers=buyers, feature_domain=(-1.0, 1.0))).xi


def _perron_condition(a):
    """Condition number of the dense Perron root: one over the cosine of the
    angle between its (unit) left and right eigenvectors."""
    vals, right = np.linalg.eig(a)
    left_vals, left = np.linalg.eig(a.T)
    return 1.0 / abs(np.vdot(left[:, np.argmax(left_vals.real)], right[:, np.argmax(vals.real)]))


def test_grouped_radius_matches_the_dense_radius():
    # rho from the (N*G)-sized reduced matrix against eigvals of the full A
    rng = np.random.default_rng(29)
    checked = 0
    for trial in range(150):
        n, mm = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        n_degrees = 1 if trial % 3 == 0 else 3
        degrees = [min(n - 1, int(d)) for d in rng.integers(1, n_degrees + 1, mm)]
        rows = []
        for _ in range(3):
            try:
                rows.append(_loo_xi(np.sort(rng.uniform(-1.0, 1.0, n)), degrees))
            except SingularDesignError:
                pass
        if not rows:
            continue
        xi = np.stack(rows)
        dense = [spectral_radius(_dense_coupling_matrix(x)) for x in xi]
        R = coupling_matrix(xi)
        # one stacked eigenvalue problem of size N*G
        assert R.shape == (len(rows), n * len(set(degrees)), n * len(set(degrees)))
        got = spectral_radius(R)
        assert got.shape == (len(rows),)
        for x, want, rho in zip(xi, dense, got.tolist()):
            assert _radius(x) == rho
            assert abs(rho - want) <= 1e-7 * want
            if _perron_condition(_dense_coupling_matrix(x)) <= 1e4:
                assert abs(rho - want) <= 1e-12 * want
                checked += 1
    assert checked >= 200
    # a stack whose rows group buyers differently falls back to the
    # grouping all rows share
    xs = np.array([-1.0, -0.2, 0.4, 1.0])
    mixed = np.stack([_loo_xi(xs, [1, 1, 2]), _loo_xi(xs, [1, 2, 2])])
    want = [spectral_radius(_dense_coupling_matrix(x)) for x in mixed]
    assert _radius(mixed) == pytest.approx(want, rel=1e-12)
    assert _radius(np.zeros((0, 3, 4, 4))).shape == (0,)


def test_grouped_radius_single_degree_identity():
    # one group of M buyers: R = (M - 1) X, so rho = (M - 1) * rho(X)
    rng = np.random.default_rng(31)
    for mm in (1, 2, 3, 5):
        xi = np.broadcast_to(rng.uniform(0.0, 1.0, (4, 4)), (mm, 4, 4))
        X = xi[0].T.copy()
        np.fill_diagonal(X, 0.0)
        assert _radius(xi) == pytest.approx((mm - 1) * spectral_radius(X), rel=1e-12)
        if mm == 1:
            assert _radius(xi) == 0.0


def test_grouped_radius_rejects_bad_xi():
    xi = np.full((2, 3, 3), 0.2)
    for bad in (-0.1, np.nan, np.inf):
        broken = xi.copy()
        broken[1, 0, 2] = bad
        with pytest.raises(ValueError, match="spectral_radius expects"):
            _radius(broken)


def test_grouped_radius_exact_on_a_clustered_root():
    # sources at (-1, 0, 1) with degrees 1 and 2: the exact radius is
    # 1/sqrt(2), and A has a clustered root that dense eigvals of
    # source-major A misses by about 1.2e-8; R is buyer-major A here, as the
    # two buyers share no block
    xi = _loo_xi([-1.0, 0.0, 1.0], [1, 2])
    assert _radius(xi) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert np.array_equal(coupling_matrix(xi), _group_major(_dense_coupling_matrix(xi), 3))
    assert spectral_radius(_dense_coupling_matrix(xi)) == pytest.approx(math.sqrt(0.5), rel=1e-7)


def test_coupling_structure_two_firm():
    m = two_firm_market(0.0)
    w = compute_weights(m)

    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0     # (source 0, buyer 0) <- (source 1, buyer 1)
    expected[1, 2] = 1.0
    expected[2, 1] = 0.25    # (source 1, buyer 0) <- (source 0, buyer 1)
    expected[3, 0] = 0.25
    assert _dense_coupling_matrix(w.xi) == pytest.approx(expected, abs=1e-15)
    # the two buyers share their block: one group of two, so R is X itself
    assert coupling_matrix(w.xi) == pytest.approx(np.array([[0.0, 1.0], [0.25, 0.0]]), abs=1e-15)
    assert w.gamma == pytest.approx(np.array([[1 / 3, 4 / 3], [1 / 3, 4 / 3]]), rel=1e-12)
    assert solve_equilibrium_d(w, m).rho == pytest.approx(0.5, rel=1e-11)


def test_stacking_roundtrip():
    # with xi zero the slopes are gamma; one entry xi[j, l, q] = a adds
    # a * gamma[j, l] to d[k, q] for every other buyer k, and to nothing else
    rng = np.random.default_rng(5)
    n_buyers, n_sources = 3, 3
    gamma = rng.uniform(0.5, 1.5, (1, n_buyers, n_sources))
    alphas = np.ones((1, n_sources))
    xi = np.zeros((1, n_buyers, n_sources, n_sources))
    sol, _ = solve_rows(xi, gamma, alphas)
    assert np.array_equal(sol.d, gamma)
    for j, l, q in ((1, 2, 1), (0, 2, 0), (0, 0, 2)):
        xi = np.zeros((1, n_buyers, n_sources, n_sources))
        xi[0, j, l, q] = 0.5
        sol, _ = solve_rows(xi, gamma, alphas)
        want = gamma[0].copy()
        want[np.arange(n_buyers) != j, q] += 0.5 * gamma[0, j, l]
        assert sol.d[0] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def _stacked_xi(rng, n, degrees, n_rows):
    """xi of n_rows random markets on n sources, stacked; a row whose coupling
    is past the gate is scaled below it, which keeps its shared blocks."""
    rows = []
    while len(rows) < n_rows:
        try:
            xi = _loo_xi(np.sort(rng.uniform(-1.0, 1.0, n)), degrees)
        except SingularDesignError:
            continue
        rho = _radius(xi)
        rows.append(xi * (0.9 / rho) if rho > 0.9 else xi)
    return np.stack(rows)


def _solve_both(rng, xi):
    """solve_rows and the dense reference on xi, with random gamma and alphas."""
    gamma = rng.uniform(0.1, 1.0, xi.shape[:-1])
    alphas = rng.uniform(0.5, 2.0, (len(xi), xi.shape[-1]))
    got = solve_rows(xi, gamma, alphas)
    return got, _solve_rows_dense(_dense_coupling_matrix(xi), gamma, alphas)


def _max_rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_solve_rows_without_shared_blocks_is_the_dense_solve_bit_for_bit():
    rng = np.random.default_rng(53)
    for n, degrees in ((3, [1, 2]), (5, [2, 1, 3]), (6, [3, 1]), (8, [1, 2, 3]), (4, [1])):
        xi = _stacked_xi(rng, n, degrees, 3)
        assert len(datamarket.equilibrium._buyer_groups(xi)[0]) == len(degrees)
        (sol, errors), (want, want_errors) = _solve_both(rng, xi)
        assert errors == want_errors == [None] * 3
        for field in ("d", "d_total", "efforts", "variances"):
            assert getattr(sol, field).tobytes() == getattr(want, field).tobytes()
        assert (sol.residual <= 1e-14).all()


def test_solve_rows_with_shared_blocks_matches_the_dense_solve():
    rng = np.random.default_rng(59)
    for n, degrees in ((3, [1, 1]), (5, [1, 1, 2]), (6, [2, 1, 2, 2]), (7, [3, 1, 3, 1, 3]),
                       (8, [1, 1, 1, 1])):
        xi = _stacked_xi(rng, n, degrees, 4)
        (sol, errors), (want, want_errors) = _solve_both(rng, xi)
        assert errors == want_errors == [None] * 4
        assert coupling_matrix(xi).shape[-1] == n * len(set(degrees))
        assert _max_rel_err(sol.d, want.d) <= 1e-12
        # a row solved alone groups its buyers the same way and gets the same slopes
        (one, _), _ = _solve_both(np.random.default_rng(1), xi[:1])
        (first, _), _ = _solve_both(np.random.default_rng(1), xi)
        assert one.d[0].tobytes() == first.d[0].tobytes()
    # buyers 0 and 1 share their block in row 0 alone, so row 0 solved by
    # itself groups them, with one group fewer than the stack
    xi = rng.uniform(0.0, 0.3, (2, 3, 4, 4))
    xi[0, 1] = xi[0, 0]
    gamma, alphas = rng.uniform(0.1, 1.0, (1, 3, 4)), np.ones((1, 4))
    sol, errors = solve_rows(xi[:1], gamma, alphas)
    want, want_errors = _solve_rows_dense(_dense_coupling_matrix(xi[:1]), gamma, alphas)
    assert coupling_matrix(xi).shape[-1] == 12 and coupling_matrix(xi[:1]).shape[-1] == 8
    assert errors == want_errors == [None]
    assert _max_rel_err(sol.d, want.d) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), degrees=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       rows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_grouped_solve_matches_the_dense_solve(n, degrees, rows, seed):
    rng = np.random.default_rng(seed)
    xi = _stacked_xi(rng, n, [min(g, n - 1) for g in degrees], rows)
    (sol, errors), (want, want_errors) = _solve_both(rng, xi)
    assert [str(e) for e in errors] == [str(e) for e in want_errors]
    assert _max_rel_err(sol.d, want.d) <= 1e-12
    assert (sol.residual <= 1e-14).all()


def test_many_buyers_solve_through_the_grouped_matrix():
    # 20 sources and 30 buyers of degrees 1 and 2: R is 40 wide where A is 600
    n, mm = 20, 30
    xi = _loo_xi(np.linspace(-0.95, 0.95, n), [1 + k % 2 for k in range(mm)])
    R = coupling_matrix(xi)
    assert R.shape == (2 * n, 2 * n)
    A = _dense_coupling_matrix(xi)
    rho = spectral_radius(R)
    assert abs(rho - float(_dense_radius(A))) <= 1e-12 * rho
    # thirty buyers couple far past the gate; scaled below it, xi keeps its two blocks
    (sol, errors), (want, want_errors) = _solve_both(np.random.default_rng(61), xi[None] * (0.5 / rho))
    assert errors == want_errors == [None]
    assert _max_rel_err(sol.d, want.d) <= 1e-12


def test_two_firm_coupled_solution():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol = solve_equilibrium_d(w, m)
    assert sol.d == pytest.approx(np.array([[20 / 9, 17 / 9], [20 / 9, 17 / 9]]), rel=1e-11)
    assert sol.d_total == pytest.approx([40 / 9, 34 / 9], rel=1e-11)
    assert sol.variances == pytest.approx([9 / 80, 9 / 68], rel=1e-11)
    assert sol.efforts == pytest.approx(
        [math.log(80 / 9) / 2, math.log(68 / 9) / 2], rel=1e-11)
    assert sol.residual <= 1e-12


def test_two_firm_decoupled_solution():
    m = two_firm_market(-1.0)
    w = compute_weights(m)
    assert not coupling_matrix(w.xi).any()
    sol = solve_equilibrium_d(w, m)
    assert sol.d == pytest.approx(np.full((2, 2), 1 / 3), rel=1e-14)
    assert sol.efforts == pytest.approx([math.log(4 / 3) / 2] * 2, rel=1e-12)


def test_no_equilibrium_near_unit_radius():
    # sources close enough that the leave-one-out weights push the radius
    # over the existence threshold while designs remain well conditioned
    m = two_firm_market(1.0 - 5e-5)
    w = compute_weights(m)
    rho = _radius(w.xi)
    assert rho >= RHO_EXISTENCE_THRESHOLD
    with pytest.raises(NoEquilibriumError) as err:
        solve_equilibrium_d(w, m)
    assert err.value.rho == rho


def _weights(xi, gamma):
    """Hand-built weights of a two-buyer market; beta is unused by the solve."""
    return SeparableWeights(beta=np.zeros_like(gamma), xi=xi, gamma=gamma)


def _solve_one(w, alphas):
    """solve_rows on the one market of w."""
    return solve_rows(w.xi[None], w.gamma[None], alphas[None])


def test_solve_rows_reports_negative_slopes():
    # every cross weight 2 couples two buyers over two sources at rho = 2,
    # where d = A d + gamma would solve negative: the gate reports it first
    past_gate = _weights(np.full((2, 2, 2), 2.0), np.ones((2, 2)))
    _, errors = _solve_one(past_gate, np.ones(2))
    assert isinstance(errors[0], NoEquilibriumError)
    m = two_firm_market(0.0)
    with pytest.raises(NoEquilibriumError, match="spectral radius 2 "):
        solve_equilibrium_d(past_gate, m)

    # below the gate, a negative gamma entry (compute_weights clips them,
    # hand-built weights need not) carries through to the slopes
    w = _weights(np.zeros((2, 2, 2)), np.array([[1.0, -1.0], [1.0, 1.0]]))
    _, errors = _solve_one(w, np.ones(2))
    assert str(errors[0]) == "negative slope -1 in the solved system"
    with pytest.raises(NumericFailure, match=r"^negative slope -1 in the solved system$"):
        solve_equilibrium_d(w, m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_rows_gates_each_row_of_a_stack():
    # one stack: a market's xi scaled below the gate, the same scaled past
    # it, and the one below with a NaN and with an inf gamma entry.  Buyers
    # 0 and 1 share their block, so the deviations take an I + X_g solve.
    buyers = tuple(DataBuyer(EstimatorSpec("polynomial-regression", d), ValueDistribution.uniform(-1.0, 1.0),
                             (0.0,) * 3, 1.0) for d in (1, 1, 2))
    m = MarketInstance(sources=tuple(DataSource(x, 1.0) for x in (-0.8, 0.1, 0.9)), buyers=buyers,
                       feature_domain=(-1.0, 1.0))
    w = compute_weights(m)
    below, past = (w.xi * (scale / _radius(w.xi)) for scale in (0.5, 1.5))
    nan_gamma, inf_gamma = w.gamma.copy(), w.gamma.copy()
    nan_gamma[0, 1], inf_gamma[2, 0] = np.nan, np.inf
    xi = np.stack([below, past, below, below])
    gamma = np.stack([w.gamma, w.gamma, nan_gamma, inf_gamma])
    alphas = np.tile(m.alphas(), (4, 1))
    sol, errors = solve_rows(xi, gamma, alphas)
    assert sol.rho.tobytes() == spectral_radius(coupling_matrix(xi)).tobytes()

    with pytest.raises(NoEquilibriumError) as err:
        solve_equilibrium_d(_weights(past, w.gamma), m)
    assert isinstance(errors[1], NoEquilibriumError)
    assert (str(errors[1]), errors[1].rho) == (str(err.value), err.value.rho)
    # a row below the gate is solved as it is alone, whatever its stackmates
    assert errors[0] is None
    assert [str(e) for e in errors[2:]] == ["fixed-point residual nan exceeds 1e-08"] * 2
    # (the d of the NaN and inf rows holds NaNs of both signs, and which one
    # a sum over buyers keeps depends on numpy's loop: NaN efforts compare
    # as NaN)
    for r in (0, 2, 3):
        one, one_errors = solve_rows(xi[r:r + 1], gamma[r:r + 1], alphas[r:r + 1])
        assert [str(e) for e in one_errors] == [str(errors[r])]
        assert one.d[0].tobytes() == sol.d[r].tobytes()
        assert one.residual[0].tobytes() == sol.residual[r].tobytes()
        got, want = (np.where(np.isnan(e), np.nan, e) for e in (sol.efforts[r], one.efforts[0]))
        assert got.tobytes() == want.tobytes()


def test_solve_rows_reports_residual_above_limit(monkeypatch):
    # Wilkinson's growth matrix, on the dense reference: with I - A = W the
    # partially pivoted LU factors grow as 2^(n-1), so the solve misses
    # d = A d + gamma by far (A has entries of both signs and rho near 14:
    # no xi builds it)
    n = 50
    W = np.eye(n) - np.tril(np.ones((n, n)), -1)
    W[:, -1] = 1.0
    sol, errors = _solve_rows_dense((np.eye(n) - W)[None], np.linspace(0.5, 1.5, n)[None, None, :],
                                    np.ones((1, n)))
    assert sol.residual[0] > 1e-8
    assert isinstance(errors[0], NumericFailure)
    assert re.fullmatch(r"fixed-point residual \S+ exceeds 1e-08", str(errors[0]))

    # with A >= 0, gamma >= 0 and rho < 1 the residual stays at rounding
    # level, so the direct solver reaches the check only with the limit
    # lowered to zero
    monkeypatch.setattr(datamarket.equilibrium, "_RESIDUAL_HARD_LIMIT", 0.0)
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol, errors = _solve_one(w, np.array(m.alphas()))
    assert sol.residual[0] > 0.0
    message = f"fixed-point residual {sol.residual[0]:.3g} exceeds 0"
    assert str(errors[0]) == message
    with pytest.raises(NumericFailure) as err:
        solve_equilibrium_d(w, m)
    assert str(err.value) == message


def test_leontief_dominance(solved_suite):
    # equilibrium slopes weakly exceed the adjusted loss weights
    for _, w, sol in solved_suite:
        assert (sol.d - w.gamma).min() >= -1e-12


def test_fixed_point_residual(solved_suite):
    # solution_from_d applies the best-response map from xi; off the fixed
    # point (grown slopes keep every effort positive) its residual is the
    # coupling matrix's
    rng = np.random.default_rng(13)
    for m, w, sol in solved_suite:
        A, gamma_vec = _dense_coupling_matrix(w.xi), w.gamma.T.reshape(-1)  # source-major
        dvec = sol.d.T.reshape(-1)
        res = np.abs(dvec - A @ dvec - gamma_vec).max()
        assert res <= 1e-10 * (1.0 + np.abs(dvec).max())
        d = sol.d * rng.uniform(1.0, 1.1, sol.d.shape)
        dvec = d.T.reshape(-1)
        want = np.abs(dvec - A @ dvec - gamma_vec).max() / (1.0 + np.abs(d).max())
        assert solution_from_d(d, w, m).residual == pytest.approx(want, rel=1e-9, abs=1e-15)


# ---------------------------------------------------------------------------
# payment polytope
# ---------------------------------------------------------------------------

def _c_polytope_reference(sol, w):
    """Reference: the payment bounds as ``c_polytope`` built them before
    ``complete_solution`` took them over, with the slack taken as the
    effort it equals rather than as ``E - sum(L)``, which cancels when the
    floors dwarf the effort; returns ``(E, L, slack)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        expected_penalty = sol.d * np.einsum("jil,l->ji", w.xi, sol.variances)
        E = expected_penalty.sum(axis=0) + sol.efforts
        L = expected_penalty
    slack = np.where(np.isfinite(E), sol.efforts, np.nan)
    finite = np.isfinite(slack)
    worst = int(np.argmin(np.where(finite, slack, np.inf)))
    if not slack[worst] < -1e-12:
        worst = int(np.argmin(finite))
    if not (finite[worst] and slack[worst] >= -1e-12):
        raise InfeasibleCError(worst, float(slack[worst]))
    return E, L, slack


def _canonical_c_reference(L, slack, d):
    """Reference: the canonical point as ``canonical_c`` built it."""
    d_total = d.sum(axis=0)
    share = d / d_total[None, :]
    return L + share * slack[None, :]


def test_complete_solution_matches_the_reference_bitwise(solved_suite):
    markets = [(m, w) for m, w, _ in solved_suite]
    for name in ("two_firm.json", "two_firm_decoupled.json"):
        m = market_from_config(json.loads((CONFIGS / name).read_text(encoding="utf-8")))
        markets.append((m, compute_weights(m)))
    for m, w in markets:
        sol = solve_equilibrium_d(w, m)
        poly = complete_solution(sol, w).c_polytope
        E, L, slack = _c_polytope_reference(sol, w)
        canonical = _canonical_c_reference(L, slack, sol.d)
        # the polytope keeps no slack: the reference's is the effort, bit for bit
        for got, want in zip((poly.E, poly.L, sol.efforts, poly.canonical), (E, L, slack, canonical)):
            assert got.tobytes() == want.tobytes()


def _polytope_error(sol, w):
    """The InfeasibleCError of complete_solution, checked against the reference's."""
    with pytest.raises(InfeasibleCError) as want:
        _c_polytope_reference(sol, w)
    with pytest.raises(InfeasibleCError) as err:
        complete_solution(sol, w)
    assert (err.value.source, str(err.value)) == (want.value.source, str(want.value))
    return err.value

def test_polytope_two_firm_anchors():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(w, m), w)
    assert sol.c_polytope.E[0] == pytest.approx(1.7394598521982427, rel=1e-11)
    assert sol.c_polytope.E - sol.c_polytope.L.sum(axis=0) == pytest.approx(sol.efforts, rel=1e-12)
    assert sol.c_polytope.canonical.sum(axis=0) == pytest.approx(sol.c_polytope.E, rel=1e-12)

    m = two_firm_market(-1.0)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(w, m), w)
    assert sol.c_polytope.L == pytest.approx(np.full((2, 2), 0.25), rel=1e-12)
    e_star = math.log(4 / 3) / 2
    assert sol.c_polytope.E == pytest.approx([0.25 * 2 + e_star] * 2, rel=1e-12)
    assert sol.c_polytope.canonical == pytest.approx(np.full((2, 2), 0.25 + e_star / 2), rel=1e-12)


def test_polytope_slack_is_the_effort_beside_huge_floors():
    # d[0, 0] + 1e300 puts a floor of about 2.8e283 on source 0 beside an
    # effort of 345.7: E - sum(L) cancels that effort away, and the canonical
    # point splits the effort itself
    m = market_from_config(json.loads((CONFIGS / "two_firm.json").read_text(encoding="utf-8")))
    w = compute_weights(m)
    d = solve_equilibrium_d(w, m).d.copy()
    d[0, 0] += 1e300
    sol = solution_from_d(d, w, m)
    poly = sol.c_polytope
    assert poly.L[0, 0] > 1e283
    assert poly.E[0] - poly.L[:, 0].sum() == 0.0
    assert sol.efforts[0] == pytest.approx(345.734, rel=1e-5)
    assert poly.canonical.tobytes() == (poly.L + sol.d / sol.d.sum(axis=0) * sol.efforts).tobytes()


def test_polytope_zero_slack():
    # alpha tuned so the equilibrium effort is exactly zero: the polytope
    # degenerates to the single point c = L
    m = two_firm_market(-1.0, alphas=(0.75, 0.75))
    w = compute_weights(m)
    sol = solve_equilibrium_d(w, m)
    assert sol.efforts == pytest.approx([0.0, 0.0], abs=1e-14)
    poly = complete_solution(sol, w).c_polytope
    assert poly.E - poly.L.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert poly.canonical == pytest.approx(poly.L, abs=1e-14)


def test_polytope_infeasible():
    # weak incentives make the stationary effort negative; no flat payments
    # satisfy participation and acceptability at once
    m = two_firm_market(-1.0, alphas=(0.1, 0.1))
    w = compute_weights(m)
    err = _polytope_error(solve_equilibrium_d(w, m), w)
    assert err.source in (0, 1)
    assert err.slack < 0.0


def test_polytope_names_the_negative_slack_before_a_nan():
    # a huge alpha with a vanishing slope leaves source 0's bounds at inf,
    # so its slack is NaN; source 1's effort is negative, so its slack is
    # what empties the polytope
    buyer = DataBuyer(EstimatorSpec.linear(), ValueDistribution.point_mass(0.5), (0.0,), 1e307)
    m = MarketInstance(sources=(DataSource(-1.0, 1e9), DataSource(0.0, 0.5), DataSource(1.0, 1.0)),
                       buyers=(buyer,), feature_domain=(-1.0, 1.0))
    w = compute_weights(m)
    err = _polytope_error(solve_equilibrium_d(w, m), w)
    assert (err.source, str(err)) == (
        1, "payment polytope of source 1 is empty (participation slack -709.091 < 0)")


def test_polytope_rejects_bounds_that_are_not_finite():
    # an infinite variance makes source 0's bounds infinite and its slack
    # NaN; no slack is negative, and the error says what is wrong
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol = solve_equilibrium_d(w, m)
    sol = dataclasses.replace(sol, variances=np.array([np.inf, sol.variances[1]]))
    err = _polytope_error(sol, w)
    assert (err.source, str(err)) == (
        0, "payment polytope of source 0 is undefined (participation slack nan)")


def test_polytope_properties(solved_suite):
    for m, w, sol in solved_suite:
        poly = sol.c_polytope
        c = poly.canonical
        assert (c - poly.L).min() >= -1e-12
        assert c.sum(axis=0) == pytest.approx(poly.E, rel=1e-10)
        # participation is tight: total expected payment equals effort cost
        # plus total expected penalty
        pen = sol.d * np.einsum("jil,l->ji", w.xi, sol.variances)
        assert poly.E == pytest.approx(pen.sum(axis=0) + sol.efforts, rel=1e-12)


def test_single_buyer_gets_whole_polytope(solved_suite):
    m = two_firm_market(0.3)
    buyer = m.buyers[0]
    single = type(m)(sources=m.sources,
                     buyers=(type(buyer)(buyer.estimator, buyer.value_dist, (0.0,), 1.0),),
                     feature_domain=m.feature_domain)
    w = compute_weights(single)
    sol = complete_solution(solve_equilibrium_d(w, single), w)
    assert sol.c_polytope.canonical[0] == pytest.approx(sol.c_polytope.E, rel=1e-12)


def test_solution_from_d_roundtrip():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(w, m), w)
    rebuilt = solution_from_d(sol.d, w, m)
    assert rebuilt.efforts == pytest.approx(sol.efforts, rel=1e-14)
    assert rebuilt.c_polytope.canonical == pytest.approx(sol.c_polytope.canonical, rel=1e-14)
    assert rebuilt.residual <= 1e-12
    # a source with no slope on it has no effort, so no cost is defined
    with pytest.raises(ValueError, match="^source 0 attracts total slope 0;"):
        solution_from_d(np.zeros((2, 2)), w, m)
