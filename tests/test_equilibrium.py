import math
import re

import numpy as np
import pytest

import datamarket.equilibrium
from datamarket import (
    CouplingSystem,
    InfeasibleCError,
    NoEquilibriumError,
    NumericFailure,
    RHO_EXISTENCE_THRESHOLD,
    build_coupling_system,
    c_polytope,
    canonical_c,
    complete_solution,
    compute_weights,
    coupling_matrix,
    solution_from_d,
    solve_equilibrium_d,
    solve_rows,
    spectral_radius,
)

from conftest import two_firm_market


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
    system = build_coupling_system(compute_weights(m), m)
    expected = (x1 + 1.0) ** 2 / (2.0 * (x1 ** 2 + 1.0))
    assert system.rho == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_spectral_radius_deterministic():
    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 1.0, (8, 8))
    assert spectral_radius(a) == spectral_radius(a)


# ---------------------------------------------------------------------------
# coupling system assembly
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("n_buyers", [1, 2, 3, 5])
@pytest.mark.parametrize("n_sources", [2, 3, 6])
def test_coupling_matrix_matches_loop_assembly(n_buyers, n_sources):
    rng = np.random.default_rng(100 * n_buyers + n_sources)
    xi = rng.uniform(0.0, 2.0, (n_buyers, n_sources, n_sources))
    A = coupling_matrix(xi)
    assert np.array_equal(A, _coupling_matrix_loops(xi))
    assert A.flags.c_contiguous
    assert A.nbytes == (n_sources * n_buyers) ** 2 * 8
    if n_buyers == 1:
        assert not A.any()
    # a leading axis stacks one matrix per tensor
    stacked = coupling_matrix(np.stack([xi, 2.0 * xi, xi[:, ::-1, ::-1]]))
    for got, x in zip(stacked, (xi, 2.0 * xi, xi[:, ::-1, ::-1])):
        assert np.array_equal(got, _coupling_matrix_loops(x))
    assert coupling_matrix(np.empty((0,) + xi.shape)).shape == (0,) + A.shape


def test_coupling_structure_two_firm():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    system = build_coupling_system(w, m)

    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0     # (source 0, buyer 0) <- (source 1, buyer 1)
    expected[1, 2] = 1.0
    expected[2, 1] = 0.25    # (source 1, buyer 0) <- (source 0, buyer 1)
    expected[3, 0] = 0.25
    assert system.A == pytest.approx(expected, abs=1e-15)
    assert system.gamma_vec == pytest.approx([1 / 3, 1 / 3, 4 / 3, 4 / 3], rel=1e-12)
    assert system.rho == pytest.approx(0.5, rel=1e-11)


def test_stacking_roundtrip():
    m = two_firm_market(0.2)
    w = compute_weights(m)
    system = build_coupling_system(w, m)
    assert system.stacked_index(0, 0) == 0
    assert system.stacked_index(0, 1) == 1
    assert system.stacked_index(1, 0) == 2
    rng = np.random.default_rng(5)
    mat = rng.uniform(size=(2, 2))
    assert np.array_equal(system.unstack(system.stack(mat)), mat)
    vec = system.stack(mat)
    for q in range(2):
        for k in range(2):
            assert vec[system.stacked_index(q, k)] == mat[k, q]


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_two_firm_coupled_solution():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol = solve_equilibrium_d(build_coupling_system(w, m))
    assert sol.d == pytest.approx(np.array([[20 / 9, 17 / 9], [20 / 9, 17 / 9]]), rel=1e-11)
    assert sol.d_total == pytest.approx([40 / 9, 34 / 9], rel=1e-11)
    assert sol.variances == pytest.approx([9 / 80, 9 / 68], rel=1e-11)
    assert sol.efforts == pytest.approx(
        [math.log(80 / 9) / 2, math.log(68 / 9) / 2], rel=1e-11)
    assert sol.residual <= 1e-12


def test_two_firm_decoupled_solution():
    m = two_firm_market(-1.0)
    w = compute_weights(m)
    system = build_coupling_system(w, m)
    assert not system.A.any()
    sol = solve_equilibrium_d(system)
    assert sol.d == pytest.approx(np.full((2, 2), 1 / 3), rel=1e-14)
    assert sol.efforts == pytest.approx([math.log(4 / 3) / 2] * 2, rel=1e-12)


def test_no_equilibrium_near_unit_radius():
    # sources close enough that the leave-one-out weights push the radius
    # over the existence threshold while designs remain well conditioned
    m = two_firm_market(1.0 - 5e-5)
    w = compute_weights(m)
    system = build_coupling_system(w, m)
    assert system.rho >= RHO_EXISTENCE_THRESHOLD
    with pytest.raises(NoEquilibriumError) as err:
        solve_equilibrium_d(system)
    assert err.value.rho == pytest.approx(system.rho)


def _system(A, gamma_vec, n_sources, n_buyers):
    return CouplingSystem(A=A, gamma_vec=gamma_vec, rho=spectral_radius(A),
                          n_sources=n_sources, n_buyers=n_buyers, alphas=np.ones(n_sources))


def test_solve_rows_reports_negative_slopes():
    # past the gate, the solve of d = A d + gamma turns negative
    past_gate = np.array([[[0.0, 2.0], [2.0, 0.0]]])
    _, errors = solve_rows(past_gate, np.ones((1, 1, 2)), np.ones((1, 2)))
    assert isinstance(errors[0], NumericFailure)
    assert str(errors[0]) == "negative slope -1 in the solved system"
    with pytest.raises(NoEquilibriumError):
        solve_equilibrium_d(_system(past_gate[0], np.ones(2), 2, 1))

    # below the gate, a negative gamma entry (compute_weights clips them, a
    # hand-built system need not) carries through to the slopes
    system = _system(np.zeros((2, 2)), np.array([1.0, -1.0]), 2, 1)
    _, errors = solve_rows(system.A[None], system.unstack(system.gamma_vec)[None],
                           system.alphas[None])
    assert str(errors[0]) == "negative slope -1 in the solved system"
    with pytest.raises(NumericFailure, match=r"^negative slope -1 in the solved system$"):
        solve_equilibrium_d(system)


def test_solve_rows_reports_residual_above_limit(monkeypatch):
    # Wilkinson's growth matrix: with I - A = W the partially pivoted LU
    # factors grow as 2^(n-1), so the solve misses d = A d + gamma by far
    # (A has entries of both signs and rho near 14: no market builds it)
    n = 50
    W = np.eye(n) - np.tril(np.ones((n, n)), -1)
    W[:, -1] = 1.0
    sol, errors = solve_rows((np.eye(n) - W)[None], np.linspace(0.5, 1.5, n)[None, None, :],
                             np.ones((1, n)))
    assert sol.residual[0] > 1e-8
    assert isinstance(errors[0], NumericFailure)
    assert re.fullmatch(r"fixed-point residual \S+ exceeds 1e-08", str(errors[0]))

    # with A >= 0, gamma >= 0 and rho < 1 the residual stays at rounding
    # level, so the direct solver reaches the check only with the limit
    # lowered to zero
    monkeypatch.setattr(datamarket.equilibrium, "_RESIDUAL_HARD_LIMIT", 0.0)
    m = two_firm_market(0.0)
    system = build_coupling_system(compute_weights(m), m)
    sol, errors = solve_rows(system.A[None], system.unstack(system.gamma_vec)[None],
                             system.alphas[None])
    assert sol.residual[0] > 0.0
    message = f"fixed-point residual {sol.residual[0]:.3g} exceeds 0"
    assert str(errors[0]) == message
    with pytest.raises(NumericFailure) as err:
        solve_equilibrium_d(system)
    assert str(err.value) == message


def test_leontief_dominance(solved_suite):
    # equilibrium slopes weakly exceed the adjusted loss weights
    for _, w, system, sol in solved_suite:
        assert (sol.d - w.gamma).min() >= -1e-12


def test_fixed_point_residual(solved_suite):
    for _, _, system, sol in solved_suite:
        dvec = system.stack(sol.d)
        res = np.abs(dvec - system.A @ dvec - system.gamma_vec).max()
        assert res <= 1e-10 * (1.0 + np.abs(dvec).max())


# ---------------------------------------------------------------------------
# payment polytope
# ---------------------------------------------------------------------------

def test_polytope_two_firm_anchors():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(build_coupling_system(w, m)), w, m)
    assert sol.c_polytope.E[0] == pytest.approx(1.7394598521982427, rel=1e-11)
    assert sol.c_polytope.slack == pytest.approx(sol.efforts, rel=1e-12)
    assert sol.c_canonical.sum(axis=0) == pytest.approx(sol.c_polytope.E, rel=1e-12)

    m = two_firm_market(-1.0)
    w = compute_weights(m)
    sol = complete_solution(solve_equilibrium_d(build_coupling_system(w, m)), w, m)
    assert sol.c_polytope.L == pytest.approx(np.full((2, 2), 0.25), rel=1e-12)
    e_star = math.log(4 / 3) / 2
    assert sol.c_polytope.E == pytest.approx([0.25 * 2 + e_star] * 2, rel=1e-12)
    assert sol.c_canonical == pytest.approx(np.full((2, 2), 0.25 + e_star / 2), rel=1e-12)


def test_polytope_zero_slack():
    # alpha tuned so the equilibrium effort is exactly zero: the polytope
    # degenerates to the single point c = L
    m = two_firm_market(-1.0, alphas=(0.75, 0.75))
    w = compute_weights(m)
    sol = solve_equilibrium_d(build_coupling_system(w, m))
    assert sol.efforts == pytest.approx([0.0, 0.0], abs=1e-14)
    poly = c_polytope(sol, w, m)
    assert poly.slack == pytest.approx([0.0, 0.0], abs=1e-14)
    c = canonical_c(poly, sol.d)
    assert c == pytest.approx(poly.L, abs=1e-14)


def test_polytope_infeasible():
    # weak incentives make the stationary effort negative; no flat payments
    # satisfy participation and acceptability at once
    m = two_firm_market(-1.0, alphas=(0.1, 0.1))
    w = compute_weights(m)
    sol = solve_equilibrium_d(build_coupling_system(w, m))
    with pytest.raises(InfeasibleCError) as err:
        c_polytope(sol, w, m)
    assert err.value.source in (0, 1)
    assert err.value.slack < 0.0


def test_polytope_properties(solved_suite):
    for m, w, _, sol in solved_suite:
        poly = sol.c_polytope
        c = sol.c_canonical
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
    sol = complete_solution(solve_equilibrium_d(build_coupling_system(w, single)), w, single)
    assert sol.c_canonical[0] == pytest.approx(sol.c_polytope.E, rel=1e-12)


def test_solution_from_d_roundtrip():
    m = two_firm_market(0.0)
    w = compute_weights(m)
    system = build_coupling_system(w, m)
    sol = complete_solution(solve_equilibrium_d(system), w, m)
    rebuilt = solution_from_d(sol.d, w, m, system=system)
    assert rebuilt.efforts == pytest.approx(sol.efforts, rel=1e-14)
    assert rebuilt.c_canonical == pytest.approx(sol.c_canonical, rel=1e-14)
    assert rebuilt.residual <= 1e-12
