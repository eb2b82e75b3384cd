"""Shared fixtures: the two-firm family, config documents and a random solved-market suite."""

from __future__ import annotations

import numpy as np
import pytest

from datamarket import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    GammaNegativeError,
    InfeasibleCError,
    MarketInstance,
    NoEquilibriumError,
    NumericFailure,
    SingularDesignError,
    ValueDistribution,
    complete_solution,
    compute_weights,
    solve_equilibrium_d,
    validate_market,
)


def two_firm_market(x1, alphas=(1.0, 1.0), delta=0.0, etas=(1.0, 1.0)) -> MarketInstance:
    """Two linear-regression buyers over two sources at (x1, 1) on [-1, 1]."""
    dist = ValueDistribution.uniform(-1.0, 1.0)
    buyers = tuple(
        DataBuyer(
            estimator=EstimatorSpec.linear(),
            value_dist=dist,
            delta_row=(0.0, delta) if j == 0 else (delta, 0.0),
            eta=etas[j],
        )
        for j in range(2)
    )
    sources = (DataSource(float(x1), alphas[0]), DataSource(1.0, alphas[1]))
    return MarketInstance(sources=sources, buyers=buyers, feature_domain=(-1.0, 1.0))


def market_to_config(m: MarketInstance) -> dict:
    """The config document of a market: market_from_config's inverse, up to float identity."""
    dists = []
    for b in m.buyers:
        d = b.value_dist
        if d.kind == "uniform":
            params = {"lo": d.lo, "hi": d.hi}
        elif d.kind == "point-mass":
            params = {"x0": d.x0}
        else:
            params = {"points": list(d.points), "weights": list(d.weights)}
        dists.append({"kind": d.kind, "params": params})
    return {
        "sources": [{"x": s.x, "alpha": s.alpha} for s in m.sources],
        "buyers": [
            {
                "estimator": {"kind": b.estimator.kind, "degree": b.estimator.degree},
                "value_dist": dist,
                "delta": list(b.delta_row),
                "eta": b.eta,
            }
            for b, dist in zip(m.buyers, dists)
        ],
        "feature_domain": list(m.feature_domain),
    }


def single_buyer_market(rng) -> MarketInstance:
    """One buyer, two or three sources; the coupling matrix is empty."""
    n = int(rng.integers(2, 4))
    while True:
        xs = np.sort(rng.uniform(-1.0, 1.0, n))
        if n == 2 or np.diff(xs).min() >= 0.25:
            break
    alphas = rng.uniform(0.8, 1.6, n)
    buyer = DataBuyer(
        estimator=EstimatorSpec.linear(),
        value_dist=ValueDistribution.uniform(-1.0, 1.0),
        delta_row=(0.0,),
        eta=1.0,
    )
    sources = tuple(DataSource(float(x), float(a)) for x, a in zip(xs, alphas))
    return MarketInstance(sources=sources, buyers=(buyer,), feature_domain=(-1.0, 1.0))


def random_market(rng) -> MarketInstance | None:
    """One random candidate market with up to three sources and buyers."""
    n = int(rng.integers(2, 4))
    mm = int(rng.integers(2, 4))
    for _ in range(200):
        xs = np.sort(rng.uniform(-1.0, 1.0, n))
        if np.diff(xs).min() >= 0.25:
            break
    else:
        return None
    alphas = rng.uniform(0.6, 1.8, n)
    off = rng.uniform(0.0, 0.35, (mm, mm))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)

    buyers = []
    for j in range(mm):
        degree = int(rng.integers(1, min(2, n - 1) + 1))
        kind = "linear-regression" if degree == 1 else "polynomial-regression"
        u = rng.uniform()
        if u < 0.5:
            dist = ValueDistribution.uniform(-1.0, 1.0)
        elif u < 0.75:
            dist = ValueDistribution.point_mass(float(rng.uniform(-1.0, 1.0)))
        else:
            pts = rng.uniform(-1.0, 1.0, 3)
            wts = rng.uniform(0.1, 1.0, 3)
            dist = ValueDistribution.discrete(pts, wts / wts.sum())
        buyers.append(DataBuyer(estimator=EstimatorSpec(kind, degree),
                                value_dist=dist, delta_row=tuple(off[j]), eta=1.0))
    sources = tuple(DataSource(float(x), float(a)) for x, a in zip(xs, alphas))
    return MarketInstance(sources=sources, buyers=tuple(buyers), feature_domain=(-1.0, 1.0))


def build_solved_suite(count=200, seed=20260819):
    """Random markets that validate, reduce, couple and solve cleanly.

    Every entry carries positive adjusted weights, at least one off-diagonal
    leave-one-out weight, spectral radius under 0.9 and a feasible payment
    polytope, so downstream properties can be asserted without re-filtering.
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 100 * count, "market generator acceptance rate collapsed"
        m = random_market(rng)
        if m is None or validate_market(m):
            continue
        try:
            w = compute_weights(m)
        except (SingularDesignError, GammaNegativeError):
            continue
        if not (w.gamma > 1e-9).all():
            continue
        off = w.xi.copy()
        idx = np.arange(m.n_sources)
        off[:, idx, idx] = 0.0
        if not (off > 1e-12).any():
            continue
        try:
            sol = solve_equilibrium_d(w, m)
        except (NoEquilibriumError, NumericFailure, ValueError):
            continue
        if sol.rho >= 0.9 or float(sol.d_total.max()) > 40.0:
            continue
        try:
            sol = complete_solution(sol, w)
        except InfeasibleCError:
            continue
        out.append((m, w, sol))
    return out


def build_decoupled_suite(count=20, seed=4157):
    """Markets whose coupling matrix is exactly zero.

    Half are two-source markets at (-1, 1), where every off-diagonal
    leave-one-out weight vanishes; half have a single buyer, so the stacked
    system has no cross terms regardless of the weights.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            alphas = tuple(rng.uniform(0.8, 2.0, 2))
            m = two_firm_market(-1.0, alphas=alphas, delta=float(rng.uniform(0.0, 0.4)))
        else:
            m = single_buyer_market(rng)
        if validate_market(m):
            continue
        w = compute_weights(m)
        try:
            sol = complete_solution(solve_equilibrium_d(w, m), w)
        except (InfeasibleCError, ValueError):
            continue
        out.append((m, w, sol))
    return out


@pytest.fixture(scope="session")
def solved_suite():
    return build_solved_suite()


@pytest.fixture(scope="session")
def decoupled_suite():
    return build_decoupled_suite()
