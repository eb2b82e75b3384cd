"""Reduction of estimation losses to per-source variance weights.

A buyer fitting a polynomial by least squares incurs an expected squared
prediction error that is linear in the sources' report variances.  The
coefficient attached to each variance depends only on the sample locations,
the basis and where the buyer evaluates the fit, so the whole market reduces
to three arrays: full-design loss weights (beta), leave-one-out prediction
weights (xi) and competition-adjusted weights (gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import EstimatorSpec, MarketInstance, ValueDistribution

__all__ = [
    "SingularDesignError",
    "GammaNegativeError",
    "SeparableWeights",
    "h_weight",
    "compute_weights",
    "loo_weight_tensor",
    "loss_weight_matrix",
]

# Gram matrices worse conditioned than this are treated as rank deficient.
COND_LIMIT = 1e12


class SingularDesignError(Exception):
    """Design too ill-conditioned to fit the requested basis."""

    def __init__(self, message: str, buyer: int | None = None, dropped_source: int | None = None):
        super().__init__(message)
        self.buyer = buyer
        self.dropped_source = dropped_source


class GammaNegativeError(Exception):
    """Competition weights push some adjusted loss weight below zero."""


@dataclass(frozen=True)
class SeparableWeights:
    """Reduced coefficients of a market.

    beta[j, i]
        weight of source i's variance in buyer j's expected loss.
    xi[j, i, l]
        weight of source l's variance in buyer j's prediction at source i's
        location when the fit omits source i; ``xi[j, i, i] == 1``.
    gamma[k, i]
        beta adjusted for competition and converted to payment units:
        ``(beta[k, i] - sum_{j != k} delta_j^k * beta[j, i]) / eta_k``.
    """

    beta: np.ndarray
    xi: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for a in (self.beta, self.xi, self.gamma):
            a.setflags(write=False)


# ---------------------------------------------------------------------------
# fitting machinery
# ---------------------------------------------------------------------------

def _design_matrix(locations, degree: int) -> np.ndarray:
    return np.vander(np.asarray(locations, dtype=float), degree + 1, increasing=True)


def _fit_operator(locations, degree: int) -> np.ndarray:
    """Matrix W with fitted coefficients = W @ y.

    Overdetermined designs use the normal equations, underdetermined ones
    the minimum-norm fit.  Either way the relevant Gram matrix must be well
    conditioned.
    """
    X = _design_matrix(locations, degree)
    n_pts, n_coef = X.shape
    gram = X.T @ X if n_pts >= n_coef else X @ X.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularDesignError(
            f"design at locations {[float(v) for v in locations]} is rank deficient "
            f"for degree {degree} (cond {cond:.3g})"
        )
    if n_pts >= n_coef:
        return np.linalg.solve(gram, X.T)
    return X.T @ np.linalg.inv(gram)


def _moment_matrix(dist: ValueDistribution, degree: int) -> np.ndarray:
    """E[phi(x) phi(x)^T] for the monomial basis, exact per distribution kind."""
    mu = np.array([dist.moment(p) for p in range(2 * degree + 1)])
    idx = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    return mu[idx]


def _h_vector(spec: EstimatorSpec, locations, dist: ValueDistribution) -> np.ndarray:
    """Per-source variance weights of the expected squared prediction error."""
    W = _fit_operator(locations, spec.degree)
    mom = _moment_matrix(dist, spec.degree)
    h = np.einsum("pi,pq,qi->i", W, mom, W)
    # quadratic form in a PSD matrix; clip float dust
    return np.maximum(h, 0.0)


def h_weight(spec: EstimatorSpec, target_index: int, locations, dist: ValueDistribution) -> float:
    """Coefficient multiplying one source's variance in the expected loss.

    The loss is the squared error of the least-squares fit on ``locations``,
    averaged over evaluation points drawn from ``dist``.  ``target_index``
    picks which sample's noise the coefficient refers to.
    """
    h = _h_vector(spec, locations, dist)
    return float(h[target_index])


# ---------------------------------------------------------------------------
# market-level reduction
# ---------------------------------------------------------------------------

def loss_weight_matrix(m: MarketInstance) -> np.ndarray:
    """beta[j, i]: weight of source i's variance in buyer j's expected loss."""
    xs = np.asarray(m.locations(), dtype=float)
    n = m.n_sources
    beta = np.empty((m.n_buyers, n))
    for j, b in enumerate(m.buyers):
        try:
            h = _h_vector(b.estimator, xs, b.value_dist)
        except SingularDesignError as err:
            raise SingularDesignError(f"buyer {j}: {err}", buyer=j) from None
        if n == 2:
            # two-source markets: each source carries the companion sample
            # point's weight
            h = h[::-1]
        beta[j] = h
    return beta


def loo_weight_tensor(m: MarketInstance) -> np.ndarray:
    """xi[j, i, l]: leave-one-out prediction weights.

    Weight of source l's variance in buyer j's squared prediction error at
    source i's location when the fit drops source i.  The own entry
    ``xi[j, i, i]`` is 1 so that the tensor also describes the quadratic
    penalty term of the contracts.
    """
    xs = np.asarray(m.locations(), dtype=float)
    n = m.n_sources
    xi = np.zeros((m.n_buyers, n, n))
    for j, b in enumerate(m.buyers):
        for i in range(n):
            rest = [l for l in range(n) if l != i]
            at_i = ValueDistribution.point_mass(xs[i])
            try:
                hv = _h_vector(b.estimator, xs[rest], at_i)
            except SingularDesignError as err:
                raise SingularDesignError(
                    f"buyer {j}: leave-one-out design dropping source {i} is singular: {err}",
                    buyer=j, dropped_source=i,
                ) from None
            xi[j, i, rest] = hv
            xi[j, i, i] = 1.0
    return xi


def compute_weights(m: MarketInstance) -> SeparableWeights:
    """Reduce a market to its separable weight arrays.

    Raises SingularDesignError when some full or leave-one-out design cannot
    be fit, and GammaNegativeError when competition weights drive an
    adjusted loss weight below zero (no equilibrium analysis is meaningful
    there).
    """
    beta = loss_weight_matrix(m)
    xi = loo_weight_tensor(m)
    delta = np.array([b.delta_row for b in m.buyers])
    eta = np.array([b.eta for b in m.buyers])
    gamma = (beta - delta @ beta) / eta[:, None]

    tol = 1e-12 * (1.0 + float(np.abs(beta).max(initial=0.0)))
    if gamma.min(initial=0.0) < -tol:
        k, i = np.unravel_index(int(np.argmin(gamma)), gamma.shape)
        raise GammaNegativeError(
            f"buyer {k}, source {i}: adjusted loss weight {gamma[k, i]:.6g} is negative; "
            "competition weights overwhelm the buyer's own loss"
        )
    gamma = np.maximum(gamma, 0.0)
    return SeparableWeights(beta=beta, xi=xi, gamma=gamma)
