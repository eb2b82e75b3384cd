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
    "weight_rows",
    "loo_weight_tensor",
    "loss_weight_matrix",
]

# Gram matrices worse conditioned than this are treated as rank deficient.
COND_LIMIT = 1e12


class SingularDesignError(Exception):
    """Design too ill-conditioned to fit the requested basis."""

    def __init__(self, message: str, buyer: int | None = None, dropped_source: int | None = None,
                 xi: np.ndarray | None = None):
        super().__init__(message)
        self.buyer = buyer
        self.dropped_source = dropped_source
        self.xi = xi


class GammaNegativeError(Exception):
    """Some adjusted loss weight is unusable: competition weights push it
    below zero, or a vanishing eta overflows it."""

    def __init__(self, message: str, xi: np.ndarray | None = None):
        super().__init__(message)
        self.xi = xi


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

    ``weight_rows`` returns the same arrays for a stack of markets, each
    with a leading row axis.
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
    """Monomial design ``X[..., k, c] = x_k ** c``, for leading axes of designs.

    Powers come from repeated multiplication, as ``np.vander`` forms them.
    """
    xs = np.asarray(locations, dtype=float)
    X = np.empty(xs.shape + (degree + 1,))
    X[..., 0] = 1.0
    X[..., 1:] = xs[..., None]
    np.multiply.accumulate(X[..., 1:], out=X[..., 1:], axis=-1)
    return X


def _fit_operator(X: np.ndarray):
    """Matrices W with fitted coefficients = W @ y, one per design in the stack.

    Overdetermined designs use the normal equations, underdetermined ones
    the minimum-norm fit.  Either way the relevant Gram matrix must be well
    conditioned: ``ok`` marks the designs whose condition number ``cond``
    passes, and W is meaningless elsewhere.
    """
    n_pts, n_coef = X.shape[-2:]
    Xt = np.swapaxes(X, -1, -2)
    over = n_pts >= n_coef
    gram = Xt @ X if over else X @ Xt
    cond = np.linalg.cond(gram)
    ok = np.isfinite(cond) & (cond <= COND_LIMIT)
    # stand-ins keep the stacked solve defined; their fits are discarded
    gram[~ok] = np.eye(gram.shape[-1])
    W = np.linalg.solve(gram, Xt) if over else Xt @ np.linalg.inv(gram)
    return W, cond, ok


def _rank_message(locations, degree: int, cond) -> str:
    return (f"design at locations {[float(v) for v in locations]} is rank deficient "
            f"for degree {degree} (cond {cond:.3g})")


def _moment_matrix(mu: np.ndarray, degree: int) -> np.ndarray:
    """E[phi(x) phi(x)^T] for the monomial basis from raw moments ``mu[..., p]``."""
    idx = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    return mu[..., idx]


def _raw_moments(dist: ValueDistribution, degree: int) -> np.ndarray:
    """Exact raw moments of orders 0 .. 2*degree."""
    return np.array([dist.moment(p) for p in range(2 * degree + 1)])


def _point_moments(xs: np.ndarray, degree: int) -> np.ndarray:
    """Raw moments of a point mass at each of ``xs`` (``ValueDistribution.moment``)."""
    orders = range(2 * degree + 1)
    mu = [[x ** p for p in orders] for x in xs.ravel().tolist()]
    return np.array(mu).reshape(xs.shape + (len(orders),))


def _quadratic_form(W: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """Per-sample variance weights ``sum_pq W[p, i] mom[p, q] W[q, i]``, clipped at 0.

    The terms are added in a fixed order, p-major, so a fit's weights do not
    depend on how many fits share the stack.  A line through one point (the
    leave-one-out fits of two-source markets) adds its two row sums pairwise
    instead.  Both orders match ``np.einsum("pi,pq,qi->i")`` on one fit bit
    for bit, so sweep CSVs and solutions stay byte-identical across
    versions.
    """
    def term(p, q):
        return (W[..., p, :] * mom[..., p, q, None]) * W[..., q, :]

    n_coef = W.shape[-2]
    if n_coef == 2 and W.shape[-1] == 1:
        h = (term(0, 0) + term(0, 1)) + (term(1, 0) + term(1, 1))
    else:
        h = term(0, 0)
        for p in range(n_coef):
            for q in range(n_coef):
                if p or q:
                    h += term(p, q)
    # quadratic form in a PSD matrix; clip float dust
    return np.maximum(h, 0.0)


def h_weight(spec: EstimatorSpec, target_index: int, locations, dist: ValueDistribution) -> float:
    """Coefficient multiplying one source's variance in the expected loss.

    The loss is the squared error of the least-squares fit on ``locations``,
    averaged over evaluation points drawn from ``dist``.  ``target_index``
    picks which sample's noise the coefficient refers to.
    """
    W, cond, ok = _fit_operator(_design_matrix(locations, spec.degree))
    if not ok:
        raise SingularDesignError(_rank_message(locations, spec.degree, cond))
    h = _quadratic_form(W, _moment_matrix(_raw_moments(dist, spec.degree), spec.degree))
    return float(h[target_index])


# ---------------------------------------------------------------------------
# market-level reduction, over a stack of markets
# ---------------------------------------------------------------------------

def _stack(markets) -> tuple:
    """Locations (R, N), etas (R, M) and the buyers shared by a stack of markets.

    The markets may differ only in source locations, noise decay rates and
    buyer etas: the fits and competition weights are taken from the first.
    """
    buyers = markets[0].buyers
    shared = [(b.estimator, b.value_dist, b.delta_row) for b in buyers]
    for m in markets[1:]:
        if m.n_sources != markets[0].n_sources or \
                [(b.estimator, b.value_dist, b.delta_row) for b in m.buyers] != shared:
            raise ValueError("stacked markets must share the number of sources, the estimators, "
                             "value distributions and competition weights")
    xs = np.array([m.locations() for m in markets], dtype=float)
    etas = np.array([[b.eta for b in m.buyers] for m in markets], dtype=float)
    return xs, etas, buyers


def _first_failures(buyers, failed: dict, n_rows: int) -> list:
    """Per row, (buyer, fit index) of the first failed fit in buyer-major order, or None.

    ``failed[degree]`` is the (R, ...) mask of failed fits of that degree,
    which every buyer fitting the degree shares.
    """
    out = [None] * n_rows
    for j, b in enumerate(buyers):
        rows = failed[b.estimator.degree].reshape(n_rows, -1)
        for r in np.flatnonzero(rows.any(axis=1)):
            if out[r] is None:
                out[r] = (j, int(np.argmax(rows[r])))
    return out


def _loss_rows(xs: np.ndarray, buyers) -> tuple:
    """beta[r, j, i] of each row of locations, and per row the first SingularDesignError."""
    n_rows, n = xs.shape
    beta = np.empty((n_rows, len(buyers), n))
    fits = {}
    for j, b in enumerate(buyers):
        degree = b.estimator.degree
        if degree not in fits:
            fits[degree] = _fit_operator(_design_matrix(xs, degree))
        h = _quadratic_form(fits[degree][0], _moment_matrix(_raw_moments(b.value_dist, degree), degree))
        # Two-source "companion" convention: each source carries the weight
        # the fit puts on the other sample point, so at x = (0, 1) under a
        # uniform [-1, 1] buyer beta is (1/3, 4/3) where the fit gives
        # (4/3, 1/3) (pinned by test_two_firm_anchor_weights).  With three or
        # more sources beta is the fit's own weight, so it jumps when a third
        # source joins.  PAPER.md holds only the paper's abstract, so the
        # convention cannot yet be traced to the paper's two-firm example.
        beta[:, j] = h[..., ::-1] if n == 2 else h

    errors = [None] * n_rows
    failed = {degree: ~ok for degree, (_, _, ok) in fits.items()}
    for r, first in enumerate(_first_failures(buyers, failed, n_rows)):
        if first is not None:
            j, degree = first[0], buyers[first[0]].estimator.degree
            message = _rank_message(xs[r], degree, fits[degree][1][r])
            errors[r] = SingularDesignError(f"buyer {j}: {message}", buyer=j)
    return beta, errors


def _loo_rows(xs: np.ndarray, buyers) -> tuple:
    """xi[r, j, i, l] of each row of locations, and per row the first SingularDesignError."""
    n_rows, n = xs.shape
    own = np.arange(n)
    rest = np.array([np.delete(own, i) for i in own]).reshape(n, n - 1)
    xi = np.zeros((n_rows, len(buyers), n, n))
    fits = {}
    for j, b in enumerate(buyers):
        degree = b.estimator.degree
        if degree not in fits:
            # one fit per (row, dropped source); xi depends on the degree alone
            W, cond, ok = _fit_operator(_design_matrix(xs[:, rest], degree))
            h = _quadratic_form(W, _moment_matrix(_point_moments(xs, degree), degree))
            fits[degree] = (h, cond, ok)
        xi[:, j, own[:, None], rest] = fits[degree][0]
    xi[:, :, own, own] = 1.0

    errors = [None] * n_rows
    failed = {degree: ~ok for degree, (_, _, ok) in fits.items()}
    for r, first in enumerate(_first_failures(buyers, failed, n_rows)):
        if first is not None:
            (j, i), degree = first, buyers[first[0]].estimator.degree
            message = _rank_message(xs[r, rest[i]], degree, fits[degree][1][r, i])
            errors[r] = SingularDesignError(
                f"buyer {j}: leave-one-out design dropping source {i} is singular: {message}",
                buyer=j, dropped_source=i,
            )
    return xi, errors


def _adjusted_rows(beta: np.ndarray, etas: np.ndarray, buyers) -> tuple:
    """gamma[r, k, i] and per row the first GammaNegativeError."""
    delta = np.array([b.delta_row for b in buyers], dtype=float)
    # a subnormal eta overflows gamma; the check below reports it
    with np.errstate(over="ignore"):
        gamma = (beta - delta @ beta) / etas[..., None]
    tol = 1e-12 * (1.0 + np.abs(beta).max(axis=(-2, -1), initial=0.0))
    finite = np.isfinite(gamma).all(axis=-1)
    errors = [None] * len(beta)
    for r in np.flatnonzero(~finite.all(axis=-1) | (gamma.min(axis=(-2, -1), initial=0.0) < -tol)):
        if not finite[r].all():
            k = int(np.argmin(finite[r]))
            message = (f"buyer {k}: adjusted loss weights overflow at eta {etas[r, k]:.6g}; "
                       "the buyer's loss scale is too small")
        else:
            k, i = np.unravel_index(int(np.argmin(gamma[r])), gamma[r].shape)
            message = (f"buyer {k}, source {i}: adjusted loss weight {gamma[r, k, i]:.6g} is "
                       "negative; competition weights overwhelm the buyer's own loss")
        errors[r] = GammaNegativeError(message)
    return np.maximum(gamma, 0.0), errors


def weight_rows(markets) -> tuple:
    """Separable weights of a stack of markets, as ``(weights, errors, xi_errors)``.

    ``markets`` share everything but source locations, noise decay rates and
    buyer etas (a sweep).  ``weights`` holds beta, xi and gamma with a
    leading row axis.  ``errors[r]`` is what ``compute_weights`` raises on
    market r, or None; ``xi_errors[r]`` concerns the leave-one-out fits
    alone, so ``weights.xi[r]`` is valid whenever it is None.  Fits are
    stacked over rows, one per distinct degree (times the dropped sources).
    """
    xs, etas, buyers = _stack(markets)
    beta, beta_errors = _loss_rows(xs, buyers)
    xi, xi_errors = _loo_rows(xs, buyers)
    gamma, gamma_errors = _adjusted_rows(beta, etas, buyers)
    errors = [b or x or g for b, x, g in zip(beta_errors, xi_errors, gamma_errors)]
    for err, x_err, row_xi in zip(errors, xi_errors, xi):
        if err is not None and x_err is None:
            err.xi = row_xi
    return SeparableWeights(beta=beta, xi=xi, gamma=gamma), errors, xi_errors


def loss_weight_matrix(m: MarketInstance) -> np.ndarray:
    """beta[j, i]: weight of source i's variance in buyer j's expected loss."""
    beta, errors = _loss_rows(np.array([m.locations()], dtype=float), m.buyers)
    if errors[0] is not None:
        raise errors[0]
    return beta[0]


def loo_weight_tensor(m: MarketInstance) -> np.ndarray:
    """xi[j, i, l]: leave-one-out prediction weights.

    Weight of source l's variance in buyer j's squared prediction error at
    source i's location when the fit drops source i.  The own entry
    ``xi[j, i, i]`` is 1 so that the tensor also describes the quadratic
    penalty term of the contracts.
    """
    xi, errors = _loo_rows(np.array([m.locations()], dtype=float), m.buyers)
    if errors[0] is not None:
        raise errors[0]
    return xi[0]


def compute_weights(m: MarketInstance) -> SeparableWeights:
    """Reduce a market to its separable weight arrays.

    Raises SingularDesignError when some full or leave-one-out design cannot
    be fit, and GammaNegativeError when competition weights drive an
    adjusted loss weight below zero or a vanishing eta overflows one (no
    equilibrium analysis is meaningful there).  Either error carries the
    leave-one-out tensor as ``xi`` when that fit succeeded, since existence
    depends on it alone.
    """
    w, errors, _ = weight_rows([m])
    if errors[0] is not None:
        raise errors[0]
    return SeparableWeights(beta=w.beta[0], xi=w.xi[0], gamma=w.gamma[0])
