"""Reduction of estimation losses to per-source variance weights.

A buyer fitting a polynomial by least squares incurs an expected squared
prediction error that is linear in the sources' report variances.  The
coefficient attached to each variance depends only on the sample locations,
the basis and where the buyer evaluates the fit, so the whole market reduces
to three arrays: full-design loss weights (beta), leave-one-out prediction
weights (xi) and competition-adjusted weights (gamma).  A market whose
weights cannot be formed raises SingularDesignError or GammaNegativeError;
either carries xi when the leave-one-out fits succeeded, since whether an
equilibrium exists depends on xi alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, ValueDistribution

__all__ = [
    "SingularDesignError",
    "GammaNegativeError",
    "SeparableWeights",
    "compute_weights",
    "weight_rows",
]

# Gram matrices worse conditioned than this are treated as rank deficient.
COND_LIMIT = 1e12


class _WeightsError(Exception):
    """Base of the weights errors: ``xi`` is the leave-one-out tensor when
    those fits succeeded, else None."""

    xi: np.ndarray | None = None


class SingularDesignError(_WeightsError):
    """Design too ill-conditioned to fit the requested basis."""


class GammaNegativeError(_WeightsError):
    """Some adjusted loss weight is unusable: competition weights push it
    below zero, or it overflows with the loss weight or a vanishing eta."""


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

    ``weight_rows`` returns the same arrays for rows of one market's source
    locations and buyer etas, each with a leading row axis.
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

    Powers come from repeated multiplication, as ``np.vander`` forms them;
    one that overflows is inf, and ``_fit_operator`` rejects its design.
    """
    xs = np.asarray(locations, dtype=float)
    X = np.empty(xs.shape + (degree + 1,))
    X[..., 0] = 1.0
    X[..., 1:] = xs[..., None]
    with np.errstate(over="ignore"):
        np.multiply.accumulate(X[..., 1:], out=X[..., 1:], axis=-1)
    return X


def _fit_operator(X: np.ndarray):
    """Matrices W with fitted coefficients = W @ y, one per design in the stack.

    Overdetermined designs use the normal equations, underdetermined ones
    the minimum-norm fit.  Either way the relevant Gram matrix must be well
    conditioned: ``ok`` marks the designs whose condition number ``cond``
    passes.  A Gram matrix that is not finite counts as rank deficient with
    cond inf.  W is 0 wherever ``ok`` is False.
    """
    n_pts, n_coef = X.shape[-2:]
    over = n_pts >= n_coef
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(X, -1, -2) @ X if over else X @ np.swapaxes(X, -1, -2)
    finite = np.isfinite(gram).all(axis=(-2, -1))
    # stand-ins keep cond and the stacked solve defined, and a failed fit gets W = 0
    gram[~finite] = np.eye(gram.shape[-1])
    cond = np.where(finite, np.linalg.cond(gram), np.inf)
    ok = cond <= COND_LIMIT
    if not ok.all():
        gram[~ok] = np.eye(gram.shape[-1])
        X = np.where(ok[..., None, None], X, 0.0)
    Xt = np.swapaxes(X, -1, -2)
    W = np.linalg.solve(gram, Xt) if over else Xt @ np.linalg.inv(gram)
    return W, cond, ok


def _rank_message(locations, degree: int, cond) -> str:
    return (f"design at locations {[float(v) for v in locations]} is rank deficient "
            f"for degree {degree} (cond {cond:.3g})")


def _moment_matrix(dist: ValueDistribution, degree: int) -> np.ndarray:
    """E[phi(x) phi(x)^T] for the monomial basis, from dist's exact raw moments."""
    mu = np.array([dist.moment(p) for p in range(2 * degree + 1)])
    return mu[np.add.outer(np.arange(degree + 1), np.arange(degree + 1))]


# ---------------------------------------------------------------------------
# market-level reduction, over rows of source locations and buyer etas
# ---------------------------------------------------------------------------

def _fit_rows(xs: np.ndarray, buyers) -> tuple:
    """beta[r, j, i] and xi[r, j, i, l] of each row of locations, with per row
    the first SingularDesignError of the full fits and of the leave-one-out fits.

    Each distinct degree, in the order of its first buyer, builds its design
    X once and fits it whole and with each source left out; X is also the
    basis the leave-one-out fits predict in.  xi is the square of the weight
    ``sum_p x_i**p * W[p, l]`` that the fit dropping source i puts on source
    l when it predicts at x_i, summed over p in order, so a row's bits do
    not depend on the stack size.  Every buyer of a degree shares its failed
    fits, so the first buyer of that degree names them.
    """
    n_rows, n = xs.shape
    own = np.arange(n)
    kept = np.arange(n - 1)
    rest = kept[None, :] + (kept[None, :] >= own[:, None])  # row i: every source but i
    beta = np.empty((n_rows, len(buyers), n))
    xi = np.zeros((n_rows, len(buyers), n, n))
    beta_errors, xi_errors = [None] * n_rows, [None] * n_rows
    fits = {}
    for j, b in enumerate(buyers):
        degree = b.estimator.degree
        if degree not in fits:
            X = _design_matrix(xs, degree)
            W, cond, ok = _fit_operator(X)
            loo_W, loo_cond, loo_ok = _fit_operator(X[:, rest])  # one fit per (row, dropped source)
            # a prediction at a far source may overflow; the designs keeping that source fail
            with np.errstate(over="ignore", invalid="ignore"):
                pred = sum(X[..., p, None] * loo_W[..., p, :] for p in range(degree + 1))
                fits[degree] = (W, pred * pred)
            for r in np.flatnonzero(~ok):
                if beta_errors[r] is None:
                    message = _rank_message(xs[r], degree, cond[r])
                    beta_errors[r] = SingularDesignError(f"buyer {j}: {message}")
            for r in np.flatnonzero(~loo_ok.all(axis=1)):
                if xi_errors[r] is None:
                    i = int(np.argmin(loo_ok[r]))
                    message = _rank_message(xs[r, rest[i]], degree, loo_cond[r, i])
                    xi_errors[r] = SingularDesignError(
                        f"buyer {j}: leave-one-out design dropping source {i} is singular: {message}")
        W, loo_xi = fits[degree]
        mom = _moment_matrix(b.value_dist, degree)
        # sum_pq W[p, i] mom[p, q] W[q, i], whose terms einsum adds in one order
        # whatever the stack size, so a row's bits do not depend on it.  An
        # overflowed weight stays inf or NaN for _adjusted_rows to report; the
        # clip takes float dust off a quadratic form in a PSD matrix.
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.maximum(np.einsum("...pi,pq,...qi->...i", W, mom, W), 0.0)
        # Two-source "companion" convention: each source carries the weight
        # the fit puts on the other sample point, so at x = (0, 1) under a
        # uniform [-1, 1] buyer beta is (1/3, 4/3) where the fit gives
        # (4/3, 1/3) (pinned by test_two_firm_anchor_weights).  With three or
        # more sources beta is the fit's own weight, so it jumps when a third
        # source joins.  PAPER.md holds only the paper's abstract, so the
        # convention cannot yet be traced to the paper's two-firm example.
        beta[:, j] = h[..., ::-1] if n == 2 else h
        xi[:, j, own[:, None], rest] = loo_xi
    xi[:, :, own, own] = 1.0
    return beta, xi, beta_errors, xi_errors


def _adjusted_rows(beta: np.ndarray, etas: np.ndarray, buyers) -> tuple:
    """gamma[r, k, i] and per row the first GammaNegativeError."""
    delta = np.array([b.delta_row for b in buyers], dtype=float)
    # an overflowed beta or a subnormal eta leaves gamma inf or NaN; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = (beta - delta @ beta) / etas[..., None]
    tol = 1e-12 * (1.0 + np.abs(beta).max(axis=(-2, -1), initial=0.0))
    finite = np.isfinite(gamma).all(axis=-1)
    errors = [None] * len(beta)
    for r in np.flatnonzero(~finite.all(axis=-1) | (gamma.min(axis=(-2, -1), initial=0.0) < -tol)):
        if not np.isfinite(beta[r]).all():
            k, i = np.unravel_index(int(np.argmin(np.isfinite(beta[r]))), beta[r].shape)
            message = (f"buyer {k}, source {i}: loss weight {beta[r, k, i]:.6g} overflows a float; "
                       "the buyer's values lie too far from the sources")
        elif not finite[r].all():
            k = int(np.argmin(finite[r]))
            message = (f"buyer {k}: adjusted loss weights overflow at eta {etas[r, k]:.6g}; "
                       "the buyer's loss scale is too small")
        else:
            k, i = np.unravel_index(int(np.argmin(gamma[r])), gamma[r].shape)
            message = (f"buyer {k}, source {i}: adjusted loss weight {gamma[r, k, i]:.6g} is "
                       "negative; competition weights overwhelm the buyer's own loss")
        errors[r] = GammaNegativeError(message)
    return np.maximum(gamma, 0.0), errors


def weight_rows(m: MarketInstance, xs: np.ndarray, etas: np.ndarray) -> tuple:
    """Separable weights of m's buyers at source locations ``xs`` (R, N) and
    buyer etas ``etas`` (R, M), as ``(weights, errors)``.

    ``weights`` holds beta, xi and gamma with a leading row axis.
    ``errors[r]`` is what ``compute_weights`` raises on row r, or None; it
    carries ``weights.xi[r]`` as ``xi`` when the leave-one-out fits
    succeeded, so xi is valid wherever the error is None or its xi is not.
    Fits are stacked over rows, one per distinct degree (times the dropped
    sources).
    """
    beta, xi, beta_errors, xi_errors = _fit_rows(xs, m.buyers)
    gamma, gamma_errors = _adjusted_rows(beta, etas, m.buyers)
    errors = [b or x or g for b, x, g in zip(beta_errors, xi_errors, gamma_errors)]
    for err, x_err, row_xi in zip(errors, xi_errors, xi):
        if err is not None and x_err is None:
            err.xi = row_xi
    return SeparableWeights(beta=beta, xi=xi, gamma=gamma), errors


def _first_row(rows, errors):
    """Row 0 of a stacked stage's ``(rows, errors)``, as its one-market call
    returns it: row 0's error is raised, or every field of ``rows`` is cut
    to row 0, a field of one number per row to a float and None kept."""
    if errors[0] is not None:
        raise errors[0]
    return type(rows)(**{name: a if a is None else float(a[0]) if a.ndim == 1 else a[0]
                         for name, a in vars(rows).items()})


def compute_weights(m: MarketInstance) -> SeparableWeights:
    """Reduce a market to its separable weight arrays.

    Raises SingularDesignError when some full or leave-one-out design cannot
    be fit, and GammaNegativeError when competition weights drive an
    adjusted loss weight below zero or a vanishing eta overflows one (no
    equilibrium analysis is meaningful there).  Either error carries the
    leave-one-out tensor as ``xi`` when that fit succeeded, since existence
    depends on it alone.
    """
    xs, etas = np.array([m.locations()], dtype=float), np.array([m.etas()], dtype=float)
    return _first_row(*weight_rows(m, xs, etas))
