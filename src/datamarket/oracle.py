"""Independent checks of a solved market.

Nothing here reuses the linear-algebra route that produced the solution:
best responses are certified by brute-force grid search over deviations,
the fixed point is re-derived by iterating the best-response map, and the
payment algebra is validated by Monte Carlo simulation of the reporting
protocol.  The simulation fits each leave-one-out prediction with its own
pseudo-inverse, never with the weights of ``estimators``, and draws the
noise alone: the ground truth cancels from every settled payment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, source_response
from .estimators import SeparableWeights
from .equilibrium import EquilibriumSolution

__all__ = [
    "BestResponseReport",
    "NeumannResult",
    "PaymentCheck",
    "best_response_check",
    "neumann_dynamics",
    "monte_carlo_payments",
]

# Fixed-point iteration: sweep budget and relative step that counts as converged.
NEUMANN_MAX_ITERS = 10000
NEUMANN_TOL = 1e-12

# Samples per block of the payment simulation: at N = 8 a block of draws and
# its squared residuals take well under a 4 MB L2 cache.
_MC_BLOCK = 4096


# ---------------------------------------------------------------------------
# best-response certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestResponseReport:
    cost_eq: float
    max_improvement: float
    argmin_d: np.ndarray
    tolerance: float
    certified: bool


def _deviation_costs(cands: np.ndarray, sol: EquilibriumSolution, k: int,
                     w: SeparableWeights, m: MarketInstance) -> np.ndarray:
    """Vectorized buyer-k cost over candidate slope rows.

    Opponents keep their equilibrium contracts.  For each candidate the flat
    payments of buyer k are re-tightened: the least c keeping every source
    participating given the opponents' flats, but never below the buyer's
    own acceptability floor.  Candidates at which some source's response is
    not finite (a nonpositive total slope, or an effort or variance that
    overflows) get infinite cost: the rule the solve applies to its own
    efforts.
    """
    alphas = np.asarray(m.alphas(), dtype=float)
    others_d = sol.d.sum(axis=0) - sol.d[k]
    efforts, variances, ok = source_response(others_d[None, :] + cands, alphas[None, :])
    ok = ok.all(axis=1)
    costs = np.full(cands.shape[0], np.inf)
    if not ok.any():
        return costs

    efforts, variances = efforts[ok], variances[ok]
    pen_k = (variances @ w.xi[k].T) * cands[ok]
    pen_others = np.zeros_like(pen_k)
    for j in range(m.n_buyers):
        if j == k:
            continue
        pen_others += (variances @ w.xi[j].T) * sol.d[j][None, :]

    E = pen_k + pen_others + efforts
    canonical = sol.c_polytope.canonical
    others_c = canonical.sum(axis=0) - canonical[k]
    c_k = np.maximum(E - others_c[None, :], pen_k)

    eta_k = m.buyers[k].eta
    costs[ok] = eta_k * ((variances @ w.gamma[k]) + (c_k - pen_k).sum(axis=1))
    return costs


def best_response_check(sol: EquilibriumSolution, k: int, w: SeparableWeights,
                        m: MarketInstance, *, radius: float, steps: int) -> BestResponseReport:
    """Search for a profitable deviation of buyer k's slope vector.

    ``sol`` must carry its payment polytope (``complete_solution`` or
    ``solution_from_d``).  Scans each coordinate over ``steps`` points of the
    multiplicative box between ``d * (1 - radius)`` and ``d * (1 + radius)``
    around the equilibrium slopes, plus ``steps**2`` seeded random joint
    moves inside the box.  A zero slope has no multiplicative box; it is
    searched over ``[0, radius * max|sol.d|]``.  Certifies the solution for
    buyer k when nothing beats the equilibrium cost by more than
    ``1e-6 * (1 + |cost|)``.
    """
    n = m.n_sources
    d_eq = np.asarray(sol.d[k], dtype=float)
    # a negative slope reverses the ends
    with np.errstate(over="ignore"):  # an end that overflows is reported below
        shrunk, grown = d_eq * (1.0 - radius), d_eq * (1.0 + radius)
    lo, hi = np.minimum(shrunk, grown), np.maximum(shrunk, grown)
    hi[d_eq == 0.0] = radius * float(np.abs(sol.d).max())
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"buyer {k}, source {i}: deviation box around slope {d_eq[i]:.6g} "
                         "overflows a float")

    blocks = [d_eq[None, :]]
    for i in range(n):
        block = np.repeat(d_eq[None, :], steps, axis=0)
        block[:, i] = np.linspace(lo[i], hi[i], steps)
        blocks.append(block)
    rng = np.random.default_rng(176522 + k)
    blocks.append(rng.uniform(lo, hi, size=(steps * steps, n)))
    cands = np.vstack(blocks)

    costs = _deviation_costs(cands, sol, k, w, m)
    cost_eq = float(costs[0])  # the point itself, costed like every deviation
    best = int(np.argmin(costs))
    max_improvement = cost_eq - float(costs[best])
    tolerance = 1e-6 * (1.0 + abs(cost_eq))
    return BestResponseReport(
        cost_eq=cost_eq,
        max_improvement=max_improvement,
        argmin_d=cands[best].copy(),
        tolerance=tolerance,
        certified=max_improvement <= tolerance,
    )


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeumannResult:
    converged: bool
    d: np.ndarray
    iters: int
    last_step: float


def neumann_dynamics(w: SeparableWeights) -> NeumannResult:
    """Iterate the best-response map from d = gamma.

    Each sweep applies ``d[k, q] <- gamma[k, q] + sum_{j != k, l != q}
    xi[j, l, q] * d[j, l]``, at most ``NEUMANN_MAX_ITERS`` times, through an
    operator built here from xi, never the solve's coupling matrix.
    Convergence is declared when the successive relative change drops
    below ``NEUMANN_TOL``; the result carries the buyer-major slope matrix
    either way, so callers can inspect where a diverging iteration was heading.
    """
    n_buyers, n_sources = w.gamma.shape
    other_buyer = ~np.eye(n_buyers, dtype=bool)[:, None, :, None]
    other_source = ~np.eye(n_sources, dtype=bool)[:, None, :]
    # op[(k, q), (j, l)] = xi[j, l, q] for j != k and l != q, buyer-major
    op = np.where(other_buyer & other_source, np.moveaxis(w.xi, -1, 0), 0.0)
    op = op.reshape(n_buyers * n_sources, -1)
    gamma = w.gamma.reshape(-1)
    d = gamma.copy()
    last = float("inf")
    for it in range(1, NEUMANN_MAX_ITERS + 1):
        d_next = op @ d + gamma
        last = float(np.abs(d_next - d).max()) / (1.0 + float(np.abs(d_next).max()))
        d = d_next
        if last < NEUMANN_TOL:
            return NeumannResult(converged=True, d=d.reshape(n_buyers, n_sources), iters=it, last_step=last)
    return NeumannResult(converged=False, d=d.reshape(n_buyers, n_sources), iters=it, last_step=last)


# ---------------------------------------------------------------------------
# payment simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaymentCheck:
    buyer: int
    source: int
    empirical_mean: float
    analytic_mean: float
    std_error: float
    z_score: float


def _loo_residual_operator(xs: np.ndarray, degree: int) -> np.ndarray:
    """``I - P`` for the leave-one-out prediction operator P of one degree.

    Row i of P is ``basis(x_i) @ pinv(vander(x_-i))`` at the other sources,
    with a zero diagonal, so row i of ``(I - P) @ noise`` is source i's
    settled residual.
    """
    n = xs.size
    off = ~np.eye(n, dtype=bool)
    designs = np.stack([np.vander(xs[row], degree + 1, increasing=True) for row in off])
    basis = xs[:, None] ** np.arange(degree + 1)
    predict = np.zeros((n, n))
    predict[off] = np.einsum("ik,ikl->il", basis, np.linalg.pinv(designs)).ravel()
    return np.eye(n) - predict


def _residual_moments(op: np.ndarray, rng: np.random.Generator, n_samples: int) -> tuple:
    """Per-row mean and spread of the squared residuals ``(op @ z)**2``.

    ``z`` runs over ``n_samples`` standard normal draws of ``op.shape[1]``
    sources, drawn ``_MC_BLOCK`` rows at a time: the generator fills in
    order, so the blocks are the rows of one ``(n_samples, N)`` draw.  Each
    block's residuals come from one matmul, a row per operator row, squared
    and centered in place; its count, mean and sum of squared deviations
    are merged into the running ones by the pairwise update of Chan, Golub
    & LeVeque (1983).  Memory does not grow with ``n_samples``.
    """
    n_rows, n = op.shape
    count = 0
    mean = np.zeros(n_rows)
    m2 = np.zeros(n_rows)
    for start in range(0, n_samples, _MC_BLOCK):
        size = min(_MC_BLOCK, n_samples - start)
        r = op @ rng.standard_normal((size, n)).T
        np.square(r, out=r)
        block_mean = r.mean(axis=1)
        r -= block_mean[:, None]
        np.square(r, out=r)
        delta = block_mean - mean
        total = count + size
        mean += delta * (size / total)
        m2 += r.sum(axis=1) + delta * delta * (count * size / total)
        count = total
    return mean, np.sqrt(m2 / (n_samples - 1))


def monte_carlo_payments(sol: EquilibriumSolution, m: MarketInstance,
                         n_samples: int, seed: int) -> list:
    """Simulate the reporting protocol and compare payments to closed form.

    Every round draws one report per source at the equilibrium variance,
    fits each buyer's leave-one-out estimator per source, and settles the
    quadratic contract.  For any design, the prediction minus its
    deterministic fit offset is ``f(x_i) + basis_i @ pinv(X) @ noise_rest``,
    so the ground truth ``f`` cancels from the settled residual and only the
    noise is simulated.  The noise is drawn in units of the largest standard
    deviation, so neither a squared residual nor its spread underflows when
    the variances are tiny.  The residual operators of the distinct
    estimator degrees are stacked into one, so each block of draws takes
    one matmul, and buyers of one degree share its rows.  The empirical mean
    payment per (buyer, source) is compared with the analytic expectation,
    the canonical payment less the acceptability floor ``L``, through a
    z-score; systematic errors in the weight algebra show up as |z| far
    above 4.  ``sol`` must carry its payment polytope (``complete_solution``
    or ``solution_from_d``).
    """
    rng = np.random.default_rng(seed)
    xs = np.asarray(m.locations(), dtype=float)
    sigmas = np.sqrt(np.asarray(sol.variances, dtype=float))
    scale = float(sigmas.max())
    degrees = sorted({b.estimator.degree for b in m.buyers})
    op = np.vstack([_loo_residual_operator(xs, g) for g in degrees]) * (sigmas / scale)[None, :]
    means, spreads = _residual_moments(op, rng, int(n_samples))
    moments = dict(zip(degrees, zip(means.reshape(len(degrees), -1),
                                    spreads.reshape(len(degrees), -1))))

    poly = sol.c_polytope
    out = []
    for j, b in enumerate(m.buyers):
        mean, spread = moments[b.estimator.degree]
        slope = sol.d[j] * scale * scale
        empirical = poly.canonical[j] - slope * mean
        std_error = np.abs(slope) * spread / math.sqrt(n_samples)
        analytic = poly.canonical[j] - poly.L[j]
        for i, (e, a, se) in enumerate(zip(empirical.tolist(), analytic.tolist(),
                                           std_error.tolist())):
            if se == 0.0:
                z = 0.0 if e == a else math.inf
            else:
                z = (e - a) / se
            out.append(PaymentCheck(buyer=j, source=i, empirical_mean=e, analytic_mean=a,
                                    std_error=se, z_score=z))
    return out
