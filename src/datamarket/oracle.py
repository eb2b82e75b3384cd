"""Independent checks of a solved market.

Nothing here reuses the linear-algebra route that produced the solution:
best responses are certified by brute-force grid search over deviations,
the fixed point is re-derived by iterating the best-response map, and the
payment algebra is validated by Monte Carlo simulation of the actual
reporting protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .market import MarketInstance
from .estimators import SeparableWeights
from .equilibrium import CouplingSystem, EquilibriumSolution

__all__ = [
    "TrueFunction",
    "BestResponseReport",
    "NeumannResult",
    "PaymentCheck",
    "eval_buyer_cost",
    "best_response_check",
    "neumann_dynamics",
    "monte_carlo_payments",
]

# Fixed-point iteration: sweep budget and relative step that counts as converged.
NEUMANN_MAX_ITERS = 10000
NEUMANN_TOL = 1e-12


@dataclass(frozen=True)
class TrueFunction:
    """Polynomial ground truth every source samples; degree capped at six."""

    coefficients: tuple

    def __post_init__(self):
        coefs = tuple(float(c) for c in self.coefficients)
        if not coefs or len(coefs) - 1 > 6:
            raise ValueError("polynomial degree must be between 0 and 6")
        if not all(math.isfinite(c) for c in coefs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coefs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return npoly.polyval(x, self.coefficients)


# ---------------------------------------------------------------------------
# buyer objective
# ---------------------------------------------------------------------------

def eval_buyer_cost(k: int, c: np.ndarray, d: np.ndarray,
                    w: SeparableWeights, m: MarketInstance) -> float:
    """Buyer k's expected cost under contract book (c, d).

    Sources respond to the total slope on them, which sets the report
    variances; the cost is the competition-adjusted estimation loss plus
    the expected payments, all scaled back to the buyer's own units.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    alphas = np.asarray(m.alphas(), dtype=float)
    d_total = d.sum(axis=0)
    if not (d_total > 0.0).all():
        raise ValueError("every source needs positive total slope for a defined cost")
    variances = 1.0 / (2.0 * alphas * d_total)
    expected_penalty = d[k] * (w.xi[k] @ variances)
    eta_k = m.buyers[k].eta
    loss = float(w.gamma[k] @ variances)
    payments = float((c[k] - expected_penalty).sum())
    return eta_k * (loss + payments)


# ---------------------------------------------------------------------------
# best-response certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestResponseReport:
    buyer: int
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
    own acceptability floor.  Candidates leaving some source with
    nonpositive total slope get infinite cost.
    """
    alphas = np.asarray(m.alphas(), dtype=float)
    others_d = sol.d.sum(axis=0) - sol.d[k]
    d_total = others_d[None, :] + cands
    costs = np.full(cands.shape[0], np.inf)
    ok = (d_total > 0.0).all(axis=1)
    if not ok.any():
        return costs

    dt = d_total[ok]
    variances = 1.0 / (2.0 * alphas[None, :] * dt)
    efforts = np.log(2.0 * alphas[None, :] * dt) / (2.0 * alphas[None, :])

    pen_k = (variances @ w.xi[k].T) * cands[ok]
    pen_others = np.zeros_like(pen_k)
    for j in range(m.n_buyers):
        if j == k:
            continue
        pen_others += (variances @ w.xi[j].T) * sol.d[j][None, :]

    E = pen_k + pen_others + efforts
    others_c = sol.c_canonical.sum(axis=0) - sol.c_canonical[k]
    c_k = np.maximum(E - others_c[None, :], pen_k)

    eta_k = m.buyers[k].eta
    costs[ok] = eta_k * ((variances @ w.gamma[k]) + (c_k - pen_k).sum(axis=1))
    return costs


def best_response_check(sol: EquilibriumSolution, k: int, w: SeparableWeights,
                        m: MarketInstance, *, radius: float, steps: int) -> BestResponseReport:
    """Search for a profitable deviation of buyer k's slope vector.

    ``sol`` must carry its flat payments (``complete_solution`` or
    ``solution_from_d``).  Scans each coordinate over ``steps`` points of the
    multiplicative box ``[d * (1 - radius), d * (1 + radius)]`` around the
    equilibrium slopes, plus ``steps**2`` seeded random joint moves inside
    the box.  Certifies the solution for buyer k when nothing beats the
    equilibrium cost by more than ``1e-6 * (1 + |cost|)``.
    """
    n = m.n_sources
    d_eq = np.asarray(sol.d[k], dtype=float)
    lo = d_eq * (1.0 - radius)
    hi = d_eq * (1.0 + radius)

    blocks = [d_eq[None, :]]
    for i in range(n):
        block = np.repeat(d_eq[None, :], steps, axis=0)
        block[:, i] = np.linspace(lo[i], hi[i], steps)
        blocks.append(block)
    rng = np.random.default_rng(176522 + k)
    blocks.append(rng.uniform(lo, hi, size=(steps * steps, n)))
    cands = np.vstack(blocks)

    costs = _deviation_costs(cands, sol, k, w, m)
    cost_eq = eval_buyer_cost(k, sol.c_canonical, sol.d, w, m)
    best = int(np.argmin(costs))
    max_improvement = cost_eq - float(costs[best])
    tolerance = 1e-6 * (1.0 + abs(cost_eq))
    return BestResponseReport(
        buyer=k,
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


def neumann_dynamics(system: CouplingSystem) -> NeumannResult:
    """Iterate the stacked best-response map from d = gamma.

    Each sweep applies ``d <- A d + gamma``, at most ``NEUMANN_MAX_ITERS``
    times.  Convergence is declared when the successive relative change drops
    below ``NEUMANN_TOL``; the result carries the buyer-major slope matrix
    either way, so callers can inspect where a diverging iteration was heading.
    """
    d = system.gamma_vec.copy()
    last = float("inf")
    for it in range(1, NEUMANN_MAX_ITERS + 1):
        d_next = system.A @ d + system.gamma_vec
        last = float(np.abs(d_next - d).max()) / (1.0 + float(np.abs(d_next).max()))
        d = d_next
        if last < NEUMANN_TOL:
            return NeumannResult(converged=True, d=system.unstack(d), iters=it, last_step=last)
    return NeumannResult(converged=False, d=system.unstack(d), iters=it, last_step=last)


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


def monte_carlo_payments(sol: EquilibriumSolution, w: SeparableWeights,
                         m: MarketInstance, f: TrueFunction,
                         n_samples: int, seed: int) -> list:
    """Simulate the reporting protocol and compare payments to closed form.

    Every round draws one report per source (ground truth plus noise at the
    equilibrium variance), fits each buyer's leave-one-out estimator per
    source, and settles the quadratic contract.  The empirical mean payment
    per (buyer, source) is compared with the analytic expectation through a
    z-score; systematic errors in the weight algebra show up as |z| far
    above 4.  ``sol`` must carry its flat payments (``complete_solution`` or
    ``solution_from_d``).
    """
    rng = np.random.default_rng(seed)
    xs = np.asarray(m.locations(), dtype=float)
    n = m.n_sources
    sigmas = np.sqrt(np.asarray(sol.variances, dtype=float))

    noise = rng.standard_normal((int(n_samples), n)) * sigmas[None, :]
    reports = f(xs)[None, :] + noise

    out = []
    for j, b in enumerate(m.buyers):
        degree = b.estimator.degree
        for i in range(n):
            rest = [l for l in range(n) if l != i]
            X = np.vander(xs[rest], degree + 1, increasing=True)
            basis_i = xs[i] ** np.arange(degree + 1)
            coefs = reports[:, rest] @ np.linalg.pinv(X).T
            predicted = coefs @ basis_i
            # the closed-form expectation takes the prediction as centred at
            # f(x_i); remove the fit's deterministic offset so designs with
            # fewer points than coefficients are scored on their noise alone
            fit_bias = float(basis_i @ np.linalg.pinv(X) @ f(xs[rest]) - f(xs[i]))
            payments = sol.c_canonical[j, i] - sol.d[j, i] * (reports[:, i] - (predicted - fit_bias)) ** 2

            empirical = float(payments.mean())
            std_error = float(payments.std(ddof=1)) / math.sqrt(n_samples)
            analytic = float(sol.c_canonical[j, i] - sol.d[j, i] * (w.xi[j, i] @ sol.variances))
            if std_error == 0.0:
                z = 0.0 if empirical == analytic else math.inf
            else:
                z = (empirical - analytic) / std_error
            out.append(PaymentCheck(buyer=j, source=i, empirical_mean=empirical,
                                    analytic_mean=analytic, std_error=std_error,
                                    z_score=float(z)))
    return out
