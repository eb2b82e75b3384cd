"""Independent checks of a solved market.

Nothing here reuses the linear-algebra route that produced the solution:
best responses are certified by brute-force grid search over deviations,
the fixed point is re-derived by iterating the best-response map, and the
payment algebra is validated by the exact mean of each settled payment of
the reporting protocol.  That mean comes from each leave-one-out fit's own
pseudo-inverse, never from the weights of ``estimators``, and it is
deterministic: no noise is drawn.  It must match the polytope's floors to
a relative tolerance that grows with the squared condition number of the
buyer's designs.
"""

from __future__ import annotations

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
    "payment_moments",
]

# Fixed-point iteration: sweep budget and relative step that counts as converged.
NEUMANN_MAX_ITERS = 10000
NEUMANN_TOL = 1e-12


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
# payment means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaymentCheck:
    """Exact settled-payment means against the polytope, per (buyer, source).

    ``exact_mean`` and ``analytic_mean`` are (M, N); ``tolerance`` holds each
    buyer's relative tolerance and ``z_score`` the signed gap
    ``exact_mean - analytic_mean`` in units of ``tolerance * |L|``.
    """

    exact_mean: np.ndarray
    analytic_mean: np.ndarray
    tolerance: np.ndarray
    z_score: np.ndarray


def _loo_residual_operator(xs: np.ndarray, degree: int) -> tuple:
    """``I - P`` for the leave-one-out prediction operator P of one degree,
    and the largest condition number of its designs.

    Row i of P is ``basis(x_i) @ pinv(vander(x_-i))`` at the other sources,
    with a zero diagonal, so row i of ``(I - P) @ noise`` is source i's
    settled residual.  One SVD of the stacked designs gives both: the
    pseudo-inverses, cut off as ``np.linalg.pinv`` cuts them, and each
    design's condition number.
    """
    n = xs.size
    off = ~np.eye(n, dtype=bool)
    designs = np.vander(np.broadcast_to(xs, (n, n))[off], degree + 1, increasing=True)
    u, s, vt = np.linalg.svd(designs.reshape(n, n - 1, -1), full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s[:, :1])
    basis = np.vander(xs, degree + 1, increasing=True)
    coef = np.einsum("ik,irk->ir", basis, vt) * inv_s
    predict = np.zeros((n, n))
    predict[off] = np.einsum("ir,imr->im", coef, u).ravel()
    return np.eye(n) - predict, float((s[:, 0] / s[:, -1]).max())


def payment_moments(sol: EquilibriumSolution, m: MarketInstance) -> PaymentCheck:
    """Expected settled payments of the reporting protocol, in closed form.

    A source's settled payment from buyer j is ``c[j, i] - d[j, i] * r_i**2``,
    with r its report's residual against the buyer's leave-one-out fit of
    the others.  The ground truth cancels from r, so ``r = op @ noise`` with
    ``op = I - P`` built here from ``pinv`` of each leave-one-out design,
    never from the weights of ``estimators``, and independent noise gives
    ``E[r_i**2] = sum_l op[i, l]**2 * variances[l]``.  That mean is compared
    with the analytic one, the canonical payment less the acceptability
    floor ``L``, at the relative tolerance ``1e-10 + 64 * kappa**2 * 2**-53``:
    ``L`` comes from normal equations, whose rounding grows with the square
    of the largest condition number kappa among the buyer's designs.
    ``sol`` must carry its payment polytope (``complete_solution`` or
    ``solution_from_d``).
    """
    xs = np.asarray(m.locations(), dtype=float)
    degrees = np.array([b.estimator.degree for b in m.buyers])
    poly = sol.c_polytope
    mean_square = np.empty(poly.L.shape)
    tolerance = np.empty(len(degrees))
    for g in set(degrees.tolist()):
        op, kappa = _loo_residual_operator(xs, g)
        mean_square[degrees == g] = (op * op) @ sol.variances
        tolerance[degrees == g] = 1e-10 + 64.0 * kappa * kappa * 2.0 ** -53
    penalty = sol.d * mean_square
    gap = poly.L - penalty
    # a zero floor (a zero slope) is matched exactly or not at all
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(gap == 0.0, 0.0, gap / np.abs(poly.L) / tolerance[:, None])
    return PaymentCheck(exact_mean=poly.canonical - penalty, analytic_mean=poly.canonical - poly.L,
                        tolerance=tolerance, z_score=z)
