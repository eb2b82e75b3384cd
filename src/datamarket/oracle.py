"""Independent checks of a solved market.

Nothing here trusts the linear-algebra route that produced the solution.
Best responses are certified in closed form, because each buyer's cost of
deviating is convex in the variances, with a small dual Newton solve where
the closed form leaves the verdict open.  The solve's distance from the
exact fixed point is bounded by an M-matrix certificate of the
best-response map, sound for any positive v: v is the solve's y; the
residual and ``(I - op) v`` come from xi.  The payment algebra is validated
by the exact mean of each settled payment of the reporting protocol.  That
mean comes from each leave-one-out fit's own pseudo-inverse, never from the
weights of ``estimators``, and it is deterministic: no noise is drawn.  It
must match the polytope's floors to a relative tolerance that grows with
the squared condition number of the buyer's designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance
from .estimators import SeparableWeights
from .equilibrium import EquilibriumSolution, _apply_op

__all__ = [
    "BestResponseReport",
    "PaymentCheck",
    "best_response_certificate",
    "fixed_point_certificate",
    "payment_moments",
]

# Dual ascent behind a best-response certificate: Newton steps, and the
# halvings of one step before it gives up.
_DUAL_MAX_STEPS = 50
_DUAL_MAX_HALVINGS = 30


# ---------------------------------------------------------------------------
# best-response certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestResponseReport:
    """Buyer k's best-response certificate.

    ``cost_eq`` is the buyer's cost at the checked slopes.  ``bound`` is a
    proven upper bound on what any deviation saves; ``improvement`` is what
    the deviation ``argmin_d`` saves, 0 when ``argmin_d`` is the checked
    slopes.  The buyer is ``certified`` when ``bound <= tolerance`` and
    ``improvable`` when ``improvement > tolerance``; when neither holds the
    check is undecided.
    """

    cost_eq: float
    improvement: float
    bound: float
    argmin_d: np.ndarray
    tolerance: float
    certified: bool

    @property
    def improvable(self) -> bool:
        return self.improvement > self.tolerance


def _misfit(lam: np.ndarray, floors: np.ndarray) -> float:
    """``sum_i max(f_i, 0) - lam_i * f_i``: how far a point's payment slacks
    are from the complementary slackness of multipliers ``lam``."""
    return float(((1.0 - lam) * np.maximum(floors, 0.0) + lam * np.maximum(-floors, 0.0)).sum())


def best_response_certificate(sol: EquilibriumSolution, k: int, w: SeparableWeights,
                              m: MarketInstance) -> BestResponseReport:
    """Certify buyer k's slopes as a best response, or find a better reply.

    ``sol`` must carry its payment polytope (``complete_solution`` or
    ``solution_from_d``).  Opponents keep their slopes and flat payments;
    buyer k's flat payments are re-tightened at every deviation, the least
    that keeps each source participating but never below the buyer's own
    floor.  In the variances ``v = 1 / (2 alpha t)`` of the total slopes t,
    buyer k's cost is then ``eta_k * (v @ gamma_k + sum_i max(f_i(v), 0))``
    with ``f_i(v) = A[i] @ v - log(v_i) / (2 alpha_i) - others_c[i]`` and
    ``A[i, q] = sum_{j != k} d[j, i] * xi[j, i, q]``: source i's cost left
    over after the opponents' flats.  Each f_i is convex, so the cost is
    convex in v, and every v > 0 is some deviation: no box is searched.

    The saving is bracketed by weak duality.  Multipliers ``lam`` in
    ``(0, 1]^N`` with ``c = gamma_k + lam @ A > 0`` give the deviation
    ``v(lam) = lam / (2 alpha c)`` and a lower bound on the least cost; at
    ``lam = 1`` the deviation is the closed form ``t = gamma_k + sum_{j != k}
    xi[j].T @ d[j]``, one step of the best-response map.
    The bound and the saving are sums of nonnegative terms, so neither
    subtracts two large costs.  When ``lam = 1`` leaves the verdict open,
    or finds a saving more than ``1e-12 * (1 + |cost|)`` short of the bound,
    projected Newton steps on the dual close the bracket.  The tolerance is
    ``1e-6 * (1 + |cost|)``.
    """
    alphas = np.asarray(m.alphas(), dtype=float)
    eta = m.buyers[k].eta
    gamma = w.gamma[k]
    others = np.arange(m.n_buyers) != k
    others_d = sol.d[others].sum(axis=0)
    others_c = sol.c_polytope.canonical[others].sum(axis=0)
    v0 = sol.variances
    # values that overflow fail the comparisons below and decide nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A = np.einsum("ji,jiq->iq", sol.d[others], w.xi[others])
        f0 = A @ v0 - np.log(v0) / (2.0 * alphas) - others_c
        cost_eq = eta * float(v0 @ gamma + np.maximum(f0, 0.0).sum())
    tolerance = 1e-6 * (1.0 + abs(cost_eq))
    exact = 1e-12 * (1.0 + abs(cost_eq))

    def bracket(lam):
        """At multipliers lam: the bound, the saving of deviation v(lam), its
        total slopes, v(lam) and c, and the dual gradient f(v(lam)); None
        outside the dual's domain."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = gamma + lam @ A
            v = lam / (2.0 * alphas * c)
            if not (np.isfinite(v) & (v > 0.0)).all():
                return None
            # r - 1 - log(r) for r = v0 / v, from log1p where r is near 1
            ratio = v0 / v - 1.0
            log_ratio = np.where(np.abs(ratio) < 0.5, np.log1p(ratio), np.log(v0) - np.log(v))
            f = A @ v - np.log(v) / (2.0 * alphas) - others_c
            bound = eta * (float((lam / (2.0 * alphas) * (ratio - log_ratio)).sum()) + _misfit(lam, f0))
            gap = eta * _misfit(lam, f)
        return bound, bound - gap, c / lam, v, c, f

    # a closed-form reply that is no deviation (some t <= 0) leaves the
    # check undecided
    lam = np.ones(m.n_sources)
    state = bracket(lam)
    bound, best, best_t = np.inf, -np.inf, None
    for _ in range(_DUAL_MAX_STEPS):
        if state is None:
            break
        bound, saving, t, v, c, f = state
        if saving > best:
            best, best_t = saving, t
        if bound <= tolerance or (best > tolerance and bound - best <= exact):
            break
        # ascend the dual along Newton's direction, holding multipliers at 1
        # whose constraint still binds
        s = 1.0 / (2.0 * alphas * c)
        hess = A * s + (A * s).T - (A * (v / c)) @ A.T - np.diag(1.0 / (2.0 * alphas * lam))
        free = (lam < 1.0) | (f <= 0.0)
        if not free.any():
            break
        step = np.zeros_like(lam)
        try:
            step[free] = np.linalg.solve(-hess[np.ix_(free, free)], f[free])
        except np.linalg.LinAlgError:
            break
        for _ in range(_DUAL_MAX_HALVINGS):
            trial = np.minimum(lam + step, 1.0)
            nxt = bracket(trial) if (trial > 0.0).all() else None
            # every dual point gives a bound, so a step that leaves it flat to rounding is taken
            if nxt is not None and nxt[0] < bound * (1.0 + 2.0 ** -50):
                lam, state = trial, nxt
                break
            step = 0.5 * step
        else:
            break

    certified = bool(np.isfinite(cost_eq) and bound <= tolerance)
    improved = best > 0.0 and np.isfinite(best)
    return BestResponseReport(
        cost_eq=cost_eq,
        improvement=best if improved else 0.0,
        bound=bound,
        argmin_d=best_t - others_d if improved else np.array(sol.d[k], dtype=float),
        tolerance=tolerance,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# fixed-point certificate
# ---------------------------------------------------------------------------

def fixed_point_certificate(sol: EquilibriumSolution, w: SeparableWeights) -> float:
    """A proven bound on ``max|d - d*| / (1 + max|d|)``, d* the exact fixed
    point of the best-response map, or inf when none is found.

    The map is ``d = op @ d + gamma``, op the A that ``_apply_op`` applies
    from xi.  If ``xi >= 0``, ``v > 0`` and ``s = (I - op) v > 0``, ``I -
    op`` is a nonsingular M-matrix (Berman & Plemmons, ch. 6), and ``r = (I
    - op) d - gamma`` gives ``|d - d*| <= max|r| * v / min s`` for any such
    v.  v is the solve's y, ``(I - R) y = 1`` on the grouped R lifted to each
    buyer's group, the solve of ``(I - op) v = 1`` (a ValueError without
    it); r and s, which alone decide the bound, are applied from xi.  Each
    entry of r and s sums at most ``(M - 1)(N - 1) + 2`` nonzero terms, so
    Higham's gamma of one more term (section 3.5), times their magnitudes,
    widens |r| and shrinks s; ``1 + 2**-50`` covers the scalar roundings.
    """
    if sol.y is None:
        raise ValueError("the fixed-point certificate needs the solve's y = (I - R)^-1 1; this solution has none")
    n_buyers, n_sources = w.gamma.shape
    terms = (n_buyers - 1) * (n_sources - 1) + 3
    widen = terms * 2.0 ** -53 / (1.0 - terms * 2.0 ** -53)
    v = sol.y
    # non-finite values fail the tests below and certify nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # in units of the power of two above 1 + max|d|, exact up to
        # underflow, so that slopes near the float limit cannot overflow
        top = 1.0 + np.abs(sol.d).max()
        unit = np.frexp(top)[1]
        d, gamma = np.ldexp(sol.d, -unit), np.ldexp(w.gamma, -unit)
        op_d, op_abs_d, op_v = _apply_op(w.xi, np.stack([d, np.abs(d), v]))
        r, s = d - op_d - gamma, v - op_v
        r_hi = np.abs(r) + widen * (np.abs(d) + op_abs_d + np.abs(gamma))
        s_lo = (s - widen * (v + op_v)).min()
        bound = float(r_hi.max() * v.max() / s_lo / np.ldexp(top, -unit) * (1.0 + 2.0 ** -50))
    certified = (w.xi >= 0.0).all() and (v > 0.0).all() and s_lo > 0.0 and bound < np.inf
    return bound if certified else np.inf


# ---------------------------------------------------------------------------
# payment means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PaymentCheck:
    """Exact settled-payment means against the polytope, per (buyer, source).

    ``exact_mean`` and ``analytic_mean`` are (M, N); ``tolerance`` holds each
    buyer's relative tolerance and ``z_score`` the signed gap
    ``exact_mean - analytic_mean`` in the units ``payment_moments`` states.
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
    of the largest condition number kappa among the buyer's designs.  Read
    as ``(8 kappa)**2 * 2**-53``, it allows each entry of op an error of
    ``8 kappa 2**-53 * max_l |op[i, l]|``.  An entry within that of zero
    counts as zero in ``E[r_i**2]``, so that an exact zero, as where xi is
    zero, adds no rounding where a variance nearly vanishes, and L with it.
    That moves ``E[r_i**2]`` by at most ``tolerance * 2**-53 * max_l
    op[i, l]**2`` per unit of variance, so the gap's unit is ``tolerance *
    (|L| + |d| * 2**-53 * max_l op[i, l]**2 * sum(variances))``.  ``sol``
    must carry its payment polytope (``complete_solution`` or
    ``solution_from_d``).
    """
    xs = np.asarray(m.locations(), dtype=float)
    degrees = np.array([b.estimator.degree for b in m.buyers])
    poly = sol.c_polytope
    mean_square = np.empty(poly.L.shape)
    rounding = np.empty(poly.L.shape)
    tolerance = np.empty(len(degrees))
    for g in set(degrees.tolist()):
        op, kappa = _loo_residual_operator(xs, g)
        square = op * op
        rounding[degrees == g] = 2.0 ** -53 * square.max(axis=1) * sol.variances.sum()
        square[square <= (8.0 * kappa * 2.0 ** -53) ** 2 * square.max(axis=1, keepdims=True)] = 0.0
        mean_square[degrees == g] = square @ sol.variances
        tolerance[degrees == g] = 1e-10 + 64.0 * kappa * kappa * 2.0 ** -53
    penalty = sol.d * mean_square
    gap = poly.L - penalty
    # a zero floor (a zero slope) is matched exactly or not at all
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(gap == 0.0, 0.0, gap / (np.abs(poly.L) + np.abs(sol.d) * rounding) / tolerance[:, None])
    return PaymentCheck(exact_mean=poly.canonical - penalty, analytic_mean=poly.canonical - poly.L,
                        tolerance=tolerance, z_score=z)
