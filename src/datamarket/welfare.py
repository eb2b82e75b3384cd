"""Social loss, socially optimal efforts and the price of anarchy.

The social planner adds up every buyer's expected estimation loss and every
source's effort cost.  That accounting only makes sense when payments are
denominated in loss units for all buyers (eta identically one).  Where it
does not, or where the optimum is not finite or its loss not positive,
welfare is undefined and these functions report UndefinedPoaError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, source_response
from .estimators import SeparableWeights, _first_row
from .equilibrium import EquilibriumSolution, NumericFailure, _apply_op

__all__ = [
    "UndefinedPoaError",
    "WelfareReport",
    "price_of_anarchy",
    "welfare_rows",
]


class UndefinedPoaError(Exception):
    """Welfare is undefined: some buyer's payment conversion eta is not 1, some
    source carries zero aggregate loss weight (no finite optimum), or the
    optimal social loss is not positive (the ratio is meaningless)."""


@dataclass(frozen=True)
class WelfareReport:
    """Optimal efforts and social losses at equilibrium and at the optimum.

    ``welfare_rows`` returns one for a stack of markets, with a leading row
    axis on every field.
    """

    efforts_opt: np.ndarray
    loss_eq: float
    loss_opt: float
    poa: float


def _social_loss(efforts: np.ndarray, weights: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Row-wise total expected loss plus total effort."""
    return (weights * np.exp(-2.0 * alphas * efforts)).sum(axis=-1) + efforts.sum(axis=-1)


def welfare_rows(efforts: np.ndarray, xi: np.ndarray, gamma: np.ndarray, alphas: np.ndarray,
                 etas: np.ndarray) -> tuple:
    """Equilibrium against optimal welfare for a stack of solved markets.

    Every argument carries a leading row axis: equilibrium efforts (R, N),
    the rows' xi (R, M, N, N) and gamma (R, M, N), alphas (R, N) and buyer
    etas (R, M).  Returns a WelfareReport whose fields carry that axis, and
    per row the error ``price_of_anarchy`` raises on it, or None.
    """
    weights = gamma.sum(axis=-2)
    # The separable, convex loss is least where 2*alpha*G*exp(-2*alpha*e) = 1:
    # the effort a source would settle at under total slope G.  A source
    # with G = 0 gives log(0); its row is reported below, not used.
    efforts_opt = source_response(weights, alphas)[0]
    # rows that fail a check below may hold inf or NaN; no warning for them
    with np.errstate(all="ignore"):
        loss_eq = _social_loss(efforts, weights, alphas)
        loss_opt = _social_loss(efforts_opt, weights, alphas)
        gap = efforts - efforts_opt
        below = ~(gap.min(axis=-1) > -1e-9 * (1.0 + np.abs(efforts_opt).max(axis=-1)))
        poa = loss_eq / loss_opt
        floor = _apply_op(xi, gamma).sum(axis=-2)

    coupled = (floor > 1e-9 * weights).any(axis=-1)
    no_oversupply = coupled & ~(gap.max(axis=-1) > 0.0)

    off_one, positive = etas != 1.0, weights > 0.0
    errors = [None] * len(etas)
    for r in range(len(errors)):
        if off_one[r].any():
            j = int(np.argmax(off_one[r]))
            errors[r] = UndefinedPoaError(
                f"buyer {j} has eta {float(etas[r, j])}; welfare accounting requires eta == 1")
        elif not positive[r].all():
            errors[r] = UndefinedPoaError(
                f"source {int(np.argmin(positive[r]))} has zero aggregate loss weight; "
                "the social loss has no finite minimizer")
        elif not loss_opt[r] > 0.0:
            errors[r] = UndefinedPoaError(f"optimal social loss {loss_opt[r]:.6g} is not positive")
        elif below[r]:
            errors[r] = NumericFailure("equilibrium efforts fell below the social optimum")
        elif no_oversupply[r]:
            errors[r] = NumericFailure("coupled market failed to over-incentivize effort")
    report = WelfareReport(efforts_opt=efforts_opt, loss_eq=loss_eq, loss_opt=loss_opt, poa=poa)
    return report, errors


def price_of_anarchy(sol: EquilibriumSolution, w: SeparableWeights,
                     m: MarketInstance) -> WelfareReport:
    """Compare equilibrium welfare against the social optimum: row 0 of
    ``welfare_rows`` on the one market.

    Equilibrium slopes weakly exceed the adjusted loss weights, so effort is
    weakly over-supplied everywhere.  As A >= 0, ``d = A d + gamma >= gamma
    + A gamma``, so source q's total slope is at least its aggregate
    adjusted weight G[q] plus ``floor[q] = sum_k (A gamma)[k, q]``; where
    some floor[q] exceeds 1e-9 * G[q], the over-supply is strict beyond
    rounding and the ratio exceeds one.  Both facts are checked rather than
    trusted: a breach raises NumericFailure.
    """
    efforts, alphas, etas = (np.array([v], dtype=float) for v in (sol.efforts, m.alphas(), m.etas()))
    return _first_row(*welfare_rows(efforts, w.xi[None], w.gamma[None], alphas, etas))
