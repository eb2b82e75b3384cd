"""Social loss, socially optimal efforts and the price of anarchy.

The social planner adds up every buyer's expected estimation loss and every
source's effort cost.  That accounting only makes sense when payments are
denominated in loss units for all buyers (eta identically one), which these
functions enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketInstance
from .estimators import SeparableWeights
from .equilibrium import EquilibriumSolution, NumericFailure

__all__ = [
    "EtaNotOneError",
    "DegenerateSourceError",
    "UndefinedPoaError",
    "WelfareReport",
    "social_loss",
    "social_optimum_efforts",
    "price_of_anarchy",
]


class EtaNotOneError(Exception):
    """Welfare accounting needs every buyer's payment conversion eta == 1."""


class DegenerateSourceError(Exception):
    """Some source carries zero aggregate loss weight; no finite optimum."""


class UndefinedPoaError(Exception):
    """The optimal social loss is not positive, so the ratio is meaningless."""


@dataclass(frozen=True)
class WelfareReport:
    efforts_eq: np.ndarray
    efforts_opt: np.ndarray
    loss_eq: float
    loss_opt: float
    poa: float


def _require_unit_eta(m: MarketInstance):
    for j, b in enumerate(m.buyers):
        if b.eta != 1.0:
            raise EtaNotOneError(f"buyer {j} has eta {b.eta}; welfare accounting requires eta == 1")


def social_loss(efforts, w: SeparableWeights, m: MarketInstance) -> float:
    """Total expected estimation loss plus total effort at the given profile."""
    _require_unit_eta(m)
    e = np.asarray(efforts, dtype=float)
    weights = w.gamma.sum(axis=0)
    alphas = np.asarray(m.alphas(), dtype=float)
    return float(np.sum(weights * np.exp(-2.0 * alphas * e)) + e.sum())


def social_optimum_efforts(w: SeparableWeights, m: MarketInstance) -> np.ndarray:
    """Effort profile minimizing the social loss, in closed form.

    Separable and strictly convex per coordinate, so the first-order
    condition ``2 * alpha * G * exp(-2*alpha*e) = 1`` pins each effort at
    ``log(2 * alpha * G) / (2 * alpha)``, with G the source's aggregate
    loss weight.
    """
    weights = w.gamma.sum(axis=0)
    alphas = np.asarray(m.alphas(), dtype=float)
    for i, g in enumerate(weights):
        if not g > 0.0:
            raise DegenerateSourceError(
                f"source {i} has zero aggregate loss weight; the social loss has no finite minimizer"
            )
    return np.log(2.0 * alphas * weights) / (2.0 * alphas)


def price_of_anarchy(sol: EquilibriumSolution, w: SeparableWeights,
                     m: MarketInstance) -> WelfareReport:
    """Compare equilibrium welfare against the social optimum.

    Equilibrium slopes weakly exceed the adjusted loss weights, so effort is
    weakly over-supplied everywhere; when at least two buyers are coupled
    through some positive leave-one-out weight and every adjusted weight is
    positive, the over-supply is strict somewhere and the ratio exceeds one.
    Both facts are checked rather than trusted: a breach raises
    NumericFailure.
    """
    _require_unit_eta(m)
    efforts_opt = social_optimum_efforts(w, m)
    loss_eq = social_loss(sol.efforts, w, m)
    loss_opt = social_loss(efforts_opt, w, m)
    if not loss_opt > 0.0:
        raise UndefinedPoaError(f"optimal social loss {loss_opt:.6g} is not positive")

    gap = sol.efforts - efforts_opt
    slack = 1e-9 * (1.0 + float(np.abs(efforts_opt).max()))
    if not gap.min() > -slack:
        raise NumericFailure("equilibrium efforts fell below the social optimum")

    n = m.n_sources
    off_diag = w.xi.copy()
    off_diag[:, np.arange(n), np.arange(n)] = 0.0
    coupled = m.n_buyers >= 2 and bool((off_diag > 0.0).any()) and bool((w.gamma > 0.0).all())
    if coupled and not gap.max() > 0.0:
        raise NumericFailure("coupled market failed to over-incentivize effort")

    return WelfareReport(
        efforts_eq=np.array(sol.efforts, dtype=float),
        efforts_opt=efforts_opt,
        loss_eq=loss_eq,
        loss_opt=loss_opt,
        poa=loss_eq / loss_opt,
    )
