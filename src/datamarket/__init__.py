"""Equilibrium and welfare analysis for data markets with quadratic contracts.

Buyers post per-source contracts (a flat payment minus a slope times the
squared prediction error against the other sources' fit), sources respond
with effort, and the induced game between buyers has a Leontief-type linear
structure.  This package reduces a market to its separable weights, decides
whether an equilibrium exists, solves it, compares it to the social optimum
and certifies the result with independent oracles.
"""

from . import equilibrium, estimators, market, oracle, welfare
from .market import *  # noqa: F403
from .estimators import *  # noqa: F403
from .equilibrium import *  # noqa: F403
from .welfare import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*market.__all__, *estimators.__all__, *equilibrium.__all__, *welfare.__all__,
           *oracle.__all__]
