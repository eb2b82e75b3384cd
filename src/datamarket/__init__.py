"""Equilibrium and welfare analysis for data markets with quadratic contracts.

Buyers post per-source contracts (a flat payment minus a slope times the
squared prediction error against the other sources' fit), sources respond
with effort, and the induced game between buyers has a Leontief-type linear
structure.  This package reduces a market to its separable weights, decides
whether an equilibrium exists, solves it, compares it to the social optimum
and certifies the result with independent oracles.
"""

from .market import (
    DataSource,
    ValueDistribution,
    EstimatorSpec,
    DataBuyer,
    MarketInstance,
    Violation,
    validate_market,
    source_response,
)
from .estimators import (
    SingularDesignError,
    GammaNegativeError,
    SeparableWeights,
    compute_weights,
    weight_rows,
)
from .equilibrium import (
    RHO_EXISTENCE_THRESHOLD,
    NoEquilibriumError,
    NumericFailure,
    InfeasibleCError,
    CPolytope,
    EquilibriumSolution,
    spectral_radius,
    coupling_matrix,
    coupling_radius,
    solve_equilibrium_d,
    solve_rows,
    c_polytope,
    canonical_c,
    complete_solution,
    solution_from_d,
)
from .welfare import (
    EtaNotOneError,
    DegenerateSourceError,
    UndefinedPoaError,
    WelfareReport,
    price_of_anarchy,
    welfare_rows,
)
from .oracle import (
    BestResponseReport,
    NeumannResult,
    PaymentCheck,
    best_response_check,
    neumann_dynamics,
    monte_carlo_payments,
)

__version__ = "0.1.0"

__all__ = [
    "DataSource", "ValueDistribution", "EstimatorSpec", "DataBuyer",
    "MarketInstance", "Violation", "validate_market",
    "source_response",
    "SingularDesignError", "GammaNegativeError", "SeparableWeights",
    "compute_weights", "weight_rows",
    "RHO_EXISTENCE_THRESHOLD", "NoEquilibriumError", "NumericFailure",
    "InfeasibleCError", "CPolytope", "EquilibriumSolution",
    "spectral_radius", "coupling_matrix", "coupling_radius",
    "solve_equilibrium_d", "solve_rows", "c_polytope", "canonical_c", "complete_solution",
    "solution_from_d",
    "EtaNotOneError", "DegenerateSourceError", "UndefinedPoaError",
    "WelfareReport", "price_of_anarchy", "welfare_rows",
    "BestResponseReport", "NeumannResult", "PaymentCheck",
    "best_response_check", "neumann_dynamics",
    "monte_carlo_payments",
]
