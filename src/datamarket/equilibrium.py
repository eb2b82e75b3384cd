"""Equilibrium slopes and feasible flat payments.

Buyer best responses give each (source, buyer) slope as its adjusted loss
weight plus a xi-weighted combination of every other buyer's slopes on the
other sources.  Stacking those conditions yields a Leontief-type linear
system ``d = A d + gamma`` whose nonnegative solution exists exactly when
the spectral radius of A stays below one.  Flat payments are pinned down
only up to a polytope; ``canonical_c`` picks one natural point of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .market import MarketInstance, effort_from_d_total, variance_from_d_total
from .estimators import SeparableWeights

__all__ = [
    "RHO_EXISTENCE_THRESHOLD",
    "NoEquilibriumError",
    "NumericFailure",
    "InfeasibleCError",
    "CouplingSystem",
    "CPolytope",
    "EquilibriumSolution",
    "spectral_radius",
    "coupling_matrix",
    "build_coupling_system",
    "solve_equilibrium_d",
    "c_polytope",
    "canonical_c",
    "complete_solution",
    "solution_from_d",
]

RHO_EXISTENCE_THRESHOLD = 1.0 - 1e-9
_RESIDUAL_HARD_LIMIT = 1e-8


class NoEquilibriumError(Exception):
    """Coupling too strong: no nonnegative fixed point of d = A d + gamma."""

    def __init__(self, rho: float):
        super().__init__(f"no equilibrium: spectral radius {rho:.12g} >= 1 - 1e-9")
        self.rho = rho


class NumericFailure(Exception):
    """The linear solve produced values inconsistent with the model."""


class InfeasibleCError(Exception):
    """Empty payment polytope: some source's required compensation is negative."""

    def __init__(self, source: int, slack: float):
        super().__init__(
            f"payment polytope of source {source} is empty "
            f"(participation slack {slack:.6g} < 0)"
        )
        self.source = source
        self.slack = slack


# ---------------------------------------------------------------------------
# stacked system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingSystem:
    """Stacked best-response system ``d = A d + gamma_vec``.

    The stacked index of (source q, buyer k) is ``q * M + k``: source-major,
    buyers contiguous within each source block.  Row (q, k) of A carries
    ``xi[j, l, q]`` at column (l, j) whenever ``l != q`` and ``j != k``.
    alphas travel with the system so a solution can be interpreted without
    the original market at hand.
    """

    A: np.ndarray
    gamma_vec: np.ndarray
    rho: float
    n_sources: int
    n_buyers: int
    alphas: np.ndarray

    def __post_init__(self):
        for a in (self.A, self.gamma_vec, self.alphas):
            a.setflags(write=False)

    def stacked_index(self, source: int, buyer: int) -> int:
        return source * self.n_buyers + buyer

    def stack(self, per_buyer: np.ndarray) -> np.ndarray:
        """(M, N) buyer-major array -> stacked length-MN vector."""
        return np.asarray(per_buyer, dtype=float).T.reshape(-1)

    def unstack(self, vec: np.ndarray) -> np.ndarray:
        """Stacked length-MN vector -> (M, N) buyer-major array."""
        return np.asarray(vec, dtype=float).reshape(self.n_sources, self.n_buyers).T


def coupling_matrix(xi: np.ndarray) -> np.ndarray:
    """Assemble the stacked coupling matrix from the leave-one-out tensor."""
    n_buyers, n_sources, _ = xi.shape
    A = np.zeros((n_sources * n_buyers, n_sources * n_buyers))
    for q in range(n_sources):
        for k in range(n_buyers):
            row = q * n_buyers + k
            for l in range(n_sources):
                if l == q:
                    continue
                for j in range(n_buyers):
                    if j == k:
                        continue
                    A[row, l * n_buyers + j] = xi[j, l, q]
    return A


def spectral_radius(a: np.ndarray, max_iters: int = 20000, tol: float = 1e-13) -> float:
    """Spectral radius of a nonnegative square matrix, deterministically.

    Power iteration with a fixed all-ones start would cycle on matrices with
    periodic block structure (the stacked coupling matrix of a two-buyer
    market is exactly that), so the iteration runs on ``a + I``: the shift
    breaks the periodicity and moves the dominant eigenvalue to
    ``1 + rho(a)`` without changing eigenvectors.  Convergence is declared
    on the eigen-residual; if the cap is hit, the last Rayleigh quotient is
    returned.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    if a.min() < 0.0:
        raise ValueError("spectral_radius expects a nonnegative matrix")
    if not a.any():
        return 0.0

    n = a.shape[0]
    shifted = a + np.eye(n)
    x = np.ones(n) / np.sqrt(n)
    y = shifted @ x
    lam = 1.0
    for _ in range(max_iters):
        norm_y = float(np.linalg.norm(y))
        x = y / norm_y
        y = shifted @ x
        lam = float(x @ y)
        if float(np.abs(y - lam * x).max()) <= tol * max(1.0, lam):
            break
    return max(lam - 1.0, 0.0)


def build_coupling_system(w: SeparableWeights, m: MarketInstance) -> CouplingSystem:
    """Stack the market's best-response conditions into one linear system."""
    A = coupling_matrix(w.xi)
    return CouplingSystem(
        A=A,
        gamma_vec=w.gamma.T.reshape(-1).copy(),
        rho=spectral_radius(A),
        n_sources=m.n_sources,
        n_buyers=m.n_buyers,
        alphas=np.asarray(m.alphas(), dtype=float),
    )


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPolytope:
    """Feasible flat payments: ``sum_j c[j, i] == E[i]`` and ``c[k, i] >= L[k, i]``.

    ``slack[i] = E[i] - sum_k L[k, i]`` equals the source's equilibrium
    effort, so feasibility is exactly nonnegative effort.
    """

    E: np.ndarray
    L: np.ndarray
    slack: np.ndarray

    def __post_init__(self):
        for a in (self.E, self.L, self.slack):
            a.setflags(write=False)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium slopes and everything they induce.

    d is (M, N) buyer-major; d_total, efforts and variances are per source.
    The payment fields are filled by ``complete_solution`` (or
    ``solution_from_d``) and stay None straight out of the linear solve.
    """

    d: np.ndarray
    d_total: np.ndarray
    efforts: np.ndarray
    variances: np.ndarray
    residual: float
    c_polytope: CPolytope | None = None
    c_canonical: np.ndarray | None = None


def _induced_quantities(d: np.ndarray, alphas: np.ndarray):
    d_total = d.sum(axis=0)
    for i, t in enumerate(d_total):
        if not t > 0.0:
            raise ValueError(f"source {i} attracts zero total slope; its effort is undefined")
    efforts = np.array([effort_from_d_total(t, a) for t, a in zip(d_total, alphas)])
    variances = np.array([variance_from_d_total(t, a) for t, a in zip(d_total, alphas)])
    return d_total, efforts, variances


def solve_equilibrium_d(system: CouplingSystem) -> EquilibriumSolution:
    """Solve the stacked system directly and validate the result.

    Raises NoEquilibriumError when the spectral radius certifies the system
    has no nonnegative solution, and NumericFailure when the linear algebra
    disagrees with the model beyond hard limits.
    """
    if system.rho >= RHO_EXISTENCE_THRESHOLD:
        raise NoEquilibriumError(system.rho)
    n = system.A.shape[0]
    dvec = np.linalg.solve(np.eye(n) - system.A, system.gamma_vec)

    scale = 1.0 + float(np.abs(dvec).max(initial=0.0))
    residual = float(np.abs(dvec - system.A @ dvec - system.gamma_vec).max()) / scale
    if residual > _RESIDUAL_HARD_LIMIT:
        raise NumericFailure(f"fixed-point residual {residual:.3g} exceeds {_RESIDUAL_HARD_LIMIT:g}")
    if dvec.min(initial=0.0) < -1e-12 * scale:
        raise NumericFailure(f"negative slope {dvec.min():.3g} in the solved system")
    dvec = np.maximum(dvec, 0.0)

    d = system.unstack(dvec)
    d_total, efforts, variances = _induced_quantities(d, system.alphas)
    return EquilibriumSolution(d=d, d_total=d_total, efforts=efforts,
                               variances=variances, residual=residual)


def c_polytope(sol: EquilibriumSolution, w: SeparableWeights, m: MarketInstance) -> CPolytope:
    """Participation and acceptability bounds on the flat payments.

    E[i] is the total payment source i must receive so that participating
    and exerting the equilibrium effort breaks even; L[k, i] is the least
    flat payment making buyer k's contract worth accepting on its own.
    Raises InfeasibleCError when the bounds cross (negative effort).
    """
    expected_penalty = sol.d * np.einsum("jil,l->ji", w.xi, sol.variances)
    E = expected_penalty.sum(axis=0) + sol.efforts
    L = expected_penalty
    slack = E - L.sum(axis=0)
    worst = int(np.argmin(slack))
    if slack[worst] < -1e-12:
        raise InfeasibleCError(worst, float(slack[worst]))
    return CPolytope(E=E, L=L, slack=slack)


def canonical_c(polytope: CPolytope, d: np.ndarray) -> np.ndarray:
    """One natural point of the payment polytope.

    Splits each source's participation slack across buyers in proportion to
    their slopes, so every contract sits weakly above its acceptability
    floor and the totals match E exactly.
    """
    d_total = d.sum(axis=0)
    share = d / d_total[None, :]
    return polytope.L + share * polytope.slack[None, :]


def complete_solution(sol: EquilibriumSolution, w: SeparableWeights,
                      m: MarketInstance) -> EquilibriumSolution:
    """Attach the payment polytope and the canonical flat payments."""
    poly = c_polytope(sol, w, m)
    c = canonical_c(poly, sol.d)
    return replace(sol, c_polytope=poly, c_canonical=c)


def solution_from_d(d: np.ndarray, w: SeparableWeights, m: MarketInstance,
                    system: CouplingSystem | None = None) -> EquilibriumSolution:
    """Rebuild all induced quantities for an arbitrary slope matrix.

    Meant for diagnostics (perturbation studies, dynamics output); no
    best-response property is assumed, but payments still follow the tight
    participation rule, so an infeasible d raises InfeasibleCError.
    """
    d = np.asarray(d, dtype=float)
    alphas = np.asarray(m.alphas(), dtype=float)
    d_total, efforts, variances = _induced_quantities(d, alphas)
    if system is not None:
        dvec = system.stack(d)
        scale = 1.0 + float(np.abs(dvec).max(initial=0.0))
        residual = float(np.abs(dvec - system.A @ dvec - system.gamma_vec).max()) / scale
    else:
        residual = float("nan")
    sol = EquilibriumSolution(d=d, d_total=d_total, efforts=efforts,
                              variances=variances, residual=residual)
    return complete_solution(sol, w, m)
