"""Equilibrium slopes and feasible flat payments.

Buyer best responses give each (source, buyer) slope as its adjusted loss
weight plus a xi-weighted combination of every other buyer's slopes on the
other sources.  Stacking those conditions yields a Leontief-type linear
system ``d = A d + gamma`` whose nonnegative solution exists exactly when
the spectral radius of A stays below one.  Flat payments are pinned down
only up to a polytope; ``canonical_c`` picks one natural point of it.
"""

from __future__ import annotations

import math
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
    "solve_rows",
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
    """Assemble the stacked coupling matrix from the leave-one-out tensor.

    ``A[(q, k), (l, j)] = xi[j, l, q]`` for ``l != q`` and ``j != k``.  It is
    filled in place as one C-ordered (source, buyer, source, buyer) array, so
    the final reshape is a view and the output is the only large allocation.
    Leading axes of ``xi`` (one tensor per market) carry over to A.
    """
    *lead, n_buyers, n_sources, _ = xi.shape
    A = np.zeros((*lead, n_sources, n_buyers, n_sources, n_buyers))
    other_buyer = ~np.eye(n_buyers, dtype=bool)
    np.copyto(A, np.swapaxes(xi, -1, -3)[..., :, None, :, :],
              where=other_buyer[None, :, None, :])
    own = np.arange(n_sources)
    A[..., own, :, own, :] = 0.0
    return A.reshape(*lead, n_sources * n_buyers, n_sources * n_buyers)


def spectral_radius(a: np.ndarray):
    """Spectral radius of a nonnegative square matrix, from its dense eigenvalues.

    Leading axes hold a stack of matrices; the result is then one radius
    per matrix instead of a float.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        rho = np.zeros(a.shape[:-2])
    else:
        if not np.isfinite(a).all():
            raise ValueError("spectral_radius expects a finite matrix")
        if a.min() < 0.0:
            raise ValueError("spectral_radius expects a nonnegative matrix")
        rho = np.abs(np.linalg.eigvals(a)).max(axis=-1)
    return float(rho) if a.ndim == 2 else rho


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
    ``solve_rows`` returns one for a stack of systems, with a leading row
    axis on every field.
    """

    d: np.ndarray
    d_total: np.ndarray
    efforts: np.ndarray
    variances: np.ndarray
    residual: float
    c_polytope: CPolytope | None = None
    c_canonical: np.ndarray | None = None


def _induced_quantities(d: np.ndarray, alphas: np.ndarray) -> tuple:
    """Total slopes, efforts and variances of stacked slopes ``d[r, j, i]``.

    Returns them with a list holding, per row, the ValueError that makes the
    row's efforts undefined, or None.
    """
    # a vanishing eta can push the total to inf; the check below reports it
    with np.errstate(over="ignore"):
        d_total = d.sum(axis=-2)
    efforts = np.full(d_total.shape, np.nan)
    variances = np.full(d_total.shape, np.nan)
    errors = [None] * len(d_total)
    for r, (totals, rates) in enumerate(zip(d_total.tolist(), alphas.tolist())):
        try:
            for i, t in enumerate(totals):
                if not 0.0 < t < math.inf:
                    raise ValueError(f"source {i} attracts total slope {t:.6g}; its effort is undefined")
            efforts[r] = [effort_from_d_total(t, a) for t, a in zip(totals, rates)]
            variances[r] = [variance_from_d_total(t, a) for t, a in zip(totals, rates)]
        except ValueError as err:
            errors[r] = err
    return d_total, efforts, variances, errors


def solve_rows(A: np.ndarray, gamma: np.ndarray, alphas: np.ndarray) -> tuple:
    """Solve a stack of systems ``d = A d + gamma`` and validate each row.

    ``A`` is (R, NM, NM) as ``coupling_matrix`` stacks it, ``gamma`` (R, M, N)
    buyer-major and ``alphas`` (R, N); every row must already have passed the
    existence gate.  Returns an EquilibriumSolution whose fields carry the
    leading row axis, and per row the NumericFailure or ValueError that
    ``solve_equilibrium_d`` raises on it, or None.
    """
    n_rows, n_buyers, n_sources = gamma.shape
    n = n_sources * n_buyers
    gamma_vec = np.swapaxes(gamma, -1, -2).reshape(n_rows, n)
    # I - A built in place: the stack's only matrix-sized temporary
    eye_minus_a = np.zeros_like(A)
    eye_minus_a[..., np.arange(n), np.arange(n)] = 1.0
    np.subtract(eye_minus_a, A, out=eye_minus_a)
    dvec = np.linalg.solve(eye_minus_a, gamma_vec[..., None])[..., 0]

    scale = 1.0 + np.abs(dvec).max(axis=-1, initial=0.0)
    residual = np.abs(dvec - (A @ dvec[..., None])[..., 0] - gamma_vec).max(axis=-1) / scale
    lowest = dvec.min(axis=-1, initial=0.0)
    errors = [None] * n_rows
    for r in np.flatnonzero((residual > _RESIDUAL_HARD_LIMIT) | (lowest < -1e-12 * scale)):
        if residual[r] > _RESIDUAL_HARD_LIMIT:
            errors[r] = NumericFailure(
                f"fixed-point residual {residual[r]:.3g} exceeds {_RESIDUAL_HARD_LIMIT:g}")
        else:
            errors[r] = NumericFailure(f"negative slope {lowest[r]:.3g} in the solved system")
    dvec = np.maximum(dvec, 0.0)

    # source-major stacking: (R, N, M) viewed buyer-major as (R, M, N)
    d = dvec.reshape(n_rows, n_sources, n_buyers).swapaxes(-1, -2)
    d_total, efforts, variances, induced_errors = _induced_quantities(d, alphas)
    sol = EquilibriumSolution(d=d, d_total=d_total, efforts=efforts,
                              variances=variances, residual=residual)
    return sol, [e or i for e, i in zip(errors, induced_errors)]


def solve_equilibrium_d(system: CouplingSystem) -> EquilibriumSolution:
    """Solve the stacked system directly and validate the result.

    Raises NoEquilibriumError when the spectral radius certifies the system
    has no nonnegative solution, and NumericFailure when the linear algebra
    disagrees with the model beyond hard limits.
    """
    if system.rho >= RHO_EXISTENCE_THRESHOLD:
        raise NoEquilibriumError(system.rho)
    gamma = system.unstack(system.gamma_vec)
    sol, errors = solve_rows(system.A[None], gamma[None], system.alphas[None])
    if errors[0] is not None:
        raise errors[0]
    return EquilibriumSolution(d=sol.d[0], d_total=sol.d_total[0], efforts=sol.efforts[0],
                               variances=sol.variances[0], residual=float(sol.residual[0]))


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
                    system: CouplingSystem) -> EquilibriumSolution:
    """Rebuild all induced quantities for an arbitrary slope matrix.

    Meant for diagnostics (perturbation studies, dynamics output); no
    best-response property is assumed, but payments still follow the tight
    participation rule, so an infeasible d raises InfeasibleCError.  The
    residual is d's distance from the fixed point of ``system``.
    """
    d = np.asarray(d, dtype=float)
    alphas = np.asarray(m.alphas(), dtype=float)
    d_total, efforts, variances, errors = _induced_quantities(d[None], alphas[None])
    if errors[0] is not None:
        raise errors[0]
    dvec = system.stack(d)
    scale = 1.0 + float(np.abs(dvec).max(initial=0.0))
    residual = float(np.abs(dvec - system.A @ dvec - system.gamma_vec).max()) / scale
    sol = EquilibriumSolution(d=d, d_total=d_total[0], efforts=efforts[0],
                              variances=variances[0], residual=residual)
    return complete_solution(sol, w, m)
