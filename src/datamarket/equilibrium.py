"""Equilibrium slopes and feasible flat payments.

Buyer best responses give each (source, buyer) slope as its adjusted loss
weight plus a xi-weighted combination of every other buyer's slopes on the
other sources.  Stacking those conditions yields a Leontief-type linear
system ``d = A d + gamma`` whose nonnegative solution exists exactly when
the spectral radius of A stays below one.  A is never built: buyers that
share a xi block form a group, the group means of the slopes solve through
the (N*G)-wide, group-major ``R = coupling_matrix(xi)``, whose radius is
A's, and the deviations from them through the N-wide ``I + X_g``, at
O((N*G)^3 + G*N^3) instead of O((N*M)^3) (README, "Equilibrium slopes").
Flat payments are pinned down only up to a polytope, which
``complete_solution`` builds along with one natural point of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .market import MarketInstance, source_response
from .estimators import SeparableWeights

__all__ = [
    "RHO_EXISTENCE_THRESHOLD",
    "NoEquilibriumError",
    "NumericFailure",
    "InfeasibleCError",
    "CPolytope",
    "EquilibriumSolution",
    "spectral_radius",
    "coupling_matrix",
    "solve_equilibrium_d",
    "solve_rows",
    "complete_solution",
    "solution_from_d",
]

RHO_EXISTENCE_THRESHOLD = 1.0 - 1e-9
_RESIDUAL_HARD_LIMIT = 1e-8

# Matrices this wide and wider get their radius from Noda's iteration: at
# this size it first beats dense eigvals on market coupling matrices
# (measured crossover in CHANGES.md).
_NODA_MIN_SIZE = 40
# Noda's bracket closes in 5-11 solves on market coupling matrices; a matrix
# that needs more falls back to eigvals.
_NODA_MAX_STEPS = 20
# Bracket widths, relative to its top: closed at rounding level, and narrow
# enough to answer when rounding stops it from shrinking.
_NODA_CLOSED = 4e-15
_NODA_STALLED = 1e-13


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
            f"payment polytope of source {source} is empty (participation slack {slack:.6g} < 0)"
            if np.isfinite(slack) else
            f"payment polytope of source {source} is undefined (participation slack {slack:.6g})"
        )
        self.source = source
        self.slack = slack


# ---------------------------------------------------------------------------
# stacked system
# ---------------------------------------------------------------------------

def _buyer_groups(xi: np.ndarray) -> tuple:
    """The buyers of each group, in the order of their first buyer, and each
    buyer's group: buyers whose xi blocks are equal across the leading stack
    share a group.

    One dict pass over the blocks' bytes (np.unique(axis=0) would build an
    N*N-field dtype).  An empty stack groups nothing: each buyer is its own
    group.
    """
    keys: dict = {}
    group = [keys.setdefault(xi[..., k, :, :].tobytes() if xi.size else k, len(keys))
             for k in range(xi.shape[-3])]
    return [[k for k, g in enumerate(group) if g == h] for h in range(len(keys))], np.array(group, dtype=int)


def coupling_matrix(xi: np.ndarray) -> np.ndarray:
    """The grouped coupling matrix R of the leave-one-out tensor.

    Group g (``_buyer_groups``) has n_g buyers sharing the block xi_g.  R is
    (N*G)-wide, group-major: the index of (group g, source q) is
    ``g * N + q``, and ``R[(g, q), (h, l)] = (n_h - [g == h]) * xi_h[l, q]``
    for ``l != q``.  It is A acting on slopes that are constant within each
    group, so ``rho(R) = rho(A)`` (README, "Equilibrium slopes"); when no
    two buyers share a block it is A itself, buyer-major like d,
    ``A[(k, q), (j, l)] = xi[j, l, q]`` for ``l != q`` and ``j != k``.  The
    output is the only large allocation, and leading axes of ``xi`` (one
    tensor per market) carry over to R.
    """
    *lead, n_buyers, n_sources, _ = xi.shape
    members = _buyer_groups(xi)[0]
    first = [k[0] for k in members]
    weight = np.array([len(k) for k in members]) - np.eye(len(first))  # n_h - [g == h]
    X = np.swapaxes(np.swapaxes(xi[..., first, :, :], -1, -2), -3, -2)  # X[..., q, h, l] = xi_h[l, q]
    with np.errstate(invalid="ignore", over="ignore"):  # spectral_radius rejects non-finite R
        R = np.multiply(weight[:, None, :, None], X[..., None, :, :, :], order="C")
    R[..., range(n_sources), :, range(n_sources)] = 0.0
    n = n_sources * len(first)
    return R.reshape(*lead, n, n)


def _noda_radius(a: np.ndarray) -> float:
    """Perron root of one nonnegative matrix by Noda's iteration, or NaN.

    For positive x, ``min (a x)/x <= rho <= max (a x)/x`` (Collatz-Wielandt);
    ``lo`` and ``hi`` keep the tightest such bounds seen.  Each step solves
    ``(hi*I - a) y = x`` and sets ``x = y / max y``.  The midpoint is
    returned once the bracket closes, or once it stops shrinking while
    narrow.  NaN means no answer: an iterate that is not strictly positive
    (a reducible a), ``hi <= 0``, a singular shifted matrix, a bracket that
    stalls wide, or the step cap.
    """
    n = len(a)
    shifted = np.negative(a)
    diagonal = shifted.diagonal().copy()
    x = np.ones(n)
    lo, hi = 0.0, np.inf
    with np.errstate(all="ignore"):  # a non-finite iterate ends in NaN below
        for _ in range(_NODA_MAX_STEPS):
            ratio = (a @ x) / x
            new_lo, new_hi = max(lo, ratio.min()), min(hi, ratio.max())
            if not 0.0 < new_hi < np.inf:
                return np.nan
            width = new_hi - new_lo
            if width <= _NODA_CLOSED * new_hi or (new_lo == lo and new_hi == hi):
                return 0.5 * (new_lo + new_hi) if width <= _NODA_STALLED * new_hi else np.nan
            lo, hi = new_lo, new_hi
            shifted.flat[::n + 1] = diagonal + hi
            try:
                y = np.linalg.solve(shifted, x)
            except np.linalg.LinAlgError:
                return np.nan
            x = y / y.max()
            if not x.min() > 0.0:  # NaN fails too
                return np.nan
    return np.nan


def spectral_radius(a: np.ndarray):
    """Spectral radius of a nonnegative square matrix.

    Matrices at least ``_NODA_MIN_SIZE`` wide take Noda's iteration, which
    brackets the Perron root between Collatz-Wielandt bounds in a few linear
    solves; a matrix it leaves without an answer, and every smaller one,
    takes the largest modulus of its dense eigenvalues.  Leading axes hold a
    stack of matrices; the result is then one radius per matrix instead of a
    float, each equal to the one-matrix call.
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
        n = a.shape[-1]
        if n < _NODA_MIN_SIZE:
            rho = np.abs(np.linalg.eigvals(a)).max(axis=-1)
        else:
            # one matrix at a time, so that a radius never depends on its stackmates
            mats = np.ascontiguousarray(a).reshape(-1, n, n)
            rho = np.array([_noda_radius(mat) for mat in mats])
            dense = np.isnan(rho)
            if dense.any():
                rho[dense] = np.abs(np.linalg.eigvals(mats[dense])).max(axis=-1)
            rho = rho.reshape(a.shape[:-2])
    return float(rho) if a.ndim == 2 else rho


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPolytope:
    """Feasible flat payments: ``sum_j c[j, i] == E[i]`` and ``c[k, i] >= L[k, i]``.

    Source i's slack ``E[i] - sum_k L[k, i]`` is its equilibrium effort, so
    feasibility is exactly nonnegative effort.  ``canonical`` is one natural
    point of the polytope: each source's slack split across buyers in
    proportion to their slopes, so the totals match E and, when every slope
    is nonnegative, every contract sits weakly above its floor.
    """

    E: np.ndarray
    L: np.ndarray
    canonical: np.ndarray

    def __post_init__(self):
        for a in (self.E, self.L, self.canonical):
            a.setflags(write=False)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium slopes and everything they induce.

    d is (M, N) buyer-major; d_total, efforts and variances are per source.
    ``solve_rows`` sets rho, the coupling's spectral radius, and returns one
    for a stack of systems, with a leading row axis on every field;
    ``solution_from_d`` leaves rho None.  The payment polytope is attached
    by ``complete_solution`` (or ``solution_from_d``).
    """

    d: np.ndarray
    d_total: np.ndarray
    efforts: np.ndarray
    variances: np.ndarray
    residual: float
    rho: float | None = None
    c_polytope: CPolytope | None = None


def _induced_quantities(d: np.ndarray, alphas: np.ndarray) -> tuple:
    """Total slopes, efforts and variances of stacked slopes ``d[r, j, i]``.

    Returns them with a list holding, per row, the ValueError that makes the
    row's efforts undefined, or None.
    """
    # a vanishing eta can push the total to inf; the check below reports it
    with np.errstate(over="ignore"):
        d_total = d.sum(axis=-2)
    efforts, variances, ok = source_response(d_total, alphas)
    errors = [None] * len(d_total)
    for r in np.flatnonzero(~ok.all(axis=-1)):
        i = int(np.argmin(ok[r]))
        t, a = d_total[r, i], alphas[r, i]
        if not 0.0 < t < np.inf:
            errors[r] = ValueError(f"source {i} attracts total slope {t:.6g}; its effort is undefined")
        else:
            errors[r] = ValueError(f"source {i} has alpha {a:.6g} at total slope {t:.6g}; its effort overflows")
    return d_total, efforts, variances, errors


def _apply_op(xi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A x`` for stacked x (..., M, N), applied from xi without building A:
    ``(A x)[k, q] = sum_{j != k, l != q} xi[j, l, q] * x[j, l]``, the
    best-response map being ``d = A d + gamma``.  Leading axes broadcast."""
    n_buyers, n_sources = xi.shape[-3:-1]
    # pull[j, q]: buyer j's x on the sources other than q, weighted by xi[j, :, q]
    pull = np.einsum("...jlq,...jl->...jq", np.where(np.eye(n_sources, dtype=bool), 0.0, xi), x)
    # summed over the other buyers alone: a total less the own term can overflow
    return np.where(np.eye(n_buyers, dtype=bool)[:, :, None], 0.0, pull[..., None, :, :]).sum(axis=-2)


def solve_rows(xi: np.ndarray, gamma: np.ndarray, alphas: np.ndarray) -> tuple:
    """Gate and solve a stack of systems ``d = A d + gamma`` without building A, and validate each row.

    ``xi`` is (R, M, N, N), ``gamma`` (R, M, N) buyer-major and ``alphas``
    (R, N).  ``R = coupling_matrix(xi)`` is built once for the stack; a row
    whose radius is at or past ``RHO_EXISTENCE_THRESHOLD`` is not solved.
    The group means solve ``(I - R) m = mean(gamma)``, and each buyer's
    deviation from its group's mean solves ``(I + X_g) e = gamma - mean``,
    one stacked solve per group of two or more buyers, so with no shared
    blocks d is the dense solve's bit for bit.  The residual is the full
    system's, from xi.  Returns an EquilibriumSolution whose fields,
    rho among them, carry the leading row axis, and per row the error
    ``solve_equilibrium_d`` raises on it, or None: the first that applies
    of NoEquilibriumError, NumericFailure and ValueError.
    """
    n_rows, _, n_sources = gamma.shape
    members, group = _buyer_groups(xi)
    n_groups = len(members)
    n = n_sources * n_groups
    R = coupling_matrix(xi)
    rho = spectral_radius(R)
    # I - R, source-major (index q * G + g), built in place: the stack's only matrix-sized temporary
    eye_minus_r = np.zeros_like(R)
    eye_minus_r[..., np.arange(n), np.arange(n)] = 1.0
    by_source = eye_minus_r.reshape(n_rows, n_sources, n_groups, n_sources, n_groups)
    np.subtract(by_source, R.reshape(n_rows, n_groups, n_sources, n_groups, n_sources).transpose(0, 2, 1, 4, 3),
                out=by_source)
    # a row past the gate is not solved: its I - R, and its I + X_g below, are
    # the identity, so that no singular matrix reaches the stacked solves
    past = rho >= RHO_EXISTENCE_THRESHOLD
    eye_minus_r[past] = np.eye(n)
    # slopes that overflowed make the residual NaN, which fails the limit
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.swapaxes(gamma[:, [k[0] for k in members]], -1, -2)  # (R, N, G) source-major
        for g, k in enumerate(members):
            if len(k) > 1:  # each term divided first, so that a mean of finite gammas stays finite
                mean[..., g] = (gamma[:, k] / len(k)).sum(axis=1)
        means = np.linalg.solve(eye_minus_r, mean.reshape(n_rows, n, 1))[..., 0]
        d = means.reshape(n_rows, n_sources, n_groups)[..., group]  # (R, N, M) source-major
        for g, k in enumerate(members):
            if len(k) > 1:
                eye_plus_x = np.swapaxes(xi[:, k[0]], -1, -2).copy()
                eye_plus_x[past] = 0.0
                eye_plus_x[..., np.arange(n_sources), np.arange(n_sources)] = 1.0
                d[..., k] += np.linalg.solve(eye_plus_x, np.swapaxes(gamma[:, k], -1, -2) - mean[..., g, None])
        d = d.swapaxes(-1, -2)
        scale = 1.0 + np.abs(d).max(axis=(-2, -1), initial=0.0)
        residual = np.abs(d - _apply_op(xi, d) - gamma).max(axis=(-2, -1)) / scale
    lowest = d.min(axis=(-2, -1), initial=0.0)
    off_limit = ~(residual <= _RESIDUAL_HARD_LIMIT)
    errors = [None] * n_rows
    for r in np.flatnonzero(past | off_limit | (lowest < -1e-12 * scale)):
        if past[r]:
            errors[r] = NoEquilibriumError(float(rho[r]))
        elif off_limit[r]:
            errors[r] = NumericFailure(
                f"fixed-point residual {residual[r]:.3g} exceeds {_RESIDUAL_HARD_LIMIT:g}")
        else:
            errors[r] = NumericFailure(f"negative slope {lowest[r]:.3g} in the solved system")
    d = np.maximum(d, 0.0)

    d_total, efforts, variances, induced_errors = _induced_quantities(d, alphas)
    sol = EquilibriumSolution(d=d, d_total=d_total, efforts=efforts,
                              variances=variances, residual=residual, rho=rho)
    return sol, [e or i for e, i in zip(errors, induced_errors)]


def solve_equilibrium_d(w: SeparableWeights, m: MarketInstance) -> EquilibriumSolution:
    """Solve the market's stacked best-response system and validate the result.

    ``solve_rows`` on the one market: raises NoEquilibriumError when the
    spectral radius certifies the system has no nonnegative solution, and
    NumericFailure when the linear algebra disagrees with the model beyond
    hard limits.
    """
    alphas = np.asarray(m.alphas(), dtype=float)
    sol, errors = solve_rows(w.xi[None], w.gamma[None], alphas[None])
    if errors[0] is not None:
        raise errors[0]
    return EquilibriumSolution(d=sol.d[0], d_total=sol.d_total[0], efforts=sol.efforts[0],
                               variances=sol.variances[0], residual=float(sol.residual[0]),
                               rho=float(sol.rho[0]))


def complete_solution(sol: EquilibriumSolution, w: SeparableWeights) -> EquilibriumSolution:
    """Attach the payment polytope: participation and acceptability bounds
    on the flat payments, with its canonical point.

    E[i] is the total payment source i must receive so that participating
    and exerting the equilibrium effort breaks even; L[k, i] is the least
    flat payment making buyer k's contract worth accepting on its own.
    Raises InfeasibleCError when the bounds cross (negative effort), naming
    the most negative slack, or else when some slack is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite bounds are reported below
        L = sol.d * np.einsum("jil,l->ji", w.xi, sol.variances)
        E = L.sum(axis=0) + sol.efforts
    # the slack is the effort; a bound that is not finite leaves it undefined
    slack = np.where(np.isfinite(E), sol.efforts, np.nan)
    finite = np.isfinite(slack)
    # the most negative finite slack is named first, then the first that is not finite
    worst = int(np.argmin(np.where(finite, slack, np.inf)))
    if not slack[worst] < -1e-12:
        worst = int(np.argmin(finite))
    if not (finite[worst] and slack[worst] >= -1e-12):
        raise InfeasibleCError(worst, float(slack[worst]))
    canonical = L + sol.d / sol.d.sum(axis=0) * sol.efforts
    return replace(sol, c_polytope=CPolytope(E=E, L=L, canonical=canonical))


def solution_from_d(d: np.ndarray, w: SeparableWeights, m: MarketInstance) -> EquilibriumSolution:
    """Rebuild all induced quantities for an arbitrary slope matrix.

    Meant for diagnostics (perturbation studies); no
    best-response property is assumed, but payments still follow the tight
    participation rule, so an infeasible d raises InfeasibleCError.  The
    residual is ``max|d - A d - gamma| / (1 + max|d|)``, d's distance from
    the fixed point of the best-response map, with A applied from xi.
    """
    d = np.asarray(d, dtype=float)
    alphas = np.asarray(m.alphas(), dtype=float)
    d_total, efforts, variances, errors = _induced_quantities(d[None], alphas[None])
    if errors[0] is not None:
        raise errors[0]
    scale = 1.0 + float(np.abs(d).max(initial=0.0))
    residual = float(np.abs(d - _apply_op(w.xi, d) - w.gamma).max()) / scale
    sol = EquilibriumSolution(d=d, d_total=d_total[0], efforts=efforts[0],
                              variances=variances[0], residual=residual)
    return complete_solution(sol, w)
