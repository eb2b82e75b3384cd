"""Equilibrium slopes and feasible flat payments.

Buyer best responses give each (source, buyer) slope as its adjusted loss
weight plus a xi-weighted combination of every other buyer's slopes on the
other sources.  Stacking those conditions yields a Leontief-type linear
system ``d = A d + gamma`` whose nonnegative solution exists exactly when
the spectral radius of A stays below one.  A is never built: buyers that
share a xi block form a group, the group means of the slopes solve through
the (N*G)-wide, group-major ``R = coupling_matrix(xi)``, whose radius is
A's and is read off one certified Rayleigh-Ritz pair once R is 40 wide,
and the deviations from them through the N-wide ``I + X_g``, at
O((N*G)^3 + G*N^3) instead of O((N*M)^3) (README, "Equilibrium slopes");
the same factorization gives the fixed-point certificate's ``(I - R)^-1 1``.
Flat payments are pinned down only up to a polytope, which
``complete_solution`` builds along with one natural point of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .market import MarketInstance, source_response
from .estimators import SeparableWeights, _first_row

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

# Matrices this wide and wider get their radius from a Rayleigh-Ritz pair,
# which answers with a Collatz-Wielandt bracket; from about 48 wide it is
# also faster than dense eigvals (README, "The spectral radius").
_RITZ_MIN_SIZE = 40
# Width of the Krylov basis whose Ritz pair is read; narrower bases leave
# the bracket open on market coupling matrices (README, "The spectral radius").
_RITZ_BASIS = 24
# Widest Collatz-Wielandt bracket answered, relative to its top.
_RITZ_CLOSED = 1e-13


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


def _ritz_radius(a: np.ndarray) -> float:
    """Perron root of one nonnegative matrix from one certified Ritz pair, or NaN.

    Rayleigh-Ritz on the Krylov basis ``[1, a 1, a^2 1, ...]`` of
    ``_RITZ_BASIS`` vectors, each scaled by its max, gives the Ritz pair
    (theta, x) whose value has the largest real part (never the -rho of a
    2-cyclic a); x is taken real and scaled so that its largest-magnitude
    entry is +1.  For positive x, ``lo = min (a x)/x <= rho <= max (a x)/x =
    hi`` (Collatz-Wielandt), so theta clipped to ``[lo, hi]`` is answered
    once the bracket is at most ``_RITZ_CLOSED * hi`` wide.  NaN means no
    answer: an x that is not strictly positive (a reducible a), a bracket
    that stays wider (a periodic a, whose Ritz values miss the spectral
    circle's other points), or a basis or bracket that is not finite.
    """
    n = len(a)
    basis = np.empty((_RITZ_BASIS, n))
    basis[0] = 1.0
    with np.errstate(all="ignore"):  # what is not finite ends in NaN below
        for j in range(1, len(basis)):
            np.matmul(a, basis[j - 1], out=basis[j])
            basis[j] /= basis[j].max()
        q = np.linalg.qr(basis.T)[0]
        try:
            values, vectors = np.linalg.eig(q.T @ a @ q)
        except np.linalg.LinAlgError:  # raised on a projection that is not finite
            return np.nan
        top = values.real.argmax()
        x = q @ vectors[:, top].real
        x /= x[np.abs(x).argmax()]
        ratio = (a @ x) / x
        lo, hi = ratio.min(), ratio.max()
        if x.min() > 0.0 and hi - lo <= _RITZ_CLOSED * hi < np.inf:  # NaN fails too
            return float(min(max(values.real[top], lo), hi))
    return np.nan


def spectral_radius(a: np.ndarray):
    """Spectral radius of a nonnegative square matrix.

    Matrices at least ``_RITZ_MIN_SIZE`` wide take the Perron root from one
    Rayleigh-Ritz pair, certified by a Collatz-Wielandt bracket; a matrix
    whose bracket does not close, and every smaller one, takes the largest
    modulus of its dense eigenvalues.  Leading axes hold a stack of
    matrices; the result is then one radius per matrix instead of a float,
    each equal to the one-matrix call.
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
        if n < _RITZ_MIN_SIZE:
            rho = np.abs(np.linalg.eigvals(a)).max(axis=-1)
        else:
            # one matrix at a time, so that a radius never depends on its stackmates
            mats = np.ascontiguousarray(a).reshape(-1, n, n)
            rho = np.array([_ritz_radius(mat) for mat in mats])
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

    d is (M, N) buyer-major; d_total, efforts and variances are per source,
    and residual is d's ``max|d - A d - gamma| / (1 + max|d|)``.
    ``solve_rows`` sets rho, the coupling's spectral radius, and y, the
    certificate's ``(I - R)^-1 1`` lifted to buyers like d, with a leading
    row axis on every field for a stack; ``solution_from_d`` leaves both None
    and attaches the payment polytope, as ``complete_solution`` does.
    """

    d: np.ndarray
    d_total: np.ndarray
    efforts: np.ndarray
    variances: np.ndarray
    residual: float
    rho: float | None = None
    y: np.ndarray | None = None
    c_polytope: CPolytope | None = None


def _solution_rows(d: np.ndarray, xi: np.ndarray, gamma: np.ndarray, alphas: np.ndarray,
                   rho=None, y=None) -> tuple:
    """The EquilibriumSolution of stacked slopes ``d[r, j, i]``, with totals,
    efforts, variances and the residual, and per row the ValueError that
    makes the row's efforts undefined, or None.  rho and y are passed on.
    """
    # a vanishing eta can push the total to inf, and slopes that overflowed
    # make the residual NaN; the checks below and in solve_rows report both
    with np.errstate(over="ignore", invalid="ignore"):
        d_total = d.sum(axis=-2)
        scale = 1.0 + np.abs(d).max(axis=(-2, -1), initial=0.0)
        residual = np.abs(d - _apply_op(xi, d) - gamma).max(axis=(-2, -1)) / scale
    efforts, variances, ok = source_response(d_total, alphas)
    errors = [None] * len(d_total)
    for r in np.flatnonzero(~ok.all(axis=-1)):
        i = int(np.argmin(ok[r]))
        t, a = d_total[r, i], alphas[r, i]
        if not 0.0 < t < np.inf:
            errors[r] = ValueError(f"source {i} attracts total slope {t:.6g}; its effort is undefined")
        else:
            errors[r] = ValueError(f"source {i} has alpha {a:.6g} at total slope {t:.6g}; its effort overflows")
    return EquilibriumSolution(d=d, d_total=d_total, efforts=efforts, variances=variances,
                               residual=residual, rho=rho, y=y), errors


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
    ``I - R`` is factored once, group-major like R, for the group means
    ``(I - R) m = mean(gamma)`` and the certificate's ``y = (I - R)^-1 1``;
    each buyer's deviation from its group's mean solves ``(I + X_g) e =
    gamma - mean``, one stacked solve per group of two or more buyers.
    Returns an EquilibriumSolution whose fields, rho and y among them, carry
    the leading row axis, with the slopes clamped at 0 and the residual
    theirs, the full system's from xi; and per row the error
    ``solve_equilibrium_d`` raises on it, or None: the first that applies of
    NoEquilibriumError (the gate), NumericFailure (a negative slope, then
    the residual) and ValueError.
    """
    n_rows, _, n_sources = gamma.shape
    members, group = _buyer_groups(xi)
    n = n_sources * len(members)
    R = coupling_matrix(xi)
    rho = spectral_radius(R)
    eye_minus_r = np.negative(R, out=R)  # I - R in R's place: R's diagonal is zero, so the ones are exact
    eye_minus_r[..., np.arange(n), np.arange(n)] = 1.0
    # a row past the gate is not solved: its I - R, and its I + X_g below, are
    # the identity, so that no singular matrix reaches the stacked solves
    past = rho >= RHO_EXISTENCE_THRESHOLD
    eye_minus_r[past] = np.eye(n)
    # slopes that overflowed make the residual NaN, which fails the limit
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.ones((n_rows, len(members), n_sources, 2))  # [mean(gamma), 1], index g * N + q
        mean = rhs[..., 0]
        # each term divided first, so that a mean of finite gammas stays finite
        for g, k in enumerate(members):
            mean[:, g] = (gamma[:, k] / len(k)).sum(axis=1)
        solved = np.linalg.solve(eye_minus_r, rhs.reshape(n_rows, n, 2)).reshape(rhs.shape)
        d, y = solved[..., 0][:, group], solved[..., 1][:, group]  # (R, M, N) buyer-major
        for g, k in enumerate(members):
            if len(k) > 1:
                eye_plus_x = np.swapaxes(xi[:, k[0]], -1, -2).copy()
                eye_plus_x[past] = 0.0
                eye_plus_x[..., np.arange(n_sources), np.arange(n_sources)] = 1.0
                d[:, k] += np.linalg.solve(eye_plus_x, np.swapaxes(gamma[:, k] - mean[:, g, None], -1, -2)).swapaxes(-1, -2)
        lowest = d.min(axis=(-2, -1), initial=0.0)
        negative = lowest < -1e-12 * (1.0 + np.abs(d).max(axis=(-2, -1), initial=0.0))
    sol, induced_errors = _solution_rows(np.maximum(d, 0.0, out=d), xi, gamma, alphas, rho=rho, y=y)
    off_limit = ~(sol.residual <= _RESIDUAL_HARD_LIMIT)
    errors = [None] * n_rows
    for r in np.flatnonzero(past | negative | off_limit):
        if past[r]:
            errors[r] = NoEquilibriumError(float(rho[r]))
        elif negative[r]:
            errors[r] = NumericFailure(f"negative slope {lowest[r]:.3g} in the solved system")
        else:
            errors[r] = NumericFailure(
                f"fixed-point residual {sol.residual[r]:.3g} exceeds {_RESIDUAL_HARD_LIMIT:g}")
    return sol, [e or i for e, i in zip(errors, induced_errors)]


def solve_equilibrium_d(w: SeparableWeights, m: MarketInstance) -> EquilibriumSolution:
    """Solve the market's stacked best-response system and validate the result.

    Row 0 of ``solve_rows`` on the one market: raises NoEquilibriumError
    when the spectral radius certifies the system has no nonnegative
    solution, and NumericFailure when the linear algebra disagrees with the
    model beyond hard limits.
    """
    return _first_row(*solve_rows(w.xi[None], w.gamma[None], np.array([m.alphas()], dtype=float)))


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
    d, alphas = np.asarray(d, dtype=float)[None], np.array([m.alphas()], dtype=float)
    return complete_solution(_first_row(*_solution_rows(d, w.xi[None], w.gamma[None], alphas)), w)
