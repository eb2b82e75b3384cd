"""Market primitives: data sources, buyers, estimator specs, validation.

Everything downstream (weight reduction, equilibrium solving, welfare
accounting, certification) consumes the immutable types defined here.
Validation is data, not control flow: ``validate_market`` returns a list of
violations so a front end can report every problem at once instead of dying
on the first bad field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DataSource",
    "ValueDistribution",
    "EstimatorSpec",
    "DataBuyer",
    "MarketInstance",
    "Violation",
    "validate_market",
    "effort_from_d_total",
    "variance_from_d_total",
]

ESTIMATOR_KINDS = ("linear-regression", "polynomial-regression")
DISTRIBUTION_KINDS = ("uniform", "point-mass", "discrete")


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSource:
    """A strategic data holder sampling the unknown function at one location.

    Parameters
    ----------
    x : float
        Sample location, inside the market's feature domain.
    alpha : float
        Noise decay rate.  The reported value carries zero-mean Gaussian
        noise with standard deviation exp(-alpha * effort), so larger alpha
        means effort suppresses noise faster.
    """

    x: float
    alpha: float


@dataclass(frozen=True)
class ValueDistribution:
    """Where a buyer expects to evaluate its fitted estimator.

    ``kind`` is one of ``"uniform"`` (fields lo, hi), ``"point-mass"``
    (field x0) or ``"discrete"`` (fields points, weights).  Raw moments are
    closed-form for all three kinds, which keeps every downstream weight
    computation exact.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    x0: float | None = None
    points: tuple | None = None
    weights: tuple | None = None

    @classmethod
    def uniform(cls, lo, hi) -> "ValueDistribution":
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def point_mass(cls, x0) -> "ValueDistribution":
        return cls(kind="point-mass", x0=float(x0))

    @classmethod
    def discrete(cls, points, weights) -> "ValueDistribution":
        return cls(
            kind="discrete",
            points=tuple(float(p) for p in points),
            weights=tuple(float(w) for w in weights),
        )

    def moment(self, p: int) -> float:
        """Raw moment E[x^p] of the evaluation point."""
        if self.kind == "uniform":
            lo, hi = self.lo, self.hi
            # antiderivative of x^p over [lo, hi], normalized
            return (hi ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (hi - lo))
        if self.kind == "point-mass":
            return self.x0 ** p
        if self.kind == "discrete":
            return float(sum(w * pt ** p for pt, w in zip(self.points, self.weights)))
        raise ValueError(f"unknown distribution kind {self.kind!r}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Regression family a buyer fits to the purchased reports.

    ``linear-regression`` is the degree-1 special case of
    ``polynomial-regression``; both fit monomial coefficients by least
    squares (minimum-norm when there are fewer points than coefficients).
    """

    kind: str
    degree: int = 1

    @classmethod
    def linear(cls) -> "EstimatorSpec":
        return cls("linear-regression", 1)

    @classmethod
    def polynomial(cls, degree: int) -> "EstimatorSpec":
        return cls("polynomial-regression", int(degree))


@dataclass(frozen=True)
class DataBuyer:
    """One buyer: an estimation task plus its competitive stance.

    delta_row holds the weight this buyer places on each competitor's
    estimation loss (own entry zero); eta converts payment into the buyer's
    loss units.
    """

    estimator: EstimatorSpec
    value_dist: ValueDistribution
    delta_row: tuple
    eta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "delta_row", tuple(float(v) for v in self.delta_row))


@dataclass(frozen=True)
class MarketInstance:
    """A complete market: sources, buyers and the shared feature domain."""

    sources: tuple
    buyers: tuple
    feature_domain: tuple

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "buyers", tuple(self.buyers))
        object.__setattr__(self, "feature_domain", tuple(float(v) for v in self.feature_domain))

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_buyers(self) -> int:
        return len(self.buyers)

    def locations(self):
        return [s.x for s in self.sources]

    def alphas(self):
        return [s.alpha for s in self.sources]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One validation failure: a machine-readable code, where, and why."""

    code: str
    where: str
    message: str


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_value_dist(dist: ValueDistribution, where: str, out: list):
    if dist.kind not in DISTRIBUTION_KINDS:
        out.append(Violation("value-dist-invalid", where, f"unknown distribution kind {dist.kind!r}"))
        return
    if dist.kind == "uniform":
        if not (_finite(dist.lo) and _finite(dist.hi) and dist.lo < dist.hi):
            out.append(Violation("value-dist-invalid", where,
                                 f"uniform bounds must be finite with lo < hi, got ({dist.lo}, {dist.hi})"))
    elif dist.kind == "point-mass":
        if not _finite(dist.x0):
            out.append(Violation("value-dist-invalid", where, f"point mass location {dist.x0} is not finite"))
    else:
        pts, wts = dist.points, dist.weights
        if not pts or not wts or len(pts) != len(wts):
            out.append(Violation("value-dist-invalid", where, "discrete distribution needs matching points and weights"))
            return
        if not all(_finite(p) for p in pts):
            out.append(Violation("value-dist-invalid", where, "discrete points must be finite"))
        if not all(_finite(w) and w >= 0.0 for w in wts):
            out.append(Violation("value-dist-invalid", where, "discrete weights must be nonnegative"))
        elif abs(sum(wts) - 1.0) > 1e-12:
            out.append(Violation("value-dist-invalid", where, f"discrete weights sum to {sum(wts)}, expected 1"))


def _moments_finite(dist: ValueDistribution, degree: int) -> bool:
    """Whether every raw moment a degree-``degree`` fit needs is a finite float."""
    try:
        return all(math.isfinite(dist.moment(p)) for p in range(2 * degree + 1))
    except OverflowError:
        return False


def validate_market(m: MarketInstance) -> list:
    """Check a market instance and return all violations found.

    Returns an empty list when the instance is well formed.  The order of
    the returned violations is deterministic (sources first, then buyers,
    then cross-buyer symmetry), so reports are stable across runs.
    """
    out: list = []

    fd = m.feature_domain
    domain_ok = len(fd) == 2 and _finite(fd[0]) and _finite(fd[1]) and fd[0] < fd[1]
    if not domain_ok:
        out.append(Violation("feature-domain-invalid", "feature_domain",
                             f"feature domain must be a finite interval (lo, hi) with lo < hi, got {fd}"))

    if m.n_sources == 0:
        out.append(Violation("no-sources", "sources", "market has no data sources"))
    if m.n_buyers == 0:
        out.append(Violation("no-buyers", "buyers", "market has no buyers"))

    for i, s in enumerate(m.sources):
        where = f"sources[{i}]"
        if not (_finite(s.alpha) and s.alpha > 0.0):
            out.append(Violation("alpha-nonpositive", where, f"alpha must be positive and finite, got {s.alpha}"))
        if not _finite(s.x):
            out.append(Violation("x-outside-domain", where, f"location {s.x} is not finite"))
        elif domain_ok and not (fd[0] <= s.x <= fd[1]):
            out.append(Violation("x-outside-domain", where,
                                 f"location {s.x} lies outside the feature domain [{fd[0]}, {fd[1]}]"))

    for j, b in enumerate(m.buyers):
        where = f"buyers[{j}]"
        n_found = len(out)
        est = b.estimator
        if est.kind not in ESTIMATOR_KINDS:
            out.append(Violation("estimator-kind-unknown", where, f"unknown estimator kind {est.kind!r}"))
        else:
            if not isinstance(est.degree, int) or est.degree < 1:
                out.append(Violation("degree-invalid", where, f"degree must be a positive integer, got {est.degree}"))
            elif est.kind == "linear-regression" and est.degree != 1:
                out.append(Violation("degree-invalid", where, "linear-regression means degree 1"))
            elif m.n_sources < est.degree + 1:
                out.append(Violation("insufficient-sources", where,
                                     f"degree {est.degree} needs at least {est.degree + 1} sources, market has {m.n_sources}"))
        _check_value_dist(b.value_dist, where, out)
        # only once the degree is known valid, so the moment count is bounded
        if len(out) == n_found and not _moments_finite(b.value_dist, est.degree):
            out.append(Violation("value-dist-invalid", where,
                                 f"raw moments up to order {2 * est.degree} overflow a float"))
        if not (_finite(b.eta) and b.eta > 0.0):
            out.append(Violation("eta-nonpositive", where, f"eta must be positive and finite, got {b.eta}"))
        row = b.delta_row
        if len(row) != m.n_buyers:
            out.append(Violation("delta-length-mismatch", where,
                                 f"delta row has {len(row)} entries, expected {m.n_buyers}"))
            continue
        for k, v in enumerate(row):
            if not (_finite(v) and 0.0 <= v <= 1.0):
                out.append(Violation("delta-out-of-range", f"{where}.delta[{k}]",
                                     f"competition weights live in [0, 1], got {v}"))
        if _finite(row[j]) and row[j] != 0.0:
            out.append(Violation("delta-self-nonzero", where, f"own-loss weight must be 0, got {row[j]}"))

    # pairwise symmetry, only meaningful once row lengths line up
    rows_ok = all(len(b.delta_row) == m.n_buyers for b in m.buyers)
    if rows_ok:
        for j in range(m.n_buyers):
            for k in range(j + 1, m.n_buyers):
                a, b = m.buyers[j].delta_row[k], m.buyers[k].delta_row[j]
                if a != b:
                    out.append(Violation("delta-asymmetry", f"buyers[{j}]/buyers[{k}]",
                                         f"competition weights disagree: {a} vs {b}"))
    return out


# ---------------------------------------------------------------------------
# source best response in closed form
# ---------------------------------------------------------------------------

def effort_from_d_total(d_total: float, alpha: float) -> float:
    """Effort a rational source settles at under total slope pressure d_total.

    Unique stationary point of ``d_total * exp(-2*alpha*e) + e``; can be
    negative when the incentives are too weak to justify any effort.
    """
    if not d_total > 0.0:
        raise ValueError(f"d_total must be positive, got {d_total}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return math.log(2.0 * d_total * alpha) / (2.0 * alpha)


def variance_from_d_total(d_total: float, alpha: float) -> float:
    """Report variance at the stationary effort: ``1 / (2 * d_total * alpha)``."""
    if not d_total > 0.0:
        raise ValueError(f"d_total must be positive, got {d_total}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 1.0 / (2.0 * d_total * alpha)
