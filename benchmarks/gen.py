"""Seeded workload inputs.

Every workload is a fixed cycle of operations, each one ``datamarket`` command
line plus what the benchmark expects of it.  The seed picks locations, value
distributions, competition weights and what a sweep varies; the number of
operations per size tier and the degrees of the fits are fixed, so that every
seed costs about the same and the latency percentiles fall inside one tier
(see README.md).

Feasible markets are built the way the model allows: the slopes ``d`` do not
depend on the noise decay rates, so a market is solved once at alpha = 1 and
then given ``alpha_i = 1 / d_total_i``, which makes every effort
``log(2) / (2 alpha_i)`` positive and the payment polytope non-empty.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

WORKLOADS = ("sweep_small", "solve_ladder", "check_certify")

# (N, M, distinct markets, operations per cycle, distinct markets past the
# existence bound).  Operations cycle through a tier's distinct markets.
# With 20 s runs on a 2-core host, the median lands mid-way through the
# N=40, M=2 operations and the 11th-slowest inside the N=160, M=2 ones.
SOLVE_TIERS = (
    (10, 2, 6, 12, 0),
    (10, 5, 6, 12, 6),
    (40, 2, 8, 16, 0),
    (40, 5, 6, 12, 0),
    (160, 2, 4, 8, 0),
    (160, 5, 1, 1, 0),
)

# (N, M, allowed degrees, operations per cycle, of which perturbed so that
# check must fail).  Few sources couple strongly: these degrees are the ones
# whose random markets mostly clear the gate.
CHECK_TIERS = (
    (2, 2, (1,), 3, 1),
    (3, 2, (2,), 3, 0),
    (5, 2, (1,), 3, 1),
    (8, 2, (1, 2), 3, 0),
    (8, 3, (1,), 3, 1),
)

# A feasible market must clear the gate by this much, an infeasible one
# must exceed 1 by this much, so that the expected exit code is unambiguous.
RHO_MARGIN = 1e-3
MAX_TRIES = 200


@dataclass
class Op:
    """One ``main(argv)`` call and what its output must satisfy."""

    kind: str                 # "sweep", "solve" or "check"
    tier: str
    argv: list
    expect: int               # exit code
    markets: int = 1          # sweep rows or configs this call completes
    out: str | None = None    # file the call writes
    info: dict = field(default_factory=dict)


class Rejected(Exception):
    """A candidate market the generator throws away and redraws."""


# ---------------------------------------------------------------------------
# market documents
# ---------------------------------------------------------------------------

def _r(v: float, digits: int = 6) -> float:
    return round(float(v), digits)


def _buyer(rng, degree: int, m: int, delta_row) -> dict:
    lo = _r(rng.uniform(-1.0, -0.25))
    hi = _r(rng.uniform(0.25, 1.0))
    kind = "linear-regression" if degree == 1 else "polynomial-regression"
    return {
        "estimator": {"kind": kind, "degree": int(degree)},
        "value_dist": {"kind": "uniform", "params": {"lo": lo, "hi": hi}},
        "delta": [float(v) for v in delta_row],
        "eta": 1.0,
    }


def _delta(rng, m: int, top: float) -> np.ndarray:
    off = np.triu(np.round(rng.uniform(0.0, top, (m, m)), 4), 1)
    return off + off.T


def market_doc(rng, xs, degrees, delta_top: float = 0.05) -> dict:
    """Config document with alpha = 1 everywhere, as the CLI reads it."""
    m = len(degrees)
    delta = _delta(rng, m, delta_top)
    return {
        "sources": [{"x": _r(x), "alpha": 1.0} for x in xs],
        "buyers": [_buyer(rng, d, m, delta[k]) for k, d in enumerate(degrees)],
        "feature_domain": [-1.0, 1.0],
    }


def _spread_locations(rng, n: int) -> np.ndarray:
    """n distinct points in [-1, 1], one per equal cell, never crowded."""
    return ((np.arange(n) + rng.uniform(0.2, 0.8, n)) / n) * 2.0 - 1.0


def _weights(dm, doc):
    """Library weights of a candidate; a singular or negative fit rejects it."""
    est = dm.estimators
    try:
        return est.compute_weights(dm.cli.market_from_config(doc))
    except (est.SingularDesignError, est.GammaNegativeError) as err:
        raise Rejected(type(err).__name__) from None


def _reference(dm, doc) -> dict:
    """Coupling matrix and slopes of a candidate that clears the gate.

    Positive slopes with positive gamma certify rho < 1 (M-matrix), and the
    Collatz-Wielandt bound ``rho <= 1 - min(gamma / d)`` keeps it clear of
    the gate without an eigenvalue solve on the large tiers.
    """
    w = _weights(dm, doc)
    a = ref.coupling(w.xi)
    gvec = ref.stack(w.gamma)
    if not (gvec > 0.0).all():
        raise Rejected("zero gamma")
    try:
        dvec = ref.slopes(a, gvec)
    except np.linalg.LinAlgError:
        raise Rejected("I - A singular") from None
    if not (dvec > 0.0).all() or 1.0 - float((gvec / dvec).min()) > 1.0 - RHO_MARGIN:
        raise Rejected("rho near or past 1")
    m, n = w.gamma.shape
    return {"a": a, "d": dvec.reshape(n, m).T}


def _feasible(dm, doc) -> dict:
    """Reference answers of a feasible candidate, its alphas set to 1 / d_total."""
    sol = _reference(dm, doc)
    sol["alphas"] = np.array([float(f"{1.0 / t:.6g}") for t in sol["d"].sum(axis=0)])
    for src, alpha in zip(doc["sources"], sol["alphas"]):
        src["alpha"] = float(alpha)
    return sol


def _infeasible(dm, doc) -> float:
    w = _weights(dm, doc)
    rho = ref.rho(ref.coupling(w.xi))
    if rho < 1.0 + RHO_MARGIN:
        raise Rejected("rho below 1")
    return rho


def _draw(stats: dict, make):
    for _ in range(MAX_TRIES):
        stats["tried"] += 1
        try:
            out = make()
        except Rejected:
            continue
        stats["accepted"] += 1
        return out
    raise RuntimeError(f"no acceptable market after {MAX_TRIES} draws")


def _write(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _solve_ladder(dm, rng, work: str, stats: dict) -> list:
    ops = []
    for n, m, distinct, per_cycle, past in SOLVE_TIERS:
        tier = []
        for c in range(distinct):
            infeasible = c < past
            # alternating degrees 1 and 2: the seed moves locations and
            # weights, not the mix of fits, so every seed costs about the same
            degrees = [1 + (k + c) % 2 for k in range(m)]

            def make(n=n, degrees=degrees, infeasible=infeasible):
                doc = market_doc(rng, _spread_locations(rng, n), degrees)
                return doc, (_infeasible if infeasible else _feasible)(dm, doc)
            doc, sol = _draw(stats, make)
            name = f"solve_n{n}_m{m}_{c}"
            cfg = os.path.join(work, name + ".json")
            out = os.path.join(work, name + ".out.json")
            _write(cfg, doc)
            tier.append(Op("solve", f"n{n}_m{m}", ["solve", cfg, "--json-out", out],
                           expect=2 if infeasible else 0, out=out,
                           info={} if infeasible else {"alphas": sol["alphas"]}))
        ops += [tier[k % distinct] for k in range(per_cycle)]
    return ops


def _check_certify(dm, rng, work: str, stats: dict, root: str) -> list:
    ops = []
    shipped = os.path.join(root, "configs", "two_firm.json")
    with open(shipped, encoding="utf-8") as fh:
        two_firm = json.load(fh)
    for n, m, allowed, count, perturbed in CHECK_TIERS:
        for c in range(count):
            if n == 2 and m == 2 and c == count - 1:
                cfg = shipped
                sol = _reference(dm, two_firm)
                sol["alphas"] = np.array([s["alpha"] for s in two_firm["sources"]], dtype=float)
            else:
                # the degrees cycle through the allowed ones, so that every
                # seed gives each operation the same mix of fits
                degrees = [allowed[(k + c) % len(allowed)] for k in range(m)]

                def make(n=n, degrees=degrees):
                    doc = market_doc(rng, _spread_locations(rng, n), degrees)
                    return doc, _feasible(dm, doc)
                doc, sol = _draw(stats, make)
                cfg = os.path.join(work, f"check_n{n}_m{m}_{c}.json")
                _write(cfg, doc)
            argv = ["check", cfg, "--seed", str(int(rng.integers(0, 2**31 - 1)))]
            info = {"rho": ref.rho(sol["a"]), "d": sol["d"], "alphas": sol["alphas"]}
            expect = 0
            if c < perturbed:
                j = int(rng.integers(0, m))
                i = int(rng.integers(0, n))
                amt = float(f"{0.3 * sol['d'][j, i]:.6g}")
                argv += ["--perturb", f"{j + 1},{i + 1},{amt!r}"]
                info["perturbed"] = True
                expect = 3
            ops.append(Op("check", f"n{n}_m{m}", argv, expect=expect, info=info))
    return ops


# Seeded sweep specs per cycle, beside one run of the shipped sweep_x1.json.
# Enough of them that sweep_x1 (about 1.2 s each) stays well under eleven
# calls in a run, so the 11th-slowest call lands among the "pair" sweeps.
SWEEP_FAMILIES = {"pair": 12, "pair3": 12, "triple": 12, "triple3": 12, "alpha": 8, "eta": 8}


def _sweep_spec(rng, family: str) -> tuple:
    """(param, from, to, steps, base) of one seeded spec.

    x ranges use a step of 1/16 over [-1, 1] and put the other sources on
    that grid, so a row lands exactly on a coincident pair (an ``error`` row)
    and the rows beside it couple strongly (``no_equilibrium``).
    """
    g = 1.0 / 16.0
    if family == "pair":
        # two sources, linear buyers: rho spans 0 (x0 = -1) up to 1
        return "sources[0].x", -1.0, 1.0, 33, market_doc(rng, [0.0, 1.0], [1, 1])
    if family == "pair3":
        x1 = g * int(rng.integers(6, 13))
        return "sources[0].x", -1.0, 1.0, 33, market_doc(rng, [0.0, x1], [1, 1, 1])
    if family == "triple":
        mid = g * int(rng.integers(-3, 4))
        return "sources[1].x", -1.0, 1.0, 33, market_doc(rng, [-1.0, mid, 1.0], [2, 2])
    if family == "triple3":
        return "sources[1].x", -1.0, 1.0, 33, market_doc(rng, [-1.0, 0.0, 1.0], [2, 2, 2])
    if family == "alpha":
        mid = g * int(rng.integers(-3, 4))
        i = int(rng.integers(0, 3))
        return f"sources[{i}].alpha", 0.5, 2.0, 17, market_doc(rng, [-1.0, mid, 1.0], [2, 2])
    k = int(rng.integers(0, 2))
    return f"buyers[{k}].eta", 0.5, 2.0, 17, market_doc(rng, [-1.0, -0.5, 0.5, 1.0], [3, 3])


def _sweep_small(rng, work: str, root: str) -> list:
    shipped = os.path.join(root, "configs", "sweep_x1.json")
    with open(shipped, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(root, "configs", spec["base"]), encoding="utf-8") as fh:
        spec["base"] = json.load(fh)
    entries = [("x1", shipped, spec)]
    for tier, count in SWEEP_FAMILIES.items():
        for c in range(count):
            param, lo, hi, steps, base = _sweep_spec(rng, tier)
            spec = {"param": param, "range": {"from": lo, "to": hi, "steps": steps}, "base": base}
            path = os.path.join(work, f"sweep_{tier}_{c:02d}.json")
            _write(path, spec)
            entries.append((tier, path, spec))
    ops = []
    for c, (tier, path, spec) in enumerate(entries):
        out = os.path.join(work, f"sweep_{c:03d}.csv")
        ops.append(Op("sweep", tier, ["sweep", path, "--out", out], expect=0,
                      markets=spec["range"]["steps"], out=out, info={"spec": spec}))
    return ops


def interleave(ops: list) -> list:
    """Spread each tier evenly over the cycle, so any prefix of the closed
    loop sees about the same tier mix as the whole cycle."""
    keyed = []
    by_tier: dict = {}
    for op in ops:
        by_tier.setdefault(op.tier, []).append(op)
    for group in by_tier.values():
        for pos, op in enumerate(group):
            keyed.append(((pos + 0.5) / len(group), len(keyed), op))
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


def warmup(workload: str, work: str, root: str) -> Op:
    """The call set-up makes after importing the package: one on the shipped
    two_firm.json, the same for every seed, so that set-up time does not
    depend on which markets the seed drew."""
    two_firm = os.path.join(root, "configs", "two_firm.json")
    if workload == "check_certify":
        return Op("check", "warmup", ["check", two_firm, "--seed", "1"], expect=0)
    out = os.path.join(work, "warmup.out")
    if workload == "solve_ladder":
        return Op("solve", "warmup", ["solve", two_firm, "--json-out", out], expect=0, out=out)
    with open(two_firm, encoding="utf-8") as fh:
        base = json.load(fh)
    spec = os.path.join(work, "warmup.json")
    _write(spec, {"param": "sources[0].x", "range": {"from": -0.8, "to": 0.8, "steps": 9},
                  "base": base})
    return Op("sweep", "warmup", ["sweep", spec, "--out", out], expect=0, out=out)


def build(workload: str, seed: int, work: str, root: str, dm) -> tuple:
    """Write the workload's inputs under ``work``; returns (ops, stats).

    ``dm`` is the imported ``datamarket`` package; the generator uses its
    config reader and weight reduction to decide feasibility, never its
    solver.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    stats = {"tried": 0, "accepted": 0}
    if workload == "solve_ladder":
        ops = _solve_ladder(dm, rng, work, stats)
    elif workload == "check_certify":
        ops = _check_certify(dm, rng, work, stats, root)
    elif workload == "sweep_small":
        ops = _sweep_small(rng, work, root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    stats["acceptance_rate"] = stats["accepted"] / stats["tried"] if stats["tried"] else 1.0
    return interleave(ops), stats
