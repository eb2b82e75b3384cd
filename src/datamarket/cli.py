"""Command-line front end.

Four subcommands: ``solve`` (one market, human report plus optional JSON),
``sweep`` (one scalar parameter over a range, CSV out), ``check``
(independent certification of a solved market) and ``welfare`` (equilibrium
versus social optimum).  Exit codes are part of the interface: 0 success,
1 bad input, 2 no equilibrium exists, 3 certification failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import re
import sys

import numpy as np

from .market import (
    DataBuyer,
    DataSource,
    EstimatorSpec,
    MarketInstance,
    ValueDistribution,
    validate_market,
)
from .estimators import (
    GammaNegativeError,
    SeparableWeights,
    SingularDesignError,
    compute_weights,
    weight_rows,
)
from .equilibrium import (
    RHO_EXISTENCE_THRESHOLD,
    InfeasibleCError,
    NoEquilibriumError,
    NumericFailure,
    build_coupling_system,
    complete_solution,
    coupling_matrix,
    solution_from_d,
    solve_equilibrium_d,
    solve_rows,
    spectral_radius,
)
from .welfare import (
    DegenerateSourceError,
    EtaNotOneError,
    UndefinedPoaError,
    price_of_anarchy,
    welfare_rows,
)
from .oracle import (
    TrueFunction,
    best_response_check,
    monte_carlo_payments,
    neumann_dynamics,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_EQUILIBRIUM = 2
EXIT_CERTIFICATION = 3

# A sweep is one curve: more points than this is a malformed spec, and an
# unbounded count would exhaust memory before the first row.
MAX_SWEEP_STEPS = 10_000
# Coupling-matrix entries (8 bytes each) per batch of sweep rows computed
# together, so a sweep of a large market stays within a few megabytes.
_BATCH_ENTRIES = 1 << 20


class ConfigError(Exception):
    """Malformed configuration document."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def _as_float(doc, key, where):
    try:
        return float(doc[key])
    except KeyError:
        raise ConfigError(f"{where}: missing key {key!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: {key!r} must be a number, got {doc[key]!r}") from None


def _dist_from_config(doc, where) -> ValueDistribution:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{where}: value_dist needs a 'kind' field")
    kind = doc["kind"]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: value_dist params must be an object")
    if kind == "uniform":
        return ValueDistribution.uniform(_as_float(params, "lo", where), _as_float(params, "hi", where))
    if kind == "point-mass":
        return ValueDistribution.point_mass(_as_float(params, "x0", where))
    if kind == "discrete":
        pts = params.get("points")
        wts = params.get("weights")
        if not isinstance(pts, list) or not isinstance(wts, list):
            raise ConfigError(f"{where}: discrete value_dist needs 'points' and 'weights' lists")
        try:
            return ValueDistribution.discrete(pts, wts)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where}: discrete points and weights must be numbers") from None
    raise ConfigError(f"{where}: unknown value_dist kind {kind!r}")


def market_from_config(doc: dict) -> MarketInstance:
    """Build a MarketInstance from a plain configuration document."""
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    for key in ("sources", "buyers", "feature_domain"):
        if key not in doc:
            raise ConfigError(f"missing top-level key {key!r}")
    fd = doc["feature_domain"]
    if not isinstance(fd, list) or len(fd) != 2:
        raise ConfigError("feature_domain must be a two-element list [lo, hi]")

    sources = []
    if not isinstance(doc["sources"], list):
        raise ConfigError("sources must be a list")
    for i, s in enumerate(doc["sources"]):
        where = f"sources[{i}]"
        if not isinstance(s, dict):
            raise ConfigError(f"{where}: must be an object")
        sources.append(DataSource(x=_as_float(s, "x", where), alpha=_as_float(s, "alpha", where)))

    buyers = []
    if not isinstance(doc["buyers"], list):
        raise ConfigError("buyers must be a list")
    for j, b in enumerate(doc["buyers"]):
        where = f"buyers[{j}]"
        if not isinstance(b, dict):
            raise ConfigError(f"{where}: must be an object")
        est_doc = b.get("estimator")
        if not isinstance(est_doc, dict) or "kind" not in est_doc:
            raise ConfigError(f"{where}: estimator needs a 'kind' field")
        kind = est_doc["kind"]
        degree = est_doc.get("degree", 1)
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ConfigError(f"{where}: estimator degree must be an integer")
        est = EstimatorSpec(kind=kind, degree=degree)
        dist = _dist_from_config(b.get("value_dist"), where)
        delta = b.get("delta")
        if not isinstance(delta, list):
            raise ConfigError(f"{where}: delta must be a list")
        try:
            delta = tuple(float(v) for v in delta)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where}: delta entries must be numbers") from None
        eta = _as_float(b, "eta", where) if "eta" in b else 1.0
        buyers.append(DataBuyer(estimator=est, value_dist=dist, delta_row=delta, eta=eta))

    try:
        fd = (float(fd[0]), float(fd[1]))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("feature_domain entries must be numbers") from None
    return MarketInstance(sources=tuple(sources), buyers=tuple(buyers), feature_domain=fd)


def market_to_config(m: MarketInstance) -> dict:
    """Inverse of market_from_config, up to float identity."""
    dists = []
    for b in m.buyers:
        d = b.value_dist
        if d.kind == "uniform":
            params = {"lo": d.lo, "hi": d.hi}
        elif d.kind == "point-mass":
            params = {"x0": d.x0}
        else:
            params = {"points": list(d.points), "weights": list(d.weights)}
        dists.append({"kind": d.kind, "params": params})
    return {
        "sources": [{"x": s.x, "alpha": s.alpha} for s in m.sources],
        "buyers": [
            {
                "estimator": {"kind": b.estimator.kind, "degree": b.estimator.degree},
                "value_dist": dist,
                "delta": list(b.delta_row),
                "eta": b.eta,
            }
            for b, dist in zip(m.buyers, dists)
        ],
        "feature_domain": list(m.feature_domain),
    }


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from None


def _load_market(path: str) -> MarketInstance:
    m = market_from_config(_load_json(path))
    violations = validate_market(m)
    if violations:
        lines = [f"  [{v.code}] {v.where}: {v.message}" for v in violations]
        raise ConfigError("invalid market:\n" + "\n".join(lines))
    return m


# ---------------------------------------------------------------------------
# shared pipeline
# ---------------------------------------------------------------------------

def _run(m: MarketInstance) -> tuple:
    """Weights, coupling system and slopes of one market, as ``(w, system, sol)``.

    Existence depends on the leave-one-out tensor alone, so when the
    full-design weights are unavailable (singular full design, negative
    gamma) rho still comes from the xi the error carries, and a rho past the
    gate raises NoEquilibriumError ahead of the weights error.
    """
    try:
        w = compute_weights(m)
    except (SingularDesignError, GammaNegativeError) as err:
        if err.xi is not None:
            rho = spectral_radius(coupling_matrix(err.xi))
            if rho >= RHO_EXISTENCE_THRESHOLD:
                raise NoEquilibriumError(rho) from None
        raise
    system = build_coupling_system(w, m)
    return w, system, solve_equilibrium_d(system)


def _print_matrix(label: str, arr: np.ndarray):
    print(f"{label}:")
    for j, row in enumerate(np.atleast_2d(arr)):
        cells = "  ".join(_fmt(v) for v in row)
        print(f"  buyer {j + 1}: {cells}")


def _print_vector(label: str, vec: np.ndarray):
    cells = "  ".join(_fmt(v) for v in vec)
    print(f"{label}: {cells}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    m = _load_market(args.config)
    w, system, sol = _run(m)

    infeasible_c = None
    try:
        sol = complete_solution(sol, w, m)
    except InfeasibleCError as err:
        infeasible_c = err

    welfare = None
    welfare_note = None
    try:
        welfare = price_of_anarchy(sol, w, m)
    except (EtaNotOneError, DegenerateSourceError, UndefinedPoaError) as err:
        welfare_note = str(err)

    print(f"market: {m.n_sources} sources, {m.n_buyers} buyers")
    print(f"spectral radius: {_fmt(system.rho)}")
    print(f"solve residual: {_fmt(sol.residual)}")
    print()
    _print_matrix("gamma (per source)", w.gamma)
    _print_matrix("equilibrium slopes d", sol.d)
    _print_vector("total slope per source", sol.d_total)
    _print_vector("efforts", sol.efforts)
    _print_vector("variances", sol.variances)
    if infeasible_c is None:
        _print_matrix("canonical flat payments c", sol.c_canonical)
        _print_vector("required total payment E", sol.c_polytope.E)
    else:
        print(f"flat payments: infeasible ({infeasible_c})")
    if welfare is not None:
        _print_vector("socially optimal efforts", welfare.efforts_opt)
        print(f"social loss at equilibrium: {_fmt(welfare.loss_eq)}")
        print(f"social loss at optimum: {_fmt(welfare.loss_opt)}")
        print(f"price of anarchy: {_fmt(welfare.poa)}")
    elif welfare_note:
        print(f"welfare: skipped ({welfare_note})")

    if args.json_out:
        payload = {
            "n_sources": m.n_sources,
            "n_buyers": m.n_buyers,
            "rho": system.rho,
            "beta": w.beta.tolist(),
            "xi": w.xi.tolist(),
            "gamma": w.gamma.tolist(),
            "d": sol.d.tolist(),
            "d_total": sol.d_total.tolist(),
            "efforts": sol.efforts.tolist(),
            "variances": sol.variances.tolist(),
            "residual": sol.residual,
            "status": "ok",
        }
        if infeasible_c is None:
            payload["c"] = {
                "E": sol.c_polytope.E.tolist(),
                "L": sol.c_polytope.L.tolist(),
                "slack": sol.c_polytope.slack.tolist(),
                "canonical": sol.c_canonical.tolist(),
                "feasible": True,
            }
        else:
            payload["c"] = {"feasible": False, "reason": str(infeasible_c)}
        if welfare is not None:
            payload["welfare"] = {
                "efforts_opt": welfare.efforts_opt.tolist(),
                "loss_eq": welfare.loss_eq,
                "loss_opt": welfare.loss_opt,
                "poa": welfare.poa,
            }
        else:
            payload["welfare"] = None
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as err:
            raise ConfigError(f"cannot write {args.json_out}: {err}") from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_PARAM_RE = re.compile(r"^(sources|buyers)\[(\d+)\]\.([a-z_]+)$")
_SWEEPABLE = {("sources", "x"), ("sources", "alpha"), ("buyers", "eta")}


def _apply_param(doc: dict, path: str, value: float):
    match = _PARAM_RE.match(path)
    if not match:
        raise ConfigError(f"unsupported sweep parameter {path!r}")
    section, idx, field = match.group(1), int(match.group(2)), match.group(3)
    if (section, field) not in _SWEEPABLE:
        raise ConfigError(f"unsupported sweep parameter {path!r}")
    try:
        doc[section][idx][field] = value
    except (IndexError, KeyError, TypeError):
        raise ConfigError(f"sweep parameter {path!r} does not exist in the base config") from None


def _sweep_columns(n: int, mm: int) -> list:
    cols = ["param"]
    cols += [f"gamma_{i + 1}_{j + 1}" for i in range(n) for j in range(mm)]
    cols += [f"xi_{i + 1}_{l + 1}_{j + 1}"
             for i in range(n) for l in range(n) if l != i for j in range(mm)]
    cols.append("rho")
    cols += [f"d_{i + 1}_{j + 1}" for i in range(n) for j in range(mm)]
    cols += [f"e_star_{i + 1}" for i in range(n)]
    cols += [f"e_hat_{i + 1}" for i in range(n)]
    cols += ["loss_eq", "loss_opt", "poa", "status"]
    return cols


def _sweep_lines(markets: list, values: np.ndarray) -> list:
    """CSV lines of a batch of sweep rows, computed together.

    Row r equals what ``_run`` gives on markets[r]: the same stages run once
    over the stack, and a row that stops early gets a status instead of
    raising.  A NumericFailure from the welfare checks still aborts.
    """
    n, mm = markets[0].n_sources, markets[0].n_buyers
    alphas = np.array([m.alphas() for m in markets], dtype=float)
    etas = np.array([[b.eta for b in m.buyers] for m in markets], dtype=float)

    w, errors, xi_errors = weight_rows(markets)
    weighted = np.array([e is None for e in errors], dtype=bool)
    has_xi = np.array([e is None for e in xi_errors], dtype=bool)
    A = coupling_matrix(w.xi[has_xi])
    rho = np.zeros(len(markets))
    rho[has_xi] = spectral_radius(A)
    past_gate = has_xi & (rho >= RHO_EXISTENCE_THRESHOLD)

    to_solve = weighted & ~past_gate
    sol, solve_errors = solve_rows(A[to_solve[has_xi]], w.gamma[to_solve], alphas[to_solve])
    solved = np.array([e is None for e in solve_errors], dtype=bool)
    ok = to_solve.copy()
    ok[to_solve] = solved

    rows_w = SeparableWeights(beta=w.beta[ok], xi=w.xi[ok], gamma=w.gamma[ok])
    rep, welfare_errors = welfare_rows(sol.efforts[solved], rows_w, alphas[ok], etas[ok])
    for err in welfare_errors:
        if isinstance(err, NumericFailure):
            raise err
    has_welfare = ok.copy()
    has_welfare[ok] = [e is None for e in welfare_errors]

    off_diag = ~np.eye(n, dtype=bool)
    columns = [
        # (rows that have the cells, the cells of those rows), in CSV order
        (np.ones(len(markets), dtype=bool), values[:, None]),
        (weighted, np.swapaxes(w.gamma[weighted], -1, -2).reshape(-1, n * mm)),
        (has_xi, np.moveaxis(w.xi[has_xi], 1, -1)[:, off_diag].reshape(-1, n * (n - 1) * mm)),
        (has_xi, rho[has_xi, None]),
        (ok, np.swapaxes(sol.d[solved], -1, -2).reshape(-1, n * mm)),
        (ok, sol.efforts[solved]),
        (has_welfare, np.column_stack([rep.efforts_opt, rep.loss_eq, rep.loss_opt, rep.poa])
         [has_welfare[ok]]),
    ]
    width = sum(cells.shape[1] for _, cells in columns)
    table = np.zeros((len(markets), width))
    filled = np.zeros((len(markets), width), dtype=bool)
    start = 0
    for present, cells in columns:
        stop = start + cells.shape[1]
        table[present, start:stop] = cells
        filled[present, start:stop] = True
        start = stop

    status = np.where(ok, "ok", np.where(past_gate, "no_equilibrium", "error")).tolist()
    return [",".join([f"{v:.12g}" if keep else "" for v, keep in zip(row.tolist(), mask.tolist())]
                     + [s])
            for row, mask, s in zip(table, filled, status)]


def _cmd_sweep(args) -> int:
    spec = _load_json(args.spec)
    if not isinstance(spec, dict):
        raise ConfigError("sweep spec must be an object")
    param = spec.get("param")
    rng_doc = spec.get("range")
    base = spec.get("base")
    if not isinstance(param, str) or not isinstance(rng_doc, dict) or base is None:
        raise ConfigError("sweep spec needs 'param', 'range' and 'base'")

    try:
        lo = float(rng_doc["from"])
        hi = float(rng_doc["to"])
        steps = rng_doc["steps"]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ConfigError("range needs numeric 'from', 'to' and integer 'steps'") from None
    if not isinstance(steps, int) or isinstance(steps, bool) or not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"range.steps must be an integer from 2 to {MAX_SWEEP_STEPS}, got {steps!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError("range bounds must be finite")

    if isinstance(base, str):
        # an absolute base path replaces the spec's directory in the join
        base = _load_json(os.path.join(os.path.dirname(os.path.abspath(args.spec)), base))
    if not isinstance(base, dict):
        raise ConfigError("sweep base must be a config object or a path to one")

    values = np.linspace(lo, hi, steps)
    markets = []
    # a market keeps no reference into its document, so one copy serves
    # every value
    doc = copy.deepcopy(base)
    for v in values:
        _apply_param(doc, param, float(v))
        m = market_from_config(doc)
        violations = validate_market(m)
        if violations:
            v0 = violations[0]
            raise ConfigError(
                f"sweep value {param}={_fmt(v)} yields an invalid market: [{v0.code}] {v0.where}: {v0.message}"
            )
        markets.append(m)

    n, mm = markets[0].n_sources, markets[0].n_buyers
    lines = [",".join(_sweep_columns(n, mm))]
    batch = max(1, _BATCH_ENTRIES // (n * mm) ** 2)
    for start in range(0, len(markets), batch):
        lines += _sweep_lines(markets[start:start + batch], values[start:start + batch])
    try:
        with open(args.out, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot write {args.out}: {err}") from None
    print(f"wrote {len(markets)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    # one sample has no spread, and a grid of one point or an empty box
    # searches nothing: each would certify without testing anything
    if args.samples < 2 or args.steps < 2 or not (math.isfinite(args.radius) and args.radius > 0.0):
        raise ValueError("check needs --samples >= 2, --steps >= 2 and a positive finite --radius")
    m = _load_market(args.config)

    try:
        coeffs = tuple(float(v) for v in args.f_coeffs.split(","))
        f = TrueFunction(coeffs)
    except ValueError as err:
        raise ValueError(f"bad --f-coeffs: {err}") from None

    w, system, sol = _run(m)
    sol = complete_solution(sol, w, m)

    direct_d = sol.d.copy()
    if args.perturb:
        try:
            j_s, i_s, amt_s = args.perturb.split(",")
            j, i, amt = int(j_s) - 1, int(i_s) - 1, float(amt_s)
            if not (0 <= j < m.n_buyers and 0 <= i < m.n_sources):
                raise ValueError("index out of range")
        except ValueError as err:
            raise ValueError(f"bad --perturb (expected BUYER,SOURCE,DELTA): {err}") from None
        d_mod = sol.d.copy()
        d_mod[j, i] += amt
        try:
            sol = solution_from_d(d_mod, w, m, system=system)
        except (InfeasibleCError, ValueError) as err:
            raise ValueError(f"perturbed slopes are not checkable: {err}") from None
        print(f"perturbed d[{j + 1},{i + 1}] by {_fmt(amt)}")

    print(f"spectral radius: {_fmt(system.rho)}")
    failures = []

    for k in range(m.n_buyers):
        rep = best_response_check(sol, k, w, m, radius=args.radius, steps=args.steps)
        verdict = "certified" if rep.certified else "IMPROVABLE"
        print(f"best response buyer {k + 1}: max improvement {rep.max_improvement:.3g} "
              f"(tolerance {rep.tolerance:.3g}) {verdict}")
        if not rep.certified:
            failures.append(f"buyer {k + 1} can improve by {rep.max_improvement:.3g}")

    neu = neumann_dynamics(system)
    if neu.converged:
        rel = float(np.abs(neu.d - direct_d).max()) / (1.0 + float(np.abs(direct_d).max()))
        print(f"fixed-point iteration: converged in {neu.iters} sweeps, "
              f"relative gap to direct solve {rel:.3g}")
        if system.rho < 0.99 and rel > 1e-8:
            failures.append(f"iterative and direct solutions disagree ({rel:.3g})")
    else:
        print(f"fixed-point iteration: no convergence in {neu.iters} sweeps "
              f"(last step {neu.last_step:.3g})")
        if system.rho < 0.99:
            failures.append("fixed-point iteration failed to converge despite rho < 0.99")

    checks = monte_carlo_payments(sol, w, m, f, n_samples=args.samples, seed=args.seed)
    for chk in checks:
        print(f"payment buyer {chk.buyer + 1} source {chk.source + 1}: "
              f"empirical {_fmt(chk.empirical_mean)} analytic {_fmt(chk.analytic_mean)} "
              f"z {chk.z_score:+.2f}")
    # np.max propagates NaN, and a NaN z-score must fail
    worst = float(np.max(np.abs([chk.z_score for chk in checks]), initial=0.0))
    if not worst < 4.0:
        failures.append(f"payment simulation disagrees with closed form (|z| = {worst:.2f})")

    if failures:
        print("certification: FAIL")
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_CERTIFICATION
    print("certification: PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# welfare
# ---------------------------------------------------------------------------

def _cmd_welfare(args) -> int:
    m = _load_market(args.config)
    w, _, sol = _run(m)
    report = price_of_anarchy(sol, w, m)

    _print_vector("equilibrium efforts", report.efforts_eq)
    _print_vector("socially optimal efforts", report.efforts_opt)
    print(f"social loss at equilibrium: {_fmt(report.loss_eq)}")
    print(f"social loss at optimum: {_fmt(report.loss_opt)}")
    print(f"price of anarchy: {_fmt(report.poa)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Input and model errors: each exits 1 with its message.
_INPUT_ERRORS = (
    ConfigError, SingularDesignError, GammaNegativeError, InfeasibleCError,
    NumericFailure, EtaNotOneError, DegenerateSourceError, UndefinedPoaError,
    ValueError, OverflowError,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="datamarket",
        description="Equilibrium and welfare analysis for data markets with quadratic contracts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one market and report the equilibrium")
    p_solve.add_argument("config", help="market config JSON")
    p_solve.add_argument("--json-out", default=None, help="also write the full solution as JSON")
    p_solve.set_defaults(handler=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep one scalar parameter, write a CSV")
    p_sweep.add_argument("spec", help="sweep spec JSON (param, range, base)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_check = sub.add_parser("check", help="certify a solved market with independent oracles")
    p_check.add_argument("config", help="market config JSON")
    p_check.add_argument("--seed", type=int, default=42, help="simulation seed")
    p_check.add_argument("--samples", type=int, default=100000, help="simulation rounds")
    p_check.add_argument("--radius", type=float, default=0.5, help="deviation box half-width")
    p_check.add_argument("--steps", type=int, default=41, help="grid points per coordinate")
    p_check.add_argument("--f-coeffs", default="0,1",
                         help="ground-truth polynomial coefficients, low order first")
    p_check.add_argument("--perturb", default=None, metavar="BUYER,SOURCE,DELTA",
                         help="nudge one slope before checking (diagnostic)")
    p_check.set_defaults(handler=_cmd_check)

    p_welfare = sub.add_parser("welfare", help="equilibrium welfare versus the social optimum")
    p_welfare.add_argument("config", help="market config JSON")
    p_welfare.set_defaults(handler=_cmd_welfare)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NoEquilibriumError as err:
        print(err, file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
