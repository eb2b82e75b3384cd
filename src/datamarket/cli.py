"""Command-line front end.

Four subcommands: ``solve`` (one market, human report plus optional JSON),
``sweep`` (one scalar parameter over a range, CSV out), ``check``
(independent certification of a solved market) and ``welfare`` (equilibrium
versus social optimum).  Exit codes are part of the interface: 0 success,
1 bad input, 2 no equilibrium exists, 3 certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import numbers
import os
import re
import stat
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
    SingularDesignError,
    compute_weights,
    weight_rows,
)
from .equilibrium import (
    RHO_EXISTENCE_THRESHOLD,
    InfeasibleCError,
    NoEquilibriumError,
    NumericFailure,
    complete_solution,
    coupling_matrix,
    solution_from_d,
    solve_equilibrium_d,
    solve_rows,
    spectral_radius,
)
from .welfare import UndefinedPoaError, price_of_anarchy, welfare_rows
from .oracle import (
    best_response_certificate,
    fixed_point_certificate,
    payment_moments,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_EQUILIBRIUM = 2
EXIT_CERTIFICATION = 3

# A sweep is one curve: more points than this is a malformed spec, and an
# unbounded count would exhaust memory before the first row.
MAX_SWEEP_STEPS = 10_000
# Entries of xi and of the grouped coupling matrix (8 bytes each) per batch
# of sweep rows computed together, so a sweep of a large market stays within
# a few megabytes.
_BATCH_ENTRIES = 1 << 20


class ConfigError(Exception):
    """Malformed configuration document."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def _number(v) -> float:
    """v as a float if it is a number; a boolean or a numeric string is not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


def _as_float(doc, key, where):
    try:
        return _number(doc[key])
    except KeyError:
        raise ConfigError(f"{where}: missing key {key!r}") from None
    except (TypeError, OverflowError):
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
            return ValueDistribution.discrete(map(_number, pts), map(_number, wts))
        except (TypeError, OverflowError):
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
            delta = tuple(map(_number, delta))
        except (TypeError, OverflowError):
            raise ConfigError(f"{where}: delta entries must be numbers") from None
        eta = _as_float(b, "eta", where) if "eta" in b else 1.0
        buyers.append(DataBuyer(estimator=est, value_dist=dist, delta_row=delta, eta=eta))

    try:
        fd = (_number(fd[0]), _number(fd[1]))
    except (TypeError, OverflowError):
        raise ConfigError("feature_domain entries must be numbers") from None
    return MarketInstance(sources=tuple(sources), buyers=tuple(buyers), feature_domain=fd)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    except (json.JSONDecodeError, RecursionError) as err:
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
    """Weights and slopes of one market, as ``(w, sol)``.

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
    return w, solve_equilibrium_d(w, m)


def _write_json(fh, obj, pad="\n", memo=None):
    """Write obj as ``json.dump(obj, fh, indent=2)`` would with its arrays as
    lists, one row at a time; ``pad`` is the line break and indent of obj's
    depth.  Rows are memoized by content: buyers sharing xi rows format once."""
    memo = {} if memo is None else memo
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size:
        key = (pad, obj.tobytes())
        if key not in memo:
            fmt = float.__repr__ if np.isfinite(obj).all() else json.dumps  # NaN, Infinity
            memo[key] = "[" + inner + ("," + inner).join(map(fmt, obj.tolist())) + pad + "]"
        fh.write(memo[key])
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(obj.items()):
            fh.write(("," if i else "{") + inner + json.dumps(key) + ": ")
            _write_json(fh, value, inner, memo)
        fh.write(pad + "}")
    elif isinstance(obj, (list, np.ndarray)) and len(obj):
        for i, item in enumerate(obj):
            fh.write(("," if i else "[") + inner)
            _write_json(fh, item, inner, memo)
        fh.write(pad + "]")
    else:
        fh.write(json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj))


def _print_matrix(label: str, arr: np.ndarray):
    print(f"{label}:")
    for j, row in enumerate(np.atleast_2d(arr)):
        cells = "  ".join(_fmt(v) for v in row)
        print(f"  buyer {j + 1}: {cells}")


def _print_vector(label: str, vec: np.ndarray):
    cells = "  ".join(_fmt(v) for v in vec)
    print(f"{label}: {cells}")


def _print_welfare(report):
    _print_vector("socially optimal efforts", report.efforts_opt)
    print(f"social loss at equilibrium: {_fmt(report.loss_eq)}")
    print(f"social loss at optimum: {_fmt(report.loss_opt)}")
    print(f"price of anarchy: {_fmt(report.poa)}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    m = _load_market(args.config)
    w, sol = _run(m)

    infeasible_c = None
    try:
        sol = complete_solution(sol, w)
    except InfeasibleCError as err:
        infeasible_c = err

    welfare = None
    welfare_note = None
    try:
        welfare = price_of_anarchy(sol, w, m)
    except UndefinedPoaError as err:
        welfare_note = str(err)

    print(f"market: {m.n_sources} sources, {m.n_buyers} buyers")
    print(f"spectral radius: {_fmt(sol.rho)}")
    print(f"solve residual: {_fmt(sol.residual)}")
    print()
    _print_matrix("gamma (per source)", w.gamma)
    _print_matrix("equilibrium slopes d", sol.d)
    _print_vector("total slope per source", sol.d_total)
    _print_vector("efforts", sol.efforts)
    _print_vector("variances", sol.variances)
    if infeasible_c is None:
        _print_matrix("canonical flat payments c", sol.c_polytope.canonical)
        _print_vector("required total payment E", sol.c_polytope.E)
    else:
        print(f"flat payments: infeasible ({infeasible_c})")
    if welfare is not None:
        _print_welfare(welfare)
    elif welfare_note:
        print(f"welfare: skipped ({welfare_note})")

    if args.json_out:
        payload = {
            "n_sources": m.n_sources,
            "n_buyers": m.n_buyers,
            "rho": sol.rho,
            "beta": w.beta,
            "xi": w.xi,
            "gamma": w.gamma,
            "d": sol.d,
            "d_total": sol.d_total,
            "efforts": sol.efforts,
            "variances": sol.variances,
            "residual": sol.residual,
            "status": "ok",
        }
        if infeasible_c is None:
            payload["c"] = {
                "E": sol.c_polytope.E,
                "L": sol.c_polytope.L,
                "slack": sol.efforts,
                "canonical": sol.c_polytope.canonical,
                "feasible": True,
            }
        else:
            payload["c"] = {"feasible": False, "reason": str(infeasible_c)}
        if welfare is not None:
            payload["welfare"] = {
                "efforts_opt": welfare.efforts_opt,
                "loss_eq": welfare.loss_eq,
                "loss_opt": welfare.loss_opt,
                "poa": welfare.poa,
            }
        else:
            payload["welfare"] = None
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                _write_json(fh, payload)
                fh.write("\n")
        except OSError as err:
            raise ConfigError(f"cannot write {args.json_out}: {err}") from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_PARAM_RE = re.compile(r"^(sources|buyers)\[(\d+)\]\.([a-z_]+)$")
# The sweepable fields: (section, field) -> (the MarketInstance column it
# fills, the rule validate_market applies to it on market m, for an array v).
_SWEEPABLE = {
    ("sources", "x"): ("locations", lambda v, m: (m.feature_domain[0] <= v) & (v <= m.feature_domain[1])),
    ("sources", "alpha"): ("alphas", lambda v, m: (0.0 < v) & (v < math.inf)),
    ("buyers", "eta"): ("etas", lambda v, m: (0.0 < v) & (v < math.inf)),
}


def _apply_param(doc: dict, path: str, value: float) -> tuple:
    """Set the swept field of doc to value; returns the field's (column, rule, index)."""
    match = _PARAM_RE.match(path)
    if not match or (match.group(1), match.group(3)) not in _SWEEPABLE:
        raise ConfigError(f"unsupported sweep parameter {path!r}")
    section, idx, field = match.group(1), int(match.group(2)), match.group(3)
    try:
        doc[section][idx][field] = value
    except (IndexError, KeyError, TypeError):
        raise ConfigError(f"sweep parameter {path!r} does not exist in the base config") from None
    return _SWEEPABLE[section, field] + (idx,)


def _sweep_market(doc: dict, path: str, value) -> tuple:
    """The validated market of doc at one sweep value, and the field's (column, rule, index)."""
    field = _apply_param(doc, path, float(value))
    m = market_from_config(doc)
    violations = validate_market(m)
    if violations:
        v0 = violations[0]
        raise ConfigError(
            f"sweep value {path}={_fmt(value)} yields an invalid market: [{v0.code}] {v0.where}: {v0.message}"
        )
    return m, field


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


def _row_template(mask) -> str:
    """The %-template of a sweep row that has the cells where mask is true.

    ``template % (*cells, status)`` is the row's CSV line with its newline:
    ``%.12g`` formats a present cell and ``%.0s`` leaves an absent one an
    empty field, so one ``%`` takes every cell of the row.
    """
    return ",".join(["%.12g" if keep else "%.0s" for keep in mask]) + ",%s\n"


def _sweep_table(m: MarketInstance, values: np.ndarray, column: str, index: int) -> tuple:
    """A batch of sweep rows, computed together, as ``(table, widths, flags)``.

    Row r is market m with entry ``index`` of its ``column`` (``_SWEEPABLE``)
    set to values[r].  It equals what ``_run`` gives on that market: the
    same stages run once over the rows, and a row that stops early gets a
    status instead of raising.  ``solve_rows`` gates every row that has xi,
    so a weights error past the gate reads no_equilibrium, as ``_run``
    raises it.  A NumericFailure from the welfare checks still aborts.
    ``table[r]`` holds row r's cells in CSV order, in groups of ``widths``;
    ``flags[r]`` marks its groups, then whether it is ok and past the gate.
    """
    n, mm = m.n_sources, m.n_buyers
    # np.repeat and transpose, not np.tile and np.moveaxis: those two leave a
    # few tuples in the interpreter's free lists per call, which pile up over
    # a sweep of many small batches
    xs, alphas, etas = (np.repeat(np.array([getattr(m, name)()], dtype=float), len(values), axis=0)
                        for name in ("locations", "alphas", "etas"))
    {"locations": xs, "alphas": alphas, "etas": etas}[column][:, index] = values

    w, errors = weight_rows(m, xs, etas)
    weighted = np.array([e is None for e in errors], dtype=bool)
    has_xi = np.array([e is None or e.xi is not None for e in errors], dtype=bool)
    sol, solve_errors = solve_rows(w.xi[has_xi], w.gamma[has_xi], alphas[has_xi])
    past_gate, ok = np.zeros((2, len(values)), dtype=bool)
    past_gate[has_xi] = [isinstance(e, NoEquilibriumError) for e in solve_errors]
    ok[has_xi] = [e is None for e in solve_errors]
    ok &= weighted
    solved = ok[has_xi]

    rep, welfare_errors = welfare_rows(sol.efforts[solved], w.xi[ok], w.gamma[ok], alphas[ok], etas[ok])
    for err in welfare_errors:
        if isinstance(err, NumericFailure):
            raise err
    has_welfare = ok.copy()
    has_welfare[ok] = [e is None for e in welfare_errors]

    off_diag = ~np.eye(n, dtype=bool)
    columns = [
        # (rows that have the cells, the cells of those rows), in CSV order
        (np.ones(len(values), dtype=bool), values[:, None]),
        (weighted, np.swapaxes(w.gamma[weighted], -1, -2).reshape(-1, n * mm)),
        (has_xi, w.xi[has_xi].transpose(0, 2, 3, 1)[:, off_diag].reshape(-1, n * (n - 1) * mm)),
        (has_xi, sol.rho[:, None]),
        (ok, np.swapaxes(sol.d[solved], -1, -2).reshape(-1, n * mm)),
        (ok, sol.efforts[solved]),
        (has_welfare, np.column_stack([rep.efforts_opt, rep.loss_eq, rep.loss_opt, rep.poa])
         [has_welfare[ok]]),
    ]
    widths = [cells.shape[1] for _, cells in columns]
    table = np.zeros((len(values), sum(widths)))
    start = 0
    for (present, cells), width in zip(columns, widths):
        table[present, start:start + width] = cells
        start += width
    return table, widths, np.column_stack([present for present, _ in columns] + [ok, past_gate])


def _sweep_lines(fh, m: MarketInstance, values: np.ndarray, column: str, index: int) -> None:
    """Write a batch of sweep rows to fh, holding only their table while the lines are written."""
    table, widths, flags = _sweep_table(m, values, column, index)
    # a row's kind is its flags, one bit each: a batch has only a few kinds
    # (ok, no_equilibrium, each kind of error), each with one template
    kinds = {}
    for r, kind in enumerate((flags @ (1 << np.arange(flags.shape[1]))).tolist()):
        if kind not in kinds:
            *present, ok, past_gate = flags[r].tolist()
            kinds[kind] = (_row_template(np.repeat(present, widths).tolist()),
                           "ok" if ok else "no_equilibrium" if past_gate else "error")
        template, status = kinds[kind]
        fh.write(template % (*table[r].tolist(), status))


def _open_out(path: str) -> tuple:
    """path opened for writing the CSV, and whether this call created it."""
    try:
        return open(path, "x", encoding="utf-8", newline=""), True
    except FileExistsError:
        return open(path, "w", encoding="utf-8", newline=""), False


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
        lo = _number(rng_doc["from"])
        hi = _number(rng_doc["to"])
        steps = rng_doc["steps"]
    except (KeyError, TypeError, OverflowError):
        raise ConfigError("range needs numeric 'from', 'to' and integer 'steps'") from None
    if not isinstance(steps, int) or isinstance(steps, bool) or not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"range.steps must be an integer from 2 to {MAX_SWEEP_STEPS}, got {steps!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError("range bounds must be finite")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"range from {_fmt(lo)} to {_fmt(hi)} is wider than a float can hold")

    if isinstance(base, str):
        # an absolute base path replaces the spec's directory in the join
        base = _load_json(os.path.join(os.path.dirname(os.path.abspath(args.spec)), base))
    if not isinstance(base, dict):
        raise ConfigError("sweep base must be a config object or a path to one")

    values = np.linspace(lo, hi, steps)
    # base was loaded for this call alone and a market keeps no reference
    # into its document, so each value is set in base itself
    m, (column, valid, index) = _sweep_market(base, param, values[0])
    # m is valid whole, so a later value can only break the swept field;
    # validate_market reports the first value that does
    for v in values[~valid(values, m)]:
        _sweep_market(base, param, v)

    # buyers of one degree share xi, so R is at most N * (distinct degrees) wide
    n_groups = len({b.estimator.degree for b in m.buyers})
    batch = max(1, _BATCH_ENTRIES // (m.n_buyers * m.n_sources ** 2 + (m.n_sources * n_groups) ** 2))
    try:
        fh, created = _open_out(args.out)
    except OSError as err:
        raise ConfigError(f"cannot write {args.out}: {err}") from None
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            fh.write(",".join(_sweep_columns(m.n_sources, m.n_buyers)) + "\n")
            for start in range(0, len(values), batch):
                _sweep_lines(fh, m, values[start:start + batch], column, index)
    except BaseException as err:
        # an aborted sweep leaves no rows: the file it created is removed and
        # a regular file it overwrote is emptied (a device or a pipe, such
        # as /dev/stdout, is left as it is)
        with contextlib.suppress(OSError):
            if created:
                os.remove(args.out)
            elif regular:
                os.truncate(args.out, 0)
        if isinstance(err, OSError):
            raise ConfigError(f"cannot write {args.out}: {err}") from None
        raise
    print(f"wrote {len(values)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    # --seed keeps its old range
    if args.seed < 0:
        raise ValueError("check needs --seed >= 0")
    m = _load_market(args.config)
    w, sol = _run(m)
    sol = complete_solution(sol, w)
    # certified at the unperturbed slopes, before --perturb moves them
    rho, bound = sol.rho, fixed_point_certificate(sol, w)
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
            sol = solution_from_d(d_mod, w, m)
        except (InfeasibleCError, ValueError) as err:
            raise ValueError(f"perturbed slopes are not checkable: {err}") from None
        print(f"perturbed d[{j + 1},{i + 1}] by {_fmt(amt)}")

    print(f"spectral radius: {_fmt(rho)}")
    failures = []

    for k in range(m.n_buyers):
        rep = best_response_certificate(sol, k, w, m)
        if rep.certified:
            saving, verdict = f"{rep.bound:.3g}", "certified"
        elif rep.improvable:
            saving, verdict = f"{rep.improvement:.3g}", "IMPROVABLE"
            failures.append(f"buyer {k + 1} can improve by {saving}")
        else:
            saving, verdict = f"between {rep.improvement:.3g} and {rep.bound:.3g}", "UNDECIDED"
            failures.append(f"buyer {k + 1}'s best response is undecided")
        print(f"best response buyer {k + 1}: max improvement {saving} "
              f"(tolerance {rep.tolerance:.3g}) {verdict}")

    print(f"fixed point: within {bound:.3g} of the exact solution")
    if not bound <= 1e-8:
        failures.append(f"the solve is not certified within 1e-8 of the fixed point ({bound:.3g})")

    pay = payment_moments(sol, m)
    for (j, i), z in np.ndenumerate(pay.z_score):
        z_text = f"{z:+.2f}".replace("-0.00", "+0.00")  # a z that rounds to zero has no sign
        print(f"payment buyer {j + 1} source {i + 1}: empirical {_fmt(pay.exact_mean[j, i])} "
              f"analytic {_fmt(pay.analytic_mean[j, i])} z {z_text}")
    # np.max propagates NaN, and a NaN z-score must fail
    worst = float(np.max(np.abs(pay.z_score), initial=0.0))
    if not worst <= 1.0:
        failures.append(f"exact payment means disagree with the payment floors (|z| = {worst:.2f})")

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
    w, sol = _run(m)
    report = price_of_anarchy(sol, w, m)

    _print_vector("equilibrium efforts", sol.efforts)
    _print_welfare(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Input and model errors: each exits 1 with its message.
_INPUT_ERRORS = (
    ConfigError, SingularDesignError, GammaNegativeError, InfeasibleCError,
    NumericFailure, UndefinedPoaError, ValueError, OverflowError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage, which is this tool's no-equilibrium code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on the first call; parsing leaves it unchanged."""
    parser = _Parser(
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
    p_check.add_argument("--seed", type=int, default=42,
                         help="accepted for older scripts; it no longer changes the result")
    p_check.add_argument("--perturb", default=None, metavar="BUYER,SOURCE,DELTA",
                         help="nudge one slope before checking (diagnostic)")
    p_check.set_defaults(handler=_cmd_check)

    p_welfare = sub.add_parser("welfare", help="equilibrium welfare versus the social optimum")
    p_welfare.add_argument("config", help="market config JSON")
    p_welfare.set_defaults(handler=_cmd_welfare)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head -1` does): what is still
        # buffered, and the flush at exit, go to devnull instead of raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except NoEquilibriumError as err:
        print(err, file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
