"""Output checker: every operation's result against reference.py.

A verdict carries the first cause of failure, if any, and the largest
relative errors of the reported spectral radius and slopes.  Identical
output of the same operation gets the same verdict, so repeats in the
closed loop are checked by hash instead of by a second eigenvalue solve.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# Failure thresholds.
RHO_TOL = 1e-3
D_TOL = 1e-6
# The sweep CSV carries 12 significant digits, so a system rebuilt from its
# cells differs from the program's by up to ~5e-12 relative in A, gamma and
# d; slopes solved from it may differ by CELL_EPS * (1 + cond(I - A)).
CELL_EPS = 1e-11
ALGEBRA_TOL = 1e-9
# Inside this distance of the gate the status is not judged.
GATE_BAND = 1e-6

STATUSES = ("ok", "no_equilibrium", "error")


@dataclass
class Verdict:
    cause: str | None = None
    rho_err: float = 0.0
    d_err: float = 0.0
    statuses: collections.Counter = field(default_factory=collections.Counter)

    @property
    def ok(self) -> bool:
        return self.cause is None


class Mismatch(Exception):
    """The output contradicts the reference; the message is the cause."""


def _rho_err(got: float, want: float) -> float:
    return abs(got - want) / want if want > 0.0 else abs(got)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_header(n: int, m: int) -> list:
    """The CSV columns ``sweep`` writes for an N-source, M-buyer base."""
    cols = ["param"]
    cols += [f"gamma_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
    cols += [f"xi_{i + 1}_{l + 1}_{j + 1}"
             for i in range(n) for l in range(n) if l != i for j in range(m)]
    cols.append("rho")
    cols += [f"d_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
    cols += [f"e_star_{i + 1}" for i in range(n)]
    cols += [f"e_hat_{i + 1}" for i in range(n)]
    cols += ["loss_eq", "loss_opt", "poa", "status"]
    return cols


def _floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells])


def _sweep_row(cells: list, n: int, m: int, v: Verdict):
    nm = n * m
    gamma_c = cells[1:1 + nm]
    xi_c = cells[1 + nm:1 + nm + n * (n - 1) * m]
    k = 1 + nm + n * (n - 1) * m
    rho_c, d_c, status = cells[k], cells[k + 1:k + 1 + nm], cells[-1]
    if status not in STATUSES:
        raise Mismatch(f"unknown status {status!r}")
    v.statuses[status] += 1
    if rho_c == "":
        if status != "error" or any(xi_c) or any(d_c):
            raise Mismatch(f"row without rho has status {status!r} or stray cells")
        return
    xi = np.zeros((m, n, n))
    flat = iter(_floats(xi_c))
    for i in range(n):
        for l in range(n):
            if l != i:
                for j in range(m):
                    xi[j, i, l] = next(flat)
    a = ref.coupling(xi)
    rho_ref = ref.rho(a)
    rho = float(rho_c)
    err = _rho_err(rho, rho_ref)
    v.rho_err = max(v.rho_err, err)
    if not err <= RHO_TOL:
        raise Mismatch(f"rho {rho!r} vs reference {rho_ref!r}")
    if abs(rho_ref - ref.GATE) > GATE_BAND:
        if (status == "no_equilibrium") != (rho_ref >= ref.GATE):
            raise Mismatch(f"status {status!r} but reference rho {rho_ref!r}")
    if status == "no_equilibrium" or (
            status == "error" and ("" in gamma_c or rho_ref >= ref.GATE - GATE_BAND)):
        return
    if "" in gamma_c or (status == "ok" and "" in d_c):
        raise Mismatch(f"{status} row with empty gamma or d cells")
    ima = np.eye(a.shape[0]) - a
    d_ref = np.linalg.solve(ima, _floats(gamma_c))
    allow = CELL_EPS * (1.0 + np.linalg.cond(ima, np.inf))
    if status == "error":
        # Weights were fitted and rho is below the gate, so the only
        # legitimate error is a solved slope that is negative or a source
        # with zero total slope; slopes clearly positive beyond the cells'
        # rounding rule both out.
        if d_ref.min() > allow * (1.0 + np.abs(d_ref).max()):
            raise Mismatch(f"error row, but the reference slopes are positive (min {d_ref.min():.3g})")
        return
    err = ref.rel_err(_floats(d_c), d_ref)
    # only the error beyond what the cells' rounding explains counts
    v.d_err = max(v.d_err, err - allow)
    if not err <= D_TOL + allow:
        raise Mismatch(f"slopes off by {err:.3g} relative (rounding allows {allow:.3g})")


def check_sweep(op, data: bytes) -> Verdict:
    v = Verdict()
    spec = op.info["spec"]
    base = spec["base"]
    n, m = len(base["sources"]), len(base["buyers"])
    header = sweep_header(n, m)
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "" or lines[0] != ",".join(header):
        raise Mismatch("CSV header or final newline differs from the documented layout")
    rows = lines[1:-1]
    rng = spec["range"]
    values = np.linspace(rng["from"], rng["to"], rng["steps"])
    if len(rows) != len(values):
        raise Mismatch(f"{len(rows)} rows for {len(values)} sweep values")
    width = len(header)
    for r, (line, value) in enumerate(zip(rows, values)):
        cells = line.split(",")
        if len(cells) != width:
            raise Mismatch(f"row {r + 1} has {len(cells)} cells, expected {width}")
        if not math.isclose(float(cells[0]), value, rel_tol=1e-11, abs_tol=1e-12):
            raise Mismatch(f"row {r + 1} param {cells[0]} is not sweep value {value!r}")
        try:
            _sweep_row(cells, n, m, v)
        except Mismatch as err:
            raise Mismatch(f"row {r + 1} ({cells[0]}): {err}") from None
    return v


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def check_solve(op, data: bytes) -> Verdict:
    v = Verdict()
    doc = json.loads(data)
    if doc.get("status") != "ok":
        raise Mismatch(f"status {doc.get('status')!r}")
    xi = np.array(doc["xi"], dtype=float)
    gamma = np.array(doc["gamma"], dtype=float)
    d = np.array(doc["d"], dtype=float)
    m, n = gamma.shape
    if xi.shape != (m, n, n) or d.shape != (m, n):
        raise Mismatch(f"xi {xi.shape} / d {d.shape} do not fit gamma {gamma.shape}")
    a = ref.coupling(xi)
    rho_ref = ref.rho(a)
    v.rho_err = _rho_err(float(doc["rho"]), rho_ref)
    if not v.rho_err <= RHO_TOL:
        raise Mismatch(f"rho {doc['rho']!r} vs reference {rho_ref!r}")
    d_ref = ref.slopes(a, ref.stack(gamma)).reshape(n, m).T
    v.d_err = ref.rel_err(d, d_ref)
    if not v.d_err <= D_TOL:
        raise Mismatch(f"slopes off by {v.d_err:.3g} relative")
    c = doc["c"]
    if not c.get("feasible"):
        raise Mismatch(f"payments infeasible: {c.get('reason')}")
    err = ref.rel_err(np.sum(c["canonical"], axis=0), c["E"])
    if not err <= ALGEBRA_TOL:
        raise Mismatch(f"canonical payments miss E by {err:.3g} relative")
    e_ref = ref.efforts(d_ref.sum(axis=0), np.asarray(op.info["alphas"], dtype=float))
    err = ref.rel_err(doc["efforts"], e_ref)
    if not err <= ALGEBRA_TOL:
        raise Mismatch(f"efforts off log(2 alpha d)/(2 alpha) by {err:.3g} relative")
    return v


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

_RHO_LINE = re.compile(r"^spectral radius: (\S+)$", re.M)
_PAY_LINE = re.compile(
    r"^payment buyer (\d+) source (\d+): empirical \S+ analytic (\S+) z \S+$", re.M)


def check_check(op, stdout: str) -> Verdict:
    """rho against the set-up reference; analytic payments against
    ``d[j,i] / d_total[i] * effort[i]`` from the reference slopes."""
    v = Verdict()
    found = _RHO_LINE.search(stdout)
    if not found:
        raise Mismatch("no spectral radius line")
    v.rho_err = _rho_err(float(found.group(1)), op.info["rho"])
    if not v.rho_err <= RHO_TOL:
        raise Mismatch(f"rho {found.group(1)} vs reference {op.info['rho']!r}")
    verdict = "FAIL" if op.expect == 3 else "PASS"
    if f"certification: {verdict}\n" not in stdout:
        raise Mismatch(f"no 'certification: {verdict}' line")
    if op.info.get("perturbed"):
        return v
    d = op.info["d"]
    d_total = d.sum(axis=0)
    pay_ref = d / d_total[None, :] * ref.efforts(d_total, op.info["alphas"])[None, :]
    pay = np.full(d.shape, np.nan)
    for j, i, analytic in _PAY_LINE.findall(stdout):
        pay[int(j) - 1, int(i) - 1] = float(analytic)
    v.d_err = ref.rel_err(pay, pay_ref)
    if not v.d_err <= D_TOL:
        raise Mismatch(f"analytic payments off by {v.d_err:.3g} relative")
    return v


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class Checker:
    """Judges each call; caches verdicts by (operation, exit code, output)."""

    def __init__(self):
        self._cache: dict = {}
        self._first: dict = {}

    def __call__(self, index: int, op, rc, stdout: str, data: bytes | None) -> Verdict:
        if rc != op.expect:
            return Verdict(cause=f"exit code {rc}, expected {op.expect}")
        body = stdout.encode("utf-8") if op.kind == "check" else (data or b"")
        digest = hashlib.sha256(body).hexdigest()
        if op.kind == "sweep":
            first = self._first.setdefault(index, digest)
            if first != digest:
                return Verdict(cause="repeated sweep wrote a different CSV")
        key = (index, rc, digest)
        if key not in self._cache:
            self._cache[key] = self._judge(op, stdout, data)
        return self._cache[key]

    @staticmethod
    def _judge(op, stdout: str, data: bytes | None) -> Verdict:
        try:
            if op.kind == "check":
                return check_check(op, stdout)
            if op.expect != 0:
                if data is not None:
                    raise Mismatch("an output file was written despite the error exit")
                return Verdict()
            if data is None:
                raise Mismatch("no output file")
            if op.kind == "sweep":
                return check_sweep(op, data)
            return check_solve(op, data)
        except Mismatch as err:
            return Verdict(cause=str(err))
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as err:
            return Verdict(cause=f"unreadable output: {type(err).__name__}: {err}")
