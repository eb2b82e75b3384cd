"""Span recording around the calls between the program's layers.

For the traced run only, every public function that ``datamarket.cli``,
``datamarket.estimators``, ``datamarket.equilibrium`` and ``datamarket.oracle``
reach through their module namespace is rebound to a wrapper that records a
span (name, start, end, parent, op id).  Functions defined in ``cli`` itself
stay unwrapped, except ``main``, so that parsing, copying, formatting and
file writing count as ``cli`` self time.  Nothing in the package changes;
``uninstall`` restores every binding.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time

NAMESPACES = ("cli", "estimators", "equilibrium", "oracle")


def _layer(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# Counts derived from arguments and results (computed, not observed inside
# the program): name -> (counter, function of bound arguments and result).
COUNTS = {
    "equilibrium.coupling_matrix": (
        "equilibrium.A_bytes_computed", lambda a, res: res.nbytes),
    "oracle.monte_carlo_payments": (
        "oracle.monte_carlo_draws", lambda a, res: int(a["n_samples"]) * a["m"].n_sources),
    "oracle.best_response_check": (
        "oracle.best_response_candidates",
        lambda a, res: 1 + a["m"].n_sources * a["steps"] + a["steps"] ** 2),
    "oracle.neumann_dynamics": (
        "oracle.neumann_iters", lambda a, res: res.iters),
}


class Tracer:
    """In-memory spans; ``op`` is the id of the operation in flight."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list = []
        self._saved: list = []
        self._wrappers: dict = {}

    def wrap(self, fn):
        name = _layer(fn)
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[count[0]] += count[1](bound.arguments, res)
            return res

        return traced

    def install(self):
        for short in NAMESPACES:
            mod = sys.modules[f"datamarket.{short}"]
            for attr, val in list(vars(mod).items()):
                if not inspect.isfunction(val) or attr.startswith("_"):
                    continue
                if not val.__module__.startswith("datamarket."):
                    continue
                if val.__module__ == "datamarket.cli" and attr != "main":
                    continue
                if val not in self._wrappers:
                    self._wrappers[val] = self.wrap(val)
                self._saved.append((mod, attr, val))
                setattr(mod, attr, self._wrappers[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list) -> list:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict = collections.defaultdict(list)
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def totals(spans: list, ops: set | None = None) -> dict:
    """name -> {"incl": seconds, "self": seconds, "calls": n} over the spans
    whose op id is in ``ops`` (all when None).  Inclusive time counts only
    the outermost span of a name, so recursion is not counted twice."""
    selfs = self_times(spans)
    out: dict = collections.defaultdict(lambda: {"incl": 0.0, "self": 0.0, "calls": 0})
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        t = out[name]
        t["calls"] += 1
        t["self"] += selfs[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["incl"] += end - start
    return dict(out)
