"""Per-layer tracing bound from outside the program.

Tracer.install() rebinds public names of sixvertex (module functions where
their callers look them up, and class attributes) to wrappers that record
spans (name, start, end, parent) or counts in memory; restore() puts every
original back. A name that cannot be bound is kept in `missing`, and the
traced run refuses to report. Spans are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> the (module, attribute) bindings that callers look it up by
SPANS = {
    "grid.build": [
        ("sixvertex.grid", "build_torus"),
        ("sixvertex.acceptance", "build_torus"),
        ("sixvertex.grid.SignatureGrid", "build"),
    ],
    "grid.validate": [
        ("sixvertex.grid", "validate"),
        ("sixvertex.solvers", "validate"),
        ("sixvertex.contract", "validate"),
        ("sixvertex.evaluate", "validate"),
    ],
    "classify.in_P": [("sixvertex.classify", "in_P"), ("sixvertex.solvers", "in_P")],
    "classify.in_A": [("sixvertex.classify", "in_A"), ("sixvertex.solvers", "in_A")],
    "classify.classify": [("sixvertex.classify", "classify"), ("sixvertex.acceptance", "classify")],
    "contract.plan": [
        ("sixvertex.contract", "plan_contraction"),
        ("sixvertex.acceptance", "sequential_plan"),
    ],
    "contract.eval": [
        ("sixvertex.contract", "contract_eval"),
        ("sixvertex.solvers", "contract_eval"),
        ("sixvertex.acceptance", "contract_eval"),
    ],
    "solvers.solve": [("sixvertex.solvers", "solve")],
    "solvers.solve_P": [("sixvertex.solvers", "solve_P"), ("sixvertex.acceptance", "solve_P")],
    "solvers.solve_A": [("sixvertex.solvers", "solve_A"), ("sixvertex.acceptance", "solve_A")],
    "solvers.solve_M": [("sixvertex.solvers", "solve_M"), ("sixvertex.acceptance", "solve_M")],
    "gf2.reduce": [("sixvertex.gf2.LinearSystemGF2", "reduce")],
    "gf2.gauss_sum": [("sixvertex.solvers", "gauss_sum"), ("sixvertex.gf2", "gauss_sum")],
    "evaluate.brute": [
        ("sixvertex.evaluate", "brute_force_eval"),
        ("sixvertex.solvers", "brute_force_eval"),
        ("sixvertex.acceptance", "brute_force_eval"),
    ],
}

# count name -> class attributes whose calls it counts
COUNTS = {
    "scalar.mul_calls": [("sixvertex.scalar.Scalar", n) for n in ("__mul__", "__rmul__")],
    "scalar.add_calls": [
        ("sixvertex.scalar.Scalar", n) for n in ("__add__", "__radd__", "__sub__", "__rsub__")
    ],
    "scalar.div_calls": [("sixvertex.scalar.Scalar", n) for n in ("__truediv__", "__rtruediv__")],
    "gf2.substitute_calls": [("sixvertex.gf2.QuadraticPhase", "substitute")],
}


def _resolve(path: str):
    """A module, or a class inside one: 'sixvertex.gf2.LinearSystemGF2'."""
    if path in sys.modules:
        return sys.modules[path]
    mod, _, cls = path.rpartition(".")
    return getattr(sys.modules[mod], cls)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.plans: list = []  # (grid, plan) pairs for the contract.* metrics
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "contract.plan":
                tracer.plans.append((args[0] if args else kwargs["grid"], result))
            elif name == "evaluate.brute":
                tracer.counts["evaluate.brute_assignments"] += result.stats.get("assignments", 0)
            elif name == "grid.validate":
                tracer.counts["grid.validate_calls"] += 1
            elif name in ("classify.in_P", "classify.in_A"):
                tracer.counts[name + "_calls"] += 1
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- binding

    def _bind(self, path, attr, make):
        try:
            owner = _resolve(path)
        except (KeyError, AttributeError):
            self.missing.add(f"{path}.{attr}")
            return
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.add(f"{path}.{attr}")
            return
        self._saved.append((owner, attr, raw))
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self):
        for name, targets in SPANS.items():
            for path, attr in targets:
                self._bind(path, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, targets in COUNTS.items():
            for path, attr in targets:
                self._bind(path, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        acc = sys.modules.get("sixvertex.acceptance")
        if acc is None or not hasattr(acc, "CRITERIA"):
            self.missing.add("sixvertex.acceptance.CRITERIA")
        else:
            self._saved.append((acc, "CRITERIA", acc.CRITERIA))
            acc.CRITERIA = tuple(
                (label, self._span_wrapper(f"acceptance.criterion{i}", fn))
                for i, (label, fn) in enumerate(acc.CRITERIA, start=1)
            )

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------- reporting

    def self_times(self, lo: int = 0, hi: int | None = None) -> Counter:
        """Summed self time (duration minus child spans) per span name, over
        spans[lo:hi]."""
        hi = len(self.spans) if hi is None else hi
        out = Counter()
        for name, start, end, parent in self.spans[lo:hi]:
            out[name] += end - start
            if parent >= lo:
                out[self.spans[parent][0]] -= end - start
        return out

    def inclusive_times(self, lo: int = 0) -> Counter:
        out = Counter()
        for name, start, end, _parent in self.spans[lo:]:
            out[name] += end - start
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def plan_figures(grid, plan):
    """(steps, peak rank, work bound) of a plan on a grid; the work bound is
    the sum over steps of 2^(open edges after the merge)."""
    live = {}
    for v in grid.vertices:
        live[frozenset((v,))] = {
            e for e, (p, q) in enumerate(grid.edges) if (p.vertex == v) != (q.vertex == v)
        }
    work = 0
    for ka, kb in plan.steps:
        merged = live.pop(ka) ^ live.pop(kb)
        live[ka | kb] = merged
        work += 1 << len(merged)
    return len(plan.steps), plan.peak_rank, work
