"""Spans and call counters recorded around magsphere's public functions.

`Tracer.install` wraps each function named in `SPANS` and `HOT` and rebinds
the wrapper under every module of the package that holds the original, so
that a call from `atlas` into `equilibria.type2` gets a span of its own.
Nothing under `src/` is edited; `uninstall` restores the originals.

A span is the list `[name, start, end, parent, item, self]`, where `parent`
is the index of the enclosing span (-1 for none) and `self` is the span's
duration minus the time its child spans cover.  The layer of a span is the
part of its name before the first dot.  `rhs` and `full_rhs` run about 10^4
times per item, so their wrappers only count calls and add up time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute).  Methods are given as "Class.method".
SPANS = (
    ("reduced.integrate", "reduced", "integrate"),
    ("reduced.to_csv", "reduced", "Trajectory.to_csv"),
    ("fullspace.full_integrate", "fullspace", "full_integrate"),
    ("fullspace.lift_state", "fullspace", "lift_state"),
    ("fullspace.reduce_state", "fullspace", "reduce_state"),
    ("fullspace.to_csv", "fullspace", "FullTrajectory.to_csv"),
    ("equilibria.type1", "equilibria", "type1"),
    ("equilibria.type2", "equilibria", "type2"),
    ("equilibria.solve_general", "equilibria", "solve_general"),
    ("equilibria.solve_right_angle", "equilibria", "solve_right_angle"),
    ("stability.linearize", "stability", "linearize"),
    ("stability.hessian_signature", "stability", "hessian_signature"),
    ("atlas.stability_grid", "atlas", "stability_grid"),
    ("atlas.energy_casimir_diagram", "atlas", "energy_casimir_diagram"),
    ("atlas.bc_region", "atlas", "bc_region"),
    ("atlas.csv_with_metadata", "atlas", "csv_with_metadata"),
)
HOT = (
    ("reduced.rhs", "reduced", "rhs"),
    ("fullspace.full_rhs", "fullspace", "full_rhs"),
)
# Functions returning equilibrium records, whose output the tracer counts.
RECORD_SOURCES = (
    "equilibria.type1",
    "equilibria.type2",
    "equilibria.solve_general",
    "equilibria.solve_right_angle",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.hot: dict = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.records = 0
        self.max_residual = 0.0
        self.item = None
        self._stack: list = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        # the last slot holds child time while the span is open
        self.spans.append([name, perf_counter(), 0.0, parent, self.item, 0.0])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        duration = span[2] - span[1]
        span[5] = duration - span[5]
        if span[3] >= 0:
            self.spans[span[3]][5] += duration

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around each call."""
        count_records = name in RECORD_SOURCES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if count_records:
                self._count_records(out)
            return out

        return wrapper

    def counts(self) -> tuple:
        """Records returned and hot calls so far; each traced pass over the
        same items must add the same amounts."""
        return self.records, self.hot["reduced.rhs"][0], self.hot["fullspace.full_rhs"][0]

    def _count_records(self, out) -> None:
        recs = out if isinstance(out, (list, tuple)) else ()
        self.records += len(recs)
        for r in recs:
            self.max_residual = max(self.max_residual, r.residual)

    def count(self, name: str, fn):
        """`fn` with its calls counted and its time added up; no span."""
        tally = self.hot[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += perf_counter() - start

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, package, extra=()) -> None:
        """Wrap the functions in SPANS and HOT, plus `extra`, a sequence of
        (span name, module object, attribute) for functions outside the
        package.  Each wrapper replaces the original wherever the package
        holds it."""
        modules = [package] + [
            m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")
        ]
        targets = [(n, getattr(package, mod), attr, self.wrap) for n, mod, attr in SPANS]
        targets += [(n, getattr(package, mod), attr, self.count) for n, mod, attr in HOT]
        targets += [(n, mod, attr, self.wrap) for n, mod, attr in extra]
        for name, module, attr, wrapper in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, meth, wrapper(name, owner.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapped = wrapper(name, original)
            for m in set(modules) | {module}:
                if getattr(m, attr, None) is original:
                    self._set(m, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _parent, _item, self_s in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent, item, self."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
