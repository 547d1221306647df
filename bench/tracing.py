"""Spans around the calls into each quasisat layer, installed from outside
the package.

The hooks replace the names that callers look up at call time (module
globals such as `quasisat.solver.eval_env`, and class attributes such as
`Grid.cells`), so nothing under `src/` changes and every version of the
program is measured by the same code.  `quasisat.evaluation.eval_env`
itself is never wrapped: it is recursive, and every term node would
become a span.  A name that no longer exists is reported as an absent
layer instead of failing the run.

A span is (name, start, end, parent span, sentence id).  Spans are kept
in flat arrays while the sentences run and are reduced to per-layer
counts and self times afterwards.  Nothing here waits on anything else
(one thread, no I/O), so no waiting time is recorded.
"""
from __future__ import annotations

import gzip
import importlib
import itertools
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Optional

# (module, attribute, span name, result hook)
FUNCTION_HOOKS = [
    ("quasisat.solver", "eval_env", "evaluation.eval_env", "eval"),
    ("quasisat.solver", "positive_lower_bound", "evaluation.positive_lower_bound", None),
    ("quasisat.solver", "degree", "degree", "degree"),
    ("quasisat.solver", "grid_cover", "geometry.grid_cover", "grid"),
    ("quasisat.evaluation", "sin_enclosure", "series.sin", "prec"),
    ("quasisat.evaluation", "cos_enclosure", "series.cos", "prec"),
    ("quasisat.evaluation", "exp_enclosure", "series.exp", "prec"),
    ("quasisat.evaluation", "sqrt_enclosure", "series.sqrt", "prec"),
    ("quasisat.evaluation", "pi_enclosure", "series.pi", "prec"),
    ("quasisat.distance", "sup_abs_enclosure", "distance.sup_abs_enclosure", None),
    ("quasisat.distance", "eval_env", "distance.eval_env", None),
]
# (module, class, generator method, span name)
GENERATOR_HOOKS = [
    ("quasisat.geometry", "Grid", "cells", "geometry.cells"),
    ("quasisat.geometry", "Grid", "faces", "geometry.faces"),
]
COUNTER_HOOK = ("quasisat.intervals", "RatInterval", "__post_init__")

# span names whose self time makes up each reported layer time
SELF_TIMES = {
    "solver.self_s": ("solver.quasi_decide",),
    "parser.parse.self_s": ("parser.parse",),
    "evaluation.eval_env.self_s": ("evaluation.eval_env",),
    "evaluation.positive_lower_bound.self_s": ("evaluation.positive_lower_bound",),
    "geometry.cells.self_s": ("geometry.cells",),
    "geometry.faces.self_s": ("geometry.faces",),
    "degree.self_s": ("degree",),
    "distance.self_s": ("distance.distance_enclosure", "distance.sup_abs_enclosure",
                        "distance.eval_env"),
    **{f"series.{f}.self_s": (f"series.{f}",) for f in ("sin", "cos", "exp", "sqrt", "pi")},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sentence_of = array("i")
        self.stack = [-1]
        self.sentence = -1
        self.counts: Counter = Counter()
        self.max_p = 0
        self.absent: set[str] = set()
        self._created = None
        self._undo: list[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording --

    def wrap(self, name: str, fn, after: Optional[Callable] = None):
        nid = self._id(name)
        names, start, end = self.name, self.start, self.end
        parent, sentence_of, stack = self.parent, self.sentence_of, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            sentence_of.append(self.sentence)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, genfn):
        nid = self._id(name)
        names, start, end = self.name, self.start, self.end
        parent, sentence_of, stack = self.parent, self.sentence_of, self.stack
        counts, yielded = self.counts, name + ".yielded"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                # one span per step, so the consumer's work between steps
                # is not charged to the generator
                idx = len(names)
                names.append(nid)
                parent.append(stack[-1])
                sentence_of.append(self.sentence)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[idx] = clock()
                    stack.pop()
                counts[yielded] += 1
                yield item
        traced.__wrapped__ = genfn
        return traced

    # -- installing the hooks --

    def install(self) -> None:
        for module, attr, name, hook in FUNCTION_HOOKS:
            target = _lookup(module)
            fn = getattr(target, attr, None) if target is not None else None
            if fn is None:
                self.absent.add(name)
                continue
            self._patch(target, attr, self.wrap(name, fn, self._after(hook)))
        for module, cls_name, attr, name in GENERATOR_HOOKS:
            cls = getattr(_lookup(module), cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self.absent.add(name)
                continue
            self._patch(cls, attr, self.wrap_generator(name, fn))
        module, cls_name, attr = COUNTER_HOOK
        cls = getattr(_lookup(module), cls_name, None)
        orig = getattr(cls, attr, None) if cls is not None else None
        if orig is None:
            self.absent.add("intervals.RatInterval")
            return
        created = self._created = itertools.count()
        tick = created.__next__

        def post_init(self_):
            tick()
            orig(self_)
        self._patch(cls, attr, post_init)

    def _patch(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _after(self, hook: Optional[str]):
        counts = self.counts
        if hook == "eval":
            def after(args, enc):
                if enc.lo > 0 or enc.hi < 0:
                    counts["evaluation.zero_excluded"] += 1
            return after
        if hook == "grid":
            def after(args, grid):
                counts["geometry.grid_cells"] += grid.n_cells
            return after
        if hook == "degree":
            def after(args, result):
                if result is None:
                    counts["degree.failures"] += 1
                    return
                counts["degree.subdivisions"] += result.subdivisions
                if result.value == 0:
                    counts["degree.zero"] += 1
            return after
        if hook == "prec":
            def after(args, result):
                p = args[-1] if args else 0
                if isinstance(p, int) and p > self.max_p:
                    self.max_p = p
            return after
        return None

    # -- reduction --

    def reduce(self) -> dict:
        """Per-name span counts, inclusive and self times."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_t: defaultdict = defaultdict(float)
        for i in range(n):
            nm = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[nm] += 1
            total[nm] += dur
            self_t[nm] += dur - child[i]
        # count() yields as many values as post_init ran before
        created = next(self._created) if self._created is not None else 0
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_t),
                "counts": dict(self.counts), "max_p": self.max_p,
                "created": created, "absent": sorted(self.absent)}

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as out:
            for i in range(len(self.name)):
                out.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                      self.parent[i], self.sentence_of[i]]) + "\n")


def _lookup(module: str):
    try:
        # import_module, not attribute access: quasisat/__init__.py
        # re-exports the function `degree`, which hides the submodule
        return importlib.import_module(module)
    except ImportError:
        return None
