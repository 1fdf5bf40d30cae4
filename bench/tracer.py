"""In-memory spans around the calls the benchmark makes into qkmp.

A span records name, start, end, parent span and the id of the instance it
belongs to. Functions called millions of times (``evaluate`` inside
``brute_force``) are aggregated instead: a call count and busy time per
name, with the busy time also charged to the enclosing span so that self
times stay exact. Nothing here edits the package: the traced run rebinds
module globals that ``solve_bb``, ``brute_force``, ``assignment_report`` and
``ExperimentConfig.build_instance`` look up at call time, and puts the
originals back afterwards.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

# (module attribute, global name, span name, aggregated?)
INNER_HOOKS = (
    ("solver", "greedy_heuristic", "solver.warm_start", False),
    ("solver", "evaluate", "instance.evaluate", True),
    ("analysis", "evaluate", "instance.evaluate", True),
    ("harness", "generate_er", "graph.generate_er", False),
)

NAME, START, END, PARENT, INSTANCE, AGG_CHILD_S = range(6)


class NullTracer:
    """Untraced runs: every wrapper is the function itself."""

    instance = None

    def span(self, name, fn):
        return fn

    def aggregate(self, name, fn):
        return fn


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.agg: dict[str, list] = {}
        self.instance: str | None = None

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.instance, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapped

    def aggregate(self, name, fn):
        totals = self.agg.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    spans[stack[-1]][AGG_CHILD_S] += dt

        return wrapped

    def busy(self, name: str) -> tuple[int, float]:
        """Call count and summed duration of the spans with this name."""
        if name in self.agg:
            calls, busy = self.agg[name]
            return calls, busy
        durations = [s[END] - s[START] for s in self.spans if s[NAME] == name]
        return len(durations), sum(durations)

    def self_times(self, name: str) -> dict:
        """Per instance: duration of the named spans minus what their children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict = {}
        for idx, s in enumerate(self.spans):
            if s[NAME] == name:
                self_s = s[END] - s[START] - child[idx] - s[AGG_CHILD_S]
                out[s[INSTANCE]] = out.get(s[INSTANCE], 0.0) + self_s
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                    "parent": s[PARENT],
                    "instance": s[INSTANCE],
                    "aggregated_child_s": s[AGG_CHILD_S],
                }
                for s in self.spans
            ],
            "aggregates": {k: {"calls": c, "busy_s": b} for k, (c, b) in self.agg.items()},
        }


@contextlib.contextmanager
def hooks_installed(tracer, modules):
    """Rebind the package globals in INNER_HOOKS; restore them on exit."""
    saved = []
    try:
        for mod_attr, global_name, span_name, aggregated in INNER_HOOKS:
            mod = getattr(modules, mod_attr)
            orig = getattr(mod, global_name)
            saved.append((mod, global_name, orig))
            wrap = tracer.aggregate if aggregated else tracer.span
            setattr(mod, global_name, wrap(span_name, orig))
        yield
    finally:
        for mod, global_name, orig in reversed(saved):
            setattr(mod, global_name, orig)
