"""Outside-in tracing of the risbeam layers.

`Tracer.install()` wraps public functions of the risbeam modules without
touching their source. Several modules import names directly
(`from .manifold import rcg_minimize`), so every module attribute that *is*
a wrapped function is replaced, not only the one in the defining module.

Each call records a span (name, start, end, parent span) in memory; the
spans are written out once the run ends. The solver wrappers also count
work from what they can see from outside: the `cost` and `euclidean_grad`
callables handed in, and the `CgResult` / `ArmijoResult` handed back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

# (module, function, span name); every `run_*` runner of the harness is
# traced under the one name `harness.run`.
TRACED = [
    ("risbeam.cli", "main", "cli.main"),
    ("risbeam.harness", "run_*", "harness.run"),
    ("risbeam.synthesis", "synthesize", "synthesis.synthesize"),
    ("risbeam.synthesis", "optimize_precoder", "synthesis.optimize_precoder"),
    ("risbeam.synthesis", "phase_gradient", "synthesis.phase_gradient"),
    ("risbeam.manifold", "rcg_minimize", "manifold.rcg_minimize"),
    ("risbeam.manifold", "euclidean_cg_minimize", "manifold.euclidean_cg_minimize"),
    ("risbeam.manifold", "armijo_search", "manifold.armijo_search"),
    ("risbeam.pattern", "pattern_cost", "pattern.pattern_cost"),
    ("risbeam.pattern", "normalized_pattern", "pattern.normalized_pattern"),
    ("risbeam.pattern", "compute_weights", "pattern.compute_weights"),
    ("risbeam.channel", "sample_paths", "channel.sample_paths"),
    ("risbeam.channel", "assemble_channel", "channel.assemble_channel"),
    ("risbeam.channel", "channel_stats", "channel.channel_stats"),
    ("risbeam.analysis", "equivalent_channel", "analysis.equivalent_channel"),
    ("risbeam.validation", "gradient_check", "validation.gradient_check"),
]
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TRACED))

CG_SOLVERS = ("manifold.rcg_minimize", "manifold.euclidean_cg_minimize")
CG_COUNTS = ("iterations", "cost_evals", "grad_evals")
STATUSES = ("cost_tolerance", "gradient_tolerance", "max_iterations",
            "line_search_stalled")
COUNT_NAMES = ([f"{s}.{c}" for s in CG_SOLVERS for c in CG_COUNTS]
               + ["manifold.armijo_search.cost_evals",
                  "manifold.armijo_search.backtracks",
                  "manifold.armijo_search.accepted",
                  "synthesis.synthesize.starts"]
               + [f"manifold.status.{s}" for s in STATUSES])


def replace_everywhere(original, replacement, package: str = "risbeam") -> None:
    """Rebind every attribute of the package's loaded modules that is
    ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []            # (name index, start, end, parent span index)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    # -- solver counts -----------------------------------------------------

    def _counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_cg(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def solver(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["cost"] = self._counting(f"{name}.cost_evals",
                                                     bound.arguments["cost"])
            bound.arguments["euclidean_grad"] = self._counting(
                f"{name}.grad_evals", bound.arguments["euclidean_grad"])
            result = fn(*bound.args, **bound.kwargs)
            self.counts[f"{name}.iterations"] += result.iterations
            self.counts[f"manifold.status.{result.status}"] += 1
            return result

        return solver

    def _count_armijo(self, name: str, fn):
        from risbeam.manifold import LineSearchError

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def search(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments["params"]
            bound.arguments["cost"] = self._counting(f"{name}.cost_evals",
                                                     bound.arguments["cost"])
            try:
                result = fn(*bound.args, **bound.kwargs)
            except LineSearchError:
                # a failed search rejected every trial step of its budget
                self.counts[f"{name}.backtracks"] += params.max_halvings + 1
                raise
            self.counts[f"{name}.accepted"] += 1
            self.counts[f"{name}.backtracks"] += round(
                math.log(result.step / params.initial_step) / math.log(params.contraction))
            return result

        return search

    def _count_starts(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def synthesize(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["synthesis.synthesize.starts"] += bound.arguments["num_starts"]
            return fn(*args, **kwargs)

        return synthesize

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; the risbeam package must be imported."""
        import risbeam  # noqa: F401  (loads every submodule)

        for mod_name, pattern, name in TRACED:
            mod = sys.modules[mod_name]
            if pattern.endswith("*"):
                attrs = [a for a in vars(mod) if a.startswith(pattern[:-1])
                         and inspect.isfunction(getattr(mod, a))]
            else:
                attrs = [pattern] if inspect.isfunction(getattr(mod, pattern, None)) else []
            if not attrs:
                self.missing.append(f"{mod_name}.{pattern}")
            for attr in attrs:
                original = getattr(mod, attr)
                fn = original
                if name in CG_SOLVERS:
                    fn = self._count_cg(name, fn)
                elif name == "manifold.armijo_search":
                    fn = self._count_armijo(name, fn)
                elif name == "synthesis.synthesize":
                    fn = self._count_starts(fn)
                replace_everywhere(original, self._span(name, fn))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": {k: self.counts.get(k, 0) for k in COUNT_NAMES},
                "missing": self.missing}


def aggregate(dump: dict) -> dict[str, float]:
    """Per span name: calls, inclusive seconds and self seconds (inclusive
    minus the time the traced child spans cover)."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child_time[i]
    return out
