"""Outside-in per-layer trace of the eqcolor modules.

The trace wraps the public entry points of each module under `src/eqcolor`
with timers and counters by rebinding the module and class attributes that
callers look up at call time (`eqcolor.solver.comb_prune`,
`eqcolor.hallrules.HallContext`, `PartialColoring.extend`, ...). No line of
the package changes, and uninstalling restores the original objects.

Every span records calls and self time: its duration minus the time of the
wrapped calls inside it, so the self times of all spans add up to the
traced wall time. Counters are read from return values at the span
boundary, which keeps their meaning fixed by this file: a prune counts
once per pruned node (the engine returned True), a rule firing counts once
per rejected color count (`failing_rule` returned a name).

Names are resolved once, when a Tracer is made. A name the package no
longer has is noted in `missing`; metrics that read it are reported as 0
and named in the benchmark's output, while the search itself and the
node/chi checks run unchanged.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (span key, module, attribute path looked up by the callers)
TARGETS = (
    ("solver.solve", "eqcolor.solver", "solve"),
    ("solver.initial_bounds", "eqcolor.solver", "initial_bounds"),
    ("coloring.extend", "eqcolor.coloring", "PartialColoring.extend"),
    ("coloring.retract", "eqcolor.coloring", "PartialColoring.retract"),
    ("coloring.deficit", "eqcolor.solver", "deficit_prune"),
    ("coloring.k0_comb", "eqcolor.hallrules", "candidate_k0_values"),
    ("coloring.k0_flow", "eqcolor.flownet", "candidate_k0_values"),
    ("decomposition.root", "eqcolor.solver", "restarted_decomposition"),
    ("decomposition.find", "eqcolor.solver", "find_non_adjacent_cliques"),
    ("decomposition.restrict", "eqcolor.decomposition", "CliqueDecomposition.restricted_to"),
    ("hallrules.comb", "eqcolor.solver", "comb_prune"),
    ("hallrules.context", "eqcolor.hallrules", "HallContext"),
    ("hallrules.rules", "eqcolor.hallrules", "failing_rule"),
    ("flownet.prune", "eqcolor.solver", "flow_prune"),
    ("flownet.feasible", "eqcolor.flownet", "flow_feasible"),
    ("flownet.greedy", "eqcolor.flownet", "_greedy_assignment"),
    ("flownet.exact", "eqcolor.flownet", "_exact_feasible"),
    ("graph.parse", "eqcolor.graph", "parse_dimacs"),
    ("graph.gnp", "eqcolor.graph", "gen_gnp"),
)

# candidate_k0_values is a generator: its yields are counted, and the time
# spent producing them stays in the calling engine's self time
_GENERATORS = ("coloring.k0_comb", "coloring.k0_flow")

RULES = ("positive_single", "clique_hall", "negative", "positive_complement")


def _count_true(tracer, key, result, parent):
    if result:
        tracer.counts[key, "true"] += 1


def _count_rule(tracer, key, result, parent):
    if result is not None:
        tracer.counts[key, result] += 1
        if parent == "flownet.prune":
            tracer.counts[key, "prefilter_kills"] += 1


def _count_greedy(tracer, key, result, parent):
    if result[0]:
        tracer.counts[key, "true"] += 1


def _count_cover(tracer, key, result, parent):
    covered = result.covered()
    tracer.counts[key, "covered"] += covered
    tracer.counts[key, "vertices"] += covered + len(result.residual)


def _count_gap(tracer, key, result, parent):
    tracer.counts[key, "gap"] += result[1] - result[0]


_HOOKS = {
    "solver.initial_bounds": _count_gap,
    "coloring.deficit": _count_true,
    "decomposition.root": _count_cover,
    "decomposition.find": _count_cover,
    "decomposition.restrict": _count_cover,
    "hallrules.comb": _count_true,
    "hallrules.rules": _count_rule,
    "flownet.prune": _count_true,
    "flownet.greedy": _count_greedy,
    "flownet.exact": _count_true,
}


class Tracer:
    """Resolves the targets, installs and removes the wrappers, and holds
    what they recorded: `calls[key]`, `self_s[key]` and
    `counts[key, counter]`."""

    def __init__(self, targets=TARGETS):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = {}  # span key -> reason
        self._bound = []  # (key, owner, attribute name, original)
        self._stack = [["", 0.0]]  # open spans: [key, seconds of wrapped children]
        for key, module, path in targets:
            try:
                owner = importlib.import_module(module)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                self.missing[key] = f"{module}.{path}: {exc}"
                continue
            self._bound.append((key, owner, name, original))

    def install(self) -> None:
        for key, owner, name, original in self._bound:
            if key in _GENERATORS:
                wrapper = self._yields(key, original)
            else:
                wrapper = self._span(key, original, _HOOKS.get(key))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for key, owner, name, original in self._bound:
            setattr(owner, name, original)

    def _span(self, key, fn, hook):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[key] += dt - frame[1]
                stack[-1][1] += dt
                calls[key] += 1
            if hook is not None:
                hook(self, key, result, stack[-1][0])
            return result

        return traced

    def _yields(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key, "yields"] += 1
                yield item

        return traced


class _Reader:
    """Read access to a finished trace that notes which span keys a metric
    used, so a metric built on a missing span can be named."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.used = set()

    def calls(self, *keys) -> int:
        self.used.update(keys)
        return sum(self.tracer.calls[k] for k in keys)

    def self_s(self, *keys) -> float:
        self.used.update(keys)
        return sum(self.tracer.self_s[k] for k in keys)

    def count(self, counter: str, *keys) -> int:
        self.used.update(keys)
        return sum(self.tracer.counts[k, counter] for k in keys)


def _rate(num, den) -> float:
    return num / den if den else 0.0


_ENGINES = ("hallrules.comb", "flownet.prune")
_DECOMPOSITIONS = ("decomposition.root", "decomposition.find", "decomposition.restrict")


def _rule_firings(rule):
    return lambda t, run: t.count(rule, "hallrules.rules")


# per-layer metric -> value from the trace (t) and the run (run: nodes,
# untraced_s, traced_s)
LAYER_METRICS = {
    "solver.nodes": lambda t, run: run["nodes"],
    "solver.us_per_node": lambda t, run: 1e6 * run["untraced_s"] / run["nodes"],
    "solver.self_s": lambda t, run: t.self_s("solver.solve"),
    "solver.initial_bounds_s": lambda t, run: t.self_s("solver.initial_bounds"),
    "solver.root_gap": lambda t, run: _rate(
        t.count("gap", "solver.initial_bounds"), t.calls("solver.initial_bounds")
    ),
    "coloring.extend_calls": lambda t, run: t.calls("coloring.extend"),
    "coloring.extend_s": lambda t, run: t.self_s("coloring.extend"),
    "coloring.retract_s": lambda t, run: t.self_s("coloring.retract"),
    "coloring.deficit_calls": lambda t, run: t.calls("coloring.deficit"),
    "coloring.deficit_prunes": lambda t, run: t.count("true", "coloring.deficit"),
    "coloring.deficit_s": lambda t, run: t.self_s("coloring.deficit"),
    "coloring.k0_per_child": lambda t, run: _rate(
        t.count("yields", "coloring.k0_comb", "coloring.k0_flow"), t.calls(*_ENGINES)
    ),
    "decomposition.find_calls": lambda t, run: t.calls("decomposition.find"),
    "decomposition.find_s": lambda t, run: t.self_s("decomposition.find"),
    "decomposition.restrict_calls": lambda t, run: t.calls("decomposition.restrict"),
    "decomposition.restrict_s": lambda t, run: t.self_s("decomposition.restrict"),
    "decomposition.root_s": lambda t, run: t.self_s("decomposition.root"),
    "decomposition.clique_cover": lambda t, run: _rate(
        t.count("covered", *_DECOMPOSITIONS), t.count("vertices", *_DECOMPOSITIONS)
    ),
    "hallrules.comb_calls": lambda t, run: t.calls("hallrules.comb"),
    "hallrules.comb_prunes": lambda t, run: t.count("true", "hallrules.comb"),
    "hallrules.comb_s": lambda t, run: t.self_s("hallrules.comb"),
    "hallrules.prune_rate": lambda t, run: _rate(
        t.count("true", "hallrules.comb"), t.calls("hallrules.comb")
    ),
    "hallrules.context_calls": lambda t, run: t.calls("hallrules.context"),
    "hallrules.context_s": lambda t, run: t.self_s("hallrules.context"),
    "hallrules.rules_calls": lambda t, run: t.calls("hallrules.rules"),
    "hallrules.rules_s": lambda t, run: t.self_s("hallrules.rules"),
    **{f"hallrules.fail.{rule}": _rule_firings(rule) for rule in RULES},
    "flownet.prune_calls": lambda t, run: t.calls("flownet.prune"),
    "flownet.prunes": lambda t, run: t.count("true", "flownet.prune"),
    "flownet.prune_s": lambda t, run: t.self_s("flownet.prune"),
    "flownet.prefilter_kills": lambda t, run: t.count(
        "prefilter_kills", "hallrules.rules", "flownet.prune"
    ),
    "flownet.feasible_calls": lambda t, run: t.calls("flownet.feasible"),
    "flownet.feasible_s": lambda t, run: t.self_s("flownet.feasible"),
    "flownet.greedy_s": lambda t, run: t.self_s("flownet.greedy"),
    "flownet.greedy_hit_rate": lambda t, run: _rate(
        t.count("true", "flownet.greedy"), t.calls("flownet.feasible")
    ),
    "flownet.exact_calls": lambda t, run: t.calls("flownet.exact"),
    "flownet.exact_s": lambda t, run: t.self_s("flownet.exact"),
    "flownet.exact_feasible_rate": lambda t, run: _rate(
        t.count("true", "flownet.exact"), t.calls("flownet.exact")
    ),
    "graph.build_s": lambda t, run: t.self_s("graph.parse", "graph.gnp"),
    "trace.overhead": lambda t, run: run["traced_s"] / run["untraced_s"],
}

# layer -> span keys whose self time is that layer's, for the share table
LAYERS = {
    "solver": ("solver.solve", "solver.initial_bounds"),
    "coloring": ("coloring.extend", "coloring.retract", "coloring.deficit"),
    "decomposition": _DECOMPOSITIONS,
    "hallrules": ("hallrules.comb", "hallrules.context", "hallrules.rules"),
    "flownet": ("flownet.prune", "flownet.feasible", "flownet.greedy", "flownet.exact"),
}


def layer_metrics(tracer: Tracer, run: dict) -> tuple[dict, list[str]]:
    """({metric: value}, [metrics dropped because a span they read is
    missing]); a dropped metric reads 0."""
    values = {}
    dropped = []
    for name, fn in LAYER_METRICS.items():
        reader = _Reader(tracer)
        value = fn(reader, run)
        if reader.used & tracer.missing.keys():
            value = 0
            dropped.append(name)
        values[name] = value
    return values, dropped


def layer_shares(tracer: Tracer) -> dict:
    """Share of traced self time per layer (the solve span's self time is
    the solver's DSATUR pick, stack and loop)."""
    totals = {layer: sum(tracer.self_s[k] for k in keys) for layer, keys in LAYERS.items()}
    whole = sum(totals.values())
    return {layer: _rate(s, whole) for layer, s in totals.items()}
