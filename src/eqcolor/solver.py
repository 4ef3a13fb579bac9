"""Exact equitable coloring by saturation-guided branch and bound.

Search contract: depth-first, root seeded with a greedily colored maximal
clique grown from the first vertices of `Graph.order`; at each node branch
on an uncolored vertex of maximum saturation (ties: maximum degree, then
lowest index; on the relabeled graph below, just the lowest index) over
the free colors up to one new class, in increasing order. A child
survives only if its color index stays below the incumbent bound, the
arithmetic largest-class test passes, and (for the flow/comb variants)
the chosen pruning engine finds some candidate color count still alive.
All tie-breaking is deterministic so node counts are comparable across
variants.

Branching does O(1) Python work per child: the pick is a walk down the
saturation planes of `PartialColoring.sat`, one AND per plane, and the
largest-class test is decided before the move. flow and comb then
judge a child that passes it from the parent's state plus the move
(v, i), without extending it (`HallContext` with a move). A surviving
child is queued unextended under every variant and extended once, when
it is popped. Under flow a queued child carries the flow its test found
(`flow_feasible`'s (k0, W)), and the tests of its own children start
from that flow; no test changes a flow it starts from.

flow and comb rebuild the clique decomposition at every `cd_stride`-th
node and project the last one at the others. When a node's
decomposition is its own rebuild and v is one of its residual vertices,
the rebuild on the children's uncolored set is the projection the node
makes for them (`find_non_adjacent_cliques`), so a child is queued with
that projection too and takes it in place of the rebuild.

The search runs on a copy of the graph relabeled by `Graph.order`, so
vertex r is the r-th vertex of the order and "first in the order" is
"lowest index": the DSATUR pick, the clique decomposition and the Hall
context work on vertex bitmasks, where that is the lowest set bit. The
witness is mapped back to the caller's vertex ids before it is checked.

A KeyboardInterrupt anywhere in the search, the relabel, the initial
bounds and the root decomposition included, ends it like a timeout: the
checked incumbent comes back with `optimal=False` and
`SearchStats.interrupted`, one class per vertex if no greedy had finished
yet. A caller that runs many solves checks that flag and stops on it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .coloring import PartialColoring, is_equitable, deficit_prune
from .decomposition import find_non_adjacent_cliques, restarted_decomposition
from .flownet import flow_prune
from .graph import Graph, greedy_maximal_clique
from .hallrules import comb_prune

VARIANTS = ("std", "flow", "comb")

_CLIQUE_STARTS = 5


@dataclass
class SolverConfig:
    variant: str = "std"
    time_limit: float = 3600.0
    cd_stride: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not isinstance(self.cd_stride, int) or self.cd_stride < 1:
            raise ValueError("cd_stride must be an integer >= 1")
        if not self.time_limit > 0:  # rejects NaN too
            raise ValueError("time_limit must be positive")


@dataclass
class SearchStats:
    """Search counters. Each `prunes_*` field counts pruned nodes, one per
    node, credited to the test that pruned it; `rule_firings` counts the
    (node, k0) pairs each Hall rule rejected under comb, on pruned and
    surviving nodes alike. `k_lower` is the root's lower bound, so a
    timed-out run's gap is chi_eq - k_lower. `interrupted` marks a search
    a KeyboardInterrupt ended."""

    nodes: int = 0
    prunes_deficit: int = 0
    prunes_flow: int = 0
    prunes_hall: int = 0
    rule_firings: dict = field(default_factory=dict)
    flow_solves: int = 0
    k_lower: int = 0
    elapsed: float = 0.0
    timed_out: bool = False
    interrupted: bool = False


@dataclass
class Solution:
    chi_eq: int
    coloring: list[int]
    optimal: bool


def _best_greedy_clique(g: Graph) -> list[int]:
    """Largest of a few greedy maximal cliques, grown from the first
    vertices of `g.order`; of equally large ones, `max` keeps the first."""
    return max((greedy_maximal_clique(g, s) for s in g.order[:_CLIQUE_STARTS]), key=len)


def _dsatur_pick(pc: PartialColoring) -> int:
    """The uncolored vertex of maximum saturation, ties to the lowest index
    (DSATUR's degree tie-break on a graph relabeled by `Graph.order`): from
    the top plane down, keep the candidates with the plane's bit if any."""
    x = pc.uncolored_mask
    for plane in reversed(pc.sat):
        top = x & plane
        if top:
            x = top
    return (x & -x).bit_length() - 1


def _capped_greedy(g: Graph, k: int):
    """DSATUR greedy into k classes capped at ceil(n/k); returns
    (colors_used, coloring) when the result is a complete equitable
    coloring, else None.

    Each vertex takes its lowest free color whose class is below the cap.
    An unused color is free for every vertex and below the cap, so no
    vertex skips one: the colors used are always 0..colors_used-1."""
    pc = PartialColoring(g)
    cap = -(-g.n // k)
    size = pc.class_size
    barred = pc.barred_mask
    for _ in range(g.n):
        v = _dsatur_pick(pc)
        bit = 1 << v
        for i in range(k):
            if size[i] < cap and not barred[i] & bit:
                break
        else:
            return None
        pc.extend(v, i)
    if not is_equitable(pc):
        return None
    return pc.k_used, pc.color_of


def initial_bounds(g: Graph, deadline: float):
    """(k_lower, k_upper, incumbent, clique): the size of a greedy clique
    below, capped greedy above. The greedy retries with one more color on
    failure and cannot fail at k = n. Its pick ties to the lowest index,
    DSATUR's degree tie-break on a graph relabeled by `Graph.order`. Once
    `deadline` (a perf_counter time) has passed, no further greedy is
    started and the upper bound is n, witnessed by one class per vertex."""
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    clique = _best_greedy_clique(g)
    k_lower = len(clique)
    for k in range(k_lower, g.n + 1):
        if time.perf_counter() > deadline:
            return k_lower, g.n, list(range(g.n)), clique
        result = _capped_greedy(g, k)
        if result is not None:
            k_upper, coloring = result
            return k_lower, k_upper, coloring, clique
    raise AssertionError("capped greedy must succeed at k = n")


def _check_witness(g: Graph, sol: Solution) -> None:
    """O(n + m) check of a returned coloring: it colors every vertex, is
    proper, and has exactly chi_eq nonempty classes whose sizes differ by
    at most one. Raises RuntimeError otherwise."""
    coloring = sol.coloring
    if len(coloring) != g.n or any(c < 0 for c in coloring):
        raise RuntimeError("witness leaves a vertex uncolored")
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            raise RuntimeError(f"witness gives both ends of edge ({u}, {v}) one color")
    sizes = Counter(coloring).values()
    if len(sizes) != sol.chi_eq:
        raise RuntimeError(f"witness has {len(sizes)} classes, not {sol.chi_eq}")
    if sizes and max(sizes) - min(sizes) > 1:
        raise RuntimeError("witness class sizes differ by more than one")


def solve(g: Graph, cfg: SolverConfig | None = None):
    """Exact chi_eq with witness, or the best incumbent on timeout or
    Ctrl-C (`stats.interrupted`). The witness is checked before it is
    returned."""
    cfg = SolverConfig() if cfg is None else cfg
    # the relabel counts toward the time limit
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit
    sol, stats = _search(g, cfg, t0, deadline)
    coloring = [0] * g.n
    for r, v in enumerate(g.order):
        coloring[v] = sol.coloring[r]
    sol.coloring = coloring
    _check_witness(g, sol)
    return sol, stats


def _search(g: Graph, cfg: SolverConfig, t0: float, deadline: float):
    """Branch and bound on g relabeled by its order; the incumbent comes
    back in the relabeled graph's vertex ids."""
    stats = SearchStats()
    if g.n == 0:
        return Solution(0, [], True), stats
    # one class per vertex until a greedy finishes
    k_upper, incumbent = g.n, list(range(g.n))
    # looked up per solve, so rebinding the module attributes takes effect
    prune = {"flow": flow_prune, "comb": comb_prune}.get(cfg.variant)
    carries_flow = cfg.variant == "flow"
    # (parent's trail depth, vertex, color, flow or None, decomposition or
    # None) of unextended children
    stack = []
    nodes = 1  # root
    timed_out = interrupted = False
    try:
        g = g.relabeled()
        k_lower, k_upper, incumbent, root_clique = initial_bounds(g, deadline)
        stats.k_lower = k_lower
        closed = k_lower >= k_upper
        # past the deadline, screening the root's children alone could take
        # k_upper engine calls per child
        timed_out = not closed and time.perf_counter() > deadline
        stride = cfg.cd_stride

        def push_children(depth: int, flow) -> None:
            """Queue the children that survive; under flow, their tests
            start from `flow`, the flow of the node being branched. When
            `decomp` is this node's own rebuild (`fresh`) and v is in its
            residual, the children's projection is what a rebuild on their
            uncolored set returns, so it is queued with them."""
            v = _dsatur_pick(pc)
            limit = pc.k_used + 1
            if limit > k_upper - 1:
                limit = k_upper - 1
            bit = 1 << v
            # every child leaves the same uncolored set: project once, for
            # the first child the deficit test lets through
            child_decomp = reuse = None
            # flow_prune appends a surviving child's flow here
            found = [] if carries_flow else None
            # iterate colors descending so the LIFO pop order is ascending;
            # a countdown, not a range: this runs at every node, and the
            # range alone costs std about 2 % of its solve time
            i = limit
            while i > 0:
                i -= 1
                if barred[i] & bit:
                    continue
                if deficit_prune(pc, k_lower, i):
                    stats.prunes_deficit += 1
                    continue
                if prune is not None:
                    if child_decomp is None:
                        child_decomp = decomp.restricted_to(pc.uncolored_mask ^ bit)
                        if fresh and decomp.residual_mask & bit:
                            reuse = child_decomp
                    if carries_flow:
                        pruned = prune(
                            pc, child_decomp, k_lower, k_upper, stats, (v, i),
                            start=flow, found=found,
                        )
                    else:
                        pruned = prune(pc, child_decomp, k_lower, k_upper, stats, (v, i))
                    if pruned:
                        continue
                stack.append((depth, v, i, found.pop() if found else None, reuse))

        # a root clique covering every vertex gives k_lower = n: closed
        if not (closed or timed_out):
            pc = PartialColoring(g)
            barred = pc.barred_mask
            for idx, v in enumerate(root_clique):
                pc.extend(v, idx)
            if prune is not None:
                decomp = restarted_decomposition(g, pc.uncolored_mask)
                fresh = True
            push_children(pc.depth, None)

        while stack:
            depth, v, i, flow, queued = stack.pop()
            if i > k_upper - 2:
                continue  # bound improved since this child was queued
            pc.retract_to(depth)
            pc.extend(v, i)
            nodes += 1
            if time.perf_counter() > deadline:
                timed_out = True
                break
            if not pc.uncolored_mask:
                if pc.k_used < k_upper and is_equitable(pc):
                    k_upper = pc.k_used
                    incumbent = list(pc.color_of)
                    if k_upper <= k_lower:
                        break  # bounds met: optimal proven
                continue
            if prune is not None:
                fresh = nodes % stride == 0
                if fresh:  # a rebuild node: a queued projection equals the rebuild
                    if queued is None:
                        queued = find_non_adjacent_cliques(g, pc.uncolored_mask)
                    decomp = queued
            push_children(depth + 1, flow)
    except KeyboardInterrupt:
        interrupted = True
        # the interrupt may fall between the two incumbent assignments
        k_upper = len(set(incumbent))

    stats.nodes = nodes
    stats.elapsed = time.perf_counter() - t0
    stats.timed_out = timed_out
    stats.interrupted = interrupted
    return Solution(k_upper, incumbent, not (timed_out or interrupted)), stats
