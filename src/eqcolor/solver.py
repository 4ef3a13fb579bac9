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
(v, i), without extending it (`HallContext` with a move). A child is
extended once, when the search enters it, under every variant: a node's
lowest-color surviving child at once, since it is the one the LIFO
stack would pop next, and only its siblings are queued, unextended, to
be extended when they are popped. Under flow a child carries the flow
its test found (`flow_feasible`'s W), whether it is entered at
once or queued, and the tests of its own children start from that flow;
no test changes a flow it starts from.

flow and comb rebuild the clique decomposition at every `cd_stride`-th
node and project the last one at the others. When a node's
decomposition is its own rebuild and v is one of its residual vertices,
the rebuild on the children's uncolored set is the projection the node
makes for them (`find_non_adjacent_cliques`), so a child carries that
projection too, entered at once or queued, and takes it in place of the
rebuild.

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

from .coloring import PartialColoring, deficit_prune
from .decomposition import find_non_adjacent_cliques, restarted_decomposition
from .flownet import flow_prune
from .graph import Graph, greedy_maximal_clique
from .hallrules import comb_prune

VARIANTS = ("std", "flow", "comb")

_CLIQUE_STARTS = 5


class Record:
    """A plain value class: repr and equality over the instance's fields,
    `vars(self)` in the order `__init__` sets them. Instances pickle and
    copy as any plain object does; like a dataclass, they are unhashable.
    (A plain class, so that `import eqcolor` loads no `dataclasses`.)"""

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class SolverConfig(Record):
    def __init__(self, variant: str = "std", time_limit: float = 3600.0, cd_stride: int = 1):
        self.variant = variant
        self.time_limit = time_limit
        self.cd_stride = cd_stride
        self._check()

    def _check(self) -> None:
        """Raise ValueError unless every field is valid."""
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        # bool is an int subclass: True would pass as a stride of 1 or a
        # one-second limit. `not limit > 0` rejects NaN too.
        stride, limit = self.cd_stride, self.time_limit
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ValueError("cd_stride must be an integer >= 1")
        if isinstance(limit, bool) or not isinstance(limit, (int, float)) or not limit > 0:
            raise ValueError("time_limit must be a positive number")


class SearchStats(Record):
    """Search counters. Each `prunes_*` field counts pruned nodes, one per
    node: `prunes_deficit` those the largest-class test pruned,
    `prunes_flow` those the flow engine pruned, by its rule prefilter or
    by its flow test, and `prunes_hall` those comb's rules pruned (0 under
    flow). An engine's count includes the nodes left with no candidate
    color count. `rule_firings` counts the (node, k0) pairs each Hall rule
    rejected under comb, on pruned and surviving nodes alike. `k_lower` is
    the root's lower bound, so a timed-out run's gap is chi_eq - k_lower.
    `interrupted` marks a search a KeyboardInterrupt ended."""

    def __init__(
        self,
        nodes: int = 0,
        prunes_deficit: int = 0,
        prunes_flow: int = 0,
        prunes_hall: int = 0,
        rule_firings: dict | None = None,
        flow_solves: int = 0,
        k_lower: int = 0,
        elapsed: float = 0.0,
        timed_out: bool = False,
        interrupted: bool = False,
    ):
        self.nodes = nodes
        self.prunes_deficit = prunes_deficit
        self.prunes_flow = prunes_flow
        self.prunes_hall = prunes_hall
        self.rule_firings = {} if rule_firings is None else rule_firings
        self.flow_solves = flow_solves
        self.k_lower = k_lower
        self.elapsed = elapsed
        self.timed_out = timed_out
        self.interrupted = interrupted


class Solution(Record):
    def __init__(self, chi_eq: int, coloring: list[int], optimal: bool):
        self.chi_eq = chi_eq
        self.coloring = coloring
        self.optimal = optimal


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
    free = pc.free_mask
    for _ in range(g.n):
        v = _dsatur_pick(pc)
        bit = 1 << v
        for i in range(k):
            if size[i] < cap and free[i] & bit:
                break
        else:
            return None
        pc.extend(v, i)
    # complete: its classes differ by at most one iff every class below
    # the largest size M has size M - 1
    if pc.n != (pc.M - 1) * pc.k_used + pc.M_count:
        return None
    return pc.k_used, pc.coloring()


def initial_bounds(g: Graph, deadline: float):
    """(k_lower, k_upper, incumbent, clique): the size of a greedy clique
    below, capped greedy above. The clique grows by the lowest-index
    common neighbor and the greedy's pick ties to the lowest index: on a
    graph relabeled by `Graph.order`, the one the search works on, that is
    the vertex first in the order. The greedy retries with one more color
    on failure and cannot fail at k = n. Once `deadline` (a perf_counter
    time) has passed, no further greedy is started and the upper bound is
    n, witnessed by one class per vertex."""
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
    """Check of a returned coloring in O(n) mask operations: it colors
    every vertex, is proper, and has exactly chi_eq nonempty classes whose
    sizes differ by at most one. Raises RuntimeError otherwise."""
    coloring = sol.coloring
    if len(coloring) != g.n or any(c < 0 for c in coloring):
        raise RuntimeError("witness leaves a vertex uncolored")
    # an edge inside a class shows as its later end meets the class so far
    classes = {}
    for v, (c, nbrs) in enumerate(zip(coloring, g.adj_mask)):
        members = classes.get(c, 0)
        if nbrs & members:
            u = (nbrs & members).bit_length() - 1
            raise RuntimeError(f"witness gives both ends of edge ({u}, {v}) one color")
        classes[c] = members | 1 << v
    sizes = [mask.bit_count() for mask in classes.values()]
    if len(sizes) != sol.chi_eq:
        raise RuntimeError(f"witness has {len(sizes)} classes, not {sol.chi_eq}")
    if sizes and max(sizes) - min(sizes) > 1:
        raise RuntimeError("witness class sizes differ by more than one")


def solve(g: Graph, cfg: SolverConfig | None = None):
    """Exact chi_eq with witness, or the best incumbent on timeout or
    Ctrl-C (`stats.interrupted`). The witness is checked before it is
    returned."""
    cfg = SolverConfig() if cfg is None else cfg
    # the fields can be set after construction
    cfg._check()
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
    # looked up per solve, so rebinding the module attributes (and
    # PartialColoring.extend) takes effect
    prune = {"flow": flow_prune, "comb": comb_prune}.get(cfg.variant)
    deficit, find, extend = deficit_prune, find_non_adjacent_cliques, PartialColoring.extend
    carries_flow = cfg.variant == "flow"
    # (parent's mark, vertex, color, flow or None, decomposition or None)
    # of the queued children, entered when popped: the search backtracks
    # to the parent's `PartialColoring.mark()`, taken once, when the parent
    # queues its first child, and shared by all the children it queues.
    # Single-step `retract` is the inverse of one move; no backtrack uses it
    stack = []
    nodes = 1  # root
    prunes_deficit = 0
    timed_out = interrupted = False
    try:
        g = g.relabeled()
        k_lower, k_upper, incumbent, root_clique = initial_bounds(g, deadline)
        stats.k_lower = k_lower
        closed = k_lower >= k_upper
        # past the deadline, screening the root's children alone could take
        # k_upper engine calls per child
        timed_out = not closed and time.perf_counter() > deadline
        # a root clique covering every vertex gives k_lower = n: closed
        if not (closed or timed_out):
            stride = cfg.cd_stride
            pc = PartialColoring(g)
            free = pc.free_mask
            for idx, v in enumerate(root_clique):
                extend(pc, v, idx)
            flow = None  # the flow the node's tests start from, under flow
            if prune is not None:
                decomp = restarted_decomposition(g, pc.uncolored_mask)
                fresh = True
            while True:
                if pc.uncolored_mask:
                    # branch: screen the children, keep the lowest-color
                    # survivor in `child` and queue the others. When
                    # `decomp` is this node's own rebuild (`fresh`) and v is
                    # in its residual, the children's projection is what a
                    # rebuild on their uncolored set returns, so it goes
                    # with them.
                    v = _dsatur_pick(pc)
                    limit = pc.k_used + 1
                    if limit > k_upper - 1:
                        limit = k_upper - 1
                    bit = 1 << v
                    # every child leaves the same uncolored set: project
                    # once, for the first child the deficit test lets through
                    child_decomp = reuse = None
                    # flow_prune appends a surviving child's flow here
                    found = [] if carries_flow else None
                    child = -1
                    node_mark = None
                    # colors descending, so the stack pops the siblings in
                    # ascending order; a countdown, not a range: this runs
                    # at every node, and the range alone costs std about 2 %
                    # of its solve time
                    i = limit
                    while i > 0:
                        i -= 1
                        if not free[i] & bit:
                            continue
                        if deficit(pc, k_lower, i):
                            prunes_deficit += 1
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
                        if child >= 0:
                            if node_mark is None:
                                node_mark = pc.mark()
                            stack.append((node_mark, v, child, child_flow, reuse))
                        child = i
                        child_flow = found.pop() if found else None
                else:
                    # a complete coloring, and an equitable one: a root
                    # clique that colors every vertex closes the bounds,
                    # so a search move colored the last vertex, and the
                    # largest-class test passed it (`deficit_prune`)
                    if pc.k_used < k_upper:
                        k_upper = pc.k_used
                        incumbent = pc.coloring()
                        if k_upper <= k_lower:
                            break  # bounds met: optimal proven
                    child = -1
                if child >= 0:
                    # straight down into the lowest-color survivor, the child
                    # the stack would pop next: nothing was extended and no
                    # bound changed since this node was branched, so it needs
                    # neither a backtrack nor the bound check
                    i, flow, queued = child, child_flow, reuse
                else:
                    # back to the last queued child the bound still admits
                    while stack:
                        node_mark, v, i, flow, queued = stack.pop()
                        if i <= k_upper - 2:
                            break
                    else:
                        break  # the stack ran out: the search is complete
                    pc.retract_to(node_mark)
                extend(pc, v, i)
                nodes += 1
                if time.perf_counter() > deadline:
                    timed_out = True
                    break
                if prune is not None and pc.uncolored_mask:
                    fresh = nodes % stride == 0
                    if fresh:  # a rebuild node: a queued projection equals the rebuild
                        if queued is None:
                            queued = find(g, pc.uncolored_mask)
                        decomp = queued
    except KeyboardInterrupt:
        interrupted = True
        # the interrupt may fall between the two incumbent assignments
        k_upper = len(set(incumbent))

    stats.nodes = nodes
    stats.prunes_deficit = prunes_deficit
    stats.elapsed = time.perf_counter() - t0
    stats.timed_out = timed_out
    stats.interrupted = interrupted
    return Solution(k_upper, incumbent, not (timed_out or interrupted)), stats
