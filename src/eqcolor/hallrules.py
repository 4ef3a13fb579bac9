"""Arithmetic pruning rules derived from the extendability network.

Each rule is a necessary condition for the network to carry a full flow,
so a single failing rule proves the branch dead for that color count. The
menu has three rules: per single color, the "fill up" (positive) and the
"must fit" (negative) side, plus a complete per-clique system of distinct
representatives (SDR) checked by bipartite matching instead of enumerating
subsets.

The rules read a `HallContext`, a snapshot of one child at one color
count, and each computes from it alone what it needs, in bit-sliced form
(one vertex bitmask per color). No rule reads what another wrote, so any
one of them can run first, and one that fails spares the work of the
ones after it. The rules assume that the decomposition, its residual
included, lies inside the uncolored set (see `HallContext`).

Callers ask only about k0 >= k_used. Then the all-but-one color sets add
nothing: with class sizes and uncolored vertices summing to n, a starved
complement of g overfills g (negative rule), and too many vertices
barred from g leave g short (positive rule).
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition


class HallContext:
    """One child's state at one color count k0, as the rules and the flow
    engine read it. It stores only that snapshot and nothing is written
    to it afterwards: each rule computes what it reads from it, so a rule
    that settles the verdict early costs only its own work.

    The snapshot: k0, the class-size window floor(n/k0)..ceil(n/k0), the
    first k0 class sizes, the uncolored set `uncolored`, per color f the
    bitmask `free[f]` of the vertices with no neighbor of color f (the
    network's arcs into f), and the decomposition's residual and clique
    masks. Only colors {0..k0-1} exist in the network, so all of it is
    restricted to them. The uncolored vertices free for f are
    `uncolored & free[f]`. The context holds copies of pc's lists, so it
    stays valid after pc changes.

    Given a move (v, i), the context is that of the child that colors v
    with i, read from the parent's state without making the move:
    `uncolored` loses v, class i grows by one and `free[i]` loses v's
    neighbors. The decomposition must be the child's (v uncolored in pc,
    not in decomp), and k0 a candidate of the child, so k0 > i.

    The rules rely on the decomposition lying inside the uncolored set:
    then a residual or clique vertex is free for f exactly when `free[f]`
    holds it, so the rules AND their masks with `free[f]` directly, and
    the positive rule reads each color's residual supply off one AND.
    """

    __slots__ = (
        "k0",
        "floor_size",
        "ceil_size",
        "class_sizes",
        "uncolored",
        "free",
        "residual",
        "cliques",
    )

    def __init__(
        self,
        pc: PartialColoring,
        decomp: CliqueDecomposition,
        k0: int,
        move: tuple[int, int] | None = None,
    ):
        n = pc.n
        self.k0 = k0
        self.floor_size = n // k0
        self.ceil_size = -(-n // k0)
        self.class_sizes = pc.class_size[:k0]
        self.uncolored = pc.uncolored_mask
        self.free = pc.free_mask[:k0]
        self.residual = decomp.residual_mask
        self.cliques = decomp.masks
        if move is not None:
            v, i = move
            self.uncolored ^= 1 << v
            self.class_sizes[i] += 1
            self.free[i] &= ~pc.adj_mask[v]


def check_positive_single(ctx: HallContext) -> bool:
    """Every color must be fillable to floor(n/k0): at most one vertex per
    clique plus every residual vertex that can still take it. The residual
    lies inside the uncolored set, so a color's residual supply is one AND
    with its free mask and one bit count, for each color below its floor.
    A color's cliques, which lie inside the uncolored set too, are scanned
    only while its residual vertices leave it short."""
    residual = ctx.residual
    floor_size = ctx.floor_size
    for size, free in zip(ctx.class_sizes, ctx.free):
        if size >= floor_size:
            continue
        need = floor_size - size - (residual & free).bit_count()
        if need <= 0:
            continue
        for c in ctx.cliques:
            if c & free:
                need -= 1
                if not need:
                    break
        else:
            return False
    return True


def _augment(bit: int, visited: int, owner: list[int], free: list[int]):
    """Augmenting-path search from the clique member `bit` over the colors
    not in `visited` (a color bitmask): (placed, visited). On success the
    path's colors are rematched in `owner`. A module-level function, not a
    closure, so a matching leaves no reference cycle behind."""
    for c, fr in enumerate(free):
        if visited >> c & 1 or not fr & bit:
            continue
        visited |= 1 << c
        if not owner[c]:
            owner[c] = bit
            return True, visited
        ok, visited = _augment(owner[c], visited, owner, free)
        if ok:
            owner[c] = bit
            return True, visited
    return False, visited


def _clique_has_sdr(q: int, free: list[int]) -> bool:
    """Can every member of the clique `q` (a vertex bitmask) get a
    distinct color whose free mask holds it? A greedy pass gives
    each color, in order, to its lowest member still unmatched and free
    for it; augmenting-path bipartite matching (`_augment`), started from
    the greedy's matching, then places only the members it left out; a
    clique the greedy matches whole falls through to True. The search
    calls this only for cliques `check_clique_hall`'s same greedy could
    not settle. Cliques are small."""
    owner = [0] * len(free)  # per color, the bit of the member matched to it
    left = q
    for c, fr in enumerate(free):
        x = left & fr
        if x:
            x &= -x
            owner[c] = x
            left ^= x
    while left:
        bit = left & -left
        left ^= bit
        if not _augment(bit, 0, owner, free)[0]:
            return False
    return True


def check_clique_hall(ctx: HallContext) -> bool:
    """Each clique needs a system of distinct representatives among the
    colors; by Hall's theorem the matching test covers the whole family of
    per-clique subset conditions at once. The plain color-by-color greedy
    of `_clique_has_sdr`, with no record of who took which color, settles
    a clique whose members it matches all; only a clique it leaves a
    member of goes to the matching itself. The check reads the context's
    per-color free masks and stops at the first clique with no SDR."""
    free = ctx.free
    for q in ctx.cliques:
        left = q
        for fr in free:
            x = left & fr
            if x:
                left ^= x & -x
                if not left:
                    break
        else:
            if not _clique_has_sdr(q, free):
                return False
    return True


def check_negative_single(ctx: HallContext) -> bool:
    """Vertices forced into one color must fit under its ceiling: per
    color f, the vertices free for f alone plus those free for no color
    (they still have to be colored) against f's room. No class takes more
    than all of them, so a class of at most ceil - empty - |lone| members
    cannot overflow and is passed over before its AND and bit count. Two
    accumulators over the free masks, "free for at least one color" and
    "for at least two", give both sets with two complements per call."""
    one = two = 0
    for free in ctx.free:
        two |= one & free
        one |= free
    uncolored = ctx.uncolored
    empty = (uncolored & ~one).bit_count()
    ceil_size = ctx.ceil_size
    sizes = ctx.class_sizes
    lone = uncolored & one & ~two  # free for exactly one color
    roomy = ceil_size - empty - lone.bit_count()  # a class no larger cannot overflow
    for f, free in enumerate(ctx.free):
        if sizes[f] > roomy:
            if (lone & free).bit_count() + empty > ceil_size - sizes[f]:
                return False
    return True


def failing_rule(ctx: HallContext) -> str | None:
    """Name of the first failing rule in cheapest-first order, or None when
    all pass for this k0."""
    if not check_positive_single(ctx):
        return "positive_single"
    if not check_clique_hall(ctx):
        return "clique_hall"
    if not check_negative_single(ctx):
        return "negative"
    return None


def comb_prune(
    pc: PartialColoring,
    decomp: CliqueDecomposition,
    k_lower: int,
    k_upper: int,
    stats,
    move: tuple[int, int] | None = None,
) -> bool:
    """True iff every candidate k0 fails at least one rule (so also when
    the candidate range is empty). Each rejected k0 counts in
    `stats.rule_firings` under the first rule it failed, and a pruned
    node in `stats.prunes_hall`. Given a move (v, i), the node judged is
    the child that colors v with i, read from pc without extending it;
    decomp is the child's decomposition either way. Weaker than the flow
    test (a passing rule set proves nothing) but cheap per color count:
    the context copies k0 class sizes and k0 free masks, and each rule
    works on demand, at most O(k0 * #cliques) big-int operations for the
    positive rule, O(k0) for the negative one and, for the clique rule, a
    color-by-color greedy per clique, up to the first without an SDR, with
    a small matching only where the greedy leaves a member."""
    for k0 in candidate_k0_values(pc, k_lower, k_upper, move):
        ctx = HallContext(pc, decomp, k0, move)
        failed = failing_rule(ctx)
        if failed is None:
            return False
        stats.rule_firings[failed] = stats.rule_firings.get(failed, 0) + 1
    stats.prunes_hall += 1
    return True
