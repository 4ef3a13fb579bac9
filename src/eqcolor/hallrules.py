"""Arithmetic pruning rules derived from the extendability network.

Each rule is a necessary condition for the network to carry a full flow,
so a single failing rule proves the branch dead for that color count. The
menu has three rules: per single color, the "fill up" (positive) and the
"must fit" (negative) side, plus a complete per-clique system of distinct
representatives (SDR) checked by bipartite matching instead of enumerating
subsets.

Callers ask only about k0 >= k_used. Then the all-but-one color sets add
nothing: with class sizes and uncolored vertices summing to n, a starved
complement of g overfills g (negative rule), and too many vertices
barred from g leave g short (positive rule).
"""

from __future__ import annotations

from .coloring import PartialColoring, candidate_k0_values
from .decomposition import CliqueDecomposition, mask_vertices


class HallContext:
    """Per-(coloring, decomposition, k0) aggregates the rules and the flow
    engine read.

    All masks and counts restrict free colors to {0..k0-1}: only those
    exist in the network. They are computed bit-sliced, one vertex bitmask
    per color: `free_f`, the uncolored vertices no neighbor of color f
    bars, is `U & ~pc.barred_mask[f]`. `supply[f]` counts the cliques that
    meet free_f plus the residual vertices in it; `single_free[f]` counts
    the vertices in free_f and in no other, and `empty_free` the vertices
    in none (they still count on the "must be colored within T" side).
    Both come from running "in at least one" and "in at least two"
    accumulators over the free_f. Building the context costs
    O(k0 * #cliques) big-int operations plus one free-color mask per clique
    member, which `clique_masks` holds clique by clique for the SDR rule.
    The residual's per-vertex masks are made only on request
    (`resid_masks`), by the flow test.

    Given a move (v, i), the context is that of the child that colors v
    with i, read from the parent's state without making the move: U loses
    v, class i grows by one, color i's barred set gains v's neighbors, and
    so each neighbor of v loses i from its free-color mask (`move_bit` off
    for the vertices in `move_barred`). The decomposition must be the
    child's (v uncolored in pc, not in decomp), and k0 a candidate of the
    child, so k0 > i.
    """

    __slots__ = (
        "k0",
        "floor_size",
        "ceil_size",
        "class_sizes",
        "clique_masks",
        "residual",
        "forbidden",
        "move_barred",
        "move_bit",
        "supply",
        "single_free",
        "empty_free",
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
        self.forbidden = pc.forbidden_mask
        self.residual = residual = decomp.residual_mask
        cliques = decomp.masks
        uncolored = pc.uncolored_mask
        barred_masks = pc.barred_mask[:k0]
        self.move_barred = self.move_bit = 0
        if move is not None:
            v, i = move
            uncolored ^= 1 << v
            self.class_sizes[i] += 1
            self.move_barred = adj = pc.adj_mask[v]
            barred_masks[i] |= adj
            self.move_bit = 1 << i

        supply = []
        frees = []
        one = two = 0  # vertices free for at least one, two colors so far
        for barred in barred_masks:
            free = uncolored & ~barred
            frees.append(free)
            two |= one & free
            one |= free
            s = (residual & free).bit_count()
            for c in cliques:
                if c & free:
                    s += 1
            supply.append(s)
        self.supply = supply
        self.empty_free = (uncolored & ~one).bit_count()
        lone = one & ~two  # free for exactly one color
        self.single_free = [(free & lone).bit_count() for free in frees]
        self.clique_masks = [self._free_masks(c) for c in cliques]

    def _free_masks(self, vertices: int) -> list[int]:
        """Free-color masks of a vertex bitmask's vertices, ascending."""
        full = (1 << self.k0) - 1
        forbidden = self.forbidden
        hit = vertices & self.move_barred
        if not hit:
            return [~forbidden[w] & full for w in mask_vertices(vertices)]
        cut = full & ~self.move_bit
        return [
            ~forbidden[w] & (cut if hit >> w & 1 else full)
            for w in mask_vertices(vertices)
        ]

    def resid_masks(self) -> list[int]:
        """Free-color masks of the residual vertices, ascending."""
        return self._free_masks(self.residual)


def check_positive_single(ctx: HallContext) -> bool:
    """Every color must be fillable to floor(n/k0): at most one vertex per
    clique plus every residual vertex that can still take it."""
    floor_size = ctx.floor_size
    supply = ctx.supply
    for f, size in enumerate(ctx.class_sizes):
        if floor_size - size > supply[f]:
            return False
    return True


def _clique_has_sdr(masks: list[int], k0: int) -> bool:
    """Can every clique vertex get a distinct color from its free set?
    A greedy pass gives each member its lowest free color not yet taken;
    augmenting-path bipartite matching, started from the greedy's
    matching, then places only the members it left out. Cliques are
    small."""
    if len(masks) > k0:
        return False
    taken = 0
    picks = []
    left = []
    for idx, m in enumerate(masks):
        m &= ~taken
        bit = m & -m
        taken |= bit
        picks.append(bit)
        if not bit:
            left.append(idx)
    if not left:
        return True
    owner = {bit.bit_length() - 1: idx for idx, bit in enumerate(picks) if bit}

    def augment(idx: int, visited: int) -> tuple[bool, int]:
        while True:
            m = masks[idx] & ~visited
            if not m:
                return False, visited
            bit = m & -m
            visited |= bit
            c = bit.bit_length() - 1
            if c not in owner:
                owner[c] = idx
                return True, visited
            ok, visited = augment(owner[c], visited)
            if ok:
                owner[c] = idx
                return True, visited

    for idx in left:
        ok, _ = augment(idx, 0)
        if not ok:
            return False
    return True


def check_clique_hall(ctx: HallContext) -> bool:
    """Each clique needs a system of distinct representatives among the
    colors; by Hall's theorem the matching test covers the whole family of
    per-clique subset conditions at once."""
    k0 = ctx.k0
    for masks in ctx.clique_masks:
        if not _clique_has_sdr(masks, k0):
            return False
    return True


def check_negative_single(ctx: HallContext) -> bool:
    """Vertices forced into one color must fit under its ceiling: per
    color f, the vertices whose free set lies inside {f}."""
    ceil_size = ctx.ceil_size
    sizes = ctx.class_sizes
    single = ctx.single_free
    empty = ctx.empty_free
    for f in range(ctx.k0):
        if single[f] + empty > ceil_size - sizes[f]:
            return False
    return True


_RULES = (
    ("positive_single", check_positive_single),
    ("clique_hall", check_clique_hall),
    ("negative", check_negative_single),
)


def failing_rule(ctx: HallContext) -> str | None:
    """Name of the first failing rule in cheapest-first order, or None when
    all pass for this k0."""
    for name, rule in _RULES:
        if not rule(ctx):
            return name
    return None


def comb_prune(
    pc: PartialColoring,
    decomp: CliqueDecomposition,
    k_lower: int,
    k_upper: int,
    stats=None,
    move: tuple[int, int] | None = None,
) -> bool:
    """True iff every candidate k0 fails at least one rule (so also when
    the candidate range is empty). Given a move (v, i), the node judged is
    the child that colors v with i, read from pc without extending it;
    decomp is the child's decomposition either way. Weaker than the flow
    test (a passing rule set proves nothing) but evaluated per color count
    in O(k0 * #cliques) big-int operations plus O(k0) per clique member
    for the context, and O(k0) arithmetic plus one small matching per
    clique for the rules."""
    for k0 in candidate_k0_values(pc, k_lower, k_upper, move):
        ctx = HallContext(pc, decomp, k0, move)
        failed = failing_rule(ctx)
        if failed is None:
            return False
        if stats is not None:
            stats.rule_firings[failed] = stats.rule_firings.get(failed, 0) + 1
    if stats is not None:
        stats.prunes_hall += 1
    return True
