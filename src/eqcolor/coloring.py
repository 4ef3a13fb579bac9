"""Partial colorings with incremental bookkeeping and arithmetic pruning.

Colors are 0-based indices internally. A partial coloring keeps its state
as vertex bitmasks: the uncolored set; per color the vertices with no
neighbor of that color, the one record of which colors each vertex may
still take; and every vertex's DSATUR saturation, bit-sliced into planes.
The largest class size M and the number of classes of that size keep
the largest-class test O(1). The clique decomposition and the Hall
context are built from the masks with a few big-int operations per
clique and per color. The search undoes
strictly last-in-first-out: each trail entry records the color's old
free mask, and a backtrack to a node's mark restores those masks from
the trail and the planes and counters from the mark at once.
Single-step `retract` is the inverse of one move. The trail's (vertex,
color) moves are the one record of who wears which color: `coloring()`
replays them when a caller needs the colors as a list.

The largest-class test (`deficit_prune`) is decided for a child before
the move: from the parent's statistics and the child's color alone, so a
child it prunes is never extended. `candidate_k0_values` judges a child
the same way.
"""

from __future__ import annotations

from .graph import Graph


class PartialColoring:
    """Mutable partial coloring; extend/retract cost a few big-int ops.

    `uncolored_mask` has bit v set iff v is uncolored, and
    `free_mask[i]` has bit w set iff no neighbor of w wears color i: w may
    still take i. Bit v of `sat[j]` is bit j of v's saturation degree, the
    number of colors whose free mask lacks v, over n.bit_length() planes
    (no saturation exceeds n - 1). Masks and planes span all n.

    Each `_trail` entry is `(v, i, old)`, where `old` is `free_mask[i]`
    before v was colored i, so `free_mask[i] ^ old` holds the neighbors
    the move newly barred. The search backtracks to a node's `mark()` with
    `retract_to`, which pops the trail down to the mark's depth and copies
    the saved planes and counters back; `retract` undoes one move, with a
    ripple borrow over the planes. Either restores earlier states exactly.
    """

    __slots__ = (
        "n",
        "class_size",
        "uncolored_mask",
        "free_mask",
        "adj_mask",
        "sat",
        "k_used",
        "M",
        "M_count",
        "_trail",
    )

    def __init__(self, g: Graph):
        n = g.n
        self.n = n
        self.class_size = [0] * n
        self.uncolored_mask = (1 << n) - 1
        self.free_mask = [(1 << n) - 1] * n
        self.adj_mask = g.adj_mask
        self.sat = [0] * n.bit_length()
        self.k_used = 0
        self.M = 0
        self.M_count = 0  # how many classes have size M
        self._trail = []

    def extend(self, v: int, i: int) -> None:
        """Place uncolored v into class i. Violating the preconditions
        (v uncolored, i free for v) is a programming error."""
        bit = 1 << v
        assert self.uncolored_mask & bit, f"vertex {v} already colored"
        assert self.free_mask[i] & bit, f"color {i} barred for {v}"
        self.uncolored_mask ^= bit
        s = self.class_size[i]
        self.class_size[i] = s + 1
        if s == 0:
            self.k_used += 1
        M = self.M
        if s == M:
            self.M = s + 1
            self.M_count = 1
        elif s + 1 == M:
            self.M_count += 1
        old = self.free_mask[i]
        # ripple carry: one more for each neighbor the move newly bars
        carry = self.adj_mask[v] & old
        self.free_mask[i] = old ^ carry
        sat = self.sat
        j = 0
        while carry:
            plane = sat[j]
            sat[j] = plane ^ carry
            carry &= plane
            j += 1
        self._trail.append((v, i, old))

    def retract(self) -> tuple[int, int]:
        """Undo the most recent extend; returns the (vertex, color) undone."""
        v, i, old = self._trail.pop()
        self.uncolored_mask |= 1 << v
        borrow = self.free_mask[i] ^ old
        self.free_mask[i] = old
        s = self.class_size[i]
        self.class_size[i] = s - 1
        if s == 1:
            self.k_used -= 1
        if s == self.M:
            self.M_count -= 1
            if not self.M_count:  # the last class of size M shrank
                self.M = s - 1
                self.M_count = self.class_size.count(s - 1) if s > 1 else 0
        # ripple borrow: one less for each neighbor the move newly barred
        sat = self.sat
        j = 0
        while borrow:
            plane = sat[j] ^ borrow
            sat[j] = plane
            # borrow & (old ^ borrow) == borrow & ~old: no complement needed
            borrow &= plane
            j += 1
        return v, i

    def mark(self) -> tuple:
        """The state a backtrack returns to: `(depth, planes, uncolored_mask,
        M, M_count, k_used)`, with the saturation planes copied into a tuple."""
        return (
            len(self._trail), tuple(self.sat), self.uncolored_mask,
            self.M, self.M_count, self.k_used,
        )

    def retract_to(self, mark: tuple) -> None:
        """Undo the extends made since `mark` was taken; the mark must be
        on the path to the current state. The trail restores the free
        masks and class sizes move by move, newest first, so each
        color's oldest saved mask is the one that stays; the planes and the
        counters are copied back from the mark, with no borrow chain."""
        depth, planes, self.uncolored_mask, self.M, self.M_count, self.k_used = mark
        trail = self._trail
        free = self.free_mask
        size = self.class_size
        for _, i, old in reversed(trail[depth:]):
            free[i] = old
            size[i] -= 1
        del trail[depth:]
        self.sat[:] = planes  # in place: no new list, and a held reference stays valid

    def coloring(self) -> list[int]:
        """Each vertex's color, -1 for an uncolored vertex, replayed from
        the trail: a new list, which later moves leave as it is."""
        color_of = [-1] * self.n
        for v, i, _ in self._trail:
            color_of[v] = i
        return color_of


def deficit_prune(pc: PartialColoring, k_lower: int, i: int) -> bool:
    """Necessary-condition prune for the child that puts one more vertex
    into class i, decided before the move: a partial coloring extendable
    to an equitable coloring satisfies n >= (M-1)*max(k_lower, k_used) + t,
    with M, t and k_used those of the child. Returns True when that fails
    (prune). False guarantees nothing, except for a child with no vertex
    left uncolored: there n >= (M-1)*k_used + t holds exactly when every
    class below size M has size M - 1, so its classes differ by at most
    one, and the search takes such a child as equitable."""
    # inline, not a helper: this runs for every child under every engine,
    # and a call alone adds about 2 % to std's solve time
    s = pc.class_size[i] + 1  # class i's size in the child
    M = pc.M
    if s > M:
        M, t = s, 1
    elif s == M:
        t = pc.M_count + 1
    else:
        t = pc.M_count
    k = pc.k_used + (s == 1)
    if k_lower > k:
        k = k_lower
    return pc.n < (M - 1) * k + t


def candidate_k0_values(
    pc: PartialColoring, k_lower: int, k_upper: int, move: tuple[int, int] | None = None
) -> range:
    """Color counts a pruning test must examine at this node, or, given a
    move (v, i), at the child that colors v with i, without making the
    move: from max(k_used, k_lower, 1) up to k_upper - 1 and while the
    largest class still fits below ceil(n/k0), with k_used and the largest
    class size M those of the node judged. ceil(n/k0) >= M > 1 holds
    exactly for k0 <= (n - 1) // (M - 1)."""
    n = pc.n
    M, k0 = pc.M, pc.k_used
    if move is not None:
        s = pc.class_size[move[1]] + 1  # the class's size in the child
        if s > M:
            M = s
        k0 += s == 1
    if k_lower > k0:
        k0 = k_lower
    if k0 < 1:
        k0 = 1
    last = k_upper - 1
    if M > 1 and (n - 1) // (M - 1) < last:
        last = (n - 1) // (M - 1)
    return range(k0, last + 1)
