"""Ground truth by capped enumeration: the exact equitable chromatic
number (`brute_chi_eq`, which `eqcolor verify` checks the engines
against), on a depth-first search that the tests' exact extendability
check (`tests/extension_oracle.py`) runs too. A hard size cap makes
accidental blowups an error instead of a silent hang. The paper's literal
extendability network, which the search's flow engine never builds, is
test code: `tests/literal_network.py`."""

from __future__ import annotations

from .graph import Graph, mask_vertices


MAX_N = 12  # the largest graph the enumeration accepts


class OracleCapError(ValueError):
    pass


def _search_equitable(nbrs, color_of, sizes, k0, order, idx):
    """Depth-first completion with the forced class-size windows; `nbrs[v]`
    lists v's neighbors.

    Of the still-empty classes only the lowest is tried; that is sound
    because empty classes are interchangeable. Nonempty classes above it
    are still tried: a partial coloring may leave gaps below its used
    classes.
    """
    n = len(color_of)
    floor_size = n // k0
    remaining = len(order) - idx
    deficit = 0
    for s in sizes:
        if s < floor_size:
            deficit += floor_size - s
    if deficit > remaining:
        return False
    if idx == len(order):
        return True
    v = order[idx]
    ceil_size = -(-n // k0)
    forbidden = 0
    for w in nbrs[v]:
        c = color_of[w]
        if c >= 0:
            forbidden |= 1 << c
    new_class_seen = False
    for i in range(k0):
        if sizes[i] >= ceil_size or (forbidden >> i) & 1:
            continue
        if sizes[i] == 0:
            if new_class_seen:
                continue
            new_class_seen = True
        color_of[v] = i
        sizes[i] += 1
        if _search_equitable(nbrs, color_of, sizes, k0, order, idx + 1):
            return True
        sizes[i] -= 1
        color_of[v] = -1
    return False


def brute_chi_eq(g: Graph) -> int:
    """Exact equitable chromatic number by capped enumeration."""
    if g.n > MAX_N:
        raise OracleCapError(f"n={g.n} exceeds oracle cap {MAX_N}")
    if g.n == 0:
        return 0
    nbrs = tuple(map(mask_vertices, g.adj_mask))
    for k0 in range(1, g.n + 1):
        color_of = [-1] * g.n
        sizes = [0] * k0
        if _search_equitable(nbrs, color_of, sizes, k0, g.order, 0):
            return k0
    raise AssertionError("k0 = n is always feasible")

