import random
from types import SimpleNamespace

import pytest

from eqcolor import Graph, gen_gnp
from eqcolor.coloring import (
    PartialColoring,
    candidate_k0_values,
    deficit_prune,
)
from eqcolor.instances import by_name
from eqcolor.solver import _capped_greedy, _dsatur_pick
from helpers import (
    complete,
    free_colors,
    lopsided_state,
    random_partial_coloring,
    recompute_masks,
    recompute_sat,
    saturation,
    snapshot,
    star,
    uncolored,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])  # a-b-c with b in the middle


def test_extend_updates_barred_masks():
    g = path3()
    pc = PartialColoring(g)
    pc.extend(1, 0)
    assert pc.coloring() == [-1, 0, -1]
    # a and c are barred from color 0 and from no other color
    assert pc.free_mask[0] == 0b010 and all(f == 0b111 for f in pc.free_mask[1:])
    assert free_colors(pc, 0, 3) == free_colors(pc, 2, 3) == 0b110
    assert uncolored(pc) == {0, 2}


def test_extend_forbidden_color_asserts():
    g = path3()
    pc = PartialColoring(g)
    pc.extend(1, 0)
    with pytest.raises(AssertionError):
        pc.extend(0, 0)


def test_extend_colored_vertex_asserts():
    g = path3()
    pc = PartialColoring(g)
    pc.extend(1, 0)
    with pytest.raises(AssertionError):
        pc.extend(1, 1)


def test_lopsided_state_statistics():
    _, pc = lopsided_state()
    assert sorted(s for s in pc.class_size if s) == [1, 1, 1, 3]
    assert pc.uncolored_mask.bit_count() == 2
    assert pc.M == 3 and pc.M_count == 1 and pc.k_used == 4


def check_class_statistics(pc):
    """M, M_count and k_used equal a recount of the class sizes."""
    sizes = [s for s in pc.class_size if s]
    assert pc.M == (max(sizes) if sizes else 0)
    assert pc.M_count == sizes.count(pc.M)
    assert pc.k_used == len(sizes)


def check_colors(pc, path):
    """`pc.coloring()` equals the colors of the (vertex, color) moves a
    walk recorded itself, oldest first: -1 for every other vertex."""
    want = [-1] * pc.n
    for v, i in path:
        want[v] = i
    assert pc.coloring() == want


def test_retract_restores_prior_state():
    inputs = [
        (lopsided_state()[1], [(6, 1), (7, 2)]),
        # both ends bar the middle vertex from color 0: after one retract
        # it is still barred, after both it is free
        (PartialColoring(path3()), [(0, 0), (2, 0)]),
    ]
    for pc, moves in inputs:
        before = []
        for v, c in moves:
            before.append(snapshot(pc))
            pc.extend(v, c)
        while before:
            pc.retract()
            assert snapshot(pc) == before.pop()


def test_incremental_matches_recompute_on_random_walks():
    """After every extend and every single-step retract the masks, planes
    and class statistics equal their recount, no free mask holds a bit at
    or above n, and the colors equal the walk's own record of its moves.
    Some retracts shrink the last class of size M while smaller classes
    remain, so M_count is recounted there."""
    rng = random.Random(71)
    recounts = 0
    for _ in range(120):
        g = gen_gnp(rng.randint(2, 10), rng.random(), rng.getrandbits(32))
        pc = PartialColoring(g)
        path = []  # the walk's moves, oldest first
        for _ in range(rng.randint(1, 40)):
            if pc.uncolored_mask and (not path or rng.random() < 0.65):
                v = rng.choice(sorted(uncolored(pc)))
                mask = free_colors(pc, v, g.n)
                colors = [i for i in range(g.n) if (mask >> i) & 1]
                i = rng.choice(colors)
                pc.extend(v, i)
                path.append((v, i))
            elif path:
                M = pc.M
                assert pc.retract() == path.pop()
                recounts += 0 < pc.M < M
            check_colors(pc, path)
            assert recompute_sat(pc) == pc.sat
            assert recompute_masks(pc) == (pc.uncolored_mask, pc.free_mask)
            assert all(f >> g.n == 0 for f in pc.free_mask)
            check_class_statistics(pc)
    assert recounts >= 20, recounts


def test_saturation_planes_carry_to_the_top_on_complete_graphs():
    """On K_n every move bars each other uncolored vertex from one more
    color, so the last vertex climbs to saturation n - 1, and a carry
    first reaches plane j at the K_n with n - 1 = 2**j (n = 2, 3, 5, 9,
    17). The top of the n.bit_length() planes is used unless n is a power
    of two. The planes equal the recount after every extend and every
    retract, and are all 0 at the end."""
    for n in range(1, 18):
        pc = PartialColoring(complete(n))
        assert len(pc.sat) == n.bit_length()
        for v in range(n):
            pc.extend(v, v)
            assert pc.sat == recompute_sat(pc)
        assert max(saturation(pc)) == n - 1
        assert bool(pc.sat[-1]) == bool(n & (n - 1))
        while pc._trail:
            pc.retract()
            assert pc.sat == recompute_sat(pc)
        assert not any(pc.sat)


def test_retract_to_a_mark_matches_recompute_and_single_steps():
    """Random walks that interleave extends with marks taken at random
    depths and backtrack to a random earlier mark of the current path.
    After each backtrack the state equals the recount and a twin that
    undid the same moves one `retract` at a time. The walks run on
    relabeled G(n,p) graphs and on K_n for n up to 17. On K_n they
    backtrack only from a full coloring, whose last vertex saturation
    n - 1 carried into the top plane unless n is a power of two. After
    every extend and backtrack the colors equal the walk's own record of
    the moves on its path, and no free mask holds a bit at or above n."""
    rng = random.Random(73)
    # (graph, chance of a backtrack while some vertex is uncolored)
    walks = [(complete(n), 0.0) for n in range(1, 18)]
    walks += [(gen_gnp(rng.randint(2, 14), rng.random(), rng.getrandbits(32)).relabeled(), 0.2)
              for _ in range(100)]
    backtracks = 0
    top_restored = set()
    for g, p_backtrack in walks:
        pc, twin = PartialColoring(g), PartialColoring(g)
        sat = pc.sat
        marks = []  # marks of the current path, shallowest first
        path = []  # the moves of the current path, oldest first
        for _ in range(6 * g.n):
            if marks and (not pc.uncolored_mask or rng.random() < p_backtrack):
                mark = rng.choice(marks)
                # a backtrack leaves the path of any mark taken deeper
                marks = [m for m in marks if m[0] <= mark[0]]
                if pc.sat[-1]:
                    top_restored.add(g.n)
                pc.retract_to(mark)
                del path[mark[0]:]
                check_colors(pc, path)
                while len(twin._trail) > mark[0]:
                    twin.retract()
                backtracks += 1
                assert pc.sat is sat
                assert len(pc._trail) == mark[0]
                assert recompute_sat(pc) == pc.sat
                assert recompute_masks(pc) == (pc.uncolored_mask, pc.free_mask)
                assert all(f >> g.n == 0 for f in pc.free_mask + twin.free_mask)
                check_class_statistics(pc)
                assert snapshot(pc) == snapshot(twin)
            if pc.uncolored_mask:
                if rng.random() < 0.4:
                    marks.append(pc.mark())
                v = rng.choice(sorted(uncolored(pc)))
                mask = free_colors(pc, v, g.n)
                i = rng.choice([i for i in range(g.n) if (mask >> i) & 1])
                pc.extend(v, i)
                twin.extend(v, i)
                path.append((v, i))
                check_colors(pc, path)
                check_class_statistics(pc)
                assert all(f >> g.n == 0 for f in pc.free_mask)
    assert backtracks > 1000
    assert {n for n in range(2, 18) if n & (n - 1)} <= top_restored


def test_dsatur_pick_matches_literal_key_on_random_walks():
    """After every move of random extend/retract walks, the pick is the
    literal max over (saturation, degree, -index). Regular graphs and
    sparse G(n,p) give many degree ties, so the index tie-break decides.
    The pick breaks saturation ties by the lowest index, which is the
    highest degree only on a graph relabeled by `Graph.order`, the graphs
    the search runs on, so the walks run on relabeled graphs."""
    rng = random.Random(72)
    graphs = [Graph(8, [(v, (v + 1) % 8) for v in range(8)]), by_name("queen5_5")]
    graphs += [gen_gnp(rng.randint(3, 14), rng.uniform(0.1, 0.6), rng.getrandbits(32))
               for _ in range(60)]
    checked = 0
    for g in graphs:
        g = g.relabeled()
        pc = PartialColoring(g)
        moves = 0
        for _ in range(3 * g.n):
            if pc.uncolored_mask and (moves == 0 or rng.random() < 0.6):
                v = rng.choice(sorted(uncolored(pc)))
                mask = free_colors(pc, v, g.n)
                pc.extend(v, rng.choice([i for i in range(g.n) if (mask >> i) & 1]))
                moves += 1
            elif moves:
                pc.retract()
                moves -= 1
            if pc.uncolored_mask:
                expected = max(
                    uncolored(pc),
                    key=lambda u: (
                        g.n - free_colors(pc, u, g.n).bit_count(),  # saturation
                        g.degree[u],
                        -u,
                    ),
                )
                assert _dsatur_pick(pc) == expected
                checked += 1
    assert checked > 1000


def test_deficit_prune_fires_on_lopsided_state():
    _, pc = lopsided_state()
    v, i = pc.retract()
    # child: n=8, M=3, t=1, k=4: (3-1)*4+1 = 9 > 8
    assert deficit_prune(pc, 2, i) is True
    assert deficit_prune(pc, 4, i) is True


def test_deficit_prune_empty_never_prunes():
    pc = PartialColoring(gen_gnp(6, 0.5, 1))
    pc.extend(0, 0)
    v, i = pc.retract()
    assert deficit_prune(pc, 3, i) is False


def test_deficit_prune_triangle_singletons():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    pc = PartialColoring(g)
    for v in range(3):
        pc.extend(v, v)
    v, i = pc.retract()
    # child: (1-1)*3 + 3 = 3 <= 3
    assert deficit_prune(pc, 3, i) is False


def test_deficit_prune_equivalent_sum_form():
    """The one-step prediction for every color a child may take, the new
    class k_used included, matches the fill-deficit form on the extended
    state (where max(k_lower, k) = k): prune iff |U| < sum over classes
    below M-1 of (M-1-size). With a k_lower above k it matches the
    product form n < (M-1)*k_lower + t on the extended state. The child's
    candidate color counts, read before the move, are those of the
    extended state. On a move that colors the last uncolored vertex the
    test passes exactly when the finished classes differ by at most one:
    the search takes every coloring it completes as equitable."""
    rng = random.Random(17)
    cases = {">": 0, "==": 0, "<": 0}
    last_moves = {True: 0, False: 0}  # by whether the finished classes are equitable
    for _ in range(4_000):
        g = gen_gnp(rng.randint(2, 10), rng.random(), rng.getrandbits(32))
        k0 = rng.randint(1, g.n)
        pc = random_partial_coloring(rng, g, k0)
        if not pc.uncolored_mask:
            continue
        for i in range(pc.k_used + 1):
            free = [u for u in sorted(uncolored(pc)) if free_colors(pc, u, i + 1) >> i & 1]
            if not free:
                continue
            s = pc.class_size[i]
            cases[">" if s + 1 > pc.M else "==" if s + 1 == pc.M else "<"] += 1
            k_lower = rng.randint(0, g.n)
            predicted = deficit_prune(pc, 0, i)
            predicted_lower = deficit_prune(pc, k_lower, i)
            v = rng.choice(free)
            k_upper = g.n + 1  # every color count up to n
            k0s = [list(candidate_k0_values(pc, k, k_upper, (v, i))) for k in (0, k_lower)]
            pc.extend(v, i)
            if not pc.uncolored_mask:
                sizes = [c for c in pc.class_size if c]
                equitable = max(sizes) - min(sizes) <= 1
                assert predicted == (not equitable)
                last_moves[equitable] += 1
            assert k0s == [list(candidate_k0_values(pc, k, k_upper)) for k in (0, k_lower)]
            deficit = sum(pc.M - 1 - c for c in pc.class_size if 0 < c < pc.M - 1)
            assert predicted == (pc.uncolored_mask.bit_count() < deficit)
            k = max(k_lower, pc.k_used)
            assert predicted_lower == (g.n < (pc.M - 1) * k + pc.M_count)
            pc.retract()
    assert min(cases.values()) > 500, cases
    assert min(last_moves.values()) > 100, last_moves


def _stepping_k0_values(pc, k_lower, k_upper, move=None):
    """The candidate color counts by stepping k0 up from its start until
    the largest class no longer fits below ceil(n/k0): the reference for
    the closed-form range of `candidate_k0_values`."""
    n = pc.n
    M, k0 = pc.M, pc.k_used
    if move is not None:
        s = pc.class_size[move[1]] + 1
        if s > M:
            M = s
        k0 += s == 1
    if k_lower > k0:
        k0 = k_lower
    if k0 < 1:
        k0 = 1
    while k0 <= k_upper - 1:
        if M > -(-n // k0):
            break
        yield k0
        k0 += 1


def test_candidate_k0_range_equals_stepping_loop():
    """The closed-form range equals the stepping loop, exhaustively over
    n <= 30, every largest class M <= n and every k_upper in 0..n+2
    (empty ranges at k_upper <= k0 included), with every start 0..n+1
    (k0 > n included) reached once through k_used and once through
    k_lower, each without a move and with a move that opens a class,
    keeps M or grows M. Only n, k_used, M and class_size are read, so a
    namespace stands in for the partial coloring."""
    cases = 0
    for n in range(31):
        moves = (None, (0, 0), (0, 1), (0, 2)) if n else (None,)
        for M in range(n + 1):
            # a move into class 0 opens it, into 1 keeps M, into 2 grows M
            pc = SimpleNamespace(n=n, M=M, k_used=0, class_size=[0, max(M - 1, 0), M])
            for k in range(n + 2):
                for k_used, k_lower in ((k, 0), (0, k)) if k <= n else ((0, k),):
                    pc.k_used = k_used
                    for move in moves:
                        want = list(_stepping_k0_values(pc, k_lower, n + 2, move))
                        start = want[0] if want else 0
                        for k_upper in range(n + 3):
                            got = candidate_k0_values(pc, k_lower, k_upper, move)
                            assert list(got) == want[: max(0, k_upper - start)]
                            cases += 1
    assert cases > 2_000_000


def test_capped_greedy_returns_exactly_its_equitable_replays():
    """`_capped_greedy(g, k)` equals a replay of its greedy: DSATUR pick,
    lowest free color whose class is below ceil(n/k). It returns None
    exactly when the replay gets stuck or finishes with classes that
    differ by more than one, and otherwise the replay's (k_used,
    coloring)."""
    rng = random.Random(74)
    graphs = [path3(), Graph(4, [(0, 1), (1, 2), (2, 3)]), star(12), complete(4)]
    # sparse graphs lean the greedy toward classes filled to the cap in
    # turn, which can leave the last one short: the unequal outcome
    graphs += [gen_gnp(rng.randint(1, 16), rng.random() ** 2, rng.getrandbits(32))
               for _ in range(500)]
    outcomes = {"stuck": 0, "unequal": 0, "equitable": 0}
    for g in graphs:
        for k in range(1, g.n + 1):
            pc = PartialColoring(g)
            cap = -(-g.n // k)
            for _ in range(g.n):
                v = _dsatur_pick(pc)
                free = [i for i in range(k)
                        if pc.class_size[i] < cap and pc.free_mask[i] >> v & 1]
                if not free:
                    outcome, want = "stuck", None
                    break
                pc.extend(v, free[0])
            else:
                sizes = [c for c in pc.class_size if c]
                if max(sizes) - min(sizes) > 1:
                    outcome, want = "unequal", None
                else:
                    outcome, want = "equitable", (pc.k_used, pc.coloring())
            assert _capped_greedy(g, k) == want
            outcomes[outcome] += 1
    assert min(outcomes.values()) > 200, outcomes
