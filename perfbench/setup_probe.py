"""Set-up probe: times `import eqcolor` plus building a workload's graphs in
a fresh interpreter, which is what a user pays before the first solve.

Reads {"src": <package root>, "inputs": [["dimacs", <text>] or
["gnp", [n, p, seed]], ...]} as JSON on stdin and prints
{"setup_s": <seconds>, "slowdown": <by the yardstick>, "file":
<eqcolor.__file__>, "sizes": [[n, m], ...]}. The yardstick runs in this
same process just before and just after the timed part, outside it, so
its slowdown describes the CPU the set-up ran on.
"""

import json
import sys
import time

import yardstick

YARDSTICK_S = 0.02  # CPU seconds of chunks before and after the set-up


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    stick = yardstick.Yardstick()
    stick.run(YARDSTICK_S)
    t0 = time.perf_counter()
    import eqcolor

    graphs = [
        eqcolor.parse_dimacs(arg) if kind == "dimacs" else eqcolor.gen_gnp(*arg)
        for kind, arg in spec["inputs"]
    ]
    setup_s = time.perf_counter() - t0
    stick.run(YARDSTICK_S)
    sizes = [[g.n, g.m] for g in graphs]
    json.dump(
        {"setup_s": setup_s, "slowdown": stick.slowdown(), "file": eqcolor.__file__, "sizes": sizes},
        sys.stdout,
    )


if __name__ == "__main__":
    main()
