"""The yardstick: a fixed pure-Python load run while the solver runs, so
that a run can say how fast the machine was during each solve.

The shared host this benchmark runs on changes speed under it: the same
code runs up to 40 % slower in CPU time for stretches of a few seconds to
minutes. A SIGPROF interval timer (see `sampling`) interrupts the solver
at fixed steps of CPU time and runs a few yardstick chunks. Whoever times
a solve takes the chunks' time off it, and divides the rest by the
slowdown the chunks saw: their mean time over NOMINAL_CHUNK_S. The result
is the CPU time the solve would take on a machine where one chunk takes
NOMINAL_CHUNK_S. The yardstick is benchmark code, so it reads the same on
a parent commit and on a change; only the program's own time moves the
scaled figure.

CPU time is read from the thread's clock (time.thread_time; the
benchmark runs one thread). While a SIGPROF timer is armed, Linux reads
the process-wide CPU clock from a total it updates only at scheduler ticks,
a few milliseconds apart, which would blur every short measurement.

One chunk is a greedy DSATUR coloring of a fixed random graph, kept with
bitmasks, neighbor lists and a set of uncolored vertices, the operations
the solver spends its time on. It shares no code with the solver.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import time

# about the CPU seconds of one chunk, run from the timer, on the machine the
# baseline was measured on
# (shared 2-core x86-64 virtual machine, Python 3.11.7, in a fast phase)
NOMINAL_CHUNK_S = 0.00045


class Yardstick:
    def __init__(self, n: int = 80, p: float = 0.35, seed: int = 1607):
        rng = random.Random(seed)
        self.n = n
        self.adj = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    self.adj[u].append(v)
                    self.adj[v].append(u)
        self.degree = [len(a) for a in self.adj]
        self.colors = self.chunk()
        self.chunks = 0
        self.seconds = 0.0  # CPU time of the chunks
        self.wall_s = 0.0  # wall time of the chunks

    def chunk(self) -> int:
        """Color the graph greedily, most saturated vertex first; return
        the number of colors, which is the same on every call."""
        n, adj, degree = self.n, self.adj, self.degree
        forbidden = [0] * n
        uncolored = set(range(n))
        used = 0
        while uncolored:
            best = v = -1
            for u in uncolored:
                key = forbidden[u].bit_count() * n + degree[u]
                if key > best:
                    best, v = key, u
            uncolored.discard(v)
            mask = forbidden[v]
            c = 0
            while mask >> c & 1:
                c += 1
            used = max(used, c + 1)
            bit = 1 << c
            for u in adj[v]:
                forbidden[u] |= bit
        return used

    def run(self, at_least: float) -> None:
        """Run whole chunks for at least `at_least` CPU seconds, one at the
        least, and add them to the totals. The garbage collector is off
        meanwhile, so the heap the solver left does not slow the chunks."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0 = time.perf_counter()
            t0 = time.thread_time()
            while True:
                if self.chunk() != self.colors:
                    raise RuntimeError("the yardstick's coloring changed between chunks")
                self.chunks += 1
                spent = time.thread_time() - t0
                if spent >= at_least:
                    self.seconds += spent
                    self.wall_s += time.perf_counter() - w0
                    return
        finally:
            if collecting:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self, every: float, at_least: float):
        """Run chunks for `at_least` CPU seconds each time the process has
        used `every` more CPU seconds, from a SIGPROF timer, so that the
        yardstick samples the machine while the solver runs. Whoever
        times code inside the block subtracts what `seconds` and `wall_s`
        grew by meanwhile."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.run(at_least))
        signal.setitimer(signal.ITIMER_PROF, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def slowdown(self) -> float:
        """Mean CPU seconds per chunk so far over NOMINAL_CHUNK_S: above 1
        the machine ran slower than when the baseline was measured."""
        return self.seconds / self.chunks / NOMINAL_CHUNK_S
