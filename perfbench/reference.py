"""The reference loop: fixed work, independent of the program, timed
beside every op.

The bench host's speed moves by half again within minutes (a pure-Python
loop shows it as plainly as the program does), which swamps any change to
the program.  So each op's time is divided by the time of this loop,
measured right before and right after the op, and the end-to-end timings
are given in units of it (``ref``).  The loop mixes what the program does:
a heap-and-dict Dijkstra in the interpreter, and a small matrix product
and sort in numpy.  It uses only the standard library and numpy, never the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

VERTICES = 300
DEGREE = 6
SOURCES = 3


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20070609)
        self.adjacency = [
            [(rng.randrange(VERTICES), rng.random()) for _ in range(DEGREE)]
            for _ in range(VERTICES)
        ]
        self.matrix = np.random.default_rng(20070609).random((100, 100))
        for _ in range(5):  # warm up
            self.checksum = self._once()

    def _once(self) -> float:
        adjacency, total = self.adjacency, 0.0
        for source in range(SOURCES):
            dist = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, weight in adjacency[u]:
                    nd = d + weight
                    if nd < dist.get(v, float("inf")):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
            total += sum(dist.values())
        product = self.matrix @ self.matrix
        product.sort(axis=1)
        return total + float(product[:, 0].sum())

    def measure(self, seconds: float) -> tuple[float, float]:
        """Run the loop at least twice and for at least ``seconds``;
        returns its wall and CPU seconds per pass."""
        passes = 0
        c0 = time.process_time()
        t0 = time.perf_counter()
        while True:
            checksum = self._once()
            passes += 1
            elapsed = time.perf_counter() - t0
            if passes >= 2 and elapsed >= seconds:
                break
        cpu = time.process_time() - c0
        if checksum != self.checksum:
            raise AssertionError("the reference loop's result changed")
        return elapsed / passes, cpu / passes
