"""A fixed reference workload that tracks the speed of each vCPU.

On a shared VM the speed of a vCPU drifts by up to 2x within seconds, and the
vCPUs drift independently, so raw times of the same program differ more
between runs than any bound worth keeping. While the benchmark measures, a
thread of its own process runs a short probe on each vCPU the commands use,
every `PERIOD_S`, and records the probe's CPU time. A block timed on some
vCPUs from `start` to `end` is scaled by `REFERENCE_S` over the median probe
time on those vCPUs around that interval: it is reported as if every probe
had taken `REFERENCE_S`, about what it takes on this machine when quiet.

The probe does what the engine's inner loop does, random reads and writes of
Python lists indexed through a graph's adjacency lists, on a small graph and
on one of the benchmark's size, plus a third of integer arithmetic. Of the
probes tried, this mix followed the program's drift best: over ten minutes of
alternating it with in-process engine runs, the quartile spread of 30 s
medians of engine time over probe time was 0.03-0.05, against 0.25-0.29 for
raw engine time; a pointer chase over a large list followed it worse. The
probe takes about 5% of each vCPU.
Its inputs are fixed and it uses nothing from the program, so a change to the
program does not change it.
"""

import os
import random
import statistics
import threading
import time

from inputs import scale_free_edges

REFERENCE_S = 0.004
PERIOD_S = 0.1
MARGIN_S = 0.25  # probe samples this close to a block count for it


def adjacency(nodes: int, m: int) -> list[list[int]]:
    graph: list[list[int]] = [[] for _ in range(nodes)]
    for u, v in scale_free_edges(nodes, m, seed=1):
        graph[u].append(v)
        graph[v].append(u)
    return graph


class Meter:
    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.graphs = [adjacency(2000, 10), adjacency(4039, 22)]
        self.samples: list[tuple[float, int, float]] = []  # (when, vCPU, probe CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="probe")
        self._thread.start()

    def _probe(self) -> float:
        start = time.thread_time()
        total = 0
        for i in range(9_000):
            total += i * i % 7
        draw = random.Random(3).random
        for graph in self.graphs:
            balance = [100] * len(graph)
            last = [-1] * len(graph)
            for v, neighbours in enumerate(graph):
                other = neighbours[int(draw() * len(neighbours))]
                if balance[other]:
                    balance[v] += 1
                    balance[other] -= 1
                    last[v] = last[other] = v
        return time.thread_time() - start

    def _loop(self) -> None:
        while not self._stop.is_set():
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})  # this thread only
                took = self._probe()
                self.samples.append((time.perf_counter(), cpu, took))
            self._stop.wait(PERIOD_S)

    def factor(self, start: float, end: float, cpus: list[int]) -> float:
        """REFERENCE_S over the median probe time on `cpus` from start to end."""
        time.sleep(max(0.0, end + MARGIN_S - time.perf_counter()))
        took = [t for at, cpu, t in self.samples if start - MARGIN_S <= at <= end + MARGIN_S and cpu in cpus]
        return REFERENCE_S / statistics.median(took)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
