"""In-process A/B of two builds of the compiled kernel on the benchmark's inputs.

Builds `_pass.c` twice into a temporary directory, at two flag sets or from
two sources, then plays every run of the three perfbench workloads
(mix_bank0, coop_inf and the 36 runs of suite_exp2, on perfbench's seeded
stand-in graphs) through `engine.run` on each build in turn, and replays
suite_exp2's 36 degree-ranked assignments, each from the generator state it
started from, through `experiments.assign_by_degree` (the row
suite_exp2.assign). The runs, the assignments and their inputs are recorded
once from the real `run` and `suite --workers 1` commands, so both builds get
identical inputs. Only the kernel calls, `pd_shuffle`, `pd_sample` and
`pd_run`, are timed; after each call every buffer it writes (order, the
sampled positions, held, balances, last, acc, the generator state, the stats
rows and the Gini sums; not the scratch, which is only working memory) is
hashed, and the script fails unless both builds wrote the same bytes. It prints, per workload, each build's median
milliseconds and nanoseconds per game. In-process kernel timings are far quieter than
whole-command timings in fresh processes.

    PYTHONPATH=src python tests/kernel_ab.py --a-flags "-O2 -fPIC -shared -ffp-contract=off"
    PYTHONPATH=src python tests/kernel_ab.py --b-source /path/to/other/_pass.c --reps 15

Both sides default to the package's `_pass.c` and `_kernel.FLAGS`. This file
is a tool, not a test module: pytest collects only test_*.py files.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from unittest import mock

from pdnetsim import _kernel, cli, engine, experiments

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py: the benchmark's seeded stand-ins)


def build(source: str, flags: list[str], target: str):
    """The library compiled from `source` with `flags` into `target`."""
    proc = subprocess.run(["cc", *flags, "-o", target, source], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"building {source} with {' '.join(flags)} failed:\n{proc.stderr}")
    library, reason = _kernel._open(target)
    if library is None:
        sys.exit(reason)
    return library


def play(graph, assignment, cfg) -> int:
    """The games one recorded run plays."""
    result = engine.run(graph, assignment, cfg)
    return sum(stat.games_played for stat in result.iteration_stats)


def assign(graph, group, state) -> int:
    """Replay one recorded degree-ranked assignment from the generator state
    it started from; it plays no game."""
    rng = random.Random()
    rng.setstate(state)
    experiments.assign_by_degree(graph, group, rng)
    return 0


def recorded_runs(work_dir: str, seed: int) -> dict[str, list]:
    """Per workload, a (play, (graph, assignment, cfg)) for every `engine.run`
    call its command makes and, under `<workload>.assign`, an (assign,
    (graph, group, generator state)) for every `experiments.assign_by_degree`
    call, recorded from the command itself."""
    inputs.generate(work_dir, seed, inputs.FULL)
    real_run, real_assign = engine.run, experiments.assign_by_degree
    runs = {}
    for name, workload in inputs.workloads(work_dir, seed, inputs.FULL).items():
        calls = runs[name] = []
        assigned = []

        def record(graph, assignment, cfg, iteration_hook=None):
            calls.append((play, (graph, assignment, cfg)))
            return real_run(graph, assignment, cfg, iteration_hook)

        def record_assignment(graph, group, rng):
            assigned.append((assign, (graph, group, rng.getstate())))
            return real_assign(graph, group, rng)

        config = os.path.join(work_dir, f"{name}.cfg")
        inputs.write_config(config, {**workload.config, "out": os.path.join(work_dir, name)})
        argv = [workload.command, "--config", config]
        if workload.command == "suite":
            argv += ["--workers", "1"]  # every run in this process, where it is recorded
        with contextlib.ExitStack() as stack:
            for module in (cli, experiments):
                stack.enter_context(mock.patch.object(module, "run", record))
            stack.enter_context(mock.patch.object(experiments, "assign_by_degree", record_assignment))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if cli.main(argv) != cli.EXIT_OK:
                sys.exit(f"recording {name} failed")
        if assigned:
            runs[f"{name}.assign"] = assigned
    return runs


class Timed:
    """`library` with pd_shuffle, pd_sample and pd_run timed, and the bytes
    each call writes hashed into `digest`."""

    def __init__(self, library):
        self.library = library
        self.seconds = 0.0
        self.digest = hashlib.sha256()

    def pd_shuffle(self, order, n, mt):
        start = time.perf_counter()
        self.library.pd_shuffle(order, n, mt)
        self.seconds += time.perf_counter() - start
        self._hash((order, 8 * n), (mt, 4 * 625))

    def pd_sample(self, out, m, k, by_pool, scratch, mt):
        start = time.perf_counter()
        self.library.pd_sample(out, m, k, by_pool, scratch, mt)
        self.seconds += time.perf_counter() - start
        self._hash((out, 8 * k), (mt, 4 * 625))

    def pd_run(
        self, limit, order, held, offsets, targets, kinds, last, bal, start, params, acc, mt, stats, sums, scratch
    ):
        # the argument order of _kernel._SIGNATURES["pd_run"]
        began = time.perf_counter()
        played = self.library.pd_run(
            limit, order, held, offsets, targets, kinds, last, bal, start, params, acc, mt, stats, sums, scratch
        )
        self.seconds += time.perf_counter() - began
        n = ctypes.c_int64.from_address(params).value
        live = ctypes.c_int64.from_address(acc + 8 * engine._LIVE).value  # acc[A_LIVE]
        self._hash(
            (order, 8 * live), (held, 8 * live), (bal, 8 * n), (last, n), (acc, 8 * engine._ACC_SLOTS), (mt, 4 * 625),
            (stats, 8 * engine._STAT_FIELDS * played), (sums, 4 * 8 * played if sums else 0),
        )
        self.digest.update(played.to_bytes(8, "little", signed=True))
        return played

    def _hash(self, *buffers):
        for address, size in buffers:
            self.digest.update(ctypes.string_at(address, size) if size else b"")


def replay(library, runs) -> tuple[float, str, int]:
    """(kernel seconds, hex digest of every buffer written, games played)
    for the recorded `runs` replayed on `library`."""
    timed = Timed(library)
    games = 0
    with mock.patch.object(_kernel, "load", lambda: (timed, None)):
        for function, args in runs:
            games += function(*args)
    return timed.seconds, timed.digest.hexdigest(), games


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a-source", default=str(_kernel.SOURCE))
    parser.add_argument("--a-flags", default=" ".join(_kernel.FLAGS))
    parser.add_argument("--b-source", default=str(_kernel.SOURCE))
    parser.add_argument("--b-flags", default=" ".join(_kernel.FLAGS))
    parser.add_argument("--reps", type=int, default=9, help="timed replays of every workload on each build")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED, help="perfbench input seed")
    args = parser.parse_args()

    sides = {"A": (args.a_source, args.a_flags), "B": (args.b_source, args.b_flags)}
    with tempfile.TemporaryDirectory(prefix="kernel-ab-") as tmp:
        builds = {
            side: build(source, shlex.split(flags), os.path.join(tmp, f"{side}.so"))
            for side, (source, flags) in sides.items()
        }
        runs = recorded_runs(tmp, args.seed)
        for side, (source, flags) in sides.items():
            print(f"{side}: {source} {flags}")
        print(f"{'workload':<17} {'runs':>4} {'games':>9} {'A ms':>8} {'B ms':>8} {'A ns/game':>9} "
              f"{'B ns/game':>9} {'B/A':>6} {'B faster':>8}")
        for name, workload_runs in runs.items():
            for library in builds.values():  # warm the caches; not timed
                replay(library, workload_runs)
            times = {"A": [], "B": []}
            digests = set()
            for rep in range(args.reps):
                for side in ("AB" if rep % 2 == 0 else "BA"):
                    seconds, digest, played = replay(builds[side], workload_runs)
                    times[side].append(seconds)
                    digests.add(digest)
            if len(digests) != 1:
                sys.exit(f"{name}: the two builds wrote different buffers")
            a, b = (statistics.median(times[side]) for side in "AB")
            faster = sum(tb < ta for ta, tb in zip(times["A"], times["B"]))
            per_game = (f"{t * 1e9 / played:>9.1f}" if played else f"{'-':>9}" for t in (a, b))
            print(f"{name:<17} {len(workload_runs):>4} {played:>9} {a * 1e3:>8.2f} {b * 1e3:>8.2f} "
                  f"{' '.join(per_game)} {b / a:>6.3f} {faster:>5}/{args.reps}")
        print("buffers: identical on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
