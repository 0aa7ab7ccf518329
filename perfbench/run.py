"""pdnetsim benchmark: `python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout; the program is imported from its
`src/`. Each workload writes seeded stand-in graphs, measures set-up in this
process, then alternates repetitions of the user command in fresh processes
for S seconds. Every repetition's files are checked. With `--trace 0` the
last stdout line holds the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run (see perfbench/README.md). `--workload all` runs the
three workloads interleaved, so drift on the machine hits them alike.
"""

import argparse
import contextlib
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
from inputs import DEFAULT_SEED, FULL
from probe import REFERENCE_S, Meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "expected_digests.json")  # of the default seed at SCALE
SCALE = FULL
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
SETUP_REPS = 2  # per cycle, so that the setup_s samples span the whole run

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "games_per_s": "1/s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph.load_s": "s",
    "graph.rows_per_s": "1/s",
    "experiments.assign_s": "s",
    "experiments.task_s_p50": "s",
    "experiments.serial_s": "s",
    "experiments.parallel_efficiency": "ratio",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.games_played": "count",
    "engine.turns_skipped": "count",
    "engine.skip_ratio": "ratio",
    "engine.ns_per_turn": "ns",
    "engine.iter_us_p50": "us",
    "engine.iter_us_p99": "us",
    "engine.active_nodes_final": "count",
    "metrics.gini_calls": "count",
    "metrics.gini_s": "s",
    "metrics.gini_us_p50": "us",
    "metrics.gini_us_p99": "us",
    "metrics.zero_share_final": "ratio",
    "output.series_write_s": "s",
    "output.bytes_written": "B",
    "cli.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def percentile(values, q: int) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def series_name(network: str, group: str, bank: str, replicate) -> str:
    """Where a suite writes one run's series, relative to its --out."""
    from pdnetsim.output import run_file_name

    return "runs/" + run_file_name(network, group, bank, int(replicate))


class Launcher:
    """The small process that starts every measured command (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], log_path: str, cpus: list[int]) -> tuple[float, float, float, int]:
        """Run argv to completion on `cpus`; return (start, end, peak RSS MB of it
        and its reaped children, exit code)."""
        self.proc.stdin.write(json.dumps([argv, ROOT, dict(os.environ, PYTHONPATH=SRC), log_path, cpus]) + "\n")
        self.proc.stdin.flush()
        start, end, rss, code = json.loads(self.proc.stdout.readline())
        return start, end, rss, code

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """State and samples of one workload inside one benchmark invocation."""

    def __init__(self, workload: inputs.Workload, work: str, seed: int, rows: dict, expected: dict,
                 launcher: Launcher, meter: Meter):
        self.wl = workload
        self.launcher = launcher
        self.meter = meter
        self.cpus = meter.cpus[: workload.workers]
        self.work = os.path.join(work, workload.name)
        os.makedirs(self.work)
        self.seed = seed
        self.rows = rows
        self.expected = expected
        self.config = os.path.join(self.work, "run.cfg")
        inputs.write_config(self.config, {**workload.config, "out": os.path.join(self.work, "out")})
        self.log = os.path.join(self.work, "stderr.log")
        self.reps = 0
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.layers: list[dict] = []
        self.traced_wall: list[float] = []
        self.serial_wall: list[float] = []
        self.raw_wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None

    # -- commands -----------------------------------------------------------------

    def argv(self, out: str, workers: int | None = None) -> list[str]:
        args = [self.wl.command, "--config", self.config, "--out", out]
        if self.wl.command == "suite":
            args += ["--workers", str(workers or self.wl.workers)]
        return args

    def _out(self) -> str:
        self.reps += 1
        return os.path.join(self.work, f"rep{self.reps}")

    def plain_rep(self, workers: int | None = None) -> float:
        """One repetition of the user command in a fresh interpreter, checked."""
        out = self._out()
        argv = [sys.executable, "-m", "pdnetsim", *self.argv(out, workers)]
        start, end, rss, code = self.launcher.run(argv, self.log, self.cpus)
        wall = (end - start) * self.meter.factor(start, end, self.cpus)
        games = self.check(out, code, records=None)
        if workers is None:
            self.raw_wall.append(end - start)
            self.samples["wall_s"].append(wall)
            self.samples["peak_rss_mb"].append(rss)
            self.samples["games_per_s"].append(games / wall)
            self.samples["runs_per_s"].append(len(self.units()) / wall)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    def traced_rep(self, keep_balances: bool) -> None:
        """One repetition under the span wrappers; its files are checked as well."""
        out = self._out()
        trace_dir = out + ".trace"
        os.makedirs(trace_dir)
        child = os.path.join(HERE, "child.py")
        argv = [sys.executable, child, f"{self.wl.name}-{self.reps}", trace_dir, "1" if keep_balances else "0", "--"]
        start, end, _, code = self.launcher.run(argv + self.argv(out), self.log, self.cpus)
        wall = (end - start) * self.meter.factor(start, end, self.cpus)
        spans, records = [], []
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
                dump = json.load(handle)
            spans += dump["spans"]
            records += dump["runs"]
        if self.wl.command == "run" and len(records) == 1:
            records[0]["series_path"] = os.path.join(out, "gini_series.csv")
        failed = self.failed
        self.check(out, code, records if keep_balances else None)
        if not keep_balances and self.failed == failed:
            self.traced_wall.append(wall)
            self.layers.append(self.layer_metrics(spans, records, out))
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(trace_dir, ignore_errors=True)

    def measure_setup(self, reps: int, keep: bool = True) -> None:
        """setup_s samples: load_graph plus assignment, as the command does them, in this process."""
        from pdnetsim import experiments, graph

        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            for net in self.wl.networks:
                g = graph.load_graph(net.path, net.fmt)
                if self.wl.command == "run":
                    group = experiments.ProportionGroup.parse(self.wl.config["group"])
                    rng = random.Random(experiments.derive_seed(self.seed, "assign"))
                    experiments.assign_proportional(g.node_count, group, rng)
                    continue
                for group in experiments.EXPERIMENT2_GROUPS:
                    for bank in experiments.DEFAULT_BANK_SETTINGS:
                        rng = random.Random(experiments.derive_seed(self.seed, net.name, group.label, bank.label, 0, "assign"))
                        experiments.assign_by_degree(g, group, rng)
            end = time.perf_counter()
            del g
            if keep:
                self.samples["setup_s"].append((end - start) * self.meter.factor(start, end, self.meter.cpus[:1]))

    # -- checks -------------------------------------------------------------------

    def units(self) -> list[tuple[str, str, int]]:
        """(series file, bank label, nodes) of every program run a repetition makes."""
        if self.wl.command == "run":
            return [("gini_series.csv", self.wl.config["bank"], self.wl.networks[0].nodes)]
        from pdnetsim.experiments import DEFAULT_BANK_SETTINGS, EXPERIMENT2_GROUPS

        return [
            (series_name(net.name, group.label, bank.label, 0), bank.label, net.nodes)
            for net in self.wl.networks
            for group in EXPERIMENT2_GROUPS
            for bank in DEFAULT_BANK_SETTINGS
        ]

    def check(self, out: str, code: int, records: list | None) -> int:
        """Check one repetition's files; count its runs as attempted and failed; return games played."""
        units = self.units()
        problems: list[tuple[str, str]] = []
        if code != 0:
            problems.append(("*", f"exit code {code}"))
        iterations = int(self.wl.config["iterations"])
        initial = int(self.wl.config["initial_balance"])
        facts = {}
        for series, bank, nodes in units:
            facts[series] = checks.check_series(os.path.join(out, series), series, nodes, initial, bank, problems)
        if self.wl.command == "run":
            checks.check_summary_txt(os.path.join(out, "summary.txt"), facts["gini_series.csv"], iterations, self.seed, problems)
        else:
            rows = checks.read_suite_summary(os.path.join(out, "suite_summary.csv"), problems)
            by_file = {series_name(r["network"], r["group"], r["bank"], r["replicate"]): r for r in rows}
            if len(rows) != len(units) or set(by_file) != set(facts):
                problems.append(("*", "suite_summary.csv rows do not match the expected runs"))
            for series, row in by_file.items():
                fact = facts.get(series)
                if row["status"] != "ok":
                    problems.append((series, f"status {row['status']!r}"))
                elif fact is None or row["final_gini"] != fact.last_gini:
                    problems.append((series, "final_gini differs from the series file"))
                elif (row["converged_at"] or str(iterations)) != str(fact.rows):
                    problems.append((series, "row count differs from converged_at"))
        if records is not None:
            by_path = {os.path.relpath(r["series_path"], out): r for r in records}
            if len(records) != len(units):
                problems.append(("*", f"{len(records)} runs captured, {len(units)} expected"))
            for series, bank, _ in units:
                if series in by_path:
                    checks.check_record(by_path[series], facts[series], series, initial, bank, problems)
        found = checks.digests(out)
        if self.reference is None:
            self.reference = found
        for name in sorted(set(found) | set(self.reference)):
            if found.get(name) != self.reference.get(name):
                problems.append((name if name in facts else "*", f"{name} is not byte-identical to the first repetition"))
        for name, digest in self.expected.items():
            if found.get(name) != digest:
                problems.append((name if name in facts else "*", f"{name} does not match its recorded digest"))
        spoiled = {unit for unit, _ in problems}
        failed = len(units) if "*" in spoiled else len(spoiled)
        self.attempted += len(units)
        self.failed += failed
        self.problems += [f"{self.wl.name} rep {self.reps}: {unit}: {text}" for unit, text in problems]
        return sum(f.games for f in facts.values())

    # -- metrics ------------------------------------------------------------------

    def layer_metrics(self, spans: list, records: list, out: str) -> dict:
        durations: dict[str, list[float]] = {}
        by_id = {}
        per_file: dict[str, list[float]] = {}
        for span_id, parent, name, start, end, path in spans:
            durations.setdefault(name, []).append(end - start)
            by_id[span_id] = (parent, name, end - start)
            if name == "graph.load":
                per_file.setdefault(path, []).append(end - start)
        main_id, main_s = next((sid, d) for sid, (_, name, d) in by_id.items() if name == "cli.main")
        children = sum(d for parent, _, d in by_id.values() if parent == main_id)
        gini_in_engine = sum(d for parent, name, d in by_id.values() if name == "metrics.gini" and by_id[parent][1] == "engine.run")
        run_s = sum(durations["engine.run"])
        games = sum(r["games"] for r in records)
        skipped = sum(r["skipped"] for r in records)
        iters = [s for r in records for s in r["iter_s"]]
        gini = durations["metrics.gini"]
        # A suite parses each file once per worker: count one parse of each file.
        load_s = sum(statistics.median(d) for d in per_file.values())
        return {
            "graph.load_s": load_s,
            "graph.rows_per_s": sum(self.rows[path] for path in per_file) / load_s,
            "experiments.assign_s": sum(durations.get("experiments.assign", [])),
            "experiments.task_s_p50": statistics.median(durations.get("experiments.task", [main_s])),
            "engine.run_s": run_s,
            "engine.self_s": run_s - gini_in_engine,
            "engine.games_played": games,
            "engine.turns_skipped": skipped,
            "engine.skip_ratio": skipped / (games + skipped),
            "engine.ns_per_turn": run_s / (games + skipped) * 1e9,
            "engine.iter_us_p50": percentile(iters, 50) * 1e6,
            "engine.iter_us_p99": percentile(iters, 99) * 1e6,
            "engine.active_nodes_final": sum(r["nodes"] - r["zeros"] for r in records),
            "metrics.gini_calls": len(gini),
            "metrics.gini_s": sum(gini),
            "metrics.gini_us_p50": percentile(gini, 50) * 1e6,
            "metrics.gini_us_p99": percentile(gini, 99) * 1e6,
            "metrics.zero_share_final": sum(r["zeros"] for r in records) / sum(r["nodes"] for r in records),
            "output.series_write_s": sum(durations.get("output.series", [])),
            "output.bytes_written": sum(os.path.getsize(os.path.join(b, f)) for b, _, fs in os.walk(out) for f in fs),
            "cli.overhead_s": main_s - children,
        }

    def per_layer(self) -> dict[str, list[float]]:
        """Per-layer samples, one per traced repetition; the last three are
        derived from medians of untraced walls and hold one value."""
        if not self.layers:
            return {}
        values = {name: [layer[name] for layer in self.layers] for name in self.layers[0]}
        wall = statistics.median(self.samples["wall_s"])
        serial = statistics.median(self.serial_wall) if self.serial_wall else wall
        values["experiments.serial_s"] = [serial]
        values["experiments.parallel_efficiency"] = [serial / (self.wl.workers * wall)]
        values["trace.overhead_share"] = [statistics.median(self.traced_wall) / wall - 1]
        return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", "mix_bank0", "coop_inf", "suite_exp2"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(benches: list[Bench], seconds: float, trace: bool) -> None:
    """Set up, check, then repeat cycles over the workloads for `seconds` per workload.

    A cycle starts only if the previous cycle's length still fits before the
    deadline, so a run measures for about `seconds` and never much longer.
    """
    if not trace:
        for bench in benches:
            bench.measure_setup(1, keep=False)  # warm-up
    for bench in benches:
        bench.traced_rep(keep_balances=True)  # warm-up, and the oracle checks
    deadline = time.perf_counter() + seconds * len(benches)
    cycles = 0
    while True:
        start = time.perf_counter()
        for bench in benches:
            if trace:
                bench.traced_rep(keep_balances=False)
            bench.plain_rep()
            if not trace:
                bench.measure_setup(SETUP_REPS)
            if trace and bench.wl.workers > 1:
                bench.serial_wall.append(bench.plain_rep(workers=1))
        cycles += 1
        now = time.perf_counter()
        if cycles >= (MIN_TRACED_CYCLES if trace else MIN_CYCLES) and now + (now - start) > deadline:
            return


def remove_work(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    if os.path.isdir(WORK) and not os.listdir(WORK):
        os.rmdir(WORK)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdnetsim", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of a pdnetsim checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    recorded = {}
    if args.seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle)
    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.ExitStack() as stack:
        stack.callback(remove_work, work)
        data = os.path.join(work, "data")
        rows = inputs.generate(data, args.seed, SCALE)
        defined = inputs.workloads(data, args.seed, SCALE)
        names = list(defined) if args.workload == "all" else [args.workload]
        # Each command runs on the first `workers` vCPUs; set-up runs here, on the first.
        cpus = sorted(os.sched_getaffinity(0))[: max(defined[n].workers for n in names)]
        stack.callback(os.sched_setaffinity, 0, os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[:1])
        launcher = Launcher()
        stack.callback(launcher.close)
        meter = Meter(cpus)
        stack.callback(meter.close)
        benches = [Bench(defined[n], work, args.seed, rows, recorded.get(n, {}), launcher, meter) for n in names]
        measure(benches, args.seconds, bool(args.trace))
    return report(benches, meter, bool(args.trace), args.workload == "all")


def report(benches: list[Bench], meter: Meter, trace: bool, prefixed: bool) -> int:
    """Print a table (median, quartiles, sample count) and, last, the JSON result."""
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    probes = [t for _, _, t in meter.samples]
    print(f"# times are scaled to a probe time of {REFERENCE_S} s; the probe took "
          f"{statistics.median(probes):.4g} s (median of {len(probes)})")
    for bench in benches:
        samples = bench.per_layer() if trace else bench.samples
        print(f"# {bench.wl.name}: failed_share {bench.failed / bench.attempted:.4g} share "
              f"({bench.failed} of {bench.attempted} runs failed a check)"
              + (f"; unscaled wall_s {statistics.median(bench.raw_wall):.4g} s" if bench.raw_wall else ""))
        for name, unit in units.items():
            values = samples.get(name)
            if not values:
                continue  # every traced repetition failed its checks
            median = statistics.median_low(values) if unit == "count" else statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            print(f"{bench.wl.name:>10} {name:<32} {median:>14.6g} {unit:<6} q1 {q1:<11.6g} q3 {q3:<11.6g} n={len(values)}")
            metrics[f"{bench.wl.name}.{name}" if prefixed else name] = {"value": median, "unit": unit}
        for problem in bench.problems[:20]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
