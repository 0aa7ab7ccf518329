"""Spans recorded from outside the program.

`install` replaces the module attributes the program looks up at call time
(`pdnetsim.cli.run`, `pdnetsim.experiments.execute_task`, `pdnetsim.engine.gini`
and so on) with wrappers that time each call. Nothing under src/ changes.

A span is (id, parent id, name, start, end, file path or None); the spans of one repetition share
its run id. Spans are kept in memory and written when the process ends. Suite
workers are forked from the traced process, so they inherit the wrappers;
each writes its own file when the pool shuts it down.
"""

import json
import os
import time
from multiprocessing import util

_clock = time.perf_counter


class Recorder:
    def __init__(self, run_id: str, out_dir: str, keep_balances: bool):
        self.run_id = run_id
        self.out_dir = out_dir
        self.keep_balances = keep_balances
        self.pid = os.getpid()
        self.spans: list = []
        self.runs: list = []
        self.stack: list = [None]  # ids of the open spans; None is the root
        self._next = 0

    def _adopt_fork(self) -> None:
        """First record in a forked pool worker: drop the parent's finished
        spans, keep its open ones as parents, and dump this worker's at exit."""
        self.pid = os.getpid()
        self.spans = []
        self.runs = []
        util.Finalize(None, self.dump, exitpriority=10)

    def span(self, name: str, func, *args, **kwargs):
        if os.getpid() != self.pid:
            self._adopt_fork()
        self._next += 1
        span_id = f"{self.pid}:{self._next}"
        parent = self.stack[-1]
        self.stack.append(span_id)
        start = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = _clock()
            self.stack.pop()
            detail = args[0] if args and isinstance(args[0], str) else None  # a file path
            self.spans.append((span_id, parent, name, start, end, detail))

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"trace-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "pid": self.pid, "spans": self.spans, "runs": self.runs}, handle)


def _replace(module, attr: str, wrapper) -> None:
    # Same name and module as the original, so a pool can still pickle the
    # function by reference; forked workers resolve it to the wrapper.
    original = getattr(module, attr)
    wrapper.__module__ = original.__module__
    wrapper.__qualname__ = original.__qualname__
    wrapper.__name__ = original.__name__
    setattr(module, attr, wrapper)


def _wrap(recorder: Recorder, module, attr: str, name: str) -> None:
    original = getattr(module, attr)
    _replace(module, attr, lambda *args, **kwargs: recorder.span(name, original, *args, **kwargs))


def _wrap_engine_run(recorder: Recorder, module) -> None:
    """Time each engine pass through iteration_hook and keep per-run counts."""
    original = module.run

    def traced_run(graph, assignment, cfg, iteration_hook=None):
        stamps: list[float] = []

        def hook(iteration, balances, bank_balance):
            stamps.append(_clock())
            if iteration_hook is not None:
                iteration_hook(iteration, balances, bank_balance)

        result = recorder.span("engine.run", original, graph, assignment, cfg, hook)
        recorder.runs.append(
            {
                "games": sum(s.games_played for s in result.iteration_stats),
                "skipped": sum(s.games_skipped for s in result.iteration_stats),
                "nodes": len(result.final_balances),
                "zeros": result.final_balances.count(0),
                "iter_s": [b - a for a, b in zip(stamps, stamps[1:])],
                "final_gini": result.gini_series[-1],
                "final_bank": result.final_bank,
                "balances": result.final_balances if recorder.keep_balances else None,
            }
        )
        return result

    _replace(module, "run", traced_run)


def _wrap_task(recorder: Recorder, module) -> None:
    """Tag the run record made inside each suite task with its series file."""
    original = module.execute_task

    def traced_task(task):
        row = recorder.span("experiments.task", original, task)
        if recorder.runs and "series_path" not in recorder.runs[-1]:
            recorder.runs[-1]["series_path"] = task.series_path
        return row

    _replace(module, "execute_task", traced_task)


def install(recorder: Recorder) -> None:
    from pdnetsim import cli, engine, experiments, output

    _wrap(recorder, engine, "gini", "metrics.gini")
    for module in (cli, experiments):
        _wrap(recorder, module, "load_graph", "graph.load")
        _wrap(recorder, module, "assign_proportional", "experiments.assign")
        _wrap(recorder, module, "assign_by_degree", "experiments.assign")
        _wrap_engine_run(recorder, module)
    _wrap(recorder, cli, "run_suite", "experiments.suite")
    _wrap(recorder, cli, "write_gini_series_csv", "output.series")
    _wrap(recorder, cli, "write_summary_txt", "output.summary")
    _wrap(recorder, cli, "write_suite_summary_csv", "output.summary")
    _wrap(recorder, output, "write_gini_series_csv", "output.series")
    _wrap_task(recorder, experiments)
