"""The `suite` command and sweep orchestration: expand a suite spec into
tasks and run them in this process or on forked workers.

Only the `suite` command and `run_suite` import this module, so a `run`
compiles none of it. The worker looks `experiments.execute_task` up through
its module at call time, so a wrapper set on that attribute runs.
"""

import os
import sys
from collections import deque

from . import _kernel, cli, experiments
from .engine import SHARED_SETTINGS, SimConfig
from .errors import ConfigError, require
from .experiments import (
    DEFAULT_BANK_SETTINGS,
    BankSetting,
    DegreeGroup,
    NetworkSpec,
    RunTask,
    SuiteRow,
    SuiteSpec,
    _task_row,
    derive_seed,
    experiment_groups,
)
from .output import run_file_name

_SUITE_REQUIRED = {"experiment", "network", "seed", "out"}
_SUITE_OPTIONAL = cli._SIM_KEYS | {"groups", "banks", "replicates", "workers"}


def suite_tasks(spec: SuiteSpec, series_path_for=None) -> list[RunTask]:
    """Expand a suite spec into tasks in canonical network/group/bank/replicate order.

    Two tasks with the same run key would run with the same sub-seeds, and
    two with the same series path would write one file; either is a
    ConfigError.
    """
    tasks = []
    seen = {}  # run key or series path -> the run that claimed it
    shared = {name: getattr(spec, name) for name in SHARED_SETTINGS}
    for net in spec.networks:
        for group in spec.groups:
            for setting in spec.banks:
                for rep in range(spec.replicates):
                    key = (net.name, group.label, setting.label, rep)
                    name = "/".join(map(str, key))
                    series_path = series_path_for(*key) if series_path_for else None
                    if key in seen:
                        raise ConfigError(f"suite runs {name} twice")
                    if series_path is not None and series_path in seen:
                        other = seen[series_path]
                        raise ConfigError(f"suite runs {other} and {name} both write {series_path}")
                    seen[key] = seen[series_path] = name
                    run_seed = derive_seed(spec.base_seed, *key, "run")
                    cfg = SimConfig(**shared, bank=setting.bank, seed=run_seed)
                    assign_seed = derive_seed(spec.base_seed, *key, "assign")
                    tasks.append(RunTask(net, group, setting, rep, assign_seed, cfg, series_path))
    return tasks


def run_suite(spec: SuiteSpec, series_path_for=None, workers: int = 1, progress=None) -> list[SuiteRow]:
    """Execute every run of the suite and return rows in canonical task order.

    series_path_for(network, group_label, bank_label, replicate), when
    given, names the per-run Gini series CSV each worker writes. Rows come
    back in task order regardless of worker completion order, so repeated
    invocations produce identical summaries. A failed run lands in its
    row's status; sibling runs proceed, and when a worker process dies,
    only the row of the task it was running says so. Raises ConfigError,
    before any run, when `workers` is below 1 or two runs collide.
    """
    require(workers, "workers", int, 1)
    tasks = suite_tasks(spec, series_path_for)
    workers = min(workers, len(tasks))  # every worker is forked up front
    if workers > 1:
        _kernel.load()  # here, so that forked workers inherit it instead of each loading it
        results = _forked_rows(tasks, workers)
    else:
        results = map(experiments.execute_task, tasks)
    rows: list[SuiteRow] = []
    try:
        for done, row in enumerate(results, start=1):
            rows.append(row)
            if progress is not None:
                progress(done, len(tasks), row)
    finally:
        if workers > 1:
            results.close()  # stops the workers now, though the caller may keep this frame in a traceback
        experiments._cached_graph.cache_clear()
    return rows


def _forked_rows(tasks: list[RunTask], workers: int):
    """The row of each task, in task order, as `workers` forked processes run them.

    Each worker inherits `tasks` through the fork and shares one connection
    with the parent. The parent sends an idle worker the next task's index
    and receives the row. EOF on a connection means that worker died: only
    the task it was running gets the error row. A task dealt to a worker
    already gone never started, and goes to another one; once no worker is
    left, every task not yet run gets the error row.

    Worker k is pinned to every `workers`-th CPU of the parent's affinity
    mask from the k-th on (the k-th modulo the mask's size), so that the
    workers do not share a CPU while another stands idle.
    """
    import multiprocessing  # only pools pay for these imports
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")  # the workers inherit the tasks and the kernel
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pool = {}  # the parent's end of each worker's connection -> that worker
    running = {}  # parent's end -> index of the task its worker runs
    try:
        for k in range(workers):
            conn, child_end = context.Pipe()
            process = context.Process(target=_work, args=(tasks, child_end, [*pool, conn]), daemon=True)
            process.start()
            if cpus:  # before anything reaps the worker, so that its pid still names it
                try:
                    os.sched_setaffinity(process.pid, cpus[k % len(cpus) :: workers])
                except OSError:  # it is gone already (ESRCH), or the cpuset shrank (EINVAL): placement only
                    pass
            child_end.close()
            pool[conn] = process
        idle = list(pool)
        todo = deque(range(len(tasks)))
        done = {}  # index -> row, until the rows before it are out
        next_row = 0
        while next_row < len(tasks):
            while idle and todo:
                conn = idle.pop()
                try:
                    conn.send(todo[0])
                except BrokenPipeError:  # the worker is gone; the task never started
                    died = _reap(conn, pool.pop(conn))
                    continue
                running[conn] = todo.popleft()
            if not running:  # no worker left
                done.update((i, _task_row(tasks[i], f"error: a worker process died: {died}")) for i in todo)
                todo.clear()
            else:
                for conn in wait(list(running)):
                    index = running.pop(conn)
                    try:
                        done[index] = conn.recv()
                        idle.append(conn)
                    except (EOFError, ConnectionResetError):  # the worker died running it, or before reading it
                        died = _reap(conn, pool.pop(conn))
                        done[index] = _task_row(tasks[index], f"error: a worker process died: {died}")
            while next_row in done:
                yield done.pop(next_row)
                next_row += 1
    finally:
        for conn, process in pool.items():
            conn.close()  # an idle worker reads EOF and exits
            if conn in running:  # left early, by an exception
                process.terminate()
        for process in pool.values():
            process.join()


def _work(tasks: list[RunTask], conn, parent_ends: list) -> None:
    """A forked worker: run the task of each index it receives, until the parent closes its end."""
    for end in parent_ends:  # its own included, so that each connection closes with its worker and the parent
        end.close()
    try:
        while True:
            # execute_task is looked up here, at call time, so a wrapper set on the module runs.
            conn.send(experiments.execute_task(tasks[conn.recv()]))
    except (EOFError, BrokenPipeError, ConnectionResetError):  # the parent is done, or gone (reset: with a row unread)
        pass


def _reap(conn, process) -> str:
    """Close a dead worker's connection, wait for it and say how it ended."""
    conn.close()
    process.join()
    code = process.exitcode
    return f"exit code {code}" if code >= 0 else f"signal {-code}"


def _parse_network_entries(entries: list[str]) -> tuple[NetworkSpec, ...]:
    networks = []
    for entry in entries:
        fields = entry.split(None, 2)  # the path may hold spaces, as a run's graph = may
        if len(fields) != 3:
            raise ConfigError(f"network entry must be 'NAME FORMAT PATH', got {entry!r}")
        name, fmt, path = fields
        networks.append(NetworkSpec(name=name, path=path, fmt=fmt))
    return tuple(networks)


def _parse_groups(experiment: int, text: str | None):
    group_type, defaults = experiment_groups(experiment)
    if text is None or text.strip().lower() == "default":
        return defaults
    # Degree-group labels contain commas, so entries are separated by ';'.
    separator = ";" if group_type is DegreeGroup else ","
    return tuple(group_type.parse(part) for part in text.split(separator) if part.strip())


def _parse_banks(text: str | None) -> tuple[BankSetting, ...]:
    if text is None or text.strip().lower() == "default":
        return DEFAULT_BANK_SETTINGS
    settings = []
    for part in text.split(","):
        label = part.strip()
        if label:
            settings.append(BankSetting(label=label, bank=cli._bank_from_label(label)))
    if not settings:
        raise ConfigError("banks list is empty")
    return tuple(settings)


def cmd_suite(args) -> int:
    """The `suite` command. `cli.run_suite` and `cli.write_suite_summary_csv`
    are looked up through `cli` at call time, so a wrapper set there runs."""
    values = cli.parse_kv_config(args.config)
    cli._check_keys(values, _SUITE_REQUIRED, _SUITE_OPTIONAL, args.config)

    experiment = cli._int_value(values, "experiment")
    settings = {
        "groups": _parse_groups(experiment, cli._single(values, "groups")),
        "networks": _parse_network_entries(values["network"]),
        "banks": _parse_banks(cli._single(values, "banks")),
        "base_seed": args.seed if args.seed is not None else cli._int_value(values, "seed"),
        "replicates": args.replicates if args.replicates is not None else cli._int_value(values, "replicates"),
        **cli._sim_settings(values),
    }  # replicates is None when neither the file nor a flag gives it: SuiteSpec's default applies
    spec = SuiteSpec(experiment=experiment, **{key: value for key, value in settings.items() if value is not None})
    workers = args.workers if args.workers is not None else cli._int_value(values, "workers", 1)
    out_dir = args.out if args.out is not None else cli._single(values, "out")

    runs_dir = os.path.join(out_dir, "runs")
    summary_path = os.path.join(out_dir, "suite_summary.csv")
    cli._check_outputs(runs_dir, summary_path)

    def series_path_for(network, group_label, bank_label, replicate):
        return os.path.join(runs_dir, run_file_name(network, group_label, bank_label, replicate))

    def progress(done, total, row):
        if args.verbose:
            print(
                f"[{done}/{total}] {row.network} {row.group} b={row.bank} r{row.replicate}: {row.status}",
                file=sys.stderr,
            )

    cli._note_python_fallback()
    rows = cli.run_suite(spec, series_path_for=series_path_for, workers=workers, progress=progress)
    cli.write_suite_summary_csv(summary_path, rows)
    failed = sum(1 for row in rows if row.status != "ok")
    print(f"suite: {len(rows) - failed}/{len(rows)} runs ok -> {out_dir}")
    if failed == len(rows):
        print("error: all suite runs failed; see suite_summary.csv", file=sys.stderr)
        return cli.EXIT_CONFIG
    return cli.EXIT_OK
