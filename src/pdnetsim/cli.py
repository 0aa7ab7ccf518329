"""Command-line entry point: run, suite, plot, and convert subcommands.

Config files are strict key=value text: '#' starts a comment, unknown
keys are rejected, every required key must be present, and no key but a
suite's `network` may be given twice. Exit codes are 0 on success, 2 for
configuration errors, 3 for input parse errors, and 4 for I/O failures
and for running out of memory.
"""

import argparse
import atexit
import errno
import os
import sys

from . import _kernel
# `run`, `assign_*` and `write_gini_series_csv` are not called here: `run` plays through `play_task`.
# They stay cli attributes because perfbench/tracing.py wraps them by name.
from .engine import SHARED_SETTINGS, PayoffParams, SimConfig, run
from .errors import ConfigError, ParseError
from .experiments import (
    DEFAULT_BANK_SETTINGS,
    BankSetting,
    DegreeGroup,
    NetworkSpec,
    RunTask,
    SuiteSpec,
    assign_by_degree,
    assign_proportional,
    derive_seed,
    experiment_groups,
    play_task,
    run_suite,
)
from .graph import GRAPH_FORMATS, load_graph, write_edge_list
from .output import (
    _write_atomically,
    format_gini,
    read_gini_series_csv,
    run_file_name,
    write_gini_series_csv,
    write_suite_summary_csv,
    write_summary_txt,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4

# The config keys of the SHARED_SETTINGS: payoff is given as PayoffParams' fields.
_SIM_KEYS = set(SHARED_SETTINGS) - {"payoff"} | set(PayoffParams._fields)
_RUN_REQUIRED = {"graph", "graph_format", "experiment", "group", "bank", "seed", "out"}
_SUITE_REQUIRED = {"experiment", "network", "seed", "out"}
_SUITE_OPTIONAL = _SIM_KEYS | {"groups", "banks", "replicates", "workers"}


def read_config(args, required: set, optional: set) -> dict:
    """The config file `args.config` as {key: value}, each flag the command
    was given (`--seed`, `--out`, ...) in its key's place.

    Each line is checked, then the keys: an unknown or missing one, or one
    given twice, is a ConfigError, whatever flags are given. A suite lists
    one `network` per line, so that key may repeat, and its value is the
    list of its lines in file order.
    """
    path = args.config
    values: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:  # a byte-order mark is not part of the first key
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\0" in line:  # no path or label can hold one; open() would raise ValueError
            raise ConfigError(f"{path}: line {lineno}: contains a NUL byte")
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}: line {lineno}: empty key or value")
        values.setdefault(key, []).append(value)
    unknown = values.keys() - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    missing = required - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing required config keys: {', '.join(sorted(missing))}")
    for key, entries in values.items():
        if len(entries) > 1 and key != "network":
            raise ConfigError(f"config key {key!r} given {len(entries)} times")
    flags = {key: flag for key, flag in vars(args).items() if key in required | optional and flag is not None}
    return {key: entries if key == "network" else entries[0] for key, entries in values.items()} | flags


def _int_value(values: dict, key: str, default: int | None = None) -> int | None:
    text = values.get(key, default)
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} must be an integer, got {text!r}") from None


def _sim_settings(values: dict) -> dict:
    """The SHARED_SETTINGS that `values` gives, parsed in SimConfig's field order,
    as keyword arguments of SimConfig and SuiteSpec; their defaults fill the rest."""
    settings = {}
    for name in SHARED_SETTINGS:
        if name == "payoff":
            payoff = {key: _int_value(values, key) for key in PayoffParams._fields if key in values}
            if payoff:
                settings[name] = PayoffParams(**payoff)
        elif name in values:
            settings[name] = _int_value(values, name) if SimConfig._checks[name].kind is int else values[name]
    return settings


def _note_python_fallback() -> None:
    """Say on stderr, once per command, when engine passes cannot use the
    compiled kernel."""
    reason = _kernel.load()[1]
    if reason is not None:
        print(f"note: {reason}; engine passes run in the slower Python loop", file=sys.stderr)


def _check_outputs(directory: str, *files: str) -> None:
    """Fail before any load or run when a command's writes could not succeed.

    Raises NotADirectoryError when `directory` or its nearest existing
    ancestor is not a directory, and IsADirectoryError when one of the
    output `files` is a directory, which a finished file could not replace.
    Every path is read through `os.path.abspath`, as the writers read it.
    """
    probe = os.path.abspath(directory)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), probe)
    for path in files:
        if os.path.isdir(os.path.abspath(path)):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_run(args) -> int:
    """Play the config's run as a one-row task, through `play_task` as a suite row plays."""
    values = read_config(args, _RUN_REQUIRED, _SIM_KEYS)

    group_type = experiment_groups(_int_value(values, "experiment"))[0]
    network = NetworkSpec(values["graph"], values["graph"], values["graph_format"])
    group = group_type.parse(values["group"])
    bank = BankSetting.parse(values["bank"])
    seed = _int_value(values, "seed")
    out_dir = values["out"]
    cfg = SimConfig(**_sim_settings(values), bank=bank.bank, seed=seed)
    task = RunTask(network, group, bank, 0, derive_seed(seed, "assign"), cfg, os.path.join(out_dir, "gini_series.csv"))
    summary_path = os.path.join(out_dir, "summary.txt")
    _check_outputs(out_dir, task.series_path, summary_path)

    graph = load_graph(network.path, network.fmt)  # not _cached_graph: a later run may read a changed file
    _note_python_fallback()
    result = play_task(task, graph)
    write_summary_txt(summary_path, result, seed)
    converged = "none" if result.converged_at is None else str(result.converged_at)
    print(
        f"final_gini={format_gini(result.gini_series[-1])} converged_at={converged} "
        f"iterations={result.iterations_executed} out={out_dir}"
    )
    return EXIT_OK


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
    settings = [BankSetting.parse(part.strip()) for part in text.split(",") if part.strip()]
    if not settings:
        raise ConfigError("banks list is empty")
    return tuple(settings)


def cmd_suite(args) -> int:
    values = read_config(args, _SUITE_REQUIRED, _SUITE_OPTIONAL)

    experiment = _int_value(values, "experiment")
    settings = {
        "groups": _parse_groups(experiment, values.get("groups")),
        "networks": _parse_network_entries(values["network"]),
        "banks": _parse_banks(values.get("banks")),
        "base_seed": _int_value(values, "seed"),
        "replicates": _int_value(values, "replicates"),
        **_sim_settings(values),
    }  # replicates is None when neither the file nor a flag gives it: SuiteSpec's default applies
    spec = SuiteSpec(experiment=experiment, **{key: value for key, value in settings.items() if value is not None})
    workers = _int_value(values, "workers", 1)
    out_dir = values["out"]

    runs_dir = os.path.join(out_dir, "runs")
    summary_path = os.path.join(out_dir, "suite_summary.csv")
    _check_outputs(runs_dir, summary_path)

    def series_path_for(network, group_label, bank_label, replicate):
        return os.path.join(runs_dir, run_file_name(network, group_label, bank_label, replicate))

    def progress(done, total, row):
        if args.verbose:
            print(
                f"[{done}/{total}] {row.network} {row.group} b={row.bank} r{row.replicate}: {row.status}",
                file=sys.stderr,
            )

    _note_python_fallback()
    rows = run_suite(spec, series_path_for=series_path_for, workers=workers, progress=progress)
    write_suite_summary_csv(summary_path, rows)
    failed = sum(1 for row in rows if row.status != "ok")
    print(f"suite: {len(rows) - failed}/{len(rows)} runs ok -> {out_dir}")
    if failed == len(rows):
        print("error: all suite runs failed; see suite_summary.csv", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_plot(args) -> int:
    from .plotting import render_line_chart  # only plot pays for it and its html import

    _check_outputs(os.path.dirname(args.out), args.out)
    series = []
    for path in args.series:
        xs, ys = read_gini_series_csv(path)
        label = os.path.splitext(os.path.basename(path))[0]
        series.append((label, xs, ys))
    svg = render_line_chart(series)
    with _write_atomically(args.out) as handle:
        handle.write(svg)
    print(f"wrote {args.out} ({len(series)} series)")
    return EXIT_OK


def cmd_convert(args) -> int:
    _check_outputs(os.path.dirname(args.out), args.out)
    graph = load_graph(args.input, args.format)
    with _write_atomically(args.out) as handle:
        write_edge_list(graph, handle)
    print(f"wrote {args.out} (nodes={graph.node_count} edges={graph.edge_count})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdnetsim",
        description="Simulate strategy-driven transactions on networks and track inequality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the config output directory")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="execute a sweep described by a suite spec file")
    p_suite.add_argument("--config", required=True)
    p_suite.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_suite.add_argument("--out", default=None, help="override the output directory")
    p_suite.add_argument("--workers", type=int, default=None, help="parallel run processes")
    p_suite.add_argument("--replicates", type=int, default=None, help="override replicate count")
    p_suite.add_argument("--verbose", action="store_true", help="per-run progress on stderr")
    p_suite.set_defaults(func=cmd_suite)

    p_plot = sub.add_parser("plot", help="render series CSVs as one SVG line chart")
    p_plot.add_argument("series", nargs="+", help="gini_series CSV files")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    p_convert = sub.add_parser("convert", help="dump a normalized edge list for a graph file")
    p_convert.add_argument("input")
    p_convert.add_argument("--format", required=True, choices=list(GRAPH_FORMATS))
    p_convert.add_argument("--out", required=True)
    p_convert.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:  # a graph, say, too large for this machine
        print("error: out of memory; the input may be too large for the memory this process can use", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    """`python -m pdnetsim` and the `pdnetsim` script: run `main` on
    sys.argv and end the process with its exit code.

    Once `main` returns, the atexit handlers run and stdout and stderr are
    flushed; then `os._exit` ends the process without the interpreter's
    teardown, which costs a short command more time than its Gini passes.
    Every output file is closed by then, no thread runs, and a suite has
    joined its workers. When `main` raises (argparse's SystemExit included)
    or a flush fails, the process ends through `sys.exit`, as it did before.
    """
    code = main()
    atexit._run_exitfuncs()  # multiprocessing's among them; they run once
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)
