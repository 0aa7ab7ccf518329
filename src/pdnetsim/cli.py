"""Command-line entry point: run, suite, plot, and convert subcommands.

Config files are strict key=value text: '#' starts a comment, unknown
keys are rejected, and every required key must be present. Exit codes
are 0 on success, 2 for configuration errors, 3 for input parse errors,
and 4 for I/O failures.
"""

import argparse
import atexit
import errno
import os
import random
import sys

from . import _kernel
from .engine import LIVE, Bank, PayoffParams, SimConfig, run
from .errors import ConfigError, ParseError
# suite.cmd_suite calls run_suite and write_suite_summary_csv through this
# module, so a wrapper set on either attribute here runs.
from .experiments import (
    ProportionGroup,
    assign_by_degree,
    assign_proportional,
    derive_seed,
    experiment_groups,
    run_suite,
)
from .graph import GRAPH_FORMATS, load_graph, write_edge_list
from .output import (
    _write_atomically,
    format_gini,
    read_gini_series_csv,
    write_gini_series_csv,
    write_suite_summary_csv,
    write_summary_txt,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4

# The settings every run of a command shares; read by _sim_settings.
_SIM_KEYS = {
    "iterations",
    "initial_balance",
    "balance_semantics",
    "coop_reward",
    "defect_penalty",
    "betrayal_transfer",
}
_RUN_REQUIRED = {"graph", "graph_format", "experiment", "group", "bank", "seed", "out"}


def parse_kv_config(path: str) -> dict[str, list[str]]:
    """Parse 'key = value' lines; repeated keys accumulate in file order."""
    values: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
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
    return values


def _check_keys(values: dict, required: set, optional: set, path: str) -> None:
    present = set(values)
    unknown = present - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    missing = required - present
    if missing:
        raise ConfigError(f"{path}: missing required config keys: {', '.join(sorted(missing))}")


def _single(values: dict, key: str, default: str | None = None) -> str | None:
    entries = values.get(key)
    if entries is None:
        return default
    if len(entries) > 1:
        raise ConfigError(f"config key {key!r} given {len(entries)} times")
    return entries[0]


def _int_value(values: dict, key: str, default: int | None = None) -> int | None:
    text = _single(values, key, None)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} must be an integer, got {text!r}") from None


def _sim_settings(values: dict) -> dict:
    """The _SIM_KEYS settings as keyword arguments of SimConfig and SuiteSpec."""
    return {
        "iterations": _int_value(values, "iterations", 1000),
        "initial_balance": _int_value(values, "initial_balance", 100),
        "payoff": PayoffParams(
            coop_reward=_int_value(values, "coop_reward", 1),
            defect_penalty=_int_value(values, "defect_penalty", 2),
            betrayal_transfer=_int_value(values, "betrayal_transfer", 3),
        ),
        "balance_semantics": _single(values, "balance_semantics", LIVE),
    }


def _bank_from_label(label: str) -> Bank:
    if label.lower() in ("inf", "infinite"):
        return Bank(infinite=True)
    try:
        return Bank(balance=int(label))
    except ValueError:
        raise ConfigError(f"bank must be a non-negative integer or 'inf', got {label!r}") from None


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
    """
    probe = os.path.abspath(directory)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), probe)
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_run(args) -> int:
    values = parse_kv_config(args.config)
    _check_keys(values, _RUN_REQUIRED, _SIM_KEYS, args.config)

    group_type = experiment_groups(_int_value(values, "experiment"))[0]
    graph_path = _single(values, "graph")
    fmt = _single(values, "graph_format")
    group = group_type.parse(_single(values, "group"))
    bank = _bank_from_label(_single(values, "bank"))
    seed = args.seed if args.seed is not None else _int_value(values, "seed")
    out_dir = args.out if args.out is not None else _single(values, "out")
    cfg = SimConfig(**_sim_settings(values), bank=bank, seed=seed)
    series_path = os.path.join(out_dir, "gini_series.csv")
    summary_path = os.path.join(out_dir, "summary.txt")
    _check_outputs(out_dir, series_path, summary_path)

    graph = load_graph(graph_path, fmt)
    rng = random.Random(derive_seed(seed, "assign"))
    if isinstance(group, ProportionGroup):
        assignment = assign_proportional(graph.node_count, group, rng)
    else:
        assignment = assign_by_degree(graph, group, rng)

    _note_python_fallback()
    result = run(graph, assignment, cfg)
    write_gini_series_csv(series_path, result)
    write_summary_txt(summary_path, result, seed)
    converged = "none" if result.converged_at is None else str(result.converged_at)
    print(
        f"final_gini={format_gini(result.gini_series[-1])} converged_at={converged} "
        f"iterations={result.iterations_executed} out={out_dir}"
    )
    return EXIT_OK


def cmd_suite(args) -> int:
    from .suite import cmd_suite  # only a suite compiles the sweep code

    return cmd_suite(args)


def cmd_plot(args) -> int:
    from .plotting import render_line_chart  # only plot pays for it and its html import

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
