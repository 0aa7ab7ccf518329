"""Command-line entry point: run, suite, plot, and convert subcommands.

Config files are strict key=value text: '#' starts a comment, unknown
keys are rejected, and every required key must be present. Exit codes
are 0 on success, 2 for configuration errors, 3 for input parse errors,
and 4 for I/O failures.
"""

import argparse
import errno
import os
import random
import sys

from . import _kernel
from .engine import LIVE, Bank, PayoffParams, SimConfig, run
from .errors import ConfigError, ParseError
from .experiments import (
    DEFAULT_BANK_SETTINGS,
    BankSetting,
    DegreeGroup,
    NetworkSpec,
    ProportionGroup,
    SuiteSpec,
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
    run_file_name,
    write_gini_series_csv,
    write_suite_summary_csv,
    write_summary_txt,
)
from .plotting import render_line_chart

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
_SUITE_REQUIRED = {"experiment", "network", "seed", "out"}
_SUITE_OPTIONAL = _SIM_KEYS | {"groups", "banks", "replicates", "workers"}


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


def _parse_network_entries(entries: list[str]) -> tuple[NetworkSpec, ...]:
    networks = []
    for entry in entries:
        fields = entry.split()
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
            settings.append(BankSetting(label=label, bank=_bank_from_label(label)))
    if not settings:
        raise ConfigError("banks list is empty")
    return tuple(settings)


def cmd_suite(args) -> int:
    values = parse_kv_config(args.config)
    _check_keys(values, _SUITE_REQUIRED, _SUITE_OPTIONAL, args.config)

    experiment = _int_value(values, "experiment")
    spec = SuiteSpec(
        experiment=experiment,
        groups=_parse_groups(experiment, _single(values, "groups")),
        networks=_parse_network_entries(values["network"]),
        banks=_parse_banks(_single(values, "banks")),
        base_seed=args.seed if args.seed is not None else _int_value(values, "seed"),
        replicates=(
            args.replicates if args.replicates is not None else _int_value(values, "replicates", 5)
        ),
        **_sim_settings(values),
    )
    workers = args.workers if args.workers is not None else _int_value(values, "workers", 1)
    out_dir = args.out if args.out is not None else _single(values, "out")

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
