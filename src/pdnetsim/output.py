"""CSV and summary-file emission, plus the readers the plot command uses.

All output is locale-independent by construction: dot decimal separator,
fixed column order, '\n' newlines, and Gini values serialized with six
decimal places. Identical inputs therefore produce byte-identical files.
"""

import io
import math
import os
import re
from contextlib import contextmanager

from .engine import RunResult
from .errors import ParseError

GINI_SERIES_COLUMNS = (
    "iteration",
    "gini",
    "bank_balance_or_inf",
    "total_node_balance",
    "games_played",
    "games_skipped",
)

SUITE_SUMMARY_COLUMNS = (
    "network",
    "group",
    "bank",
    "replicate",
    "final_gini",
    "converged_at",
    "status",
)


def format_gini(value: float) -> str:
    return f"{value:.6f}"


def run_file_name(network: str, group_label: str, bank_label: str, replicate: int) -> str:
    """Deterministic per-run series file name, safe for any filesystem."""
    return (
        f"{_sanitize(network)}__{_sanitize(group_label)}__b{_sanitize(bank_label)}__r{replicate}.csv"
    )


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", label).strip("-")


@contextmanager
def _write_atomically(path: str):
    """Write `path` through a text handle; the file appears whole or not at all.

    `path` is read as `os.path.abspath` reads it, as `cli._check_outputs`
    reads it too: a `..` takes away the name before it, whether or not that
    directory exists. The parent directory is created, the text goes to a
    temporary file next to `path` (named for this process, so parallel suite
    workers never share one) and replaces `path` only once the block has
    finished. A block that raises leaves any previous file at `path` as it
    was, and no temporary file.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def write_gini_series_csv(path: str, result: RunResult) -> None:
    # Formatted without csv: no field can hold a comma, quote or newline,
    # so csv.writer would write the same bytes. One write of the joined rows
    # takes about half the time of a write per row.
    rows = "".join(
        f"{i},{g:.6f},{'inf' if s.bank_balance is None else s.bank_balance},"
        f"{s.total_balance},{s.games_played},{s.games_skipped}\n"
        for i, (g, s) in enumerate(zip(result.gini_series, result.iteration_stats), start=1)
    )
    with _write_atomically(path) as handle:
        handle.write(",".join(GINI_SERIES_COLUMNS) + "\n" + rows)


def write_summary_txt(path: str, result: RunResult, seed: int) -> None:
    converged = "none" if result.converged_at is None else str(result.converged_at)
    lines = [
        f"final_gini = {format_gini(result.gini_series[-1])}",
        f"converged_at = {converged}",
        f"iterations_executed = {result.iterations_executed}",
        f"seed = {seed}",
    ]
    with _write_atomically(path) as handle:
        handle.write("\n".join(lines) + "\n")


def write_suite_summary_csv(path: str, rows) -> None:
    """rows: iterable with network/group/bank/replicate/final_gini/converged_at/status attrs."""
    import csv  # a status can hold any text, so it may need quoting

    with _write_atomically(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUITE_SUMMARY_COLUMNS)
        for row in rows:
            final = "" if row.final_gini is None else format_gini(row.final_gini)
            converged = "" if row.converged_at is None else str(row.converged_at)
            writer.writerow(
                [row.network, row.group, row.bank, row.replicate, final, converged, row.status]
            )


def read_gini_series_csv(path: str) -> tuple[list[float], list[float]]:
    """Read (iterations, gini values) back from a series CSV, for plotting."""
    import csv

    with open(path, "r", encoding="utf-8-sig", newline="") as handle:  # a spreadsheet may add a byte-order mark
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))

    def read_rows():
        try:
            yield from reader
        except csv.Error:  # a field over csv's size limit, or a NUL byte before CPython 3.11
            raise ParseError(f"{path}: line {reader.line_num}: malformed series row") from None

    rows = read_rows()
    header = next(rows, None)
    if header is None:
        raise ParseError(f"{path}: empty series CSV")
    try:
        iter_col = header.index("iteration")
        gini_col = header.index("gini")
    except ValueError:
        raise ParseError(f"{path}: missing 'iteration'/'gini' columns") from None
    xs: list[float] = []
    ys: list[float] = []
    for fields in rows:
        if not fields:
            continue
        try:
            x, y = float(fields[iter_col]), float(fields[gini_col])
        except (ValueError, IndexError):
            raise ParseError(f"{path}: line {reader.line_num}: malformed series row") from None
        if not (math.isfinite(x) and math.isfinite(y) and x >= 0 and y >= 0):  # the chart's axes start at 0
            raise ParseError(f"{path}: line {reader.line_num}: iteration and gini must be finite numbers of at least 0")
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ParseError(f"{path}: series CSV holds no data rows")
    return xs, ys
