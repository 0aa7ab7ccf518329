"""Checks on the files one repetition wrote.

Every check appends to a list of problems, each naming the unit it spoils: a
series file (one program run), or "*" for the whole repetition. The checks
read only the written files and the records the traced child captured.
"""

import csv
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

SERIES_HEADER = ["iteration", "gini", "bank_balance_or_inf", "total_node_balance", "games_played", "games_skipped"]
SUITE_HEADER = ["network", "group", "bank", "replicate", "final_gini", "converged_at", "status"]


def oracle_gini(balances) -> float:
    """Mean absolute difference over all pairs, sum |x_i - x_j| / (2 n sum x).

    Exact in integers: pairs are grouped by distinct value and summed in row
    blocks, so the cost is quadratic in the number of distinct balances and
    memory stays small. The pair sum is at most 2 n sum(x), far inside int64.
    """
    x = np.asarray(balances, dtype=np.int64)
    total = int(x.sum())
    if total == 0:
        return 0.0
    values, counts = np.unique(x, return_counts=True)
    pair_diffs = 0
    for lo in range(0, values.size, 256):
        block = np.abs(values[lo : lo + 256, None] - values[None, :])
        pair_diffs += int((block * counts[lo : lo + 256, None] * counts[None, :]).sum())
    return pair_diffs / (2 * x.size * total)


def digests(out_dir: str) -> dict[str, str]:
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(found.items()))


@dataclass
class SeriesFacts:
    """What a valid series file says: row count, games played, last gini text."""

    rows: int = 0
    games: int = 0
    last_gini: str | None = None


def check_series(path: str, unit: str, nodes: int, initial: int, bank: str, problems: list) -> SeriesFacts:
    """Per row: conservation against a finite bank, no negative balance, every
    node's turn counted once, gini in [0, 1)."""
    facts = SeriesFacts()
    finite = bank != "inf"
    capital = nodes * initial + (int(bank) if finite else 0)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != SERIES_HEADER:
                problems.append((unit, "series header differs"))
                return facts
            for expected, row in enumerate(reader, start=1):
                it, g, bank_text, total, played, skipped = row
                if int(it) != expected:
                    raise ValueError(f"iteration {it} where {expected} was due")
                gini = float(g)
                if not 0.0 <= gini < 1.0:
                    raise ValueError(f"gini {g} out of [0, 1)")
                if int(total) < 0 or (finite and int(bank_text) < 0):
                    raise ValueError(f"negative balance in iteration {it}")
                if finite and int(total) + int(bank_text) != capital:
                    raise ValueError(f"capital not conserved in iteration {it}")
                if not finite and bank_text != "inf":
                    raise ValueError(f"infinite bank reads {bank_text!r}")
                if int(played) + int(skipped) != nodes or int(played) < 0 or int(skipped) < 0:
                    raise ValueError(f"turn counts do not add up to {nodes} in iteration {it}")
                facts.rows = expected
                facts.games += int(played)
                facts.last_gini = g
    except (OSError, ValueError) as exc:
        problems.append((unit, f"{os.path.basename(path)}: {exc}"))
    if facts.rows == 0:
        problems.append((unit, f"{os.path.basename(path)}: no data rows"))
    return facts


def check_record(record: dict, facts: SeriesFacts, unit: str, initial: int, bank: str, problems: list) -> None:
    """A captured final state against the oracle and against its own series file."""
    balances = record["balances"]
    if min(balances) < 0:
        problems.append((unit, "negative final balance"))
        return
    if not math.isclose(record["final_gini"], oracle_gini(balances), rel_tol=0.0, abs_tol=1e-9):
        problems.append((unit, f"final gini {record['final_gini']!r} differs from the oracle"))
    if facts.last_gini != f"{record['final_gini']:.6f}":
        problems.append((unit, "last series gini differs from the run's final gini"))
    if record["games"] != facts.games:
        problems.append((unit, "games in the series differ from the run's counts"))
    if bank != "inf" and sum(balances) + record["final_bank"] != len(balances) * initial + int(bank):
        problems.append((unit, "final balances do not conserve capital"))


def check_summary_txt(path: str, facts: SeriesFacts, iterations: int, seed: int, problems: list) -> None:
    try:
        with open(path, encoding="utf-8") as handle:
            fields = dict(line.split(" = ", 1) for line in handle.read().splitlines())
    except (OSError, ValueError) as exc:
        problems.append(("*", f"summary.txt: {exc}"))
        return
    converged = fields.get("converged_at")
    expected = {
        "final_gini": facts.last_gini,
        "iterations_executed": str(facts.rows),
        "seed": str(seed),
        "converged_at": converged if converged == str(facts.rows) else "none",
    }
    if fields != expected or (converged == "none" and facts.rows != iterations):
        problems.append(("*", f"summary.txt {fields} does not match the series"))


def read_suite_summary(path: str, problems: list) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != SUITE_HEADER:
                problems.append(("*", "suite_summary.csv header differs"))
                return []
            return [dict(zip(SUITE_HEADER, row)) for row in reader]
    except OSError as exc:
        problems.append(("*", f"suite_summary.csv: {exc}"))
        return []
