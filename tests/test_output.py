import csv
import os
import random
from types import SimpleNamespace

import pytest

from pdnetsim.engine import IterationStats, RunResult
from pdnetsim.output import GINI_SERIES_COLUMNS, format_gini, write_gini_series_csv, write_suite_summary_csv


ROW = SimpleNamespace(
    network="net", group="2:2:2:2", bank="0", replicate=0, final_gini=0.5, converged_at=None, status="ok"
)
STATS = IterationStats(games_played=1, games_skipped=0, bank_inflow=0, bank_outflow=0, bank_balance=0, total_balance=10)

# Each case: a writer, a payload it writes, and a payload whose last entry
# raises after 500 entries have been written.
WRITES = {
    "suite-summary": (write_suite_summary_csv, [ROW], [ROW] * 500 + [None]),
    "gini-series": (
        write_gini_series_csv,
        SimpleNamespace(gini_series=[0.25], iteration_stats=[STATS]),
        SimpleNamespace(gini_series=[0.25] * 501, iteration_stats=[STATS] * 500 + [None]),
    ),
}


@pytest.mark.parametrize("case", WRITES)
def test_a_write_that_raises_leaves_the_previous_file(tmp_path, case):
    write, good, broken = WRITES[case]
    path = tmp_path / "out.csv"
    write(str(path), good)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write(str(path), broken)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.csv"]


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w"):
        pass
    path = tmp_path / "new" / "suite_summary.csv"
    write_suite_summary_csv(str(path), [ROW])
    assert os.stat(path).st_mode == os.stat(plain).st_mode


def _csv_writer_series(path, result):
    """The series writer as it was, through csv.writer: the oracle for its bytes."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(GINI_SERIES_COLUMNS)
        for i, (g, stats) in enumerate(zip(result.gini_series, result.iteration_stats), start=1):
            bank = "inf" if stats.bank_balance is None else str(stats.bank_balance)
            writer.writerow(
                [i, format_gini(g), bank, stats.total_balance, stats.games_played, stats.games_skipped]
            )


@pytest.mark.parametrize("seed", range(20))
def test_the_series_writer_writes_what_csv_writer_wrote(tmp_path, seed):
    rng = random.Random(seed)
    infinite = seed % 2 == 1
    passes = rng.randint(1, 300)
    gini_series = [rng.choice([0.0, 1.0, 0.5, 1e-7, 0.0000005, rng.random()]) for _ in range(passes)]
    stats = [
        IterationStats(
            games_played=rng.randrange(10**rng.randint(1, 7)),
            games_skipped=rng.randrange(10**rng.randint(1, 7)),
            bank_inflow=0,
            bank_outflow=0,
            bank_balance=None if infinite else rng.randrange(10 ** rng.randint(1, 20)),
            total_balance=rng.randrange(10 ** rng.randint(1, 20)),
        )
        for _ in range(passes)
    ]
    result = RunResult(gini_series, None, [], None if infinite else stats[-1].bank_balance, stats)
    write_gini_series_csv(str(tmp_path / "new.csv"), result)
    _csv_writer_series(tmp_path / "old.csv", result)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
