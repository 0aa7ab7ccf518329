import os
from types import SimpleNamespace

import pytest

from pdnetsim.engine import IterationStats
from pdnetsim.output import write_gini_series_csv, write_suite_summary_csv


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
