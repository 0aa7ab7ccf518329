"""Self-tests of the benchmark on tiny inputs: `python3 -m pytest perfbench`."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["mix_bank0", "coop_inf", "suite_exp2"]


@pytest.fixture(autouse=True)
def digests(monkeypatch, tmp_path):
    """Run at the tiny scale, with no recorded digests unless a test writes some."""
    path = tmp_path / "digests.json"
    path.write_text("{}")
    monkeypatch.setattr(run, "SCALE", inputs.TINY)
    monkeypatch.setattr(run, "DIGESTS", str(path))
    return path


def invoke(capsys, *args):
    code = run.main(["--seconds", "0.5", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def declared(kind: str) -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, result, lines = invoke(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[1:4:2] == [name, unit] for line in lines if not line.startswith(("#", "{")))
    assert f"# {workload}: failed_share 0 share" in lines[1]


def test_all_workloads_in_one_command(capsys):
    code, result, _ = invoke(capsys)
    assert code == 0
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in declared("end_to_end")}


def test_counts_repeat_exactly(capsys):
    counts = ("engine.games_played", "engine.turns_skipped", "metrics.gini_calls", "output.bytes_written")
    seen = []
    for _ in range(2):
        _, result, _ = invoke(capsys, "--workload", "mix_bank0", "--trace", "1", "--seed", "3")
        seen.append([result["metrics"][name]["value"] for name in counts])
    assert seen[0] == seen[1] and seen[0][0] > 0


def test_corrupted_series_fails(capsys, monkeypatch):
    original = run.Launcher.run

    def corrupting(self, argv, log_path, cpus):
        outcome = original(self, argv, log_path, cpus)
        path = os.path.join(argv[argv.index("--out") + 1], "gini_series.csv")
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        fields = lines[2].split(",")
        fields[3] = str(int(fields[3]) + 1)  # one unit of capital appears from nowhere
        lines[2] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        return outcome

    monkeypatch.setattr(run.Launcher, "run", corrupting)
    code, result, lines = invoke(capsys, "--workload", "mix_bank0")
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert "failed_share 1 share" in lines[1]


def test_wrong_recorded_digest_fails(capsys, digests):
    digests.write_text(json.dumps({"coop_inf": {"gini_series.csv": "0" * 64}}))
    code, result, lines = invoke(capsys, "--workload", "coop_inf")
    assert code != 0 and result["failed"] > 0 and not result["correct"]
    assert "failed_share 0 share" not in lines[1]


def test_recorded_digests_only_apply_to_the_default_seed(capsys, digests):
    digests.write_text(json.dumps({"coop_inf": {"gini_series.csv": "0" * 64}}))
    code, result, _ = invoke(capsys, "--workload", "coop_inf", "--seed", "5")
    assert code == 0 and result["correct"]


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "mix_bank0", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_oracle_matches_the_pairwise_definition():
    rng = random.Random(11)
    for n in (1, 2, 7, 60):
        xs = [rng.choice((0, 0, rng.randrange(500))) for _ in range(n)]
        total = sum(xs)
        expected = 0.0 if total == 0 else sum(abs(a - b) for a in xs for b in xs) / (2 * n * total)
        assert checks.oracle_gini(xs) == pytest.approx(expected, abs=1e-15)


def test_peak_rss_is_the_commands_own(tmp_path):
    ballast = bytearray(200 * 2**20)  # RSS the launcher must not pass on
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    launcher = run.Launcher()
    try:
        _, _, rss, code = launcher.run([sys.executable, "-c", "pass"], str(tmp_path / "log"), [0])
    finally:
        launcher.close()
    assert code == 0 and 0 < rss < 100
