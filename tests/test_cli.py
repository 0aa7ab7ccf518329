import ast
import hashlib
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pdnetsim
from pdnetsim import _kernel
from pdnetsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PARSE, main

NO_CC = "no C compiler (cc) found"
FALLBACK_NOTE = f"note: {NO_CC}; engine passes run in the slower Python loop\n"


@pytest.fixture
def two_node_run(tmp_path):
    """Config for the tiniest meaningful run: a single edge, every node a
    Cooperator, and a bank that can pay exactly once."""
    graph_path = tmp_path / "pair.txt"
    graph_path.write_text("0 1\n")
    out_dir = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            # tiny fixture
            graph = {graph_path}
            graph_format = snap
            experiment = 1
            group = 0:8:0:0
            bank = 3
            iterations = 1000
            initial_balance = 100
            seed = 5
            out = {out_dir}
            """
        )
    )
    return config_path, out_dir


def test_run_tiny_fixture(tmp_path, two_node_run, capsys):
    config_path, out_dir = two_node_run
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    series = (out_dir / "gini_series.csv").read_text()
    lines = series.strip().split("\n")
    assert lines[0] == "iteration,gini,bank_balance_or_inf,total_node_balance,games_played,games_skipped"
    assert len(lines) == 1 + 2  # converged at the second pass
    assert lines[1] == "1,0.000000,1,202,2,0"
    summary = (out_dir / "summary.txt").read_text()
    assert "final_gini = 0.000000" in summary
    assert "converged_at = 2" in summary
    assert "iterations_executed = 2" in summary
    assert "seed = 5" in summary
    assert "converged_at=2" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path, two_node_run):
    config_path, out_dir = two_node_run
    other_dir = tmp_path / "other"
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    assert main(["run", "--config", str(config_path), "--out", str(other_dir)]) == EXIT_OK
    assert (out_dir / "gini_series.csv").read_bytes() == (other_dir / "gini_series.csv").read_bytes()
    assert (out_dir / "summary.txt").read_bytes() == (other_dir / "summary.txt").read_bytes()


def test_run_seed_override(tmp_path, two_node_run):
    config_path, out_dir = two_node_run
    assert main(["run", "--config", str(config_path), "--seed", "77"]) == EXIT_OK
    assert "seed = 77" in (out_dir / "summary.txt").read_text()


def test_run_missing_graph_is_io_error(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            graph = {tmp_path / 'nope.txt'}
            graph_format = snap
            experiment = 1
            group = 2:2:2:2
            bank = 0
            seed = 1
            out = {tmp_path / 'out'}
            """
        )
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_IO
    assert "nope.txt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bank, message",
    [
        ("-5", "finite bank balance must be a non-negative integer, got -5"),
        ("x", "bank must be a non-negative integer or 'inf', got 'x'"),
    ],
    ids=["negative", "not-an-integer"],
)
def test_run_rejects_a_bad_bank_before_the_load(two_node_run, monkeypatch, capsys, bank, message):
    from pdnetsim import cli

    config_path, out_dir = two_node_run
    config_path.write_text(config_path.read_text().replace("bank = 3", f"bank = {bank}"))
    monkeypatch.setattr(cli, "load_graph", lambda *args: pytest.fail("the graph was loaded"))
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message}"]
    assert not out_dir.exists()


def test_run_malformed_graph_is_parse_error(tmp_path, capsys):
    graph_path = tmp_path / "bad.txt"
    graph_path.write_text("0 1\n1 x\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            graph = {graph_path}
            graph_format = snap
            experiment = 1
            group = 2:2:2:2
            bank = 0
            seed = 1
            out = {tmp_path / 'out'}
            """
        )
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_run_non_utf8_graph_is_parse_error(tmp_path, two_node_run, capsys):
    config_path, _ = two_node_run
    graph_path = tmp_path / "pair.txt"
    graph_path.write_bytes(b"0 1\n\xff 2\n")
    assert main(["run", "--config", str(config_path)]) == EXIT_PARSE
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path, two_node_run, capsys):
    config_path, _ = two_node_run
    config_path.write_bytes(config_path.read_bytes() + b"# caf\xff\n")
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, two_node_run, capsys):
    config_path, _ = two_node_run
    config_path.write_text(config_path.read_text() + "mystery = 1\n")
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    assert "mystery" in capsys.readouterr().err


def test_missing_required_key_rejected(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("graph = x\n")
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing required" in err


def _append(line):
    return lambda text: text + line + "\n"


@pytest.mark.parametrize(
    "command, edit, code, message",
    [
        ("run", _append("iterations 5"), EXIT_CONFIG, "line 11: expected 'key = value'"),
        ("run", _append("= 5"), EXIT_CONFIG, "line 11: empty key or value"),
        ("run", _append("iterations ="), EXIT_CONFIG, "line 11: empty key or value"),
        ("run", _append("seed = 6"), EXIT_CONFIG, "config key 'seed' given 2 times"),
        ("run --seed 9", _append("seed = 6"), EXIT_CONFIG, "config key 'seed' given 2 times"),
        ("suite --replicates 1", _append("replicates = 2"), EXIT_CONFIG, "config key 'replicates' given 2 times"),
        ("suite --workers 1", _append("workers = 1\nworkers = 2"), EXIT_CONFIG, "config key 'workers' given 2 times"),
        ("run --seed 9", lambda text: text.replace("seed = 5\n", ""), EXIT_CONFIG, "missing required config keys: seed"),
        (
            "run",
            lambda text: text.replace("iterations = 1000", "iterations = many"),
            EXIT_CONFIG,
            "config key 'iterations' must be an integer, got 'many'",
        ),
        (
            "run",
            lambda text: text.replace("group = 0:8:0:0", "group = 1:2:5"),
            EXIT_CONFIG,
            "expected D:C:T:R eighths like '3:1:2:2', got '1:2:5'",
        ),
        (
            "run",
            lambda text: text.replace("experiment = 1", "experiment = 2").replace("0:8:0:0", "C,X,D"),
            EXIT_CONFIG,
            "expected a permutation of D,C,T like 'C,T,D', got 'C,X,D'",
        ),
        ("run", lambda text: text.replace("= snap", "= gml"), EXIT_CONFIG, "unknown graph format 'gml'"),
        ("run", lambda text: text.replace("bank = 3", "bank = lots"), EXIT_CONFIG, "integer or 'inf', got 'lots'"),
        ("suite", _append("network = gamma snap"), EXIT_CONFIG, "network entry must be 'NAME FORMAT PATH'"),
        ("suite", lambda text: text.replace("banks = default", "banks = ,"), EXIT_CONFIG, "banks list is empty"),
        ("plot", "iter,value\n1,0.5\n", EXIT_PARSE, "missing 'iteration'/'gini' columns"),
        ("plot", "iteration,gini\n1,0.5\n2\n", EXIT_PARSE, "line 3: malformed series row"),
        ("plot", 'iteration,gini\n"1\n",0.5\n2\n', EXIT_PARSE, "line 4: malformed series row"),
        ("plot", "iteration,gini\n", EXIT_PARSE, "series CSV holds no data rows"),
    ],
    ids=[
        "no-equals-sign",
        "empty-key",
        "empty-value",
        "key-given-twice",
        "key-given-twice-and-its-seed-flag",
        "key-given-twice-and-its-replicates-flag",
        "key-given-twice-and-its-workers-flag",
        "missing-key-and-its-seed-flag",
        "non-integer-iterations",
        "bad-proportion-group",
        "bad-degree-group",
        "bad-graph-format",
        "bad-bank",
        "malformed-network",
        "empty-banks",
        "plot-without-columns",
        "plot-malformed-row",
        "plot-malformed-row-after-a-quoted-line-break",
        "plot-header-only",
    ],
)
def test_a_bad_input_exits_with_its_code_and_one_error_line(request, tmp_path, command, edit, code, message):
    # Through `python -m pdnetsim`, as a user runs it: the exit code the
    # module docstring documents, one error line and no traceback. A flag
    # after the command is given too: it must not hide a key given twice,
    # nor stand in for a required key the file lacks.
    command, *flags = command.split()
    if command == "plot":
        series = tmp_path / "series.csv"
        series.write_text(edit)
        argv = ["plot", str(series), "--out", str(tmp_path / "chart.svg")]
    else:
        config_path, _ = request.getfixturevalue({"run": "two_node_run", "suite": "suite_config"}[command])
        config_path.write_text(edit(config_path.read_text()))
        argv = [command, "--config", str(config_path), *flags]
    proc = subprocess.run([sys.executable, "-m", "pdnetsim", *argv], capture_output=True, text=True)
    assert proc.returncode == code
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["graph", "out"])
def test_run_rejects_a_nul_byte_in_a_path_before_the_load(two_node_run, monkeypatch, capsys, key):
    from pdnetsim import cli

    config_path, out_dir = two_node_run
    lines = config_path.read_text().splitlines()
    (lineno,) = [i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} = ")]
    lines[lineno - 1] += "\0x"
    config_path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(cli, "load_graph", lambda *args: pytest.fail("the graph was loaded"))
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {config_path}: line {lineno}: contains a NUL byte"]
    assert not out_dir.exists()


def test_run_with_balances_beyond_int64(tmp_path, capsys):
    # 10**19 does not fit a 64-bit integer. On a triangle of two defectors
    # and a cooperator, a defector takes the cooperator's whole balance,
    # leaving balances near (0, B, 2B), whose Gini is 4/9.
    graph_path = tmp_path / "triangle.txt"
    graph_path.write_text("0 1\n1 2\n0 2\n")
    out_dir = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            graph = {graph_path}
            graph_format = snap
            experiment = 1
            group = 4:4:0:0
            bank = 0
            iterations = 10
            initial_balance = 10000000000000000000
            betrayal_transfer = 10000000000000000000
            seed = 3
            out = {out_dir}
            """
        )
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    lines = (out_dir / "gini_series.csv").read_text().strip().split("\n")
    assert lines[1] == "1,0.444444,4,29999999999999999996,2,1"
    assert lines[-1] == "8,0.444444,32,29999999999999999968,0,3"
    assert "final_gini = 0.444444" in (out_dir / "summary.txt").read_text()
    if _kernel.load()[0] is not None:  # the Python loop ran, and that is not a fallback
        assert capsys.readouterr().err == ""


def _write_network(tmp_path, name, seed):
    from conftest import random_graph

    g = random_graph(16, 3.0, seed=seed)
    path = tmp_path / f"{name}.txt"
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in g.edges():
            handle.write(f"{u} {v}\n")
    return path


def _experiment_2_config(tmp_path, graph_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            graph = {graph_path}
            graph_format = snap
            experiment = 2
            group = C,T,D
            bank = 50
            iterations = 30
            initial_balance = 10
            seed = 9
            out = {tmp_path / 'out'}
            """
        )
    )
    return config_path


def test_run_experiment_2_assigns_kinds_by_degree(tmp_path):
    from pdnetsim import DegreeGroup, assign_by_degree, derive_seed, load_graph, run
    from pdnetsim.engine import SimConfig
    from pdnetsim.output import write_gini_series_csv

    graph_path = _write_network(tmp_path, "g", 3)
    graph = load_graph(str(graph_path), "snap")
    assert graph.node_count >= 12
    assignment = assign_by_degree(graph, DegreeGroup.parse("C,T,D"), random.Random(derive_seed(9, "assign")))
    expected = tmp_path / "expected.csv"
    write_gini_series_csv(str(expected), run(graph, assignment, SimConfig(30, 10, bank=50, seed=9)))

    assert main(["run", "--config", str(_experiment_2_config(tmp_path, graph_path))]) == EXIT_OK
    assert (tmp_path / "out" / "gini_series.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(("experiment", "group"), [(1, "3:1:2:2"), (2, "C,T,D")])
def test_a_run_writes_what_play_task_writes_for_its_one_row_task(tmp_path, experiment, group):
    from pdnetsim import BankSetting, NetworkSpec, derive_seed, load_graph
    from pdnetsim.engine import SimConfig
    from pdnetsim.experiments import RunTask, experiment_groups, play_task

    graph_path = _write_network(tmp_path, "g", 3)
    config_path = _experiment_2_config(tmp_path, graph_path)
    text = config_path.read_text()
    config_path.write_text(text.replace("experiment = 2", f"experiment = {experiment}").replace("C,T,D", group))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK

    expected = tmp_path / "expected.csv"
    task = RunTask(
        NetworkSpec(str(graph_path), str(graph_path), "snap"),
        experiment_groups(experiment)[0].parse(group),
        BankSetting.parse("50"),
        0,
        derive_seed(9, "assign"),
        SimConfig(30, 10, bank=50, seed=9),
        str(expected),
    )
    play_task(task, load_graph(str(graph_path), "snap"))
    assert (tmp_path / "out" / "gini_series.csv").read_bytes() == expected.read_bytes()


def test_run_experiment_2_on_fewer_than_12_nodes_is_a_config_error(tmp_path, capsys):
    graph_path = tmp_path / "path.txt"
    graph_path.write_text("".join(f"{v} {v + 1}\n" for v in range(10)))  # 11 nodes
    assert main(["run", "--config", str(_experiment_2_config(tmp_path, graph_path))]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: degree-ranked assignment needs at least 12 nodes, got 11"]
    assert not (tmp_path / "out").exists()


@pytest.fixture
def suite_config(tmp_path):
    alpha = _write_network(tmp_path, "alpha", 1)
    beta = _write_network(tmp_path, "beta", 2)
    out_dir = tmp_path / "suite_out"
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            experiment = 1
            network = alpha snap {alpha}
            network = beta snap {beta}
            groups = default
            banks = default
            seed = 11
            replicates = 1
            iterations = 5
            initial_balance = 10
            out = {out_dir}
            """
        )
    )
    return config_path, out_dir


def test_suite_end_to_end(suite_config):
    config_path, out_dir = suite_config
    assert main(["suite", "--config", str(config_path)]) == EXIT_OK
    summary = (out_dir / "suite_summary.csv").read_text()
    lines = summary.strip().split("\n")
    assert lines[0] == "network,group,bank,replicate,final_gini,converged_at,status"
    assert len(lines) == 1 + 2 * 7 * 3
    assert all(line.endswith(",ok") for line in lines[1:])
    series_files = sorted((out_dir / "runs").iterdir())
    assert len(series_files) == 2 * 7 * 3
    assert (out_dir / "runs" / "alpha__2-2-2-2__b0__r0.csv").exists()


def test_suite_rerun_is_byte_identical(suite_config, tmp_path):
    config_path, out_dir = suite_config
    other_dir = tmp_path / "suite_other"
    assert main(["suite", "--config", str(config_path)]) == EXIT_OK
    assert main(["suite", "--config", str(config_path), "--out", str(other_dir)]) == EXIT_OK
    assert (out_dir / "suite_summary.csv").read_bytes() == (other_dir / "suite_summary.csv").read_bytes()
    sample = "alpha__1-3-2-2__b10000__r0.csv"
    assert (out_dir / "runs" / sample).read_bytes() == (other_dir / "runs" / sample).read_bytes()


@pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
def test_suite_verbose_reports_each_run_in_task_order(suite_config, capsys, verbose):
    from pdnetsim import DEFAULT_BANK_SETTINGS, EXPERIMENT1_GROUPS

    config_path, _ = suite_config
    argv = ["suite", "--config", str(config_path), "--workers", "1"]
    assert main(argv + ["--verbose"] * verbose) == EXIT_OK
    keys = [
        (network, group.label, bank.label)
        for network in ("alpha", "beta")
        for group in EXPERIMENT1_GROUPS
        for bank in DEFAULT_BANK_SETTINGS
    ]
    expected = [f"[{k}/{len(keys)}] {net} {group} b={bank} r0: ok" for k, (net, group, bank) in enumerate(keys, 1)]
    lines = [line for line in capsys.readouterr().err.splitlines() if line != FALLBACK_NOTE.strip()]
    assert lines == (expected if verbose else [])


# Every SimConfig field but bank and seed, payoff as its three fields, with a value other than its default.
_SHARED_KEYS = {
    "iterations": "7",
    "initial_balance": "11",
    "coop_reward": "2",
    "defect_penalty": "4",
    "betrayal_transfer": "5",
    "balance_semantics": "snapshot",
}


@pytest.mark.parametrize("given", [False, True], ids=["omitted", "given"])
@pytest.mark.parametrize("command", ["run", "suite"])
def test_both_commands_take_every_sim_config_field_but_bank_and_seed(request, monkeypatch, command, given):
    from pdnetsim import experiments
    from pdnetsim.engine import PayoffParams, SimConfig

    assert set(_SHARED_KEYS) == set(SimConfig._fields) - {"bank", "seed", "payoff"} | set(PayoffParams._fields)
    config_path, _ = request.getfixturevalue({"run": "two_node_run", "suite": "suite_config"}[command])
    lines = [line for line in config_path.read_text().splitlines() if line.split(" = ")[0] not in _SHARED_KEYS]
    if command == "suite":  # two runs
        lines = [line for line in lines if not line.startswith(("groups", "banks"))] + ["groups = 2:2:2:2", "banks = 0"]
    if given:
        lines += [f"{key} = {value}" for key, value in _SHARED_KEYS.items()]
    config_path.write_text("\n".join(lines) + "\n")
    configs = []
    real_run = experiments.run  # both commands play through experiments.play_task
    monkeypatch.setattr(experiments, "run", lambda g, kinds, cfg: configs.append(cfg) or real_run(g, kinds, cfg))
    assert main([command, "--config", str(config_path)]) == EXIT_OK
    expected = SimConfig(7, 11, PayoffParams(2, 4, 5), balance_semantics="snapshot") if given else SimConfig()
    shared = [name for name in SimConfig._fields if name not in ("bank", "seed")]
    assert len(configs) == {"run": 1, "suite": 2}[command]
    for cfg in configs:
        assert [getattr(cfg, name) for name in shared] == [getattr(expected, name) for name in shared]


def _output_files(out_dir):
    return {path.relative_to(out_dir): path.read_bytes() for path in sorted(out_dir.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", ["run", "suite"])
def test_a_config_with_a_byte_order_mark_writes_what_one_without_writes(request, tmp_path, command):
    config_path, out_dir = request.getfixturevalue({"run": "two_node_run", "suite": "suite_config"}[command])
    assert main([command, "--config", str(config_path)]) == EXIT_OK
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + config_path.read_bytes())
    other = tmp_path / "marked_out"
    assert main([command, "--config", str(marked), "--out", str(other)]) == EXIT_OK
    assert _output_files(other) == _output_files(out_dir) != {}


@pytest.mark.parametrize("command", ["run", "suite", "plot", "convert"])
def test_an_output_path_through_a_directory_not_made_yet_lands_where_abspath_puts_it(request, tmp_path, command):
    # new/sub/../x names new/x, as os.path.abspath reads it and as the check
    # before any run reads it. The writers made new/x but opened their
    # temporary files under new/sub/.., which the system cannot follow
    # while new/sub does not exist, and so failed after every run.
    through = tmp_path / "new" / "sub" / ".." / "x"
    landed = tmp_path / "new" / "x"
    if command in ("run", "suite"):
        config_path, out_dir = request.getfixturevalue({"run": "two_node_run", "suite": "suite_config"}[command])
        argv = [command, "--config", str(config_path), "--out"]
        assert main([*argv, str(out_dir)]) == EXIT_OK
        assert main([*argv, str(through)]) == EXIT_OK
    else:
        source = tmp_path / "input.csv"
        source.write_text("iteration,gini\n1,0.5\n2,0.25\n" if command == "plot" else "0 1\n1 2\n")
        argv = ["plot", str(source)] if command == "plot" else ["convert", str(source), "--format", "snap"]
        out_dir = tmp_path / "plain"
        assert main([*argv, "--out", str(out_dir / "written")]) == EXIT_OK
        assert main([*argv, "--out", str(through / "written")]) == EXIT_OK
    assert _output_files(landed) == _output_files(out_dir) != {}
    assert not (tmp_path / "new" / "sub").exists()


def test_a_suite_network_path_may_contain_spaces(suite_config, tmp_path):
    config_path, out_dir = suite_config
    assert main(["suite", "--config", str(config_path)]) == EXIT_OK
    spaced = tmp_path / "with  two spaces"
    spaced.mkdir()
    text = config_path.read_text()
    for name in ("alpha.txt", "beta.txt"):
        (spaced / name).write_bytes((tmp_path / name).read_bytes())
        text = text.replace(str(tmp_path / name), str(spaced / name))
    config_path.write_text(text)
    other = tmp_path / "spaced_out"
    assert main(["suite", "--config", str(config_path), "--out", str(other)]) == EXIT_OK
    assert _output_files(other) == _output_files(out_dir) != {}


def _runs_started(monkeypatch):
    """The suite tasks executed from now on, recorded instead of run."""
    from pdnetsim import experiments

    started = []
    monkeypatch.setattr(experiments, "execute_task", started.append)
    return started


@pytest.mark.parametrize(
    "setting, message",
    [
        ("iterations = 0", "iterations must be"),
        ("balance_semantics = bogus", "balance_semantics must be"),
        ("banks = 0,-5", "finite bank balance must be a non-negative integer, got -5"),
        ("banks = 0,x", "bank must be a non-negative integer or 'inf', got 'x'"),
    ],
    ids=["iterations", "balance_semantics", "banks-negative", "banks-not-an-integer"],
)
def test_suite_settings_are_validated_once_before_any_run(suite_config, monkeypatch, capsys, setting, message):
    config_path, out_dir = suite_config
    key = setting.split(" = ")[0]
    kept = [line for line in config_path.read_text().splitlines() if not line.startswith(key)]
    config_path.write_text("\n".join([*kept, setting]) + "\n")
    started = _runs_started(monkeypatch)
    assert main(["suite", "--config", str(config_path)]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert started == []
    assert not (out_dir / "suite_summary.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_suite_rejects_fewer_than_one_worker_before_any_run(suite_config, monkeypatch, capsys, workers, where):
    config_path, out_dir = suite_config
    argv = ["suite", "--config", str(config_path)]
    if where == "flag":
        argv += ["--workers", workers]
    else:
        config_path.write_text(config_path.read_text() + f"workers = {workers}\n")
    started = _runs_started(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: workers must be a positive integer, got {workers}"]
    assert started == []
    assert not out_dir.exists()


def _under_one_gib(*argv):
    """`python -m pdnetsim *argv` in a process of its own, under a 1 GiB
    address-space limit and a timeout, so that a command which fills memory
    fails the test with a MemoryError instead of filling the machine's."""
    import os
    import resource

    env = {key: value for key, value in os.environ.items() if key != "LD_PRELOAD"}  # a sanitizer reserves more
    limit = (2**30, 2**30)
    return subprocess.run(
        [sys.executable, "-m", "pdnetsim", *argv],
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("where", ["flag", "config"])
def test_a_suite_of_too_many_runs_exits_2_before_building_a_task(suite_config, where):
    # A suite that built its tasks anyway would fill memory.
    config_path, out_dir = suite_config
    huge = "9999999999999999999999999"
    argv = ["suite", "--config", str(config_path)]
    if where == "flag":
        argv += ["--replicates", huge]
    else:
        config_path.write_text(config_path.read_text().replace("replicates = 1", f"replicates = {huge}"))
    proc = _under_one_gib(*argv)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith(f"error: suite has {2 * 7 * 3 * int(huge)} runs "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


def test_a_run_of_more_passes_than_the_bound_exits_2_before_any_pass(tmp_path):
    # A run that played its passes anyway would keep about 300 bytes a pass
    # and end in a MemoryError traceback, having written nothing.
    graph_path = tmp_path / "triangle.txt"
    graph_path.write_text("0 1\n1 2\n0 2\n")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            graph = {graph_path}
            graph_format = snap
            experiment = 1
            group = 0:8:0:0
            bank = inf
            iterations = 10000000
            seed = 1
            out = {tmp_path / 'out'}
            """
        )
    )
    proc = _under_one_gib("run", "--config", str(config_path))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    from pdnetsim.engine import MAX_ITERATIONS

    bound = f"iterations must be a positive integer no greater than {MAX_ITERATIONS}"
    assert proc.stderr == f"error: {bound}, got 10000000\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg", "triangle.txt"]


# Run by `python -c`, with the command's argv after it: load the kernel
# (which may compile it), then lower the address-space limit to a fixed
# margin above what the process holds, and run the command as
# `python -m pdnetsim` does.
_UNDER_A_MARGIN = """\
import os, resource
from pdnetsim import _kernel, cli
_kernel.load()
with open("/proc/self/statm") as statm:
    limit = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + 32 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
cli.entry()
"""


@pytest.mark.parametrize("command", ["run", "convert"])
def test_a_graph_too_big_for_memory_exits_4_with_one_error_line(two_node_run, tmp_path, command):
    # A million labels need far more than the 32 MiB margin, in the C reader
    # and in the Python one; the two-node graph fits in it. A graph the
    # process cannot hold is a bad input: it ends with an exit code and one
    # line, not a MemoryError traceback.
    import os

    config_path, out_dir = two_node_run
    pair = tmp_path / "pair.txt"
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(500_000)))
    env = {key: value for key, value in os.environ.items() if key != "LD_PRELOAD"}  # a sanitizer reserves more

    def under_a_margin(graph):
        if command == "run":
            config_path.write_text(config_path.read_text().replace(str(pair), str(graph)))
            argv = ["run", "--config", str(config_path)]
        else:
            argv = ["convert", str(graph), "--format", "snap", "--out", str(out_dir / "edges.txt")]
        return subprocess.run(
            [sys.executable, "-c", _UNDER_A_MARGIN, *argv], env=env, capture_output=True, text=True, timeout=120
        )

    fits = under_a_margin(pair)
    assert fits.returncode == EXIT_OK, fits.stderr
    for path in out_dir.iterdir():
        path.unlink()
    out_dir.rmdir()
    proc = under_a_margin(big)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr == "error: out of memory; the input may be too large for the memory this process can use\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["out", "network"])
def test_suite_rejects_a_nul_byte_in_a_path_before_any_run(suite_config, monkeypatch, capsys, key):
    config_path, out_dir = suite_config
    lines = config_path.read_text().splitlines()
    lineno = [i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} = ")][-1]
    lines[lineno - 1] += "\0x"  # for network, the PATH of the last entry
    config_path.write_text("\n".join(lines) + "\n")
    started = _runs_started(monkeypatch)
    assert main(["suite", "--config", str(config_path)]) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {config_path}: line {lineno}: contains a NUL byte"]
    assert started == []
    assert not out_dir.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["out-is-a-file", "out-is-under-a-file"])
def test_suite_output_under_a_file_fails_before_any_run(suite_config, tmp_path, monkeypatch, capsys, below):
    config_path, _ = suite_config
    blocker = tmp_path / "taken"
    blocker.write_text("")
    started = _runs_started(monkeypatch)
    assert main(["suite", "--config", str(config_path), "--out", str(blocker / below)]) == EXIT_IO
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno 20] Not a directory: '{blocker}'"]
    assert started == []
    assert blocker.read_text() == ""


def test_suite_summary_taken_by_a_directory_fails_before_any_run(suite_config, capsys):
    config_path, out_dir = suite_config
    summary = out_dir / "suite_summary.csv"
    summary.mkdir(parents=True)
    assert main(["suite", "--config", str(config_path)]) == EXIT_IO
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno 21] Is a directory: '{summary}'"]
    runs = out_dir / "runs"
    assert not runs.exists() or not any(runs.iterdir())


def test_run_summary_taken_by_a_directory_fails_before_the_run(two_node_run, capsys):
    config_path, out_dir = two_node_run
    summary = out_dir / "summary.txt"
    summary.mkdir(parents=True)
    assert main(["run", "--config", str(config_path)]) == EXIT_IO
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno 21] Is a directory: '{summary}'"]
    assert not (out_dir / "gini_series.csv").exists()


@pytest.mark.parametrize("command", ["convert", "plot"])
def test_an_output_taken_by_a_directory_fails_before_any_load(tmp_path, monkeypatch, capsys, command):
    # The error names --out, not the temporary file written next to it.
    from pdnetsim import cli

    loaded = []
    monkeypatch.setattr(cli, "load_graph", lambda *args: loaded.append(args))
    monkeypatch.setattr(cli, "read_gini_series_csv", lambda *args: loaded.append(args))
    source = tmp_path / "input.txt"
    source.write_text("0 1\n")
    out = tmp_path / "adir"
    out.mkdir()
    argv = ["convert", str(source), "--format", "snap"] if command == "convert" else ["plot", str(source)]
    assert main([*argv, "--out", str(out)]) == EXIT_IO
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno 21] Is a directory: '{out}'"]
    assert loaded == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "networks, banks, message",
    [
        (("g", "g"), "0,0", "suite runs g/2:2:2:2/0/0 twice"),
        (("fb.v1", "fb-v1"), "0", "both write"),
    ],
    ids=["run-key", "series-path"],
)
def test_suite_rejects_colliding_rows(tmp_path, monkeypatch, capsys, networks, banks, message):
    path = _write_network(tmp_path, "net", 1)
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(
        "experiment = 1\n"
        + "".join(f"network = {name} snap {path}\n" for name in networks)
        + f"groups = 2:2:2:2\nbanks = {banks}\nseed = 1\nreplicates = 1\niterations = 3\n"
        + f"out = {tmp_path / 'out'}\n"
    )
    started = _runs_started(monkeypatch)
    assert main(["suite", "--config", str(config_path), "--workers", "2"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert started == []
    assert not (tmp_path / "out" / "suite_summary.csv").exists()
    assert not (tmp_path / "out").exists()


def test_suite_all_failures_exit_nonzero(tmp_path, capsys):
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            experiment = 1
            network = ghost snap {tmp_path / 'ghost.txt'}
            seed = 1
            out = {tmp_path / 'out'}
            """
        )
    )
    assert main(["suite", "--config", str(config_path)]) == EXIT_CONFIG
    summary = (tmp_path / "out" / "suite_summary.csv").read_text()
    assert "error:" in summary


def _four_replicate_suite(tmp_path):
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            experiment = 1
            network = good snap {_write_network(tmp_path, "good", 1)}
            groups = 2:2:2:2
            banks = 0
            seed = 1
            replicates = 4
            workers = 2
            iterations = 3
            out = {tmp_path / 'out'}
            """
        )
    )
    return config_path


def test_suite_summary_survives_a_dead_worker(tmp_path, monkeypatch, capsys):
    from pdnetsim import experiments

    from conftest import execute_task_or_die

    config_path = _four_replicate_suite(tmp_path)
    serial = tmp_path / "serial"
    assert main(["suite", "--config", str(config_path), "--workers", "1", "--out", str(serial)]) == EXIT_OK
    monkeypatch.setattr(experiments, "execute_task", execute_task_or_die)
    assert main(["suite", "--config", str(config_path)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().strip().split("\n")[1:]
    serial_rows = (serial / "suite_summary.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4
    # Only replicate 2, whose worker died, is lost; replicate 3 ran on the other worker.
    assert rows[2] == "good,2:2:2:2,0,2,,,error: a worker process died: exit code 1"
    assert rows[:2] + rows[3:] == serial_rows[:2] + serial_rows[3:]
    assert all(row.endswith(",ok") for row in serial_rows)
    runs = sorted(path.name for path in (tmp_path / "out" / "runs").iterdir())
    assert len(runs) == 3 and "good__2-2-2-2__b0__r2.csv" not in runs
    for name in runs:
        assert (tmp_path / "out" / "runs" / name).read_bytes() == (serial / "runs" / name).read_bytes()


def test_suite_whose_every_worker_dies_still_writes_its_summary(tmp_path):
    # In a process of its own, so that a suite that hangs fails the test.
    code = (
        "import os, sys\n"
        "from pdnetsim import experiments\n"
        "from pdnetsim.cli import main\n"
        "experiments.execute_task = lambda task: os._exit(3)\n"
        f"sys.exit(main(['suite', '--config', {str(_four_replicate_suite(tmp_path))!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "error: all suite runs failed" in proc.stderr and "Traceback" not in proc.stderr
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().strip().split("\n")[1:]
    assert rows == [f"good,2:2:2:2,0,{r},,,error: a worker process died: exit code 3" for r in range(4)]


def test_suite_non_utf8_network_marks_its_row(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n\xff 2\n")
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(
        textwrap.dedent(
            f"""\
            experiment = 1
            network = good snap {_write_network(tmp_path, "good", 1)}
            network = bad snap {bad}
            groups = 2:2:2:2
            banks = 0
            seed = 1
            replicates = 1
            iterations = 3
            out = {tmp_path / 'out'}
            """
        )
    )
    assert main(["suite", "--config", str(config_path)]) == EXIT_OK
    rows = (tmp_path / "out" / "suite_summary.csv").read_text().strip().split("\n")[1:]
    assert rows[0].endswith(",ok")
    assert "error: " in rows[1] and "not UTF-8" in rows[1]
    assert "UnicodeDecodeError" not in rows[1]


def test_run_notes_the_python_fallback_once(tmp_path, two_node_run, capsys, monkeypatch):
    config_path, out_dir = two_node_run
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    kernel = capsys.readouterr()
    if _kernel.load()[0] is not None:
        assert kernel.err == ""
    monkeypatch.setattr(_kernel, "load", lambda: (None, NO_CC))
    other = tmp_path / "other"
    assert main(["run", "--config", str(config_path), "--out", str(other)]) == EXIT_OK
    fallback = capsys.readouterr()
    assert fallback.err == FALLBACK_NOTE
    assert fallback.out.replace(str(other), str(out_dir)) == kernel.out
    for name in ("gini_series.csv", "summary.txt"):
        assert (other / name).read_bytes() == (out_dir / name).read_bytes()


def test_suite_notes_the_python_fallback_once(suite_config, tmp_path, capsys, monkeypatch):
    config_path, out_dir = suite_config
    assert main(["suite", "--config", str(config_path), "--workers", "2"]) == EXIT_OK
    kernel = capsys.readouterr()
    if _kernel.load()[0] is not None:
        assert kernel.err == ""
    monkeypatch.setattr(_kernel, "load", lambda: (None, NO_CC))
    other = tmp_path / "other"
    assert main(["suite", "--config", str(config_path), "--out", str(other)]) == EXIT_OK
    fallback = capsys.readouterr()
    assert fallback.err == FALLBACK_NOTE
    assert fallback.out.replace(str(other), str(out_dir)) == kernel.out
    assert (other / "suite_summary.csv").read_bytes() == (out_dir / "suite_summary.csv").read_bytes()
    for series in (out_dir / "runs").iterdir():
        assert (other / "runs" / series.name).read_bytes() == series.read_bytes()


def test_plot_three_series(tmp_path, two_node_run):
    config_path, out_dir = two_node_run
    main(["run", "--config", str(config_path)])
    series = out_dir / "gini_series.csv"
    svg_path = tmp_path / "chart.svg"
    code = main(["plot", str(series), str(series), str(series), "--out", str(svg_path)])
    assert code == EXIT_OK
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 3
    assert ">iteration</text>" in svg
    assert ">Gini Coefficient</text>" in svg


def test_plot_constant_zero_series_is_horizontal(tmp_path):
    series = tmp_path / "zeros.csv"
    series.write_text(
        "iteration,gini,bank_balance_or_inf,total_node_balance,games_played,games_skipped\n"
        + "".join(f"{i},0.000000,0,100,1,0\n" for i in range(1, 6))
    )
    svg_path = tmp_path / "flat.svg"
    assert main(["plot", str(series), "--out", str(svg_path)]) == EXIT_OK
    svg = svg_path.read_text()
    polyline = svg.split('points="')[1].split('"')[0]
    ys = {point.split(",")[1] for point in polyline.split()}
    assert len(ys) == 1  # one shared y pixel: a horizontal line


def test_plot_skips_blank_lines_but_counts_them(tmp_path, capsys):
    plain, blanks = tmp_path / "plain", tmp_path / "blanks"
    plain.mkdir()
    blanks.mkdir()
    (plain / "series.csv").write_text("iteration,gini\n1,0.5\n2,0.25\n3,0.125\n")
    (blanks / "series.csv").write_text("iteration,gini\n\n1,0.5\n\n\n2,0.25\n3,0.125\n\n")
    for directory in (plain, blanks):
        assert main(["plot", str(directory / "series.csv"), "--out", str(directory / "chart.svg")]) == EXIT_OK
    assert (blanks / "chart.svg").read_bytes() == (plain / "chart.svg").read_bytes()
    (blanks / "series.csv").write_text("iteration,gini\n1,0.5\n\n\n2\n")
    capsys.readouterr()
    assert main(["plot", str(blanks / "series.csv"), "--out", str(blanks / "chart.svg")]) == EXIT_PARSE
    assert "line 5: malformed series row" in capsys.readouterr().err


def test_a_series_with_a_byte_order_mark_plots_to_the_same_svg(tmp_path):
    # A spreadsheet that saves a CSV as UTF-8 puts a byte-order mark before
    # the header, which then named no 'iteration' column.
    text = b"iteration,gini\n1,0.5\n2,0.25\n3,0.125\n"
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        series = tmp_path / name / "series.csv"
        series.write_bytes(mark + text)
        assert main(["plot", str(series), "--out", str(tmp_path / name / "chart.svg")]) == EXIT_OK
    assert (tmp_path / "marked" / "chart.svg").read_bytes() == (tmp_path / "plain" / "chart.svg").read_bytes()


def test_plot_rejects_empty_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plot", str(empty), "--out", str(tmp_path / "x.svg")]) == EXIT_PARSE


def test_plot_non_utf8_series_is_parse_error(tmp_path, capsys):
    series = tmp_path / "latin1.csv"
    series.write_bytes(b"iteration,gini\n1,0.5\n# \xff\n")
    assert main(["plot", str(series), "--out", str(tmp_path / "x.svg")]) == EXIT_PARSE
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plot_rejects_non_finite_values(tmp_path, capsys, value):
    series = tmp_path / "series.csv"
    series.write_text(f"iteration,gini\n1,0.5\n2,{value}\n")
    out = tmp_path / "x.svg"
    assert main(["plot", str(series), "--out", str(out)]) == EXIT_PARSE
    assert f"{series}: line 3: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", ["-5,0.5", "2,-0.2", "-10,-0.5", "-1e-300,0.5"])
def test_plot_rejects_negative_values(tmp_path, capsys, row):
    # The chart's axes start at 0, so a negative point would be drawn outside them.
    series = tmp_path / "series.csv"
    series.write_text(f"iteration,gini\n1,0.5\n\n{row}\n")
    out = tmp_path / "x.svg"
    assert main(["plot", str(series), "--out", str(out)]) == EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {series}: line 4: iteration and gini must be finite numbers of at least 0"]
    assert not out.exists()


def test_plot_is_byte_deterministic(tmp_path, two_node_run):
    config_path, out_dir = two_node_run
    main(["run", "--config", str(config_path)])
    series = out_dir / "gini_series.csv"
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["plot", str(series), "--out", str(first)])
    main(["plot", str(series), "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "row",
    ["1," + "9" * 200000, "1,0.5\0"],
    ids=["field-over-the-limit", "nul-byte"],
)
def test_plot_rejects_a_series_csv_that_csv_cannot_read(tmp_path, capsys, row):
    # csv raises its own error for a field over its size limit, and on
    # CPython 3.10 for a NUL byte, where float() would have refused the row.
    series = tmp_path / "series.csv"
    series.write_text(f"iteration,gini\n{row}\n")
    out = tmp_path / "x.svg"
    assert main(["plot", str(series), "--out", str(out)]) == EXIT_PARSE
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {series}: line 2: malformed series row"]
    assert not out.exists()


def _chart(x_max, count):
    xs = [float(i) for i in range(1, x_max + 1)]
    series = [("a<b & c>d", xs, [0.0] * x_max)]
    for k in range(1, count):
        series.append((k, xs, [((i * (k + 2)) % 101) / 100 for i in range(x_max)]))
    return series


@pytest.mark.parametrize(
    ("x_max", "labels"),
    [
        (2, ["0", "0.5", "1", "1.5", "2"]),
        (30, ["0", "7.5", "15", "22.5", "30"]),
        (1000, ["0", "250", "500", "750", "1000"]),
        (0.5, ["0", "0.125", "0.25", "0.375", "0.5"]),  # three decimals: .2f would write 0.12
    ],
    ids=["2", "30", "1000", "0.5"],
)
def test_plot_labels_each_x_tick_with_the_value_at_its_position(x_max, labels):
    from pdnetsim.plotting import render_line_chart

    chart = _chart(x_max, 2) if isinstance(x_max, int) else [("fractional", [0.25, x_max], [0.1, 0.2])]
    svg = render_line_chart(chart)
    assert re.findall(r'font-size="12" text-anchor="middle">([^<]*)</text>', svg) == labels


@pytest.mark.parametrize(
    ("x_max", "count", "digest"),
    [
        (1000, 10, "259692381f1ae68b3fabea39504e61d59a40a855fa90fa54a29e876251da8411"),
        (20, 3, "f52fc37a88c047f3d0aaf82d84c088e7a6c53c2e3ad443cb2fafa9e41a9b83b2"),
    ],
    ids=["1000-iterations-10-series", "20-iterations-3-series"],
)
def test_plot_writes_the_pinned_svg_bytes(x_max, count, digest):
    # Digests of charts that hold an all-zero series, a label that escape()
    # changes and, with ten series, a palette that wraps. A change to the
    # renderer that should keep the bytes must keep these.
    from pdnetsim.plotting import render_line_chart

    assert hashlib.sha256(render_line_chart(_chart(x_max, count)).encode()).hexdigest() == digest


def test_convert_bitcoin_to_edge_list(tmp_path):
    csv_path = tmp_path / "ratings.csv"
    csv_path.write_text("6,2,4,111.5\n2,6,5,112.5\n7,6,1,113.0\n")
    out_path = tmp_path / "edges.txt"
    assert main(["convert", str(csv_path), "--format", "bitcoin_otc", "--out", str(out_path)]) == EXIT_OK
    dump = out_path.read_text()
    assert dump.startswith("# nodes=3 edges=2\n")
    from pdnetsim import load_graph

    g = load_graph(str(out_path), "snap")
    assert g.node_count == 3
    assert g.edge_count == 2


def test_plot_and_convert_write_through_a_temporary_file(tmp_path, two_node_run, monkeypatch):
    from pdnetsim import cli

    config_path, out_dir = two_node_run
    main(["run", "--config", str(config_path)])
    svg_path = tmp_path / "new" / "chart.svg"  # the parent is created, as for every writer
    assert main(["plot", str(out_dir / "gini_series.csv"), "--out", str(svg_path)]) == EXIT_OK
    assert svg_path.read_text().endswith("</svg>\n")

    edges = tmp_path / "edges.txt"
    edges.write_text("previous\n")

    def failing_writer(graph, handle):
        handle.write("# half a file\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_edge_list", failing_writer)
    graph = tmp_path / "pair.txt"
    assert main(["convert", str(graph), "--format", "snap", "--out", str(edges)]) == EXIT_IO
    assert edges.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt", "new", "out", "pair.txt", "run.cfg"]


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "pdnetsim", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "suite" in proc.stdout


def test_importing_the_cli_loads_no_numpy_pool_or_xml():
    # numpy is needed only by the tests; the process pool and the XML
    # escaper were start-up costs that every command paid.
    heavy = ("numpy", "concurrent.futures", "xml.sax")
    code = f"import sys, pdnetsim.cli; print(sorted(m for m in sys.modules if m.startswith({heavy!r})))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_run_needs_no_numpy(two_node_run):
    config_path, out_dir = two_node_run
    code = (
        "import sys; sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from pdnetsim.cli import main\n"
        f"sys.exit(main(['run', '--config', {str(config_path)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "final_gini=0.000000 converged_at=2" in proc.stdout
    assert (out_dir / "gini_series.csv").exists()


def test_no_package_module_imports_numpy():
    # The tests above run commands; this reads every module, so an import
    # on a path no command takes is caught too. numpy is a test dependency.
    package = Path(pdnetsim.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert package / "engine.py" in sources
    importers = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_a_suite_with_workers_loads_no_process_pool(suite_config):
    # The workers are forked multiprocessing processes fed over pipes:
    # concurrent.futures was a start-up cost that no command needs.
    config_path, out_dir = suite_config
    code = (
        "import sys\n"
        "from pdnetsim.cli import main\n"
        f"assert main(['suite', '--config', {str(config_path)!r}, '--workers', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'concurrent' or m.startswith('concurrent.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (out_dir / "suite_summary.csv").exists()


def test_a_run_command_loads_only_what_it_uses(two_node_run):
    # A whole `run`, not only the import. dataclasses (and inspect with it),
    # the SVG plotter and its html escaper, the suite's orchestration and
    # its multiprocessing, and csv (the series is written without it) cost
    # start-up time that only other commands, or none, need; numpy, the
    # process pool and the XML parser as in the test above.
    config_path, _ = two_node_run
    unwanted = (
        "dataclasses",
        "inspect",
        "pdnetsim.plotting",
        "html",
        "pdnetsim.suite",
        "multiprocessing",
        "csv",
        "numpy",
        "concurrent.futures",
        "xml.sax",
    )
    code = (
        "import sys\n"
        "from pdnetsim.cli import main\n"
        f"assert main(['run', '--config', {str(config_path)!r}]) == 0\n"
        f"print(sorted(m for m in sys.modules for u in {unwanted!r} if m == u or m.startswith(u + '.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
