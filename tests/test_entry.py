"""`python -m pdnetsim` ends through `cli.entry`, which skips the
interpreter's teardown once `main` has returned. Each test here runs it in
a process of its own and checks that it ends as `sys.exit(main())` did:
the same output bytes, exit code, atexit handlers and children.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pdnetsim
from pdnetsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PARSE

SRC = str(Path(pdnetsim.__file__).parents[1])
# The path every command took before `entry`: main's code through sys.exit.
SYS_EXIT = "import sys; from pdnetsim.cli import main; sys.exit(main())"


def _env(buffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture
def configs(tmp_path):
    (tmp_path / "pair.txt").write_text("0 1\n")
    (tmp_path / "bad.txt").write_text("0 1\n1 x\n")
    lines = [
        "graph_format = snap",
        "experiment = 1",
        "group = 0:8:0:0",
        "bank = 3",
        "iterations = 50",
        "seed = 5",
        f"out = {tmp_path / 'out'}",
    ]
    written = {}
    for name, extra in {
        "ok": [f"graph = {tmp_path / 'pair.txt'}"],
        "unknown_key": [f"graph = {tmp_path / 'pair.txt'}", "colour = blue"],
        "bad_graph": [f"graph = {tmp_path / 'bad.txt'}"],
    }.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text("\n".join(lines + extra) + "\n")
        written[name] = str(path)
    written["missing"] = str(tmp_path / "missing.cfg")
    return written


@pytest.mark.parametrize(
    "args, code",
    [
        (["run", "--config", "{ok}"], EXIT_OK),
        (["run", "--config", "{unknown_key}"], EXIT_CONFIG),
        (["run", "--config", "{bad_graph}"], EXIT_PARSE),
        (["run", "--config", "{missing}"], EXIT_IO),
        (["-h"], 0),
        (["run", "-h"], 0),
        (["run"], 2),
        (["walk"], 2),
    ],
    ids=["ok", "config", "parse", "io", "help", "run-help", "usage", "no-such-command"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_the_module_ends_as_sys_exit_did(configs, args, code, buffered):
    args = [arg.format(**configs) for arg in args]
    entry, old = (
        subprocess.run([sys.executable, *prefix, *args], env=_env(buffered), capture_output=True, timeout=120)
        for prefix in (["-m", "pdnetsim"], ["-c", SYS_EXIT])
    )
    assert entry.returncode == old.returncode == code, entry.stderr
    assert entry.stdout == old.stdout
    assert entry.stderr == old.stderr
    assert entry.stdout or entry.stderr


def test_an_atexit_handler_runs_and_its_output_is_flushed(configs):
    code = textwrap.dedent(
        f"""\
        import atexit, runpy, sys
        atexit.register(print, "atexit handler ran")
        sys.argv = ["pdnetsim", "run", "--config", {configs["ok"]!r}]
        runpy.run_module("pdnetsim", run_name="__main__")
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(True), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    first, last = proc.stdout.splitlines()
    assert first.startswith("final_gini=") and last == "atexit handler ran"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_whose_reader_has_gone_ends_as_before(configs, buffered):
    # Buffered, the line waits until the flush at exit, which fails: the
    # interpreter says so and ends with 120. Unbuffered, print itself fails
    # inside main, which reports an I/O error.
    procs = []
    for prefix in (["-m", "pdnetsim"], ["-c", SYS_EXIT]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            procs.append(
                subprocess.run(
                    [sys.executable, *prefix, "run", "--config", configs["ok"]],
                    env=_env(buffered),
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    timeout=120,
                )
            )
        finally:
            os.close(write_end)
    entry, old = procs
    assert entry.returncode == old.returncode == (120 if buffered else EXIT_IO)
    assert entry.stderr == old.stderr
    assert b"Broken pipe" in entry.stderr


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="tells a zombie from a live process through /proc")
def test_a_suite_on_two_workers_leaves_no_child(tmp_path):
    from conftest import random_graph

    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in random_graph(16, 3.0, seed=1).edges()))
    config = tmp_path / "suite.cfg"
    config.write_text(
        f"experiment = 1\nnetwork = g snap {graph}\nreplicates = 2\niterations = 5\nseed = 1\nout = {tmp_path / 'out'}\n"
    )
    pids = tmp_path / "pids"
    pids.mkdir()
    code = textwrap.dedent(
        f"""\
        import os, runpy, sys
        from pdnetsim import experiments
        real_task = experiments.execute_task

        def marked_task(task):
            open(os.path.join({str(pids)!r}, str(os.getpid())), "w").close()
            return real_task(task)

        experiments.execute_task = marked_task
        sys.argv = ["pdnetsim", "suite", "--config", {str(config)!r}, "--workers", "2"]
        runpy.run_module("pdnetsim", run_name="__main__")
        """
    )
    # A worker left behind would hold the pipes open, and the run would time out.
    proc = subprocess.run([sys.executable, "-c", code], env=_env(True), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("suite: 42/42 runs ok")
    workers = [int(path.name) for path in pids.iterdir()]
    assert len(workers) == 2 and os.getpid() not in workers

    def alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited
        except FileNotFoundError:
            return False

    assert [pid for pid in workers if alive(pid)] == []
