import math
import os
import pickle
import random
import shutil
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from pdnetsim import (
    LIVE,
    SNAPSHOT,
    _kernel,
    AgentKind,
    BankSetting,
    ConfigError,
    DEFAULT_BANK_SETTINGS,
    DegreeGroup,
    EXPERIMENT1_GROUPS,
    EXPERIMENT2_GROUPS,
    Graph,
    IterationStats,
    NetworkSpec,
    PayoffParams,
    ProportionGroup,
    RunResult,
    SimConfig,
    SuiteSpec,
    assign_by_degree,
    assign_proportional,
    degree_ranked_nodes,
    derive_seed,
    load_graph,
    run,
    run_suite,
)
from pdnetsim.engine import SHARED_SETTINGS, _Record
from pdnetsim.errors import PATH, REQUIRED, Check
from pdnetsim.experiments import RunTask, SuiteRow
from pdnetsim.output import run_file_name, write_gini_series_csv
from pdnetsim.suite import suite_tasks

from conftest import execute_task_or_die, random_graph, scale_free_graph

C, D, T, R = AgentKind.COOPERATOR, AgentKind.DEFECTOR, AgentKind.TIT_FOR_TAT, AgentKind.RANDOM


def proportional_counts_oracle(node_count, eighths):
    """Independent route to the expected counts: float cumulative boundaries."""
    bounds = []
    cumulative = 0
    for share in eighths:
        cumulative += share
        bounds.append(math.floor(cumulative / 8 * node_count + 0.5))
    counts = []
    previous = 0
    for b in bounds:
        counts.append(b - previous)
        previous = b
    return counts


def test_group_parsing_and_labels():
    group = ProportionGroup.parse("3:1:2:2")
    assert (group.defector, group.cooperator, group.tit_for_tat, group.random) == (3, 1, 2, 2)
    assert group.label == "3:1:2:2"
    degree = DegreeGroup.parse("C,T,D")
    assert (degree.top, degree.middle, degree.bottom) == (C, T, D)
    assert degree.label == "C,T,D"


def test_group_validation():
    with pytest.raises(ConfigError):
        ProportionGroup.parse("3:1:2")  # wrong arity
    with pytest.raises(ConfigError):
        ProportionGroup(3, 3, 3, 3)  # does not sum to 8
    with pytest.raises(ConfigError):
        DegreeGroup.parse("C,C,D")  # not a permutation


def test_builtin_group_tables():
    assert [g.label for g in EXPERIMENT1_GROUPS] == [
        "2:2:2:2",
        "3:1:2:2",
        "3:2:1:2",
        "2:3:1:2",
        "1:3:2:2",
        "2:1:3:2",
        "1:2:3:2",
    ]
    assert all(g.random == 2 for g in EXPERIMENT1_GROUPS)
    assert [g.label for g in EXPERIMENT2_GROUPS] == [
        "D,C,T",
        "D,T,C",
        "C,D,T",
        "C,T,D",
        "T,C,D",
        "T,D,C",
    ]


def test_exact_split_for_divisible_count():
    assignment = assign_proportional(8, ProportionGroup.parse("2:2:2:2"), random.Random(1))
    counts = Counter(assignment)
    assert counts == {D: 2, C: 2, T: 2, R: 2}


def test_facebook_sized_split_matches_boundary_oracle():
    # cumulative round-half-up boundaries at n=4039 for 3:1:2:2 are
    # 1515 (from 1514.625), 2020 (from 2019.5), 3029 (from 3029.25), 4039
    expected = proportional_counts_oracle(4039, (3, 1, 2, 2))
    assert expected == [1515, 505, 1009, 1010]
    assignment = assign_proportional(4039, ProportionGroup.parse("3:1:2:2"), random.Random(3))
    counts = Counter(assignment)
    assert [counts[D], counts[C], counts[T], counts[R]] == expected


def test_split_counts_match_oracle_across_sizes_and_groups():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(4, 5000)
        group = rng.choice(EXPERIMENT1_GROUPS)
        eighths = (group.defector, group.cooperator, group.tit_for_tat, group.random)
        assignment = assign_proportional(n, group, random.Random(rng.randrange(10**9)))
        counts = Counter(assignment)
        expected = proportional_counts_oracle(n, eighths)
        assert [counts[D], counts[C], counts[T], counts[R]] == expected
        assert sum(expected) == n
        for kind_count, share in zip(expected, eighths):
            assert abs(kind_count - share / 8 * n) <= 1


def test_proportional_assignment_deterministic_per_seed():
    group = ProportionGroup.parse("1:3:2:2")
    a = assign_proportional(100, group, random.Random(42))
    b = assign_proportional(100, group, random.Random(42))
    c = assign_proportional(100, group, random.Random(43))
    assert a == b
    assert a != c


def test_proportional_single_kind_mix_on_tiny_graph():
    assignment = assign_proportional(2, ProportionGroup.parse("0:8:0:0"), random.Random(1))
    assert assignment == [C, C]


def test_degree_thirds_exact_for_nine_nodes():
    g = random_graph(9, 3.0, seed=5)
    group = DegreeGroup.parse("D,C,T")
    with pytest.raises(ConfigError):
        assign_by_degree(g, group, random.Random(1))  # below the 12-node minimum


def test_degree_third_boundaries():
    # n=10: boundaries 10/3 and 20/3, rounded half up, are 3 and 7 -> 3/4/3
    g = random_graph(10, 3.0, seed=6)
    ranked = degree_ranked_nodes(g)
    b1 = math.floor(10 / 3 + 0.5)
    b2 = math.floor(20 / 3 + 0.5)
    assert (b1, b2) == (3, 7)
    assert len(ranked[:b1]) == 3 and len(ranked[b1:b2]) == 4 and len(ranked[b2:]) == 3


# n mod 3 = 0, 1, 2: each rounds the cuts its own way. 30's thirds of 10
# round their quarter, 2.5 Random agents, half up to 3.
@pytest.mark.parametrize("n", [30, 33, 34, 35])
def test_degree_assignment_structure(n):
    g = random_graph(n, 4.0, seed=7)
    group = DegreeGroup.parse("C,T,D")
    assignment = assign_by_degree(g, group, random.Random(9))
    ranked = degree_ranked_nodes(g)
    assert g.node_count == n
    b1 = math.floor(n / 3 + 0.5)
    b2 = math.floor(2 * n / 3 + 0.5)
    for third, kind in zip((ranked[:b1], ranked[b1:b2], ranked[b2:]), (C, T, D)):
        random_count = sum(assignment[v] == R for v in third)
        assert random_count == math.floor(0.25 * len(third) + 0.5)
        assert all(assignment[v] == kind for v in third if assignment[v] != R)


def test_degree_assignment_deterministic_per_seed():
    g = random_graph(40, 4.0, seed=8)
    group = DegreeGroup.parse("T,D,C")
    assert assign_by_degree(g, group, random.Random(2)) == assign_by_degree(g, group, random.Random(2))


def test_degrees_are_ranked_once_per_graph(monkeypatch):
    g = random_graph(60, 4.0, seed=11)
    by_degree = g.degrees()
    fresh = sorted(range(g.node_count), key=lambda v: (-by_degree[v], v))
    calls = []
    degrees = Graph.degrees

    def counting(graph):
        calls.append(graph)
        return degrees(graph)

    monkeypatch.setattr(Graph, "degrees", counting)
    group = DegreeGroup.parse("D,C,T")
    assert assign_by_degree(g, group, random.Random(3)) == assign_by_degree(g, group, random.Random(3))
    assert calls == [g]
    ranked = degree_ranked_nodes(g)
    assert ranked == fresh
    ranked.reverse()  # a caller's copy: the next call still gets the ranking
    assert degree_ranked_nodes(g) == fresh
    assert calls == [g]


@pytest.fixture
def sampled(monkeypatch):
    """The (m, k, by_pool) of each pd_sample call of the compiled kernel.
    Skips only where no C compiler exists; anywhere else it must load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    kernel, reason = _kernel.load()
    assert kernel is not None, reason
    calls = []

    def counting(out, m, k, by_pool, scratch, mt):
        calls.append((m, k, by_pool))
        kernel.pd_sample(out, m, k, by_pool, scratch, mt)

    monkeypatch.setattr(_kernel, "load", lambda: (SimpleNamespace(pd_sample=counting), None))
    return calls


# (m, k, pool route): k = 0, k <= 5, k = 6 and k = m, and m at CPython's
# setsize = 21 + 4 ** ceil(log(3k, 4)) (k > 5) and one above it.
SAMPLE_CASES = [
    (0, 0, True), (21, 0, True), (22, 0, False),
    (1, 1, True), (21, 5, True), (22, 5, False), (300, 3, False),
    (85, 6, True), (86, 6, False), (1045, 337, True), (1046, 337, False),
    (30, 30, True), (1300, 1300, True),
]


@pytest.mark.parametrize("index", [623, 624], ids=["index-623", "index-624"])
@pytest.mark.parametrize("m, k, by_pool", SAMPLE_CASES)
def test_kernel_samples_draw_as_random_sample(sampled, m, k, by_pool, index):
    from pdnetsim.experiments import _sample_positions

    # The third pair carries a pending gauss_next, which the write-back keeps.
    for seed, pending in ((3, False), (2**40 + 1, False), (5, True)):
        kernel_rng, python_rng = random.Random(seed), random.Random(seed)
        for rng in (kernel_rng, python_rng):
            if pending:
                rng.gauss(0, 1)  # two random() draws: four words
            rng.getrandbits(32 * (index - 4 * pending))  # the generator's next output is word `index` of its block
            assert rng.getstate()[1][624] == index
        assert _sample_positions([(m, k)], kernel_rng) == [python_rng.sample(range(m), k)]
        assert kernel_rng.getstate() == python_rng.getstate()
        assert (kernel_rng.getstate()[2] is not None) == pending
    assert sampled == [(m, k, by_pool)] * 3


@pytest.mark.parametrize("n, routes", [(1025, [True, False, True]), (12, [True] * 3)], ids=["1025", "12"])
def test_degree_assignment_draws_alike_on_the_kernel_and_in_python(sampled, monkeypatch, n, routes):
    # Thirds of 342 nodes take the pool route and of 341 the set route.
    g = scale_free_graph(n, 3, seed=n)
    drawn = {}
    for path in ("kernel", "python"):
        if path == "python":
            monkeypatch.setattr(_kernel, "load", lambda: (None, "forced"))
        rngs = [random.Random(seed) for seed in range(5)]
        assignments = [assign_by_degree(g, group, rng) for group, rng in zip(EXPERIMENT2_GROUPS, rngs)]
        drawn[path] = assignments, [rng.getstate() for rng in rngs]
    assert drawn["kernel"] == drawn["python"]
    assert [by_pool for _, _, by_pool in sampled] == routes * 5


def test_a_random_subclass_that_draws_otherwise_takes_the_python_samples(sampled):
    class Counting(random.Random):
        draws = 0

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    g = scale_free_graph(200, 3, seed=4)
    rng = Counting(5)
    assignment = assign_by_degree(g, EXPERIMENT2_GROUPS[0], rng)
    assert rng.draws >= 50 and sampled == []
    assert assignment == assign_by_degree(g, EXPERIMENT2_GROUPS[0], random.Random(5))


OUT_OF_MEMORY = """
import random, resource
from pdnetsim import _kernel
from pdnetsim.experiments import _sample_positions

assert _kernel.load()[0] is not None, _kernel.load()[1]  # compiled, if need be, before the limit
rng = random.Random(7)
state = rng.getstate()
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
try:
    _sample_positions([(2**31, 0)], rng)  # the set route's 16 GiB scratch
except MemoryError:
    print("MemoryError")
assert rng.getstate() == state
"""


def test_an_out_of_memory_sample_raises_memory_error_before_any_draw():
    # In a process of its own under a 1 GiB address-space limit, where
    # allocating pd_sample's scratch fails before the kernel is called, so
    # the generator is left as it was.
    import subprocess
    import sys

    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    kernel, reason = _kernel.load()
    assert kernel is not None, reason
    env = {key: value for key, value in os.environ.items() if key != "LD_PRELOAD"}  # a sanitizer reserves more
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "MemoryError\n"


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "net", "group", "bank", 0, "run") == derive_seed(
        42, "net", "group", "bank", 0, "run"
    )
    # frozen value: the derivation is part of the reproducibility contract
    assert derive_seed(42, "x") == 2929974731332110118
    seen = {derive_seed(1, n, g, b, r, role)
            for n in ("a", "b", "c")
            for g in ("g1", "g2")
            for b in ("0", "10000", "inf")
            for r in range(5)
            for role in ("assign", "run")}
    assert len(seen) == 3 * 2 * 3 * 5 * 2


def _write_edge_file(path, graph):
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


@pytest.fixture
def tiny_networks(tmp_path):
    networks = []
    for i, name in enumerate(("alpha", "beta", "gamma")):
        g = random_graph(16, 3.0, seed=100 + i)
        path = tmp_path / f"{name}.txt"
        _write_edge_file(path, g)
        networks.append(NetworkSpec(name=name, path=str(path), fmt="snap"))
    return tuple(networks)


def _tiny_suite(networks, experiment, replicates=1):
    return SuiteSpec(
        networks=networks,
        experiment=experiment,
        groups=EXPERIMENT1_GROUPS if experiment == 1 else EXPERIMENT2_GROUPS,
        base_seed=7,
        replicates=replicates,
        iterations=8,
        initial_balance=20,
    )


def test_experiment1_suite_row_count(tiny_networks):
    rows = run_suite(_tiny_suite(tiny_networks, 1))
    assert len(rows) == 3 * 7 * 3
    assert all(row.status == "ok" for row in rows)


def test_experiment2_suite_row_count(tiny_networks):
    rows = run_suite(_tiny_suite(tiny_networks, 2))
    assert len(rows) == 3 * 6 * 3
    assert all(row.status == "ok" for row in rows)


def test_suite_rows_deterministic(tiny_networks):
    spec = _tiny_suite(tiny_networks, 1, replicates=2)
    first = run_suite(spec)
    second = run_suite(spec)
    assert [(r.network, r.group, r.bank, r.replicate, r.final_gini, r.converged_at, r.status) for r in first] == [
        (r.network, r.group, r.bank, r.replicate, r.final_gini, r.converged_at, r.status) for r in second
    ]


def test_suite_subseeds_pairwise_distinct(tiny_networks):
    spec = _tiny_suite(tiny_networks, 2, replicates=3)
    tasks = suite_tasks(spec)
    seeds = [t.assign_seed for t in tasks] + [t.cfg.seed for t in tasks]
    assert len(seeds) == len(set(seeds))


def test_suite_isolates_per_run_failures(tiny_networks, tmp_path):
    broken = NetworkSpec(name="broken", path=str(tmp_path / "missing.txt"), fmt="snap")
    spec = SuiteSpec(
        networks=(tiny_networks[0], broken),
        experiment=1,
        groups=EXPERIMENT1_GROUPS[:2],
        base_seed=1,
        replicates=1,
        iterations=5,
        initial_balance=10,
    )
    rows = run_suite(spec)
    by_network = {}
    for row in rows:
        by_network.setdefault(row.network, []).append(row.status)
    assert all(status == "ok" for status in by_network["alpha"])
    assert all(status.startswith("error:") for status in by_network["broken"])


def test_suite_survives_unexpected_exceptions(tiny_networks, monkeypatch):
    from pdnetsim import experiments

    real_run = experiments.run
    spec = _tiny_suite(tiny_networks, 1)
    doomed = suite_tasks(spec)[4].cfg.seed

    def flaky_run(graph, assignment, cfg, iteration_hook=None):
        if cfg.seed == doomed:
            raise RuntimeError("boom")
        return real_run(graph, assignment, cfg, iteration_hook)

    monkeypatch.setattr(experiments, "run", flaky_run)
    rows = run_suite(spec, workers=1)
    assert len(rows) == 3 * 7 * 3
    assert rows[4].status == "error: RuntimeError: boom"
    assert rows[4].final_gini is None
    assert all(row.status == "ok" for i, row in enumerate(rows) if i != 4)


def test_suite_parallel_matches_serial(tiny_networks):
    spec = _tiny_suite(tiny_networks, 1)
    serial = run_suite(spec, workers=1)
    parallel = run_suite(spec, workers=2)
    assert [(r.network, r.group, r.bank, r.replicate, r.final_gini) for r in serial] == [
        (r.network, r.group, r.bank, r.replicate, r.final_gini) for r in parallel
    ]


def _four_replicates(tiny_networks):
    return SuiteSpec(
        networks=tiny_networks[:1],
        experiment=1,
        groups=EXPERIMENT1_GROUPS[:1],
        banks=DEFAULT_BANK_SETTINGS[:1],
        replicates=4,
        iterations=5,
        initial_balance=10,
    )


def _suite_files(spec, runs, workers):
    """The rows of `spec` run on `workers` workers, and its series files by name."""
    runs.mkdir()
    rows = run_suite(spec, series_path_for=lambda *key: str(runs / run_file_name(*key)), workers=workers)
    return rows, {path.name: path.read_bytes() for path in runs.iterdir()}


def test_suite_keeps_its_rows_when_a_worker_dies(tiny_networks, tmp_path, monkeypatch):
    from pdnetsim import experiments

    spec = _four_replicates(tiny_networks)
    serial, serial_files = _suite_files(spec, tmp_path / "serial", 1)
    monkeypatch.setattr(experiments, "execute_task", execute_task_or_die)
    rows, files = _suite_files(spec, tmp_path / "pool", 2)
    assert [row.replicate for row in rows] == [0, 1, 2, 3]
    # Only the task the dead worker was running is lost.
    assert rows[2] == serial[2]._replace(final_gini=None, converged_at=None, status="error: a worker process died: exit code 1")
    assert rows[:2] + rows[3:] == serial[:2] + serial[3:]
    assert all(row.status == "ok" for row in serial)
    lost = run_file_name(*rows[2][:4])
    assert lost not in files
    assert files == {name: data for name, data in serial_files.items() if name != lost}


def test_suite_finishes_when_every_worker_dies(tiny_networks, monkeypatch):
    import signal

    from pdnetsim import experiments

    monkeypatch.setattr(experiments, "execute_task", lambda task: os.kill(os.getpid(), signal.SIGKILL))
    seen = []
    rows = run_suite(_four_replicates(tiny_networks), workers=2, progress=lambda done, total, row: seen.append(done))
    assert seen == [1, 2, 3, 4]
    assert [row.replicate for row in rows] == [0, 1, 2, 3]
    assert all(row.status == f"error: a worker process died: signal {int(signal.SIGKILL)}" for row in rows)
    assert all(row.final_gini is None and row.converged_at is None for row in rows)


def test_a_task_dealt_to_a_worker_already_gone_runs_on_another(tiny_networks, tmp_path, monkeypatch):
    import multiprocessing.context

    from pdnetsim import suite

    spec = _four_replicates(tiny_networks)
    serial, serial_files = _suite_files(spec, tmp_path / "serial", 1)
    first = []  # the first worker, once it has started
    real_work, real_start = suite._work, multiprocessing.context.ForkProcess.start

    def work_unless_first(*args):
        if first:  # as forked from a parent that has started a worker already
            real_work(*args)

    def start_and_let_the_first_leave(process):
        real_start(process)
        if not first:
            process.join(60)  # it left before any task, so a write to its task pipe breaks
            first.append(process)

    monkeypatch.setattr(suite, "_work", work_unless_first)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_and_let_the_first_leave)
    rows, files = _suite_files(spec, tmp_path / "pool", 2)
    assert first[0].exitcode == 0
    assert rows == serial and files == serial_files


@pytest.mark.parametrize("workers", [1, 2])
def test_a_suite_reads_a_graph_file_that_changed_since_the_last_suite(tiny_networks, workers):
    spec = _four_replicates(tiny_networks)
    before = run_suite(spec, workers=1)
    _write_edge_file(Path(tiny_networks[0].path), random_graph(16, 3.0, seed=999))
    after = run_suite(spec, workers=workers)
    assert after == run_suite(spec, workers=1)
    assert [row.final_gini for row in after] != [row.final_gini for row in before]


def test_a_worker_that_dies_before_reading_its_task_loses_only_that_row(tiny_networks, tmp_path, monkeypatch):
    # The task waits unread in the dead worker's connection, so the parent
    # reads a reset, not EOF: still only that worker's row is lost.
    from pdnetsim import suite

    spec = _four_replicates(tiny_networks)
    serial = run_suite(spec, workers=1)
    real_work = suite._work

    def work_unless_first_dealt(tasks, conn, parent_ends):
        conn.poll(60)
        try:
            open(tmp_path / "first", "x").close()
        except FileExistsError:
            real_work(tasks, conn, parent_ends)
        else:
            os._exit(1)

    monkeypatch.setattr(suite, "_work", work_unless_first_dealt)
    rows = run_suite(spec, workers=2)
    lost = [i for i, row in enumerate(rows) if row != serial[i]]
    assert len(lost) == 1 and lost[0] in (0, 1)
    assert rows[lost[0]].status == "error: a worker process died: exit code 1"


KILLED_PARENT = """
import os, sys, time
from pdnetsim import experiments
from pdnetsim.experiments import EXPERIMENT1_GROUPS, DEFAULT_BANK_SETTINGS, NetworkSpec, SuiteSpec, run_suite

graph, marks, stall = sys.argv[1], sys.argv[2], sys.argv[3] == "stall"
real_task = experiments.execute_task


def marked_task(task):
    row = real_task(task)
    open(os.path.join(marks, f"{os.getpid()}.{task.replicate}"), "w").close()
    time.sleep(task.replicate if stall else 1)
    return row


def progress(done, total, row):
    if stall:  # the parent hangs with the next row unread
        open(os.path.join(marks, "stalled"), "w").close()
        time.sleep(60)


experiments.execute_task = marked_task
spec = SuiteSpec(networks=(NetworkSpec("g", graph, "snap"),), experiment=1, groups=EXPERIMENT1_GROUPS[:1],
                 banks=DEFAULT_BANK_SETTINGS[:1], replicates=4, iterations=5, initial_balance=10)
run_suite(spec, workers=2, progress=progress)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="tells a zombie from a live process through /proc")
@pytest.mark.parametrize("stall", [False, True], ids=["workers-busy", "row-unread"])
def test_a_killed_suite_parent_leaves_no_worker_and_no_traceback(tiny_networks, tmp_path, stall):
    # Each worker has closed every parent end it inherited, so the parent's
    # death reaches it as a broken pipe, or a reset when its row went
    # unread, and it exits quietly instead of waiting forever.
    import signal
    import subprocess
    import sys
    import time

    marks = tmp_path / "marks"
    marks.mkdir()
    want = {"0", "1", "stalled"} if stall else {"0", "1"}
    with open(tmp_path / "stderr.txt", "wb") as stderr:
        parent = subprocess.Popen(
            [sys.executable, "-c", KILLED_PARENT, tiny_networks[0].path, str(marks), "stall" if stall else "busy"],
            stderr=stderr,
        )
    try:
        deadline = time.monotonic() + 60
        while not want <= {path.suffix.lstrip(".") or path.name for path in marks.iterdir()}:
            assert parent.poll() is None and time.monotonic() < deadline, "the suite never had both workers busy"
            time.sleep(0.02)
        if stall:
            time.sleep(1.5)  # replicate 1's row is sent while the parent hangs
    finally:
        parent.kill()
        parent.wait()
    workers = {int(path.stem) for path in marks.iterdir() if path.suffix}
    assert len(workers) == 2

    def alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 30
    while any(map(alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if alive(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []
    assert "Traceback" not in (tmp_path / "stderr.txt").read_text()


def test_a_suite_left_through_an_exception_stops_its_busy_worker(tiny_networks, monkeypatch):
    # Replicate 0's row comes back at once and its progress call raises,
    # while the other worker sleeps in replicate 1: the parent terminates
    # that worker instead of waiting out its task.
    import multiprocessing
    import time

    from pdnetsim import experiments

    real_task = experiments.execute_task

    def slow_second(task):
        if task.replicate == 1:
            time.sleep(30)
        return real_task(task)

    def progress(done, total, row):
        raise RuntimeError("stop")

    monkeypatch.setattr(experiments, "execute_task", slow_second)  # before the fork, so the workers inherit it
    spec = SuiteSpec(
        networks=tiny_networks[:1],
        experiment=1,
        groups=EXPERIMENT1_GROUPS[:1],
        banks=DEFAULT_BANK_SETTINGS[:1],
        replicates=2,
        iterations=5,
        initial_balance=10,
    )
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="stop") as raised:  # kept: its traceback holds run_suite's frame
        run_suite(spec, workers=2, progress=progress)
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []


def test_suite_pool_is_capped_at_the_task_count(tiny_networks, monkeypatch):
    import multiprocessing.context

    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    spec = SuiteSpec(
        networks=tiny_networks[:1],
        experiment=1,
        groups=EXPERIMENT1_GROUPS[:2],
        banks=DEFAULT_BANK_SETTINGS[:1],
        replicates=1,
        iterations=3,
        initial_balance=10,
    )
    rows = run_suite(spec, workers=64)
    assert len(started) == 2
    assert [process.exitcode for process in started] == [0, 0]
    assert [row.status for row in rows] == ["ok", "ok"]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 CPUs")
def test_each_worker_runs_on_its_own_share_of_the_cpus(tiny_networks, tmp_path, monkeypatch):
    from pdnetsim import experiments

    real_task = experiments.execute_task

    def record_cpus(task):
        (tmp_path / f"{os.getpid()}.cpus").write_text(" ".join(map(str, sorted(os.sched_getaffinity(0)))))
        return real_task(task)

    monkeypatch.setattr(experiments, "execute_task", record_cpus)
    cpus = sorted(os.sched_getaffinity(0))
    rows = run_suite(_four_replicates(tiny_networks), workers=2)
    held = sorted(path.read_text() for path in tmp_path.glob("*.cpus"))
    assert held == sorted(" ".join(map(str, share)) for share in (cpus[0::2], cpus[1::2]))
    assert [row.status for row in rows] == ["ok"] * 4


@pytest.mark.parametrize(
    "mask, workers, shares",
    [
        (range(8), 2, [[0, 2, 4, 6], [1, 3, 5, 7]]),
        ({0, 1}, 2, [[0], [1]]),
        ({0, 1}, 3, [[0], [1], [0]]),
        ({3, 5, 9}, 2, [[3, 9], [5]]),
    ],
    ids=["8-cpus-2-workers", "2-cpus-2-workers", "2-cpus-3-workers", "3-cpus-2-workers"],
)
def test_worker_k_is_pinned_to_every_nth_cpu_of_the_mask_from_the_kth(tiny_networks, monkeypatch, mask, workers, shares):
    import multiprocessing.context

    started, pins = [], []
    real_start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append((pid, list(cpus))), raising=False)
    rows = run_suite(_four_replicates(tiny_networks), workers=workers)
    assert pins == [(process.pid, share) for process, share in zip(started, shares)]
    assert len(started) == workers
    assert [row.status for row in rows] == ["ok"] * 4


@pytest.mark.parametrize("pin", ["EINVAL", "ESRCH", "absent"])
def test_a_suite_whose_workers_cannot_be_pinned_writes_what_one_process_writes(tiny_networks, tmp_path, monkeypatch, pin):
    import errno

    calls = []

    def refuse(pid, cpus):
        calls.append(pid)
        raise OSError(getattr(errno, pin), os.strerror(getattr(errno, pin)))

    spec = _four_replicates(tiny_networks)
    serial, serial_files = _suite_files(spec, tmp_path / "serial", 1)
    if pin == "absent":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    rows, files = _suite_files(spec, tmp_path / "pool", 2)
    assert rows == serial and files == serial_files
    assert len(calls) == (0 if pin == "absent" else 2)


@pytest.mark.parametrize("experiment", [1, 2])
def test_any_suite_row_can_be_rebuilt_through_the_api(tiny_networks, tmp_path, experiment):
    spec = _tiny_suite(tiny_networks, experiment, replicates=2)
    runs = tmp_path / "runs"
    runs.mkdir()

    def series_path_for(*key):
        return str(runs / run_file_name(*key))

    assert all(row.status == "ok" for row in run_suite(spec, series_path_for=series_path_for))
    task = next(
        t
        for t in suite_tasks(spec, series_path_for)
        if (t.network.name, t.group, t.bank.label, t.replicate) == ("beta", spec.groups[3], "10000", 1)
    )
    graph = load_graph(task.network.path, task.network.fmt)
    rng = random.Random(task.assign_seed)
    if experiment == 1:
        assignment = assign_proportional(graph.node_count, task.group, rng)
    else:
        assignment = assign_by_degree(graph, task.group, rng)
    rebuilt = tmp_path / "rebuilt.csv"
    write_gini_series_csv(str(rebuilt), run(graph, assignment, task.cfg))
    assert rebuilt.read_bytes() == Path(task.series_path).read_bytes()


def test_suite_spec_validation(tiny_networks):
    with pytest.raises(ConfigError):
        SuiteSpec(networks=tiny_networks, experiment=3, groups=EXPERIMENT1_GROUPS)
    with pytest.raises(ConfigError):
        SuiteSpec(networks=tiny_networks, experiment=2, groups=EXPERIMENT1_GROUPS)
    with pytest.raises(ConfigError):
        SuiteSpec(networks=(), experiment=1, groups=EXPERIMENT1_GROUPS)
    with pytest.raises(ConfigError, match="iterations"):
        SuiteSpec(networks=tiny_networks, experiment=1, groups=EXPERIMENT1_GROUPS, iterations=0)
    with pytest.raises(ConfigError, match="unknown graph format"):
        NetworkSpec(name="x", path="x.txt", fmt="gml")


@pytest.mark.parametrize("field", ["replicates", "base_seed"])
@pytest.mark.parametrize("value", [1.5, "2", None])
def test_suite_spec_rejects_a_non_integer_replicate_count_or_base_seed(tiny_networks, field, value):
    # Caught when the spec is built: 1.5 replicates would fail only inside
    # run_suite, and a base seed of 1.5 would run the suite of base seed 1.
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
        SuiteSpec(networks=tiny_networks, experiment=1, groups=EXPERIMENT1_GROUPS, **{field: value})


@pytest.mark.parametrize(
    "record, settings, message",
    [
        ("SimConfig", {"payoff": None}, "payoff must be a PayoffParams, got None"),
        ("SimConfig", {"payoff": (1, 2, 3)}, "payoff must be a PayoffParams, got (1, 2, 3)"),
        ("SuiteSpec", {"payoff": None}, "payoff must be a PayoffParams, got None"),
        ("SuiteSpec", {"banks": (0, None)}, "each bank setting must be a BankSetting, got 0"),
        ("SuiteSpec", {"networks": ("g",)}, "each network must be a NetworkSpec, got 'g'"),
    ],
    ids=["config-payoff-none", "config-payoff-tuple", "suite-payoff-none", "suite-bank-none", "suite-network-name"],
)
def test_records_refuse_a_wrongly_typed_nested_record(tiny_networks, record, settings, message):
    # Refused when the record is built, naming the field: these used to
    # construct and fail later with an AttributeError in run or run_suite.
    with pytest.raises(ConfigError) as raised:
        if record == "SimConfig":
            SimConfig(**settings)
        else:
            SuiteSpec(**{"networks": tiny_networks, "experiment": 1, "groups": EXPERIMENT1_GROUPS, **settings})
    assert str(raised.value) == message


def _one_run_suite(networks, **settings):
    return SuiteSpec(
        networks=networks[:1],
        groups=EXPERIMENT1_GROUPS[:1],
        banks=DEFAULT_BANK_SETTINGS[:1],
        **{"experiment": 1, "iterations": 3, **settings},
    )


# One valid build of every record that checks its fields: the generated
# test below swaps one field at a time for a probe.
_VALID_BUILDS = {
    PayoffParams: {},
    SimConfig: {},
    ProportionGroup: dict(defector=2, cooperator=2, tit_for_tat=2, random=2),
    DegreeGroup: dict(top=C, middle=T, bottom=D),
    BankSetting: dict(label="5", bank=5),
    NetworkSpec: dict(name="n", path="n.txt", fmt="snap"),
    SuiteSpec: dict(
        networks=(NetworkSpec("n", "n.txt", "snap"),),
        experiment=1,
        groups=EXPERIMENT1_GROUPS[:1],
        banks=DEFAULT_BANK_SETTINGS[:1],
        iterations=3,
    ),
}
_PROBES = (True, 1.0, None, "1", -1, object())


def _table_refuses(check, value) -> bool:
    """Whether `check` refuses `value`, worked out from the table's entry
    alone, apart from `errors.require`."""
    if value is None:
        return not check.none_ok
    if check.kind is int:
        return (
            type(value) is not int
            or (check.least is not None and value < check.least)
            or (check.most is not None and value > check.most)
        )
    if check.kind is PATH:
        return not isinstance(value, (str, os.PathLike))
    if isinstance(check.kind, tuple):
        return value not in check.kind
    return not isinstance(value, check.kind)


# Generated from the records' check tables: each checked field, and the items
# of a tuple field. The two integer arguments that are no record's field
# follow, with the check each makes of its argument.
_CHECKED = [
    *((cls.__name__, field, False) for cls in _VALID_BUILDS for field in cls._checks),
    *((cls.__name__, field, True) for cls in _VALID_BUILDS for field, check in cls._checks.items() if check.each),
    ("run_suite", "workers", False),
    ("assign_proportional", "node_count", False),
]


@pytest.mark.parametrize(
    "where, field, item", _CHECKED, ids=[f"{w}-{f}-item" if item else f"{w}-{f}" for w, f, item in _CHECKED]
)
def test_a_bool_is_rejected_where_an_integer_is_expected(tiny_networks, where, field, item):
    # True is an int to Python and would play as 1, which each integer
    # setting takes; a bool in a config is a mistake, so it is refused. So
    # are 1.0, None, "1", -1 and object() wherever the field's check refuses
    # them, with a ConfigError that names the field. Where the check takes
    # a probe, a check across fields may still refuse it, but only with a
    # ConfigError. A tuple field must be a tuple, and its items are probed
    # too, as its one item.
    records = {cls.__name__: cls for cls in _VALID_BUILDS}
    if where in records:
        cls = records[where]
        check, valid = cls._checks[field], _VALID_BUILDS[cls]
        cls(**valid)

        def build(value):
            return cls(**{**valid, field: (value,) if item else value})

    else:
        check, valid = (Check("workers", int, 1) if where == "run_suite" else Check("node_count", int)), {}
        build = {
            "run_suite": lambda value: run_suite(_one_run_suite(tiny_networks), workers=value),
            "assign_proportional": lambda value: assign_proportional(value, EXPERIMENT1_GROUPS[0], random.Random(0)),
        }[where]
        build(1)
    for probe in _PROBES:
        if check.each and not item:  # the tuple itself
            label, refused = field, True
        else:
            label, refused = check.label.format_map({**valid, field: probe}), _table_refuses(check, probe)
        if refused:
            with pytest.raises(ConfigError) as raised:
                build(probe)
            message = str(raised.value)
            assert message.startswith(f"{label} must be ") and message.endswith(f", got {probe!r}"), message
        else:
            try:
                build(probe)
            except ConfigError:
                pass


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DegreeGroup(True, False, 2), "top must be an AgentKind, got True"),
        (lambda: DegreeGroup(1.0, 0.0, 2.0), "top must be an AgentKind, got 1.0"),
        (lambda: DegreeGroup(D, C, 2), "bottom must be an AgentKind, got 2"),
        (lambda: NetworkSpec(7, "g.txt", "snap"), "network name must be a str, got 7"),
        (lambda: NetworkSpec(None, "g.txt", "snap"), "network name must be a str, got None"),
        (lambda: BankSetting(7, 0), "bank label must be a str, got 7"),
        (lambda: BankSetting("b", True), "finite bank balance must be a non-negative integer, got True"),
        (lambda: BankSetting("b", 1.5), "finite bank balance must be a non-negative integer, got 1.5"),
        (lambda: BankSetting("b", -5), "finite bank balance must be a non-negative integer, got -5"),
    ],
    ids=[
        "degree-bools",
        "degree-floats",
        "degree-int",
        "network-name-7",
        "network-name-none",
        "bank-label-7",
        "bank-true",
        "bank-float",
        "bank-negative",
    ],
)
def test_records_that_took_any_value_refuse_a_wrong_one(build, message):
    # Each of these used to construct. The degree group played True, False
    # and 2 as Defector, Cooperator and Tit-for-Tat, a network named 7 got
    # the seeds of one named "7", and a bank setting went unchecked until
    # a suite was built from it.
    with pytest.raises(ConfigError) as raised:
        build()
    assert str(raised.value) == message


def test_a_proportional_assignment_of_no_node_keeps_its_message():
    with pytest.raises(ConfigError, match=r"^proportional assignment needs at least 1 node, got 0$"):
        assign_proportional(0, EXPERIMENT1_GROUPS[0], random.Random(0))


def test_a_suite_of_more_runs_than_the_bound_is_a_config_error(tiny_networks):
    # Every task is built before the first run, so a mistyped replicate
    # count would fill memory; the spec refuses it instead.
    from pdnetsim.experiments import MAX_SUITE_RUNS

    per_replicate = len(tiny_networks) * len(EXPERIMENT1_GROUPS) * len(DEFAULT_BANK_SETTINGS)
    fitting = MAX_SUITE_RUNS // per_replicate
    SuiteSpec(networks=tiny_networks, experiment=1, groups=EXPERIMENT1_GROUPS, replicates=fitting)
    for replicates in (fitting + 1, 10**25):
        runs = per_replicate * replicates
        with pytest.raises(ConfigError, match=f"suite has {runs} runs .* more than {MAX_SUITE_RUNS}"):
            SuiteSpec(networks=tiny_networks, experiment=1, groups=EXPERIMENT1_GROUPS, replicates=replicates)


def test_a_run_of_more_passes_than_the_bound_is_a_config_error(tiny_networks):
    # A run keeps each pass's Gini and stats, about 300 bytes, until it
    # returns; a suite shares SimConfig's check, so both refuse the same.
    from pdnetsim.engine import MAX_ITERATIONS

    suite = dict(networks=tiny_networks, experiment=1, groups=EXPERIMENT1_GROUPS)
    assert SimConfig(iterations=MAX_ITERATIONS).iterations == SuiteSpec(**suite, iterations=MAX_ITERATIONS).iterations
    for iterations in (MAX_ITERATIONS + 1, 10**25):
        message = f"^iterations must be a positive integer no greater than {MAX_ITERATIONS}, got {iterations}$"
        with pytest.raises(ConfigError, match=message):
            SimConfig(iterations=iterations)
        with pytest.raises(ConfigError, match=message):
            SuiteSpec(**suite, iterations=iterations)


@pytest.mark.parametrize("experiment", [1, 2])
def test_suite_tasks_pickle_and_carry_the_spec_settings(tiny_networks, experiment):
    # Workers inherit the tasks through the fork and pickle only the rows
    # back, but a task is still a plain record: it pickles and compares.
    spec = SuiteSpec(
        networks=tiny_networks[:2],
        experiment=experiment,
        groups=(EXPERIMENT1_GROUPS if experiment == 1 else EXPERIMENT2_GROUPS)[:2],
        base_seed=11,
        replicates=2,
        iterations=9,
        initial_balance=30,
        payoff=PayoffParams(2, 3, 4),
        balance_semantics=SNAPSHOT,
    )
    assert pickle.loads(pickle.dumps(spec)) == spec
    tasks = suite_tasks(spec, lambda *key: "/".join(map(str, key)))
    assert len(tasks) == 2 * 2 * 3 * 2
    for task in tasks:
        assert pickle.loads(pickle.dumps(task)) == task
        key = (task.network.name, task.group.label, task.bank.label, task.replicate)
        run_seed = derive_seed(11, *key, "run")
        assert task.cfg == SimConfig(9, 30, PayoffParams(2, 3, 4), task.bank.bank, run_seed, SNAPSHOT)
        assert task.assign_seed == derive_seed(11, *key, "assign")


def test_records_compare_by_value_and_take_their_fields_by_position_or_keyword(tiny_networks):
    payoff = PayoffParams(2, 3, 4)
    stats = IterationStats(1, 2, 3, 4, None, 5)
    cfg = SimConfig(10, 20, payoff, 5, 7, SNAPSHOT)
    network = tiny_networks[0]
    cases = [
        (PayoffParams, dict(coop_reward=2, defect_penalty=3, betrayal_transfer=4)),
        (
            SimConfig,
            dict(iterations=10, initial_balance=20, payoff=payoff, bank=5, seed=7, balance_semantics=SNAPSHOT),
        ),
        (
            IterationStats,
            dict(games_played=1, games_skipped=2, bank_inflow=3, bank_outflow=4, bank_balance=None, total_balance=5),
        ),
        (
            RunResult,
            dict(gini_series=[0.5], converged_at=None, final_balances=[7, 3], final_bank=None, iteration_stats=[stats]),
        ),
        (ProportionGroup, dict(defector=3, cooperator=1, tit_for_tat=2, random=2)),
        (DegreeGroup, dict(top=C, middle=T, bottom=D)),
        (BankSetting, dict(label="5", bank=5)),
        (NetworkSpec, dict(name="n", path="n.txt", fmt="snap")),
        (
            SuiteSpec,
            dict(
                networks=(network,),
                experiment=1,
                groups=EXPERIMENT1_GROUPS,
                banks=DEFAULT_BANK_SETTINGS,
                base_seed=3,
                replicates=2,
                iterations=10,
                initial_balance=20,
                payoff=payoff,
                balance_semantics=SNAPSHOT,
            ),
        ),
        (
            RunTask,
            dict(
                network=network,
                group=EXPERIMENT1_GROUPS[0],
                bank=DEFAULT_BANK_SETTINGS[0],
                replicate=1,
                assign_seed=9,
                cfg=cfg,
                series_path=None,
            ),
        ),
        (
            SuiteRow,
            dict(network="n", group="2:2:2:2", bank="0", replicate=1, final_gini=0.5, converged_at=None, status="ok"),
        ),
    ]
    for cls, fields in cases:
        by_keyword = cls(**fields)
        assert by_keyword == cls(*fields.values())
        assert {name: getattr(by_keyword, name) for name in fields} == fields
    assert PayoffParams() == PayoffParams(1, 2, 3) != payoff
    same = SimConfig(10, 20, PayoffParams(2, 3, 4), 5, 7, SNAPSHOT)
    assert cfg == same != SimConfig(10, 20, payoff, 5, 8, SNAPSHOT)
    assert cfg != SimConfig(10, 20, payoff, None, 7, SNAPSHOT)
    assert hash(cfg) == hash(same)
    with pytest.raises(TypeError):  # both engine paths pass the stats
        RunResult([0.5], None, [7, 3], None)
    with pytest.raises(AttributeError):
        cfg.seed = 8
    with pytest.raises(AttributeError):
        EXPERIMENT1_GROUPS[0].defector = 8


def test_every_record_holds_its_fields_and_nothing_else():
    # A slot outside _fields would be a second copy of some field, which
    # neither equality nor pickling sees.
    records = {PayoffParams, SimConfig, RunResult, ProportionGroup, DegreeGroup, BankSetting, NetworkSpec, SuiteSpec}
    assert set(_Record.__subclasses__()) == records
    for cls in records:
        assert cls.__slots__ == cls._fields, cls.__name__
    # Each checks every field, by its table, and is probed by the generated
    # test; RunResult, the engine's output, which only run builds, has none.
    assert set(_VALID_BUILDS) == records - {RunResult} and RunResult._checks == {}
    for cls in _VALID_BUILDS:
        assert tuple(cls._checks) == cls._fields, cls.__name__


# The defaults the records' arguments have always had; every other field
# must be given.
_PINNED_DEFAULTS = {
    PayoffParams: dict(coop_reward=1, defect_penalty=2, betrayal_transfer=3),
    SimConfig: dict(
        iterations=1000, initial_balance=100, payoff=PayoffParams(1, 2, 3), bank=0, seed=0, balance_semantics=LIVE
    ),
    SuiteSpec: dict(
        banks=DEFAULT_BANK_SETTINGS,
        base_seed=0,
        replicates=5,
        iterations=1000,
        initial_balance=100,
        payoff=PayoffParams(1, 2, 3),
        balance_semantics=LIVE,
    ),
}
_RECORD_BUILDS = {
    **_VALID_BUILDS,
    RunResult: dict(gini_series=[0.5], converged_at=None, final_balances=[7, 3], final_bank=None, iteration_stats=[]),
}


@pytest.mark.parametrize("cls", _RECORD_BUILDS, ids=lambda cls: cls.__name__)
def test_records_bind_their_arguments_from_their_fields_and_checks(cls):
    # _Record.__init__ binds the arguments as a signature would, by position
    # or keyword, and fills each missing field from its check's default. No
    # record names its fields in an __init__ of its own.
    code = cls.__init__.__code__
    assert (code.co_argcount, code.co_kwonlyargcount) == (1, 0)
    pinned = _PINNED_DEFAULTS.get(cls, {})
    assert {name: check.default for name, check in cls._checks.items() if check.default is not REQUIRED} == pinned
    given = {**pinned, **_RECORD_BUILDS[cls]}
    full = {name: given[name] for name in cls._fields}
    required = {name: value for name, value in full.items() if name not in pinned}
    record = cls(**required)
    assert record == cls(*required.values()) == cls(**required, **pinned) == pickle.loads(pickle.dumps(record))
    assert cls(*full.values()) == cls(**full)
    assert {name: getattr(record, name) for name in pinned} == pinned
    assert repr(record).startswith(f"{cls.__name__}(")
    first = cls._fields[0]
    refused = [
        lambda: cls(*full.values(), full[first]),  # one positional argument too many
        lambda: cls(**full, unknown=1),
        lambda: cls(full[first], **full),  # the first field twice
        *(lambda name=name: cls(**{k: v for k, v in required.items() if k != name}) for name in required),
    ]
    for build in refused:
        with pytest.raises(TypeError):
            build()


def test_a_suite_and_a_bank_setting_take_their_rows_from_simconfig():
    assert SimConfig() == SimConfig(1000, 100, PayoffParams(1, 2, 3), 0, 0, LIVE)
    # A suite takes SimConfig's rows of the settings every run shares, and
    # so their defaults; a bank setting takes its bank check but no default.
    assert all(SuiteSpec._checks[name] is SimConfig._checks[name] for name in SHARED_SETTINGS)
    assert BankSetting._checks["bank"] == SimConfig._checks["bank"]._replace(default=REQUIRED)
    with pytest.raises(TypeError, match="bank"):
        BankSetting("x")


def test_default_bank_settings():
    assert [s.label for s in DEFAULT_BANK_SETTINGS] == ["0", "10000", "inf"]
    assert [s.bank for s in DEFAULT_BANK_SETTINGS] == [0, 10000, None]
