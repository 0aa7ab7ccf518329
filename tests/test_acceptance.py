"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live).

Criteria 1-5 and the performance check are self-contained. Criteria 6-10
replay the two experiment sweeps on the three real benchmark networks and
skip, loudly, when the dataset files are absent (see README 'Datasets').
Stochastic criteria run 5 replicates and compare means.
"""

import os
import random
import textwrap

import pytest

from pdnetsim import (
    Action,
    AgentKind,
    BankSetting,
    EXPERIMENT2_GROUPS,
    NetworkSpec,
    PayoffParams,
    ProportionGroup,
    SimConfig,
    SuiteSpec,
    assign_proportional,
    gini,
    load_graph,
    resolve_game,
    run,
    run_suite,
)
from pdnetsim.cli import main
from pdnetsim.output import read_gini_series_csv, run_file_name

from conftest import dataset_path, gini_oracle, random_graph

BASE_SEED = 20240809
REPLICATES = 5
ITERATIONS = 1000

BANK_0 = BankSetting("0", 0)
BANK_10K = BankSetting("10000", 10000)
BANK_INF = BankSetting("inf", None)


def _workers() -> int:
    """PDNETSIM_TEST_WORKERS, or the CPUs this process may run on, at most 4."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return int(os.environ.get("PDNETSIM_TEST_WORKERS", str(min(4, usable))))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def network_or_skip(criterion: str, name: str) -> NetworkSpec:
    path, fmt = dataset_path(name)
    if not os.path.exists(path):
        print(f"ACCEPTANCE {criterion}: SKIPPED - dataset {name!r} missing at {path}")
        pytest.skip(f"dataset {name!r} not found at {path}; see README 'Datasets'")
    return NetworkSpec(name=name, path=path, fmt=fmt)


def sweep(networks, experiment, groups, banks, series_dir=None):
    spec = SuiteSpec(
        networks=tuple(networks),
        experiment=experiment,
        groups=tuple(groups),
        banks=tuple(banks),
        base_seed=BASE_SEED,
        replicates=REPLICATES,
        iterations=ITERATIONS,
    )
    series_path_for = None
    if series_dir is not None:
        os.makedirs(series_dir, exist_ok=True)

        def series_path_for(network, group, bank, rep):
            return os.path.join(series_dir, run_file_name(network, group, bank, rep))

    rows = run_suite(spec, series_path_for=series_path_for, workers=_workers())
    bad = [row for row in rows if row.status != "ok"]
    assert not bad, f"suite runs failed: {bad[:3]}"
    return rows


def mean(values):
    values = list(values)
    return sum(values) / len(values)


# --- criteria 1 & 2: conservation and non-negativity over randomized runs ----


@pytest.fixture(scope="module")
def randomized_finite_runs():
    graph = random_graph(200, 6.0, seed=424242)
    rng = random.Random(BASE_SEED)
    conservation_failures = []
    negativity_failures = []
    for index in range(50):
        bank_initial = rng.randint(0, 3000)
        cfg = SimConfig(
            iterations=rng.randint(40, 120),
            initial_balance=100,
            payoff=PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5)),
            bank=bank_initial,
            seed=rng.randrange(2**63),
        )
        assignment = [rng.choice(list(AgentKind)) for _ in range(graph.node_count)]
        expected_total = bank_initial + graph.node_count * 100

        def check(iteration, balances, bank_balance, index=index, expected_total=expected_total):
            if bank_balance + sum(balances) != expected_total:
                conservation_failures.append((index, iteration))
            if min(balances) < 0 or bank_balance < 0:
                negativity_failures.append((index, iteration))

        run(graph, assignment, cfg, iteration_hook=check)
    return conservation_failures, negativity_failures


def test_criterion_1_conservation(randomized_finite_runs):
    conservation_failures, _ = randomized_finite_runs
    report(
        "1 (conservation)",
        not conservation_failures,
        f"bank + balances == initial capital after every iteration of 50 runs "
        f"(violations: {conservation_failures[:5]})",
    )


def test_criterion_2_non_negativity(randomized_finite_runs):
    _, negativity_failures = randomized_finite_runs
    report(
        "2 (non-negativity)",
        not negativity_failures,
        f"no node or bank balance went negative across the same 50 runs "
        f"(violations: {negativity_failures[:5]})",
    )


# --- criterion 3: Gini formula vs pairwise oracle ------------------------------


def test_criterion_3_gini_oracle():
    rng = random.Random(987654)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 200)
        vec = [rng.randint(0, 10**6) for _ in range(n)]
        worst = max(worst, abs(gini(vec) - gini_oracle(vec)))
    closed_form_ok = True
    for n in (2, 7, 50, 200):
        closed_form_ok &= abs(gini([5] * n)) <= 1e-12
        closed_form_ok &= abs(gini([0] * (n - 1) + [9]) - (n - 1) / n) <= 1e-12
    report(
        "3 (gini oracle)",
        worst <= 1e-12 and closed_form_ok,
        f"max |formula - oracle| = {worst:.2e} over 1000 vectors; closed forms exact",
    )


# --- criterion 4: worked corner cases -----------------------------------------


def test_criterion_4_corner_fixtures():
    payoff = PayoffParams()
    # balances 2 and 4, betrayer holds 2, bank 0: the silent side forsakes 3 of its 4 units
    first = resolve_game(Action.BETRAY, Action.SILENT, 2, 4, 0, payoff)
    # the other way around: the silent side yields its 2 remaining units
    second = resolve_game(Action.SILENT, Action.BETRAY, 2, 4, 0, payoff)
    # bank holding 1 cannot pay two cooperators: nothing moves, bank stays at 1
    third = resolve_game(Action.SILENT, Action.SILENT, 50, 50, 1, payoff)
    ok = first == (3, -3, 0) and second == (-2, 2, 0) and third == (0, 0, 0)
    report(
        "4 (corner fixtures)",
        ok,
        f"betrayal directions gave {first} and {second} (4->6 for the winner), "
        f"poor-bank cooperation gave {third} with the bank untouched",
    )


# --- criterion 5: byte-identical reruns ----------------------------------------


def test_criterion_5_determinism(tmp_path):
    graph_path = tmp_path / "pair.txt"
    graph_path.write_text("0 1\n")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        textwrap.dedent(
            f"""\
            graph = {graph_path}
            graph_format = snap
            experiment = 1
            group = 0:8:0:0
            bank = 3
            seed = 5
            out = {tmp_path / 'a'}
            """
        )
    )
    assert main(["run", "--config", str(run_cfg)]) == 0
    assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "b")]) == 0
    run_same = (tmp_path / "a" / "gini_series.csv").read_bytes() == (
        tmp_path / "b" / "gini_series.csv"
    ).read_bytes()

    net_path = tmp_path / "net.txt"
    with open(net_path, "w", encoding="utf-8") as handle:
        for u, v in random_graph(16, 3.0, seed=5).edges():
            handle.write(f"{u} {v}\n")
    suite_cfg = tmp_path / "suite.cfg"
    suite_cfg.write_text(
        textwrap.dedent(
            f"""\
            experiment = 1
            network = tiny snap {net_path}
            seed = 9
            replicates = 2
            iterations = 6
            initial_balance = 10
            out = {tmp_path / 'sa'}
            """
        )
    )
    assert main(["suite", "--config", str(suite_cfg)]) == 0
    assert main(["suite", "--config", str(suite_cfg), "--out", str(tmp_path / "sb")]) == 0
    suite_same = (tmp_path / "sa" / "suite_summary.csv").read_bytes() == (
        tmp_path / "sb" / "suite_summary.csv"
    ).read_bytes()
    sample = "tiny__2-1-3-2__binf__r1.csv"
    suite_same &= (tmp_path / "sa" / "runs" / sample).read_bytes() == (
        tmp_path / "sb" / "runs" / sample
    ).read_bytes()
    report(
        "5 (determinism)",
        run_same and suite_same,
        "same-seed reruns produced byte-identical run and suite CSVs",
    )


# --- performance gate ----------------------------------------------------------


def test_full_run_completes_inside_budget(fb_scale_graph):
    import time

    fb = dataset_path("facebook")[0]
    if os.path.exists(fb):
        graph = load_graph(fb, "snap")
        source = "facebook"
    else:
        graph = fb_scale_graph
        source = f"synthetic {graph.node_count}n/{graph.edge_count}e stand-in"
    assignment = assign_proportional(
        graph.node_count, ProportionGroup.parse("2:2:2:2"), random.Random(BASE_SEED)
    )
    cfg = SimConfig(iterations=ITERATIONS, bank=None, seed=BASE_SEED)
    start = time.perf_counter()
    result = run(graph, assignment, cfg)
    mixed = time.perf_counter() - start

    # worst case: every turn plays a game, nothing ever skips
    cfg = SimConfig(iterations=ITERATIONS, bank=None, seed=BASE_SEED)
    start = time.perf_counter()
    run(graph, [AgentKind.COOPERATOR] * graph.node_count, cfg)
    all_coop = time.perf_counter() - start
    report(
        "perf (full run < 60 s)",
        mixed < 60.0 and all_coop < 60.0 and result.iterations_executed == ITERATIONS,
        f"{source}: control run {mixed:.1f}s, no-skip worst case {all_coop:.1f}s",
    )


# --- criteria 6-10: benchmark-network sweeps ------------------------------------


def test_sweep_machinery_smoke(tmp_path):
    """Dataset-free dry run of the helpers criteria 6-10 are built on."""
    net_path = tmp_path / "tiny.txt"
    with open(net_path, "w", encoding="utf-8") as handle:
        for u, v in random_graph(16, 3.0, seed=31).edges():
            handle.write(f"{u} {v}\n")
    tiny = NetworkSpec(name="tiny", path=str(net_path), fmt="snap")
    series_dir = str(tmp_path / "series")
    rows = sweep([tiny], 2, EXPERIMENT2_GROUPS[:2], [BANK_0, BANK_INF], series_dir)
    assert len(rows) == 2 * 2 * REPLICATES
    assert mean(final_ginis(rows, bank_label="inf")) >= 0.0
    assert len(final_ginis(rows, group_label=EXPERIMENT2_GROUPS[0].label)) == 2 * REPLICATES
    series_list = []
    for rep in range(REPLICATES):
        path = os.path.join(
            series_dir, run_file_name("tiny", EXPERIMENT2_GROUPS[0].label, "0", rep)
        )
        series_list.append(read_gini_series_csv(path)[1])
    mean_series = padded_mean_series(series_list, ITERATIONS)
    assert len(mean_series) == ITERATIONS
    assert all(0.0 <= value < 1.0 for value in mean_series)


def final_ginis(rows, bank_label=None, group_label=None):
    return [
        row.final_gini
        for row in rows
        if (bank_label is None or row.bank == bank_label)
        and (group_label is None or row.group == group_label)
    ]


def test_criterion_6_runaway_inequality_physics():
    physics = network_or_skip("6", "physics")
    groups = (ProportionGroup.parse("1:3:2:2"), ProportionGroup.parse("1:2:3:2"))
    rows = sweep([physics], 1, groups, [BANK_INF])
    means = {g.label: mean(final_ginis(rows, group_label=g.label)) for g in groups}
    ok = all(value >= 0.45 for value in means.values())
    report(
        "6 (runaway inequality)",
        ok,
        f"physics infinite-bank mean final Gini {means} (threshold >= 0.45 each)",
    )


def test_criterion_7_defector_dominance_stability():
    facebook = network_or_skip("7", "facebook")
    group = ProportionGroup.parse("3:1:2:2")
    rows = sweep([facebook], 1, [group], [BANK_0, BANK_10K, BANK_INF])
    means = {
        bank.label: mean(final_ginis(rows, bank_label=bank.label))
        for bank in (BANK_0, BANK_10K, BANK_INF)
    }
    ok = all(value <= 0.20 for value in means.values())
    report(
        "7 (defector dominance stays equal)",
        ok,
        f"facebook 3:1:2:2 mean final Gini per bank {means} (threshold <= 0.20 each)",
    )


@pytest.fixture(scope="module")
def exp2_sweeps(tmp_path_factory):
    """Experiment-2 sweep per available network: (rows, series_dir)."""
    cache = {}

    def get(criterion: str, name: str):
        if name not in cache:
            network = network_or_skip(criterion, name)
            series_dir = str(tmp_path_factory.mktemp(f"exp2_{name}"))
            rows = sweep(
                [network], 2, EXPERIMENT2_GROUPS, [BANK_0, BANK_10K, BANK_INF], series_dir
            )
            cache[name] = (rows, series_dir)
        return cache[name]

    return get


def test_criterion_8_infinite_bank_dominates_experiment2(exp2_sweeps):
    summary = {}
    ok = True
    for name in ("facebook", "physics", "bitcoin"):
        rows, _ = exp2_sweeps("8", name)
        by_bank = {
            bank.label: mean(final_ginis(rows, bank_label=bank.label))
            for bank in (BANK_0, BANK_10K, BANK_INF)
        }
        summary[name] = {k: round(v, 3) for k, v in by_bank.items()}
        ok &= by_bank["inf"] > by_bank["0"] and by_bank["inf"] > by_bank["10000"]
    report(
        "8 (infinite bank raises experiment-2 inequality)",
        ok,
        f"across-group mean final Gini per bank: {summary}",
    )


def padded_mean_series(series_list, length):
    padded = []
    for values in series_list:
        padded.append(list(values) + [values[-1]] * (length - len(values)))
    return [mean(column) for column in zip(*padded)]


def test_criterion_9_local_maximum_shape(tmp_path_factory):
    facebook = network_or_skip("9", "facebook")
    series_dir = str(tmp_path_factory.mktemp("exp1_control"))
    control = ProportionGroup.parse("2:2:2:2")
    sweep([facebook], 1, [control], [BANK_0, BANK_10K], series_dir)
    details = {}
    ok = True
    for bank in (BANK_0, BANK_10K):
        series_list = []
        for rep in range(REPLICATES):
            path = os.path.join(
                series_dir, run_file_name("facebook", control.label, bank.label, rep)
            )
            series_list.append(read_gini_series_csv(path)[1])
        mean_series = padded_mean_series(series_list, ITERATIONS)
        peak_value = max(mean_series)
        peak_iteration = mean_series.index(peak_value) + 1
        final_value = mean_series[-1]
        details[bank.label] = (peak_iteration, round(peak_value, 3), round(final_value, 3))
        ok &= 30 <= peak_iteration <= 300 and final_value < peak_value
    report(
        "9 (local maximum shape)",
        ok,
        f"facebook control mean series (peak iteration, peak, final) per bank: {details}; "
        f"expected peak in [30, 300] and final below it",
    )


def test_criterion_10_finite_bank_stabilizes_experiment2(exp2_sweeps):
    rows, series_dir = exp2_sweeps("10", "facebook")
    failures = []
    for row in rows:
        if row.bank not in ("0", "10000"):
            continue
        if row.converged_at is not None:
            continue
        path = os.path.join(series_dir, run_file_name(row.network, row.group, row.bank, row.replicate))
        tail = read_gini_series_csv(path)[1][-100:]
        if max(tail) - min(tail) >= 0.01:
            failures.append((row.group, row.bank, row.replicate, round(max(tail) - min(tail), 4)))
    report(
        "10 (finite banks stabilize experiment 2)",
        not failures,
        f"all 60 finite-bank runs converged or held a last-100 Gini range < 0.01 "
        f"(violations: {failures[:5]})",
    )
