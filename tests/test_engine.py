import ctypes
import random
import shutil
import tracemalloc
from types import SimpleNamespace

import pytest

from pdnetsim import _kernel
from pdnetsim import (
    LIVE,
    SNAPSHOT,
    Action,
    AgentKind,
    ConfigError,
    Graph,
    IterationStats,
    PayoffParams,
    RunResult,
    SimConfig,
    decide,
    gini,
    graph_from_edges,
    resolve_game,
    run,
    shuffle_order,
)

from conftest import path_graph, random_graph

C, D, T, R = AgentKind.COOPERATOR, AgentKind.DEFECTOR, AgentKind.TIT_FOR_TAT, AgentKind.RANDOM


def reference_run(graph, assignment, cfg):
    """Plain restatement of the run semantics built from the public pieces
    (decide, resolve_game, shuffle_order) and a list of each node's last
    Action, None before its first game. Deliberately slow and simple; the
    engine must match it exactly. The ids go to shuffle_order as a list,
    which takes the Python shuffle, so the kernel's shuffle is checked
    against it too."""
    n = graph.node_count
    rng = random.Random(cfg.seed)
    order = shuffle_order(list(range(n)), rng)
    balances = [cfg.initial_balance] * n
    memory = [None] * n
    bank_balance = cfg.bank
    live = cfg.balance_semantics == LIVE

    ginis, stats, converged = [], [], None
    for iteration in range(1, cfg.iterations + 1):
        start = balances[:]
        effective = balances if live else start
        played = skipped = inflow = outflow = 0
        for v in order:
            if effective[v] == 0:
                skipped += 1
                continue
            neighbors = graph.adjacency[v]
            if not neighbors:
                skipped += 1
                continue
            o = neighbors[int(rng.random() * len(neighbors))]
            if effective[o] == 0:
                skipped += 1
                continue
            act_v = decide(assignment[v], memory[o], rng)
            act_o = decide(assignment[o], memory[v], rng)
            dv, do, dbank = resolve_game(
                act_v, act_o, effective[v], effective[o], bank_balance, cfg.payoff
            )
            if dv or do or dbank:  # a blocked bank payout writes nothing
                if live:
                    balances[v] += dv
                    balances[o] += do
                else:
                    balances[v] = start[v] + dv
                    balances[o] = start[o] + do
                if bank_balance is not None:
                    bank_balance += dbank
                if dbank > 0:
                    inflow += dbank
                else:
                    outflow += -dbank
            memory[v] = act_v
            memory[o] = act_o
            played += 1
        ginis.append(gini(balances))
        stats.append((played, skipped, inflow, outflow, bank_balance, sum(balances)))
        if balances == start:
            converged = iteration
            break
    return ginis, balances, bank_balance, converged, stats


@pytest.fixture
def python_loop(monkeypatch):
    """Every pass played by the Python loop, as where the kernel cannot be built."""
    monkeypatch.setattr(_kernel, "load", lambda: (None, "forced"))


@pytest.fixture
def kernel():
    """The compiled kernel. Skips only where no C compiler exists; anywhere
    else it must load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    library, reason = _kernel.load()
    assert library is not None, reason
    return library


@pytest.fixture
def kernel_calls(kernel, monkeypatch):
    """(passes played, order length at the start) of each pd_run call of the
    compiled kernel."""
    from pdnetsim import engine

    calls = []

    def counting(*args):
        live = ctypes.c_int64.from_address(args[10] + 8 * engine._LIVE).value  # acc[A_LIVE]
        played = kernel.pd_run(*args)
        calls.append((played, live))
        return played

    counted = SimpleNamespace(pd_run=counting, pd_shuffle=kernel.pd_shuffle, pd_gini=kernel.pd_gini)
    monkeypatch.setattr(_kernel, "load", lambda: (counted, None))
    return calls


def passes_played(calls):
    return sum(played for played, _ in calls)


def as_stat_tuples(result):
    return [
        (s.games_played, s.games_skipped, s.bank_inflow, s.bank_outflow, s.bank_balance, s.total_balance)
        for s in result.iteration_stats
    ]


# --- shuffle_order -----------------------------------------------------------


def test_shuffle_single_node():
    assert shuffle_order([0], random.Random(1)) == [0]


def test_shuffle_same_seed_same_permutation():
    assert shuffle_order(range(50), random.Random(9)) == shuffle_order(range(50), random.Random(9))


def test_shuffle_positions_uniform_within_3_sigma():
    # 10,000 shuffles of n=5: each (value, position) cell ~ Bin(10000, 1/5)
    rng = random.Random(1234)
    counts = [[0] * 5 for _ in range(5)]
    for _ in range(10_000):
        for pos, value in enumerate(shuffle_order(range(5), rng)):
            counts[value][pos] += 1
    mean = 10_000 / 5
    sigma = (10_000 * 0.2 * 0.8) ** 0.5
    for value in range(5):
        for pos in range(5):
            assert abs(counts[value][pos] - mean) <= 3 * sigma


@pytest.mark.parametrize("sizes", [range(701), range(1000, 1301)], ids=["0-700", "1000-1300"])
def test_kernel_shuffle_draws_as_the_python_shuffle(kernel, monkeypatch, sizes):
    # The generators go on from n to n, so the shuffles start at every index
    # of the MT19937 block, and the next random() checks the state handed back.
    # The third pair carries a pending gauss_next, which the write-back keeps.
    shuffled = []
    counted = SimpleNamespace(pd_shuffle=lambda order, n, mt: shuffled.append(n) or kernel.pd_shuffle(order, n, mt))
    monkeypatch.setattr(_kernel, "load", lambda: (counted, None))
    for seed, pending in ((3, False), (2**40 + 1, False), (5, True)):
        kernel_rng, python_rng = random.Random(seed), random.Random(seed)
        if pending:
            assert kernel_rng.gauss(0, 1) == python_rng.gauss(0, 1)
        for n in sizes:
            # a range goes to the kernel and comes back a list; a list does not
            assert shuffle_order(range(n), kernel_rng) == shuffle_order(list(range(n)), python_rng), n
            assert kernel_rng.random() == python_rng.random(), n
        assert kernel_rng.getstate() == python_rng.getstate()
        assert (kernel_rng.getstate()[2] is not None) == pending
    assert shuffled == [*sizes] * 3


def test_a_random_subclass_that_draws_otherwise_takes_the_python_shuffle(kernel):
    class Counting(random.Random):
        draws = 0

        def getrandbits(self, k):
            self.draws += 1
            return super().getrandbits(k)

    rng = Counting(5)
    order = shuffle_order(range(300), rng)
    assert rng.draws >= 299
    assert order == shuffle_order(list(range(300)), random.Random(5))


# --- resolve_game ------------------------------------------------------------

FIN0 = 0  # a finite bank holding nothing
P = PayoffParams()


def test_betrayal_caps_at_victim_balance_rich_victim():
    # a betrays with 2, b silent with 4: b forsakes 3 of its 4 units to a
    assert resolve_game(Action.BETRAY, Action.SILENT, 2, 4, FIN0, P) == (3, -3, 0)


def test_betrayal_caps_at_victim_balance_poor_victim():
    # a silent with 2, b betrays with 6: a yields only its 2 remaining units
    assert resolve_game(Action.SILENT, Action.BETRAY, 2, 6, FIN0, P) == (-2, 2, 0)


def test_coop_payout_blocked_by_poor_bank_is_symmetric():
    # bank holds 1 < 2 * reward: nobody receives anything
    assert resolve_game(Action.SILENT, Action.SILENT, 10, 10, 1, P) == (0, 0, 0)


def test_coop_payout_exact_bank():
    assert resolve_game(Action.SILENT, Action.SILENT, 10, 10, 2, P) == (1, 1, -2)


def test_coop_payout_infinite_bank():
    assert resolve_game(Action.SILENT, Action.SILENT, 1, 1, None, P) == (1, 1, -2)


def test_mutual_betrayal_clamps_each_side():
    assert resolve_game(Action.BETRAY, Action.BETRAY, 1, 5, FIN0, P) == (-1, -2, 3)


def test_asymmetric_games_are_zero_sum():
    rng = random.Random(3)
    for _ in range(200):
        a_bal, b_bal = rng.randint(1, 10), rng.randint(1, 10)
        payoff = PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5))
        da, db, dbank = resolve_game(Action.BETRAY, Action.SILENT, a_bal, b_bal, FIN0, payoff)
        assert da + db == 0 and dbank == 0
        da, db, dbank = resolve_game(Action.SILENT, Action.BETRAY, a_bal, b_bal, FIN0, payoff)
        assert da + db == 0 and dbank == 0


def test_symmetric_games_never_one_sided():
    rng = random.Random(4)
    for _ in range(200):
        bank = rng.randint(0, 5)
        payoff = PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5))
        da, db, dbank = resolve_game(
            Action.SILENT, Action.SILENT, rng.randint(1, 9), rng.randint(1, 9), bank, payoff
        )
        assert da == db
        assert dbank == -(da + db)


# --- run: hand-traced fixtures ------------------------------------------------


def test_two_cooperators_infinite_bank():
    # two games per pass, +1 each per game: +2 per node per pass
    g = path_graph(2)
    cfg = SimConfig(iterations=3, bank=None, seed=5)
    result = run(g, [C, C], cfg)
    assert result.final_balances == [106, 106]
    assert result.gini_series == [0.0, 0.0, 0.0]
    assert result.converged_at is None
    assert result.final_bank is None
    assert [s.games_played for s in result.iteration_stats] == [2, 2, 2]


def test_two_cooperators_bank_of_three():
    # pass 1: first game pays both (+1, bank 3 -> 1), second is blocked (1 < 2);
    # pass 2: no balance changes, so the run converges
    g = path_graph(2)
    cfg = SimConfig(iterations=1000, bank=3, seed=5)
    result = run(g, [C, C], cfg)
    assert result.final_balances == [101, 101]
    assert result.final_bank == 1
    assert result.converged_at == 2
    assert result.gini_series == [0.0, 0.0]
    assert [s.games_played for s in result.iteration_stats] == [2, 2]


def test_two_defectors_drain_to_bank():
    # each node loses 2 per game, two games per pass: broke after pass 25,
    # all-skipped pass 26 fires the convergence break
    g = path_graph(2)
    cfg = SimConfig(iterations=1000, bank=0, seed=5)
    result = run(g, [D, D], cfg)
    assert result.final_balances == [0, 0]
    assert result.final_bank == 200
    assert result.converged_at == 26
    assert result.iterations_executed == 26
    assert all(value == 0.0 for value in result.gini_series)
    assert result.iteration_stats[-1].games_skipped == 2


def test_a_bank_of_exactly_two_rewards_pays_one_mutual_silence():
    # pass 1: the first game takes the bank's 2 = 2 * reward (+1 each, bank
    # 2 -> 0), the second is blocked; pass 2 changes nothing and converges
    g = path_graph(2)
    cfg = SimConfig(iterations=1000, bank=2, seed=5)
    result = run(g, [C, C], cfg)
    assert result.final_balances == [101, 101]
    assert result.final_bank == 0
    assert result.converged_at == 2
    assert [s.bank_outflow for s in result.iteration_stats] == [2, 0]


def test_betrayal_transfer_clamps_to_the_silent_balance():
    # the cooperator pays 3 of its 5, then only its last 2; pass 2 skips both
    # turns, since every game would involve the drained cooperator. The
    # order is the same in both runs, so the clamped second game is opened
    # by the cooperator in one and by the defector in the other.
    g = path_graph(2)
    cfg = SimConfig(iterations=1000, initial_balance=5, bank=0, seed=5)
    for assignment, balances in (([D, C], [10, 0]), ([C, D], [0, 10])):
        result = run(g, assignment, cfg)
        assert result.final_balances == balances
        assert result.final_bank == 0
        assert result.converged_at == 2
        assert result.gini_series == [0.5, 0.5]
        assert [s.games_skipped for s in result.iteration_stats] == [0, 2]


def test_mutual_betrayal_penalty_clamps_to_each_balance():
    # each defector pays 2 of its 3, then only its last 1: the bank takes 6
    g = path_graph(2)
    cfg = SimConfig(iterations=1000, initial_balance=3, bank=0, seed=5)
    result = run(g, [D, D], cfg)
    assert result.final_balances == [0, 0]
    assert result.final_bank == 6
    assert result.converged_at == 2
    assert [s.bank_inflow for s in result.iteration_stats] == [6, 0]


def test_all_cooperators_bank_zero_converge_immediately():
    g = path_graph(4)
    cfg = SimConfig(iterations=100, bank=0, seed=2)
    result = run(g, [C, C, C, C], cfg)
    assert result.converged_at == 1
    assert result.gini_series == [0.0]
    assert result.final_balances == [100] * 4


def test_same_seed_reproduces_run_bit_for_bit():
    g = random_graph(40, 5.0, seed=77)
    assignment = [random.Random(1).choice([C, D, T, R]) for _ in range(g.node_count)]
    cfg = SimConfig(iterations=60, bank=500, seed=99)
    first = run(g, assignment, cfg)
    second = run(g, assignment, cfg)
    assert first.gini_series == second.gini_series
    assert first.final_balances == second.final_balances
    assert first.final_bank == second.final_bank
    assert as_stat_tuples(first) == as_stat_tuples(second)


def test_different_seed_changes_outcome():
    g = random_graph(40, 5.0, seed=77)
    rng = random.Random(1)
    assignment = [rng.choice([C, D, T, R]) for _ in range(g.node_count)]
    a = run(g, assignment, SimConfig(iterations=40, bank=500, seed=1))
    b = run(g, assignment, SimConfig(iterations=40, bank=500, seed=2))
    assert a.final_balances != b.final_balances


def test_assignment_must_cover_every_node():
    g = path_graph(3)
    with pytest.raises(ConfigError, match="node 2"):
        run(g, {0: C, 1: C}, SimConfig(seed=1))


def test_assignment_rejects_non_agent_values():
    g = path_graph(2)
    with pytest.raises(ConfigError):
        run(g, [C, "cooperator"], SimConfig(seed=1))
    with pytest.raises(ConfigError):
        run(g, [C, 9], SimConfig(seed=1))
    with pytest.raises(ConfigError, match="non-agent value for node 1"):
        run(g, [C, 1.5], SimConfig(seed=1))
    with pytest.raises(ConfigError, match="non-agent value for node 1"):
        run(g, [C, "1"], SimConfig(seed=1))


@pytest.mark.parametrize("value", [-1, 4, 256])
def test_assignment_rejects_kind_codes_out_of_range(value):
    with pytest.raises(ConfigError, match="invalid agent kind for node 1"):
        run(path_graph(2), [C, value], SimConfig(seed=1))
    with pytest.raises(ConfigError, match="invalid agent kind for node 1"):
        run(path_graph(2), {0: C, 1: value}, SimConfig(seed=1))


def test_every_spelling_of_an_assignment_gives_the_same_run():
    g = random_graph(20, 3.0, seed=2)
    assignment = random_assignment(g.node_count, random.Random(3))
    cfg = SimConfig(iterations=10, bank=100, seed=4)
    expected = run(g, assignment, cfg)
    assert run(g, dict(enumerate(assignment)), cfg) == expected
    assert run(g, [int(kind) for kind in assignment], cfg) == expected
    assert run(g, [True if kind == D else kind for kind in assignment], cfg) == expected  # True is 1


def test_degree_zero_nodes_are_skipped():
    g = Graph([[], [2], [1]], {0: 0, 1: 1, 2: 2})
    cfg = SimConfig(iterations=5, bank=None, seed=3)
    result = run(g, [C, C, C], cfg)
    assert result.final_balances[0] == 100
    assert all(s.games_skipped == 1 for s in result.iteration_stats)
    assert all(s.games_played == 2 for s in result.iteration_stats)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(iterations=0)
    with pytest.raises(ConfigError):
        SimConfig(initial_balance=0)
    with pytest.raises(ConfigError):
        SimConfig(balance_semantics="lazy")
    with pytest.raises(ConfigError):
        PayoffParams(coop_reward=0)


@pytest.mark.parametrize("seed", [None, 1.5, "1"])
def test_seed_must_be_an_integer(seed):
    # seed=None would seed from the clock: two runs of one config would differ
    with pytest.raises(ConfigError, match=f"seed must be an integer, got {seed!r}"):
        SimConfig(seed=seed)


@pytest.mark.parametrize("bank", ["no", "inf", 1.5, -1, True])
def test_bank_must_be_a_non_negative_integer_or_none(bank):
    # True is no balance: taken as an int it would play as a bank of 1
    with pytest.raises(ConfigError, match=f"finite bank balance must be a non-negative integer, got {bank!r}"):
        SimConfig(bank=bank)


@pytest.mark.parametrize("passes", ["kernel", "hook", "python_loop"])
def test_a_graph_without_nodes_is_a_config_error_on_every_path(request, passes):
    # Refused when the graph is built, before any draw: the kernel's block
    # path used to report a Gini of 0.0 converged at pass 1, and the hook
    # path and the Python loop a bare ValueError from gini.
    request.getfixturevalue("kernel" if passes == "hook" else passes)
    hook = (lambda *state: None) if passes == "hook" else None
    with pytest.raises(ConfigError, match="a graph needs at least one node"):
        run(Graph([], {}), [], SimConfig(iterations=3, seed=1), hook)


# --- run: properties ----------------------------------------------------------


def random_assignment(n, rng):
    return [rng.choice([C, D, T, R]) for _ in range(n)]


def test_conservation_and_non_negativity_on_random_runs():
    rng = random.Random(2024)
    for _ in range(12):
        g = random_graph(rng.randint(10, 60), rng.uniform(1.5, 6.0), seed=rng.randrange(10**6))
        bank_initial = rng.randint(0, 800)
        cfg = SimConfig(
            iterations=rng.randint(5, 50),
            initial_balance=100,
            payoff=PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5)),
            bank=bank_initial,
            seed=rng.randrange(10**9),
        )
        expected_total = bank_initial + g.node_count * 100

        def check(iteration, balances, bank_balance):
            assert min(balances) >= 0
            assert bank_balance >= 0
            assert bank_balance + sum(balances) == expected_total

        result = run(g, random_assignment(g.node_count, rng), cfg, iteration_hook=check)
        assert result.final_bank + sum(result.final_balances) == expected_total


def test_non_negativity_under_snapshot_semantics():
    rng = random.Random(55)
    for _ in range(6):
        g = random_graph(30, 4.0, seed=rng.randrange(10**6))
        cfg = SimConfig(
            iterations=30,
            bank=rng.randint(0, 300),
            seed=rng.randrange(10**9),
            balance_semantics=SNAPSHOT,
        )

        def check(iteration, balances, bank_balance):
            assert min(balances) >= 0
            assert bank_balance >= 0

        run(g, random_assignment(g.node_count, rng), cfg, iteration_hook=check)


def test_zero_balance_is_absorbing():
    # A node at zero never plays and a game that samples it is skipped, so
    # nothing can ever pay it again; the engine relies on this to drop dead
    # nodes from its turn order.
    rng = random.Random(4242)
    for case in range(16):
        g = random_graph(rng.randint(10, 80), rng.uniform(1.5, 6.0), seed=rng.randrange(10**6))
        cfg = SimConfig(
            iterations=60,
            initial_balance=rng.randint(2, 15),
            payoff=PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5)),
            bank=None if case % 4 == 3 else rng.randint(0, 200),
            seed=rng.randrange(10**9),
            balance_semantics=LIVE if case % 2 == 0 else SNAPSHOT,
        )
        dead: set[int] = set()

        def check(iteration, balances, bank_balance):
            assert all(balances[v] == 0 for v in dead)
            dead.update(v for v, balance in enumerate(balances) if balance == 0)

        run(g, random_assignment(g.node_count, rng), cfg, iteration_hook=check)
        assert dead, "no node ever reached zero"


def test_games_played_plus_skipped_covers_every_turn():
    g = random_graph(25, 3.0, seed=4)
    cfg = SimConfig(iterations=30, bank=50, seed=8)
    result = run(g, random_assignment(g.node_count, random.Random(3)), cfg)
    for stats in result.iteration_stats:
        assert stats.games_played + stats.games_skipped == g.node_count


def test_convergence_means_last_two_gini_values_equal():
    g = path_graph(2)
    result = run(g, [D, D], SimConfig(iterations=1000, bank=0, seed=5))
    assert result.converged_at is not None
    assert result.gini_series[-1] == result.gini_series[-2]


def test_gini_series_stays_in_range():
    g = random_graph(30, 4.0, seed=10)
    cfg = SimConfig(iterations=50, bank=None, seed=11)
    result = run(g, random_assignment(g.node_count, random.Random(12)), cfg)
    assert all(0.0 <= value < 1.0 for value in result.gini_series)


def test_tit_for_tat_mirrors_global_last_action():
    # path 0(D)-1(T)-2(T), bank 0: with pairwise memory the (1, 2) pair would
    # open silent and mirror silence forever, so node 2 could never gain.
    # With one global slot per node, node 1's betrayal of the defector leaks
    # into the (1, 2) relationship: node 2 sees "betray", betrays a silent
    # node 1, and profits.
    g = path_graph(3)
    cfg = SimConfig(iterations=1, bank=0, seed=6)
    result = run(g, [D, T, T], cfg)
    assert result.final_balances == [101, 92, 103]
    assert result.final_bank == 4
    # not a quirk of one seed: the leak shows up across many orderings
    hits = sum(
        run(g, [D, T, T], SimConfig(iterations=1, bank=0, seed=s)).final_balances[2]
        > 100
        for s in range(40)
    )
    assert hits >= 3


# --- run: engine matches the plain reference ----------------------------------


def _reference_cases():
    """(graph, assignment, cfg) inputs for the reference comparison."""
    rng = random.Random(31415)
    for case in range(40):
        g = random_graph(rng.randint(4, 14), rng.uniform(1.0, 4.0), seed=rng.randrange(10**6))
        assignment = random_assignment(g.node_count, rng)
        infinite = rng.random() < 0.3
        bank = None if infinite else rng.randint(0, 60)
        yield g, assignment, SimConfig(
            iterations=rng.randint(1, 25),
            initial_balance=rng.randint(1, 12),
            payoff=PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5)),
            bank=bank,
            seed=rng.randrange(10**9),
            balance_semantics=LIVE if case % 2 == 0 else SNAPSHOT,
        )
    # Collapse: bank 0 and mostly defectors drain most nodes to zero, so the
    # engine drops dead nodes from its turn order and takes the Gini over
    # the holders only.
    rng = random.Random(2718)
    for case in range(8):
        g = random_graph(rng.randint(60, 200), rng.uniform(2.0, 8.0), seed=rng.randrange(10**6))
        assignment = rng.choices([D, C, T, R], weights=[5, 1, 1, 1], k=g.node_count)
        yield g, assignment, SimConfig(
            iterations=rng.randint(60, 150),
            initial_balance=rng.randint(3, 20),
            payoff=PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5)),
            bank=0,
            seed=rng.randrange(10**9),
            balance_semantics=LIVE if case % 2 == 0 else SNAPSHOT,
        )
    # Isolated nodes: they never play and are never sampled, so every one of
    # their turns is skipped.
    rng = random.Random(1618)
    for case in range(8):
        g = random_graph(rng.randint(4, 30), rng.uniform(1.0, 4.0), seed=rng.randrange(10**6))
        isolated = rng.randint(1, 5)
        g = Graph(g.adjacency + [[] for _ in range(isolated)], {})
        bank = None if case % 4 == 3 else rng.randint(0, 60)
        yield g, random_assignment(g.node_count, rng), SimConfig(
            iterations=rng.randint(1, 40),
            initial_balance=rng.randint(1, 12),
            payoff=PayoffParams(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 5)),
            bank=bank,
            seed=rng.randrange(10**9),
            balance_semantics=LIVE if case % 2 == 0 else SNAPSHOT,
        )
    yield NETTING_PASS


# K4 with two defectors and two cooperators: in pass 1 every game moves
# capital (a mutual betrayal, a mutual silence and two transfers), yet every
# node ends the pass where it started, so the run converges at pass 1. A
# "some game changed a balance" flag would not stop here; the end-of-pass
# equality check does.
NETTING_PASS = (
    graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    [D, D, C, C],
    SimConfig(
        iterations=35,
        initial_balance=9,
        payoff=PayoffParams(3, 3, 3),
        bank=None,
        seed=236039528,
    ),
)


def test_convergence_is_an_end_of_pass_equality_not_a_change_flag():
    result = run(*NETTING_PASS)
    first = result.iteration_stats[0]
    assert result.converged_at == 1
    assert first.games_played == 4
    assert first.bank_inflow == 6 and first.bank_outflow == 6
    assert result.final_balances == [9, 9, 9, 9]


def test_engine_matches_reference_implementation():
    collapsed = 0
    for g, assignment, cfg in _reference_cases():
        result = run(g, assignment, cfg)
        ginis, balances, bank_end, converged, stats = reference_run(g, assignment, cfg)
        assert result.gini_series == ginis
        assert result.final_balances == balances
        assert result.final_bank == bank_end
        assert result.converged_at == converged
        assert as_stat_tuples(result) == stats
        collapsed += 2 * balances.count(0) > g.node_count
    assert collapsed >= 4  # the collapse cases really collapse


def test_live_and_snapshot_semantics_can_diverge():
    rng = random.Random(777)
    diverged = False
    for seed in range(80):
        g = random_graph(10, 3.0, seed=123)
        assignment = random_assignment(g.node_count, random.Random(seed))
        live_cfg = SimConfig(iterations=12, initial_balance=5, bank=20, seed=seed)
        snap_cfg = SimConfig(
            iterations=12,
            initial_balance=5,
            bank=20,
            seed=seed,
            balance_semantics=SNAPSHOT,
        )
        if run(g, assignment, live_cfg).final_balances != run(g, assignment, snap_cfg).final_balances:
            diverged = True
            break
    assert diverged, "live and snapshot semantics never diverged on the search set"


# --- run: the compiled kernel and the Python loop ----------------------------


@pytest.mark.parametrize(
    "check",
    [
        test_two_cooperators_infinite_bank,
        test_two_cooperators_bank_of_three,
        test_a_bank_of_exactly_two_rewards_pays_one_mutual_silence,
        test_two_defectors_drain_to_bank,
        test_betrayal_transfer_clamps_to_the_silent_balance,
        test_mutual_betrayal_penalty_clamps_to_each_balance,
        test_tit_for_tat_mirrors_global_last_action,
        test_engine_matches_reference_implementation,
        test_convergence_is_an_end_of_pass_equality_not_a_change_flag,
        test_zero_balance_is_absorbing,
        test_same_seed_reproduces_run_bit_for_bit,
    ],
    ids=lambda check: check.__name__.removeprefix("test_"),
)
def test_python_loop(check, python_loop):
    """The checks above run passes through the kernel wherever one can be
    built; here every pass is played by the Python loop instead. The
    reference shares resolve_game with the Python loop, so the hand-traced
    fixtures are what check the payoff rules on this path."""
    check()


@pytest.mark.parametrize("tit_for_tat", [(0, 1, 1), (1, 0, 0)], ids=["opens-with-betrayal", "inverted"])
@pytest.mark.parametrize("passes", ["kernel_calls", "python_loop"])
def test_every_path_plays_the_decision_table(request, monkeypatch, passes, tit_for_tat):
    # A Tit-for-Tat row that differs from the built-in one in each column:
    # whatever the table says, the kernel, the Python loop and decide agree.
    from pdnetsim import engine, strategies

    g = random_graph(40, 4.0, seed=41)
    assignment = random_assignment(g.node_count, random.Random(42))
    cfg = SimConfig(iterations=30, initial_balance=20, bank=200, seed=43)
    built_in = reference_run(g, assignment, cfg)
    table = (*strategies.ACTIONS[:T], tit_for_tat, *strategies.ACTIONS[T + 1 :])
    monkeypatch.setattr(strategies, "ACTIONS", table)
    monkeypatch.setattr(engine, "ACTIONS", table)
    calls = request.getfixturevalue(passes)  # the kernel's pass lengths, or None

    result = run(g, assignment, cfg)
    ginis, balances, bank_end, converged, stats = reference_run(g, assignment, cfg)
    assert ginis != built_in[0]  # the patched row changes the game
    assert result.gini_series == ginis
    assert result.final_balances == balances
    assert result.final_bank == bank_end
    assert result.converged_at == converged
    assert as_stat_tuples(result) == stats
    if passes == "kernel_calls":
        assert passes_played(calls) == result.iterations_executed


def test_kernel_plays_every_pass(kernel_calls):
    g = random_graph(30, 4.0, seed=5)
    cfg = SimConfig(iterations=12, bank=None, seed=7)
    result = run(g, random_assignment(g.node_count, random.Random(6)), cfg)
    assert passes_played(kernel_calls) == result.iterations_executed == 12
    assert len(kernel_calls) == 1  # one block


# (n, seed, index): the node-order shuffle of n nodes under `seed` leaves
# the MT19937 index at 623, so the first random() of pass 1 takes one word
# from the block the kernel tempers on entry and one from the next, or at
# 624, so pass 1 opens on a spent block and twists before its first draw.
MT_BLOCK_EDGES = [(413, 38, 623), (416, 2, 624)]


@pytest.mark.parametrize("n, seed, index", MT_BLOCK_EDGES, ids=["index-623", "index-624"])
@pytest.mark.parametrize("bank", [500, None], ids=["bank-500", "bank-inf"])
def test_kernel_draws_alike_at_the_edges_of_a_generator_block(kernel_calls, n, seed, index, bank):
    rng = random.Random(seed)
    shuffle_order(range(n), rng)
    assert rng.getstate()[1][624] == index
    g = random_graph(n, 4.0, seed=n)
    # Mostly Random agents, so decision-table DRAW entries draw as well.
    assignment = random.Random(seed).choices([C, D, T, R], weights=[1, 1, 1, 3], k=n)
    cfg = SimConfig(iterations=20, initial_balance=10, bank=bank, seed=seed)

    result = run(g, assignment, cfg)
    ginis, balances, bank_end, converged, stats = reference_run(g, assignment, cfg)
    assert result.gini_series == ginis
    assert result.final_balances == balances
    assert result.final_bank == bank_end
    assert result.converged_at == converged
    assert as_stat_tuples(result) == stats
    assert passes_played(kernel_calls) == result.iterations_executed == 20


def run_draining_under_a_hook(monkeypatch):
    """(handed, holders, n) of a run that drains most of its nodes, played
    under a hook: the balances each pass hands engine.gini, and the non-zero
    balances after each pass in turn order."""
    from pdnetsim import engine

    rng = random.Random(31)
    g = random_graph(200, 6.0, seed=32)
    assignment = rng.choices([D, C, T, R], weights=[5, 1, 1, 1], k=g.node_count)
    cfg = SimConfig(iterations=80, initial_balance=6, bank=0, seed=33)
    handed = []
    monkeypatch.setattr(engine, "gini", lambda held, n: handed.append(list(held)) or gini(held, n))
    ends = []
    run(g, assignment, cfg, iteration_hook=lambda iteration, balances, bank: ends.append(balances))
    order = shuffle_order(range(g.node_count), random.Random(cfg.seed))
    holders = [[end[v] for v in order if end[v]] for end in ends]
    assert len(handed) == len(ends) > 1
    assert 2 * len(holders[-1]) < g.node_count  # most nodes drained
    assert 2 * len(holders[0]) > g.node_count  # most alive after the first pass
    return handed, holders, g.node_count


@pytest.mark.parametrize("passes", ["kernel_calls", "python_loop"])
def test_both_loops_drop_drained_nodes_and_hand_the_gini_the_live_balances(request, passes, monkeypatch):
    calls = request.getfixturevalue(passes)  # the kernel's (passes, order length) per call, or None
    handed, holders, n = run_draining_under_a_hook(monkeypatch)

    # After every pass the gini gets exactly the holders' balances, in turn order.
    assert handed == holders
    if passes == "kernel_calls":
        assert all(played == 1 for played, _ in calls)  # a hook gets every pass
        # and the order holds exactly the holders: acc[A_LIVE] counts them
        assert [m for _, m in calls] == [n] + [len(live) for live in holders[:-1]]


def test_a_kernel_run_shuffles_in_the_generator_copy_its_passes_draw_from(kernel, monkeypatch):
    # One getstate, no setstate: pd_shuffle and then pd_run draw from one
    # mt buffer, which is never written back into the run's generator.
    calls = []
    counted = SimpleNamespace(
        pd_shuffle=lambda order, n, mt: calls.append(("pd_shuffle", mt)) or kernel.pd_shuffle(order, n, mt),
        pd_run=lambda *args: calls.append(("pd_run", args[11])) or kernel.pd_run(*args),  # args[11]: mt
    )
    monkeypatch.setattr(_kernel, "load", lambda: (counted, None))
    for name in ("getstate", "setstate"):
        method = getattr(random.Random, name)
        counting = lambda self, *args, name=name, method=method: calls.append((name, None)) or method(self, *args)
        monkeypatch.setattr(random.Random, name, counting)
    g = random_graph(60, 4.0, seed=2)
    assignment = random_assignment(g.node_count, random.Random(4))
    cfg = SimConfig(iterations=5, bank=None, seed=3)

    result = run(g, assignment, cfg)
    assert [name for name, _ in calls] == ["getstate", "pd_shuffle", "pd_run"]
    assert calls[1][1] == calls[2][1]
    monkeypatch.undo()
    ginis, balances, bank_end, converged, stats = reference_run(g, assignment, cfg)
    assert result.gini_series == ginis
    assert result.final_balances == balances
    assert as_stat_tuples(result) == stats


@pytest.mark.parametrize("initial_balance, kernel_passes", [(2**62 - 3, 1), (2**62 - 2, 0)])
def test_python_loop_runs_past_the_int64_bound(kernel_calls, initial_balance, kernel_passes):
    # Two nodes, one pass, every payoff 1: the largest value the run could
    # reach is bounded by 2 * initial_balance + 2 * 2 * 1 * 1, which reaches
    # 2**63 at the second initial balance.
    g = path_graph(2)
    cfg = SimConfig(
        iterations=1,
        initial_balance=initial_balance,
        payoff=PayoffParams(1, 1, 1),
        bank=0,
        seed=3,
    )
    result = run(g, [D, C], cfg)
    assert passes_played(kernel_calls) == kernel_passes
    ginis, balances, bank_end, converged, stats = reference_run(g, [D, C], cfg)
    assert result.gini_series == ginis
    assert result.final_balances == balances
    assert result.final_bank == bank_end
    assert as_stat_tuples(result) == stats


def test_snapshot_capital_creation_past_int64_stays_exact(kernel_calls):
    # Under snapshot semantics the cooperator pays each defector from its
    # start balance, so the pass creates capital: a total of 3 * 2**61
    # becomes 2**63, one past int64, although no balance leaves it. A bound
    # that trusts conservation (3 * 2**61 < 2**63) would let int64 wrap.
    g = path_graph(3)
    cfg = SimConfig(
        iterations=2,
        initial_balance=2**61,
        payoff=PayoffParams(1, 1, 2**61),
        bank=0,
        seed=1,
        balance_semantics=SNAPSHOT,
    )
    result = run(g, [D, C, D], cfg)
    assert not kernel_calls
    assert result.iteration_stats[0].total_balance == 2**63
    ginis, balances, bank_end, converged, stats = reference_run(g, [D, C, D], cfg)
    assert result.gini_series == ginis
    assert as_stat_tuples(result) == stats


def _reference_result(g, assignment, cfg):
    ginis, balances, bank_end, converged, stats = reference_run(g, assignment, cfg)
    return RunResult(ginis, converged, balances, bank_end, [IterationStats(*stat) for stat in stats])


def _run_cases():
    g = random_graph(30, 4.0, seed=51)
    assignment = random_assignment(g.node_count, random.Random(52))
    yield "stops-at-iterations", g, assignment, SimConfig(iterations=40, bank=300, seed=53), None
    yield "netting-pass", *NETTING_PASS, 1
    yield "one-iteration", g, assignment, SimConfig(iterations=1, bank=300, seed=54), None
    # Cooperators against an infinite bank gain on every pass: three blocks.
    g = random_graph(12, 3.0, seed=55)
    assignment = random.Random(56).choices([C, T, R], weights=[2, 1, 1], k=g.node_count)
    yield "longer-than-a-block", g, assignment, SimConfig(iterations=2500, bank=None, seed=57), None


@pytest.mark.parametrize("g, assignment, cfg, converged_at", [pytest.param(*case[1:], id=case[0]) for case in _run_cases()])
def test_kernel_run_with_and_without_a_hook_matches_the_reference(kernel_calls, g, assignment, cfg, converged_at):
    from pdnetsim import engine

    plain = run(g, assignment, cfg)
    blocks = [played for played, _ in kernel_calls]
    kernel_calls.clear()
    hooked = run(g, assignment, cfg, iteration_hook=lambda iteration, balances, bank: None)

    assert plain == hooked == _reference_result(g, assignment, cfg)
    assert plain.converged_at == converged_at
    executed = plain.iterations_executed
    assert executed == (converged_at or cfg.iterations)
    full, rest = divmod(executed, engine._BLOCK)
    assert blocks == [engine._BLOCK] * full + [rest] * (rest > 0)
    assert [played for played, _ in kernel_calls] == [1] * executed


@pytest.mark.parametrize("iterations, converged_at", [(200, 35), (20, None)], ids=["converges", "stops-at-iterations"])
def test_the_hook_sees_the_same_passes_on_the_kernel_and_the_python_loop(
    kernel_calls, monkeypatch, iterations, converged_at
):
    g = random_graph(30, 4.0, seed=51)
    assignment = random.Random(52).choices([D, C, T], k=g.node_count)
    cfg = SimConfig(iterations=iterations, initial_balance=20, bank=0, seed=53)

    def hooked_run():
        calls = []
        result = run(g, assignment, cfg, iteration_hook=lambda *call: calls.append(call))
        return result, calls

    kernel_result, kernel_hooked = hooked_run()
    assert passes_played(kernel_calls) == kernel_result.iterations_executed
    monkeypatch.setattr(_kernel, "load", lambda: (None, "forced"))
    python_result, python_hooked = hooked_run()

    assert kernel_result == python_result
    assert kernel_result.converged_at == converged_at
    assert kernel_hooked == python_hooked
    iterations, balances, banks = zip(*kernel_hooked)
    assert iterations == tuple(range(1, kernel_result.iterations_executed + 1))
    assert all(type(b) is list for b in balances) and balances[-1] == kernel_result.final_balances
    assert list(banks) == [s.bank_balance for s in kernel_result.iteration_stats]


def test_a_run_allocates_no_buffer_by_its_iteration_limit(kernel_calls):
    tracemalloc.start()
    try:
        result = run(path_graph(2), [D, D], SimConfig(iterations=10**9, bank=0, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged_at == 26
    assert passes_played(kernel_calls) == 26
    assert peak < 5 * 2**20
