"""Identities that follow from the model's rules alone, as a second oracle.

`reference_run` in test_engine.py shares `resolve_game` with the Python
loop, and the kernel is checked against both, so a misreading of the
rules common to all three would pass there. Each identity here is derived
from the rules in its docstring and holds on both loops. Every seed, graph
and group is fixed before the first run.
"""

import math
import random

import pytest

from pdnetsim import LIVE, SNAPSHOT, AgentKind, PayoffParams, ProportionGroup, SimConfig, assign_proportional, run

from conftest import random_graph, scale_free_graph

SCALE = 7
# The mean-balance identity's sample, fixed with its bound before the first run.
MEAN_SEEDS = range(400)
MEAN_PASSES = 10
Z_BOUND = 4


@pytest.mark.parametrize("loop", ["kernel", "python_loop"])
@pytest.mark.parametrize("semantics", [LIVE, SNAPSHOT])
@pytest.mark.parametrize("bank", [0, 50, 2000, None], ids=["bank-0", "bank-50", "bank-2000", "bank-inf"])
@pytest.mark.parametrize("group", ["2:2:2:2", "3:1:2:2", "1:3:2:2"])
def test_scaling_every_amount_of_money_scales_the_run_exactly(request, loop, semantics, bank, group):
    """Multiply the initial balance, the three payoffs and a finite bank by 7:
    every balance and the bank are 7 times the original's, pass by pass.

    Which games are played and how each agent acts do not depend on money:
    the draws come from the seed, Tit-for-Tat reads only the last action,
    and a turn is skipped for a zero balance, which stays zero at 7 times.
    Each transfer is a payoff clamped to a balance or to the bank, and
    min(7p, 7b) = 7 min(p, b), so by induction on the games every amount
    is 7 times the original. The Gini is the exact integer quotient
    W / (n T), correctly rounded, and 7W / (n 7T) is the same rational, so
    the series is bit-identical and converges at the same pass.
    """
    request.getfixturevalue(loop)
    graph = random_graph(48, 4.0, seed=31)
    assignment = assign_proportional(graph.node_count, ProportionGroup.parse(group), random.Random(5))
    base = SimConfig(200, 20, PayoffParams(1, 2, 3), bank, 17, semantics)
    scaled = SimConfig(
        base.iterations,
        SCALE * base.initial_balance,
        PayoffParams(SCALE * 1, SCALE * 2, SCALE * 3),
        None if bank is None else SCALE * bank,
        base.seed,
        semantics,
    )
    original, times_seven = run(graph, assignment, base), run(graph, assignment, scaled)
    assert times_seven.final_balances == [SCALE * b for b in original.final_balances]
    assert times_seven.final_bank == (None if bank is None else SCALE * original.final_bank)
    assert times_seven.gini_series == original.gini_series
    assert times_seven.converged_at == original.converged_at
    for stat, scaled_stat in zip(original.iteration_stats, times_seven.iteration_stats, strict=True):
        played, skipped, inflow, outflow, bank_balance, total = stat
        assert scaled_stat == (
            played,
            skipped,
            SCALE * inflow,
            SCALE * outflow,
            None if bank_balance is None else SCALE * bank_balance,
            SCALE * total,
        )


@pytest.mark.parametrize("loop", ["kernel", "python_loop"])
@pytest.mark.parametrize("semantics", [LIVE, SNAPSHOT])
@pytest.mark.parametrize("bank", [0, 50, 2000, None], ids=["bank-0", "bank-50", "bank-2000", "bank-inf"])
@pytest.mark.parametrize("group", ["0:7:1:0", "0:4:4:0", "0:1:7:0"])
def test_tit_for_tat_among_cooperators_plays_as_a_cooperator(request, loop, semantics, bank, group):
    """Make every Tit-for-Tat of a Cooperator/Tit-for-Tat mix a Cooperator:
    the run is the same, record for record.

    A Cooperator always stays silent. Tit-for-Tat stays silent against an
    opponent that has not played yet, and otherwise repeats the last action
    the opponent took, in any game. By induction on the games, every action
    of the mix is silence: each Tit-for-Tat either opens silent or repeats
    a silence, so it acts as a Cooperator would. Neither kind draws, so the
    neighbour draws come from the same generator state in both runs, every
    game is the same mutual silence with the same payout or blocked payout,
    and balances, bank, Gini series, stats and convergence all agree.
    """
    request.getfixturevalue(loop)
    graph = random_graph(48, 4.0, seed=31)
    mix = assign_proportional(graph.node_count, ProportionGroup.parse(group), random.Random(5))
    assert {AgentKind.COOPERATOR, AgentKind.TIT_FOR_TAT} == set(mix)
    cfg = SimConfig(200, 20, PayoffParams(1, 2, 3), bank, 17, semantics)
    assert run(graph, mix, cfg) == run(graph, [AgentKind.COOPERATOR] * graph.node_count, cfg)


@pytest.mark.parametrize("loop", ["kernel", "python_loop"])
def test_all_cooperators_with_an_infinite_bank_gain_one_payout_per_game_they_play(request, loop):
    """With every node a Cooperator and an infinite bank, the mean balance of
    node v after k passes is initial + k * reward * (1 + sum(1 / deg(u) for u
    in N(v))).

    Every game is mutual silence, and an infinite bank pays both players the
    reward in full. No balance falls, so no turn is skipped, and every pass
    moves money, so the run does not converge early. In each pass v plays its
    own turn once, and each neighbour u's turn draws v with probability
    1 / deg(u), independently of every other draw. Under the live semantics
    each payout adds to the balance as it stands, so v ends at
    initial + reward * (k + X), where X, the times v was drawn, is a sum of
    k independent Bernoulli(1 / deg(u)) per neighbour u: its mean is
    k * sum(1 / deg(u)) and its variance k * sum(1 / deg(u) * (1 - 1 / deg(u))).
    (The snapshot semantics keeps only a node's last game of a pass, so the
    identity is the live rule's.) Over the seeds, each node's mean balance
    lies within Z_BOUND standard errors of the identity's value.
    """
    request.getfixturevalue(loop)
    graph = scale_free_graph(40, 2, seed=7)
    degrees = graph.degrees()
    assert min(degrees) >= 2  # so that every node's draw count varies, and its z is defined
    cooperators = [AgentKind.COOPERATOR] * graph.node_count
    totals = [0] * graph.node_count
    for seed in MEAN_SEEDS:
        result = run(graph, cooperators, SimConfig(MEAN_PASSES, 20, PayoffParams(3, 2, 1), None, seed, LIVE))
        assert result.converged_at is None
        totals = [total + balance for total, balance in zip(totals, result.final_balances)]
    for v, neighbors in enumerate(graph.adjacency):
        p = [1 / degrees[u] for u in neighbors]
        expected = 20 + MEAN_PASSES * 3 * (1 + sum(p))
        standard_error = 3 * math.sqrt(MEAN_PASSES * sum(q * (1 - q) for q in p) / len(MEAN_SEEDS))
        z = (totals[v] / len(MEAN_SEEDS) - expected) / standard_error
        assert abs(z) < Z_BOUND, (v, z)
