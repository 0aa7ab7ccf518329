"""Identities that follow from the model's rules alone, as a second oracle.

`reference_run` in test_engine.py shares `resolve_game` with the Python
loop, and the kernel is checked against both, so a misreading of the
rules common to all three would pass there. Each identity here is derived
from the rules in its docstring and holds on both loops. Every seed, graph
and group is fixed before the first run.
"""

import random

import pytest

from pdnetsim import LIVE, SNAPSHOT, AgentKind, PayoffParams, ProportionGroup, SimConfig, assign_proportional, run

from conftest import random_graph

SCALE = 7


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
