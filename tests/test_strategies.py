import random

from pdnetsim import Action, AgentKind, decide


def test_cooperator_always_silent():
    rng = random.Random(0)
    for last in (None, Action.SILENT, Action.BETRAY):
        assert decide(AgentKind.COOPERATOR, last, rng) == Action.SILENT


def test_defector_always_betrays():
    rng = random.Random(0)
    for last in (None, Action.SILENT, Action.BETRAY):
        assert decide(AgentKind.DEFECTOR, last, rng) == Action.BETRAY


def test_tit_for_tat_opens_silent_then_mirrors():
    rng = random.Random(0)
    assert decide(AgentKind.TIT_FOR_TAT, None, rng) == Action.SILENT
    assert decide(AgentKind.TIT_FOR_TAT, Action.BETRAY, rng) == Action.BETRAY
    assert decide(AgentKind.TIT_FOR_TAT, Action.SILENT, rng) == Action.SILENT


def test_random_agent_is_balanced_under_fixed_seed():
    rng = random.Random(99)
    silent = sum(
        decide(AgentKind.RANDOM, None, rng) == Action.SILENT for _ in range(10_000)
    )
    assert 0.48 <= silent / 10_000 <= 0.52


def test_random_agent_consumes_exactly_one_draw():
    rng_a = random.Random(5)
    rng_b = random.Random(5)
    decide(AgentKind.RANDOM, None, rng_a)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_non_random_kinds_leave_rng_untouched():
    rng = random.Random(5)
    state = rng.getstate()
    for kind in (AgentKind.COOPERATOR, AgentKind.DEFECTOR, AgentKind.TIT_FOR_TAT):
        decide(kind, Action.BETRAY, rng)
    assert rng.getstate() == state
