"""Transaction simulation engine.

A run walks a fixed, randomly shuffled node order for up to
``iterations`` passes. Each node in turn initiates one game with a
uniformly sampled neighbor: if the actions differ, capital moves from
the silent player to the betrayer; if both stay silent the bank pays
each player, symmetrically or not at all; if both betray, both pay the
bank. Transfers clamp to what the payer actually holds, so no balance
ever goes negative. After each pass the Gini coefficient of all
balances is recorded, and the run stops early once an entire pass
changes no balance.

Dead nodes: a zero balance is absorbing under both semantics. A node at
zero never plays, and a game that samples it is skipped, so nothing can
pay it again. The engine therefore drops nodes at zero from the turn
order (rebuilt once about an eighth of it has been drained) and counts
them as skipped turns. Skipped turns draw nothing, so the draw order and
every output are unchanged while a pass costs O(live nodes); once at
most half the nodes are alive, the Gini is taken over the live balances
with the dead ones as implicit zeros.

Convergence stays an end-of-pass comparison of all balances with the
pass's start, not a "some game changed a balance" flag: a pass can move
capital (a penalty paid to the bank, a payout, transfers back and forth)
and still leave every balance where it began, and then the run has
converged although games changed balances along the way.

Determinism contract: one seeded generator per run, consumed in a fixed
order:
  1. the node-order shuffle (one randrange per Fisher-Yates step),
  2. per game, one random() draw to pick a neighbor,
  3. per game, decisions in current-node-then-opponent order, where
     only RANDOM agents draw (one random() each, < 0.5 means SILENT).
Skipped turns (zero balance, no neighbors) consume no draws. The same
seed therefore reproduces a run bit for bit.

Balance semantics: under the default "live" semantics every check and
clamp sees up-to-the-moment balances, and a node drained mid-pass stops
transacting immediately; total capital is conserved exactly against the
bank. Under "snapshot" semantics checks and clamps see start-of-pass
balances and each game overwrites its players' balances from that
snapshot (last write wins), which intentionally trades conservation for
strict update-from-snapshot ordering.
"""

import random
from dataclasses import dataclass, field

from .errors import ConfigError
from .graph import Graph
from .metrics import gini
from .strategies import ActionMemory, AgentKind

LIVE = "live"
SNAPSHOT = "snapshot"
BALANCE_SEMANTICS = (LIVE, SNAPSHOT)

_COOPERATOR = int(AgentKind.COOPERATOR)
_DEFECTOR = int(AgentKind.DEFECTOR)
_TIT_FOR_TAT = int(AgentKind.TIT_FOR_TAT)
_RANDOM = int(AgentKind.RANDOM)


@dataclass(frozen=True, slots=True)
class PayoffParams:
    """Game payoffs in integer capital units.

    coop_reward: paid by the bank to each player on mutual silence.
    defect_penalty: surrendered by each player to the bank on mutual betrayal.
    betrayal_transfer: moved from the silent player to the betrayer.
    """

    coop_reward: int = 1
    defect_penalty: int = 2
    betrayal_transfer: int = 3

    def __post_init__(self):
        for name in ("coop_reward", "defect_penalty", "betrayal_transfer"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"payoff {name} must be a positive integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class Bank:
    """External authority: a finite reservoir with `balance`, or infinite."""

    balance: int = 0
    infinite: bool = False

    def __post_init__(self):
        if not self.infinite and (not isinstance(self.balance, int) or self.balance < 0):
            raise ConfigError(f"finite bank balance must be a non-negative integer, got {self.balance!r}")


@dataclass(frozen=True, slots=True)
class SimConfig:
    iterations: int = 1000
    initial_balance: int = 100
    payoff: PayoffParams = PayoffParams()
    bank: Bank = Bank()
    seed: int = 0
    balance_semantics: str = LIVE

    def __post_init__(self):
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ConfigError(f"iterations must be a positive integer, got {self.iterations!r}")
        if not isinstance(self.initial_balance, int) or self.initial_balance < 1:
            raise ConfigError(f"initial_balance must be a positive integer, got {self.initial_balance!r}")
        if self.balance_semantics not in BALANCE_SEMANTICS:
            raise ConfigError(
                f"balance_semantics must be one of {BALANCE_SEMANTICS}, got {self.balance_semantics!r}"
            )


@dataclass(frozen=True, slots=True)
class IterationStats:
    """End-of-iteration audit record."""

    games_played: int
    games_skipped: int
    bank_inflow: int
    bank_outflow: int
    bank_balance: int | None  # None when the bank is infinite
    total_balance: int


@dataclass(slots=True)
class RunResult:
    gini_series: list[float]
    converged_at: int | None
    final_balances: list[int]
    final_bank: int | None  # None when the bank is infinite
    iteration_stats: list[IterationStats] = field(default_factory=list)

    @property
    def iterations_executed(self) -> int:
        return len(self.gini_series)


def shuffle_order(node_ids, rng: random.Random) -> list[int]:
    """Uniform permutation of node_ids via Fisher-Yates.

    Spelled out (rather than rng.shuffle) so the draw order is pinned by
    this package, not by stdlib internals: one rng.randrange(i + 1) per
    position i from len-1 down to 1.
    """
    order = list(node_ids)
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def resolve_game(a_action, b_action, a_bal: int, b_bal: int, bank: Bank, payoff: PayoffParams):
    """Balance deltas for one game: (a_delta, b_delta, bank_delta).

    bank_delta is the net flow into the bank (negative when the bank pays
    out, 0 when it is not involved); callers apply it to the bank balance
    only in finite mode but may audit it in both. Requires a_bal > 0 and
    b_bal > 0; zero-balance games are skipped before resolution.

    Transfers clamp to the payer's balance. A mutual-silence payout is
    all-or-nothing: unless the bank can pay both players in full, neither
    receives anything (payouts are always symmetric).
    """
    if a_action != b_action:
        if b_action == 0:  # b silent, a betrays: b pays a
            t = min(payoff.betrayal_transfer, b_bal)
            return t, -t, 0
        t = min(payoff.betrayal_transfer, a_bal)  # a silent, b betrays
        return -t, t, 0
    if a_action == 0:  # both silent
        reward = payoff.coop_reward
        if bank.infinite or bank.balance >= 2 * reward:
            return reward, reward, -2 * reward
        return 0, 0, 0
    t1 = min(payoff.defect_penalty, a_bal)  # both betray
    t2 = min(payoff.defect_penalty, b_bal)
    return -t1, -t2, t1 + t2


def run(graph: Graph, assignment, cfg: SimConfig, iteration_hook=None) -> RunResult:
    """Simulate cfg.iterations passes of games on `graph` and track inequality.

    assignment maps every node id to an AgentKind (list or dict).
    iteration_hook, if given, is called as hook(iteration, balances,
    bank_balance) with a copy of the end-of-iteration state; handy for
    invariant checks without re-instrumenting the loop.

    Returns the per-iteration Gini series, the convergence iteration (the
    first pass that changed no balance, if any), final balances, the final
    bank balance (None when infinite), and per-iteration audit stats.
    """
    n = graph.node_count
    strategies = _strategy_codes(n, assignment)
    payoff = cfg.payoff

    rng = random.Random(cfg.seed)
    order = shuffle_order(range(n), rng)

    balances = [cfg.initial_balance] * n
    memory = ActionMemory(n)
    last = memory.codes
    adjacency = graph.adjacency

    bank_infinite = cfg.bank.infinite
    bank_balance = 0 if bank_infinite else cfg.bank.balance
    live = cfg.balance_semantics == LIVE

    reward = payoff.coop_reward
    reward_cost = 2 * reward
    penalty = payoff.defect_penalty
    transfer = payoff.betrayal_transfer

    rng_random = rng.random
    gini_series: list[float] = []
    stats: list[IterationStats] = []
    converged_at = None
    drained = 0  # payers left at zero since order was last rebuilt

    for iteration in range(1, cfg.iterations + 1):
        start = balances[:]
        effective = balances if live else start
        played = 0
        skipped = n - len(order)  # dead nodes dropped from the order
        inflow = 0
        outflow = 0

        for v in order:
            if effective[v] == 0:
                skipped += 1
                continue
            neighbors = adjacency[v]
            degree = len(neighbors)
            if degree == 0:
                skipped += 1
                continue
            o = neighbors[int(rng_random() * degree)]
            if effective[o] == 0:
                skipped += 1
                continue

            kind = strategies[v]
            if kind == _COOPERATOR:
                act_v = 0
            elif kind == _DEFECTOR:
                act_v = 1
            elif kind == _TIT_FOR_TAT:
                prev = last[o]
                act_v = 0 if prev < 0 else prev
            else:
                act_v = 0 if rng_random() < 0.5 else 1

            kind = strategies[o]
            if kind == _COOPERATOR:
                act_o = 0
            elif kind == _DEFECTOR:
                act_o = 1
            elif kind == _TIT_FOR_TAT:
                prev = last[v]
                act_o = 0 if prev < 0 else prev
            else:
                act_o = 0 if rng_random() < 0.5 else 1

            if act_v != act_o:
                if act_v == 1:  # v betrays, o silent: o pays v
                    t = min(transfer, effective[o])
                    if live:
                        balances[o] -= t
                        balances[v] += t
                    else:
                        balances[o] = start[o] - t
                        balances[v] = start[v] + t
                    if not balances[o]:
                        drained += 1
                else:  # v silent, o betrays: v pays o
                    t = min(transfer, effective[v])
                    if live:
                        balances[v] -= t
                        balances[o] += t
                    else:
                        balances[v] = start[v] - t
                        balances[o] = start[o] + t
                    if not balances[v]:
                        drained += 1
            elif act_v == 0:  # both silent: bank pays both or neither
                if bank_infinite or bank_balance >= reward_cost:
                    if live:
                        balances[v] += reward
                        balances[o] += reward
                    else:
                        balances[v] = start[v] + reward
                        balances[o] = start[o] + reward
                    bank_balance -= reward_cost
                    outflow += reward_cost
            else:  # both betray: both pay the bank
                t1 = min(penalty, effective[v])
                t2 = min(penalty, effective[o])
                if live:
                    balances[v] -= t1
                    balances[o] -= t2
                else:
                    balances[v] = start[v] - t1
                    balances[o] = start[o] - t2
                if not balances[v]:
                    drained += 1
                if not balances[o]:
                    drained += 1
                bank_balance += t1 + t2
                inflow += t1 + t2

            last[v] = act_v
            last[o] = act_o
            played += 1

        if drained * 8 > len(order):
            order = [v for v in order if balances[v]]
            drained = 0
        # Every node outside order is at zero, so below half alive it is
        # cheaper to gather the rest than to convert all n balances.
        held = [balances[v] for v in order] if 2 * len(order) <= n else balances
        gini_series.append(gini(held, n))
        reported_bank = None if bank_infinite else bank_balance
        stats.append(
            IterationStats(
                games_played=played,
                games_skipped=skipped,
                bank_inflow=inflow,
                bank_outflow=outflow,
                bank_balance=reported_bank,
                total_balance=sum(held),
            )
        )
        if iteration_hook is not None:
            iteration_hook(iteration, balances[:], reported_bank)
        if balances == start:
            converged_at = iteration
            break

    return RunResult(
        gini_series=gini_series,
        converged_at=converged_at,
        final_balances=balances,
        final_bank=None if bank_infinite else bank_balance,
        iteration_stats=stats,
    )


def _strategy_codes(node_count: int, assignment) -> list[int]:
    """Validate that assignment covers 0..n-1 and flatten it to int codes."""
    codes = []
    for v in range(node_count):
        try:
            codes.append(int(assignment[v]))
        except (KeyError, IndexError):
            raise ConfigError(f"assignment does not cover node {v}") from None
        except (TypeError, ValueError):
            raise ConfigError(f"assignment holds a non-agent value for node {v}") from None
    valid = {int(kind) for kind in AgentKind}
    bad = [v for v, code in enumerate(codes) if code not in valid]
    if bad:
        raise ConfigError(f"assignment holds invalid agent kind for node {bad[0]}")
    return codes
