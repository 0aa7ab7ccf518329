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
every output are unchanged while a pass costs O(live nodes). The Gini is
taken over the balances of the turn order (by the Python loop only once
at most half the nodes are alive), with the dead ones as implicit zeros.

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
strict update-from-snapshot ordering. Both are one rule: every write is
``balances[x] = effective[x] + delta``, where ``effective`` is the live
balances or the pass's start copy.

Two pass loops: everything around a pass (the shuffle, the Gini call, the
stats, the hook and the convergence test) is Python, and a pass itself is
played either by ``_python_passes`` or by ``_pass.c`` through ctypes, on
``array`` buffers (int64 balances).
Both apply the rules above in the same order, look every decision up in
``strategies.ACTIONS`` and give identical outputs.
The C kernel plays on the graph's CSR arrays whenever it could be built and
loaded (see ``_kernel``) and no balance, bank balance or flow can leave
int64 (``_fits_int64``). Otherwise the Python loop runs on
``graph.adjacency``; it is also the reference the kernel is tested
against. The shuffle stays in Python; the kernel then takes over the
generator's MT19937 state (624 words and the index, from ``getstate()``)
and reproduces CPython's ``random()`` draw for draw. The kernel is
compiled on first use (by ``load_graph`` or ``run``), not at import, so
importing the package never starts a compiler.
After each pass the kernel also rebuilds the order and gathers the live
balances and their sum, and the Gini of an int64 ``array`` runs in the
same library (``metrics.gini``).
"""

import operator
import random
from array import array
from dataclasses import dataclass, field

from . import _kernel
from .errors import ConfigError
from .graph import Graph
from .metrics import _INT64_LIMIT, gini
from .strategies import ACTIONS, UNRECORDED, ActionMemory

LIVE = "live"
SNAPSHOT = "snapshot"
BALANCE_SEMANTICS = (LIVE, SNAPSHOT)

_DRAW = 2  # _pass.c's DRAW: the kernel's spelling of a None entry of ACTIONS


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
    rng = random.Random(cfg.seed)
    order = shuffle_order(range(n), rng)

    kernel = _kernel.load()[0]
    state = rng.getstate()
    if kernel is not None and _fits_int64(n, cfg) and state[0] == 3 and len(state[1]) == 625:
        balances = array("q", [cfg.initial_balance]) * n
        to_list = array.tolist
        passes = _kernel_passes(
            kernel.pd_pass, graph.offsets, graph.targets, strategies, order, balances, cfg, state[1]
        )
    else:
        balances = [cfg.initial_balance] * n
        to_list = list.copy
        passes = _python_passes(graph.adjacency, strategies, order, balances, cfg, rng)

    gini_series: list[float] = []
    stats: list[IterationStats] = []
    converged_at = None
    for iteration, (stat, held, converged) in zip(range(1, cfg.iterations + 1), passes):
        gini_series.append(gini(held, n))
        stats.append(stat)
        if iteration_hook is not None:
            iteration_hook(iteration, to_list(balances), stat.bank_balance)
        if converged:
            converged_at = iteration
            break

    return RunResult(
        gini_series=gini_series,
        converged_at=converged_at,
        final_balances=to_list(balances),
        final_bank=stats[-1].bank_balance,
        iteration_stats=stats,
    )


def _python_passes(adjacency, strategies, order, balances, cfg, rng):
    """The pass loop in Python: the reference for `_pass.c` and its fallback.

    Plays one pass over `balances` (a list, updated in place) per next()
    and yields (stats, held, converged): held is what the Gini is taken
    over, converged whether the pass left every balance where it began.
    """
    n = len(balances)
    payoff = cfg.payoff
    last = ActionMemory(n).codes
    rows = [ACTIONS[kind] for kind in strategies]  # each node's row of the decision table

    bank_infinite = cfg.bank.infinite
    bank_balance = 0 if bank_infinite else cfg.bank.balance
    live = cfg.balance_semantics == LIVE

    reward = payoff.coop_reward
    reward_cost = 2 * reward
    penalty = payoff.defect_penalty
    transfer = payoff.betrayal_transfer

    rng_random = rng.random
    drained = 0  # payers left at zero since order was last rebuilt

    while True:
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

            act_v = rows[v][last[o]]
            if act_v is None:  # a Random agent draws
                act_v = 0 if rng_random() < 0.5 else 1
            act_o = rows[o][last[v]]
            if act_o is None:
                act_o = 0 if rng_random() < 0.5 else 1

            if act_v != act_o:  # the silent player pays the betrayer
                payer, payee = (o, v) if act_v else (v, o)
                t = min(transfer, effective[payer])
                balances[payer] = effective[payer] - t
                balances[payee] = effective[payee] + t
                if not balances[payer]:
                    drained += 1
            elif act_v == 0:  # both silent: bank pays both or neither
                if bank_infinite or bank_balance >= reward_cost:
                    balances[v] = effective[v] + reward
                    balances[o] = effective[o] + reward
                    bank_balance -= reward_cost
                    outflow += reward_cost
            else:  # both betray: both pay the bank
                t1 = min(penalty, effective[v])
                t2 = min(penalty, effective[o])
                balances[v] = effective[v] - t1
                balances[o] = effective[o] - t2
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
        reported_bank = None if bank_infinite else bank_balance
        stat = IterationStats(played, skipped, inflow, outflow, reported_bank, sum(held))
        yield stat, held, balances == start


def _kernel_passes(pd_pass, offsets, targets, strategies, order, balances, cfg, mt_state):
    """`_python_passes` with each pass played by `_pass.c`.

    `balances` is an int64 array; mt_state holds the 624 MT19937 words and
    the index of the run's generator after the shuffle. held is an int64
    array of the live balances, rewritten by every pass.
    """
    n = len(balances)
    payoff = cfg.payoff
    infinite = cfg.bank.infinite
    order = array("q", order)
    held = array("q", [0]) * n  # cut to the live length of order after each pass
    kinds = array("b", strategies)
    last = array("b", [UNRECORDED]) * n
    start = array("q", [0]) * n
    # In the order of _pass.c's P_* and A_* slots; the decision table last.
    params = array(
        "q",
        [n, cfg.balance_semantics == LIVE, infinite]
        + [payoff.coop_reward, payoff.defect_penalty, payoff.betrayal_transfer]
        + [_DRAW if action is None else action for row in ACTIONS for action in row],
    )
    acc = array("q", [0 if infinite else cfg.bank.balance, 0, 0, 0, 0, 0, 0, 0])
    mt = array("I", mt_state)
    arrays = (offsets, targets, kinds, last, balances, start, params, acc, mt)
    pointers = [a.buffer_info()[0] for a in arrays]  # the arrays stay alive in this frame

    m = len(order)
    while True:
        converged = pd_pass(order.buffer_info()[0], m, held.buffer_info()[0], *pointers)
        bank_balance, _, played, skipped, inflow, outflow, m, total = acc
        if len(held) != m:
            del held[m:]  # may move the buffer, so its address is read per pass
        reported_bank = None if infinite else bank_balance
        yield IterationStats(played, skipped, inflow, outflow, reported_bank, total), held, converged == 1


def _fits_int64(n: int, cfg: SimConfig) -> bool:
    """Whether no balance, bank balance or flow of the run can leave int64.

    Live runs conserve capital against a finite bank; snapshot runs can
    create some (a node's losses in a pass are overwritten by its last
    gain), but no node gains more than the largest payoff per pass, and the
    bank takes in at most twice the penalty per game. The bound covers both.
    """
    payoff = cfg.payoff
    largest = max(payoff.coop_reward, payoff.defect_penalty, payoff.betrayal_transfer)
    bank = 0 if cfg.bank.infinite else cfg.bank.balance
    return n * cfg.initial_balance + bank + 2 * n * cfg.iterations * largest < _INT64_LIMIT


def _strategy_codes(node_count: int, assignment) -> list[int]:
    """Validate that assignment covers 0..n-1 and flatten it to the kind
    codes, which index the rows of ACTIONS: 1.5 or "1" is no agent kind."""
    codes = []
    for v in range(node_count):
        try:
            code = operator.index(assignment[v])
        except (KeyError, IndexError):
            raise ConfigError(f"assignment does not cover node {v}") from None
        except TypeError:
            raise ConfigError(f"assignment holds a non-agent value for node {v}") from None
        if not 0 <= code < len(ACTIONS):
            raise ConfigError(f"assignment holds invalid agent kind for node {v}")
        codes.append(code)
    return codes
