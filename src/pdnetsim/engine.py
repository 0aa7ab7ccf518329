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
order after every pass, in the walk that gathers the balances of the rest,
and counts them as skipped turns. Skipped turns draw nothing, so the draw
order and every output are unchanged while a pass costs O(live nodes).
The Gini is taken over the balances of the turn order, with the dead ones
as implicit zeros.

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

Two pass loops: a pass is played either by ``_python_passes`` or,
through ctypes on ``array`` buffers (int64 balances), by ``_pass.c`` in
``_kernel_passes``. Both apply the rules above in the same order, look
every decision up in ``strategies.ACTIONS`` and yield the same
``(stats, gini, converged)`` triple per pass; ``run`` alone turns the
triples into the Gini series, the stats list, the hook calls, the
convergence iteration and the result. The Python loop plays each game
through ``resolve_game``, the one Python statement of the payoff rules,
and writes only the games that move capital; ``_pass.c`` states the same
rules once in C. The kernel plays on the graph's CSR arrays whenever it
could be built and loaded (see ``_kernel``) and no balance, bank balance
or flow can leave int64 (``_fits_int64``). Otherwise the Python loop runs
on ``graph.adjacency``; it is also the reference the kernel is tested
against.

On the kernel path ``pd_shuffle`` shuffles the order in a copy of the
generator's state, which ``pd_run`` goes on drawing from (see ``_kernel``).
One ``pd_run`` call plays a block of up to ``_BLOCK`` passes and stops at
convergence, so only a block's last pass can have converged. It writes
each pass's stats and the two integer Gini sums into buffers of one block,
and ``metrics.gini_of_sums``, which ``gini`` ends with too, turns each
pass's sums into its float. Under an ``iteration_hook`` each call plays one
pass, so that the hook sees its end, and the Gini is taken by ``gini``
(this module's attribute, looked up at call time) on the live balances the
kernel gathered, as the Python loop does. The kernel is compiled on first
use (by ``load_graph``, ``run`` or ``shuffle_order``), not at import, so
importing the package never starts a compiler.
"""

import operator
import random
from array import array
from typing import NamedTuple

from . import _kernel
from .errors import ConfigError, require_int, require_type
from .graph import Graph
from .metrics import gini, gini_of_sums
from .strategies import ACTIONS, UNRECORDED

LIVE = "live"
SNAPSHOT = "snapshot"
BALANCE_SEMANTICS = (LIVE, SNAPSHOT)

_DRAW = 2  # _pass.c's DRAW: the kernel's spelling of a None entry of ACTIONS
_BLOCK = 1000  # passes per pd_run call without a hook: its buffers hold this many rows
_STAT_FIELDS = 6  # _pass.c's S_FIELDS: one row of IterationStats
_LIVE, _CONVERGED, _ACC_SLOTS = 1, 2, 3  # _pass.c's A_LIVE and A_CONVERGED slots of acc, and its length
_INT64_LIMIT = 2**63


class _Record:
    """Value semantics for a record whose slots `__init__` sets once.

    `_fields` names the arguments of `__init__` in order. Equality, hashing
    and the repr go by them, and pickling calls `__init__` again, so an
    unpickled record has passed the same checks. Assignment after
    `__init__` raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class PayoffParams(_Record):
    """Game payoffs in integer capital units.

    coop_reward: paid by the bank to each player on mutual silence.
    defect_penalty: surrendered by each player to the bank on mutual betrayal.
    betrayal_transfer: moved from the silent player to the betrayer.
    """

    __slots__ = _fields = ("coop_reward", "defect_penalty", "betrayal_transfer")

    def __init__(self, coop_reward: int = 1, defect_penalty: int = 2, betrayal_transfer: int = 3):
        values = (coop_reward, defect_penalty, betrayal_transfer)
        for name, value in zip(self._fields, values):
            require_int(value, f"payoff {name}", 1)
        super().__init__(*values)


class SimConfig(_Record):
    __slots__ = _fields = ("iterations", "initial_balance", "payoff", "bank", "seed", "balance_semantics")

    def __init__(
        self,
        iterations: int = 1000,
        initial_balance: int = 100,
        payoff: PayoffParams = PayoffParams(),
        bank: int | None = 0,  # the bank's starting balance; None when it is infinite
        seed: int = 0,
        balance_semantics: str = LIVE,
    ):
        require_int(iterations, "iterations", 1)
        require_int(initial_balance, "initial_balance", 1)
        require_type(payoff, PayoffParams, "payoff")
        if bank is not None:
            require_int(bank, "finite bank balance", 0)
        require_int(seed, "seed")
        if balance_semantics not in BALANCE_SEMANTICS:
            raise ConfigError(f"balance_semantics must be one of {BALANCE_SEMANTICS}, got {balance_semantics!r}")
        super().__init__(iterations, initial_balance, payoff, bank, seed, balance_semantics)


class IterationStats(NamedTuple):
    """End-of-iteration audit record."""

    games_played: int
    games_skipped: int
    bank_inflow: int
    bank_outflow: int
    bank_balance: int | None  # None when the bank is infinite
    total_balance: int


class RunResult(_Record):
    __slots__ = _fields = ("gini_series", "converged_at", "final_balances", "final_bank", "iteration_stats")

    def __init__(
        self,
        gini_series: list[float],
        converged_at: int | None,
        final_balances: list[int],
        final_bank: int | None,  # None when the bank is infinite
        iteration_stats: list[IterationStats],
    ):
        super().__init__(gini_series, converged_at, final_balances, final_bank, iteration_stats)

    @property
    def iterations_executed(self) -> int:
        return len(self.gini_series)


def shuffle_order(node_ids, rng: random.Random) -> list[int]:
    """Uniform permutation of node_ids via Fisher-Yates.

    Spelled out (rather than rng.shuffle) so the draw order is pinned by
    this package, not by stdlib internals: one rng.randrange(i + 1) per
    position i from len-1 down to 1. For ``range(n)`` from 0 with n < 2**32,
    `_pass.c` makes the same draws when it may draw for rng (see `_kernel`).
    """
    n = len(node_ids)
    copied = _kernel.generator_copy(rng) if type(node_ids) is range and node_ids == range(n) and n < 2**32 else None
    if copied is not None:
        kernel, mt = copied
        order = array("q", [0]) * n
        kernel.pd_shuffle(order.buffer_info()[0], n, mt.buffer_info()[0])
        _kernel.write_back(rng, mt)
        return order.tolist()
    order = list(node_ids)
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def resolve_game(a_action, b_action, a_bal: int, b_bal: int, bank_balance: int | None, payoff: PayoffParams):
    """Balance deltas for one game: (a_delta, b_delta, bank_delta).

    bank_balance is the bank's balance, or None when the bank is infinite.
    bank_delta is the net flow into the bank (negative when the bank pays
    out, 0 when it is not involved); callers apply it to the bank balance
    only in finite mode but may audit it in both. Requires a_bal > 0 and
    b_bal > 0; zero-balance games are skipped before resolution.

    Transfers clamp to the payer's balance. A mutual-silence payout is
    all-or-nothing: unless the bank can pay both players in full, neither
    receives anything (payouts are always symmetric). This is the one
    statement of these rules in Python: the engine's Python loop plays
    every game through it, and `_pass.c` restates them in C.
    """
    if a_action != b_action:
        if b_action == 0:  # b silent, a betrays: b pays a
            t = min(payoff.betrayal_transfer, b_bal)
            return t, -t, 0
        t = min(payoff.betrayal_transfer, a_bal)  # a silent, b betrays
        return -t, t, 0
    if a_action == 0:  # both silent
        reward = payoff.coop_reward
        if bank_balance is None or bank_balance >= 2 * reward:
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
    copied = _kernel.generator_copy(rng) if _fits_int64(n, cfg) else None
    if copied is not None:
        balances = array("q", [cfg.initial_balance]) * n
        copy = balances.tolist
        passes = _kernel_passes(*copied, graph, strategies, balances, cfg, iteration_hook is not None)
    else:
        order = shuffle_order(range(n), rng)
        balances = [cfg.initial_balance] * n
        copy = balances.copy
        passes = _python_passes(graph.adjacency, strategies, order, balances, cfg, rng)

    gini_series: list[float] = []
    stats: list[IterationStats] = []
    converged_at = None
    for iteration, (stat, pass_gini, converged) in zip(range(1, cfg.iterations + 1), passes):
        gini_series.append(pass_gini)
        stats.append(stat)
        if iteration_hook is not None:
            iteration_hook(iteration, copy(), stat.bank_balance)
        if converged:
            converged_at = iteration
            break
    return RunResult(gini_series, converged_at, copy(), stats[-1].bank_balance, stats)


def _python_passes(adjacency, strategies, order, balances, cfg, rng):
    """The pass loop in Python: the reference for `_pass.c` and its fallback.

    Plays one pass over `balances` (a list, updated in place) per next()
    and yields (stats, gini, converged): converged is whether the pass left
    every balance where it began.
    """
    n = len(balances)
    payoff = cfg.payoff
    last = [UNRECORDED] * n  # each node's memory code: ACTIONS' column
    rows = [ACTIONS[kind] for kind in strategies]  # each node's row of the decision table
    bank_balance = cfg.bank
    live = cfg.balance_semantics == LIVE
    rng_random = rng.random

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

            dv, do, dbank = resolve_game(act_v, act_o, effective[v], effective[o], bank_balance, payoff)
            if dv:  # payoffs are positive, so only a blocked payout moves nothing
                balances[v] = effective[v] + dv
                balances[o] = effective[o] + do
                if bank_balance is not None:
                    bank_balance += dbank
                if dbank > 0:
                    inflow += dbank
                else:
                    outflow -= dbank

            last[v] = act_v
            last[o] = act_o
            played += 1

        order = [v for v in order if balances[v]]
        held = [balances[v] for v in order]
        stat = IterationStats(played, skipped, inflow, outflow, bank_balance, sum(held))
        yield stat, gini(held, n), balances == start


def _kernel_passes(kernel, mt, graph, strategies, balances, cfg, hooked):
    """The pass loop in `_pass.c`, yielding what `_python_passes` yields.

    `balances` is the int64 array played on, and `mt` the copy of the run's
    fresh generator that `kernel` shuffles the order in and every pass draws
    from. A call plays one pass when `hooked`, else up to _BLOCK,
    so no buffer grows with cfg.iterations; no call plays past
    cfg.iterations.
    """
    n = graph.node_count
    payoff = cfg.payoff
    infinite = cfg.bank is None
    order = array("q", [0]) * n
    held = array("q", [0]) * n  # its first acc[_LIVE] entries: the balances of order
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
    acc = array("q", [cfg.bank or 0, n, 0])
    block = 1 if hooked else min(_BLOCK, cfg.iterations)
    rows = array("q", [0]) * (_STAT_FIELDS * block)
    sums = None if hooked else array("Q", [0]) * (4 * block)
    arrays = (order, held, graph.offsets, graph.targets, kinds, last, balances, start, params, acc, mt, rows)
    pointers = [a.buffer_info()[0] for a in arrays]  # the arrays stay alive in this frame
    sums_pointer = None if sums is None else sums.buffer_info()[0]
    kernel.pd_shuffle(order.buffer_info()[0], n, mt.buffer_info()[0])  # in the state pd_run goes on from

    for done in range(0, cfg.iterations, block):
        limit = min(block, cfg.iterations - done)
        played = kernel.pd_run(limit, *pointers, sums_pointer)
        fields = [rows[f : _STAT_FIELDS * played : _STAT_FIELDS] for f in range(_STAT_FIELDS)]
        if infinite:
            fields[4] = [None] * played  # bank_balance
        if hooked:
            ginis = [gini(held[: acc[_LIVE]], n)]
        else:
            ginis = [
                gini_of_sums(w_hi << 64 | w_lo, t_hi << 64 | t_lo, n)
                for w_lo, w_hi, t_lo, t_hi in zip(*(sums[f : 4 * played : 4] for f in range(4)))
            ]
        converged = [False] * (played - 1) + [bool(acc[_CONVERGED])]
        yield from zip(map(IterationStats, *fields), ginis, converged)


def _fits_int64(n: int, cfg: SimConfig) -> bool:
    """Whether no balance, bank balance or flow of the run can leave int64,
    and n is below 2**32, which `pd_shuffle` draws its indices under.

    Live runs conserve capital against a finite bank; snapshot runs can
    create some (a node's losses in a pass are overwritten by its last
    gain), but no node gains more than the largest payoff per pass, and the
    bank takes in at most twice the penalty per game. The bound covers both.
    """
    payoff = cfg.payoff
    largest = max(payoff.coop_reward, payoff.defect_penalty, payoff.betrayal_transfer)
    return n < 2**32 and n * cfg.initial_balance + (cfg.bank or 0) + 2 * n * cfg.iterations * largest < _INT64_LIMIT


def _strategy_codes(node_count: int, assignment) -> bytes:
    """Validate that assignment covers 0..n-1 and flatten it to the kind
    codes, which index the rows of ACTIONS: 1.5 or "1" is no agent kind.

    A list of length n converts at C speed through bytes(); anything it
    rejects, or a code outside ACTIONS, goes through the loop below, which
    names the first bad node. (An element whose __index__ raises anything
    else raises it in the loop as well.)
    """
    if type(assignment) is list and len(assignment) == node_count:
        try:
            codes = bytes(assignment)
        except (TypeError, ValueError):
            pass
        else:
            if not codes.translate(None, bytes(range(len(ACTIONS)))):
                return codes
    codes = bytearray()
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
    return bytes(codes)
