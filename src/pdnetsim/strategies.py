"""Agent decision models and the global last-action memory.

A node's memory holds its single most recent action from any game with
any partner. Tit-for-Tat mirrors that global last action, so it can
answer different opponents differently only because those opponents
carry different histories. ACTIONS is the one statement of how each kind
decides, for `decide`, the engine's Python loop and `_pass.c` alike.
"""

import random
from enum import IntEnum


class Action(IntEnum):
    SILENT = 0  # cooperate
    BETRAY = 1  # defect


class AgentKind(IntEnum):
    COOPERATOR = 0
    DEFECTOR = 1
    TIT_FOR_TAT = 2
    RANDOM = 3


KIND_LETTERS = {kind.name[0]: kind for kind in AgentKind}  # C, D, T and R
LETTER_OF_KIND = {kind: letter for letter, kind in KIND_LETTERS.items()}


UNRECORDED = 2  # the memory code of a node that has not played yet: ACTIONS' third column

# ACTIONS[kind][code]: the action code (0 SILENT, 1 BETRAY) an agent of
# `kind` plays against an opponent whose memory code is `code`: its last
# action, or UNRECORDED. None means one rng.random() draw, < 0.5 for SILENT.
ACTIONS = (
    (0, 0, 0),  # COOPERATOR
    (1, 1, 1),  # DEFECTOR
    (0, 1, 0),  # TIT_FOR_TAT: opens silent, then mirrors
    (None, None, None),  # RANDOM
)


def decide(kind: AgentKind, opponent_last: Action | None, rng: random.Random) -> Action:
    """One decision for an agent of `kind` facing an opponent whose last
    recorded action is `opponent_last` (None if it never transacted).

    Only RANDOM consumes randomness: exactly one rng.random() draw,
    mapped < 0.5 to SILENT. All other kinds leave the rng untouched.
    """
    action = ACTIONS[AgentKind(kind)][UNRECORDED if opponent_last is None else opponent_last]
    if action is None:
        return Action.SILENT if rng.random() < 0.5 else Action.BETRAY
    return Action(action)


class ActionMemory:
    """Last recorded action per node; a node is absent until its first game.

    `codes` is the raw backing list of memory codes (UNRECORDED, else the
    Action value); the simulation loop reads and writes it directly.
    """

    __slots__ = ("codes",)

    def __init__(self, node_count: int):
        self.codes: list[int] = [UNRECORDED] * node_count

    def record(self, node: int, action: Action) -> None:
        self.codes[node] = int(action)

    def last(self, node: int) -> Action | None:
        code = self.codes[node]
        return None if code == UNRECORDED else Action(code)
