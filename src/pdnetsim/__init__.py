"""Deterministic Prisoner's Dilemma transactions on networks, with a bank
authority and per-iteration Gini tracking."""

from .engine import (
    LIVE,
    SNAPSHOT,
    IterationStats,
    PayoffParams,
    RunResult,
    SimConfig,
    resolve_game,
    run,
    shuffle_order,
)
from .errors import ConfigError, ParseError, PDNetSimError
from .experiments import (
    DEFAULT_BANK_SETTINGS,
    EXPERIMENT1_GROUPS,
    EXPERIMENT2_GROUPS,
    BankSetting,
    DegreeGroup,
    NetworkSpec,
    ProportionGroup,
    SuiteSpec,
    assign_by_degree,
    assign_proportional,
    derive_seed,
    run_suite,
)
from .graph import (
    Graph,
    degree_ranked_nodes,
    graph_from_edges,
    load_graph,
)
from .metrics import gini
from .strategies import Action, AgentKind, decide

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentKind",
    "BankSetting",
    "ConfigError",
    "DEFAULT_BANK_SETTINGS",
    "DegreeGroup",
    "EXPERIMENT1_GROUPS",
    "EXPERIMENT2_GROUPS",
    "Graph",
    "IterationStats",
    "LIVE",
    "NetworkSpec",
    "ParseError",
    "PayoffParams",
    "PDNetSimError",
    "ProportionGroup",
    "RunResult",
    "SNAPSHOT",
    "SimConfig",
    "SuiteSpec",
    "assign_by_degree",
    "assign_proportional",
    "decide",
    "degree_ranked_nodes",
    "derive_seed",
    "gini",
    "graph_from_edges",
    "load_graph",
    "resolve_game",
    "run",
    "run_suite",
    "shuffle_order",
]
