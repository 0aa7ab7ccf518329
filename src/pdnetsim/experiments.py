"""Experiment assignment recipes, and the records and task of a suite.

Two assignment families are supported: proportional groups (shuffle the
nodes, then cut at cumulative boundaries in fixed Defector, Cooperator,
Tit-for-Tat, Random order) and degree-ranked groups (rank nodes by
degree, cut into thirds, assign one kind per third, then overwrite a
quarter of each third with Random agents).

The degree-ranked assignment draws its three quarter-samples as
`random.Random.sample` would, in C when it can (see `_kernel`); that
`sample` stays the reference and the fallback.

A suite is the cross product networks x groups x bank settings x
replicates. Every run gets sub-seeds derived by hashing its run key, so
any single run of a sweep can be reproduced in isolation. The sweep's
orchestration is in `suite`, which only a suite imports.
"""

import functools
import hashlib
import random
from array import array
from math import ceil, log
from typing import NamedTuple

from . import _kernel
from .engine import SHARED_SETTINGS, RunResult, SimConfig, _Record, shuffle_order, run
from .errors import PATH, REQUIRED, Check, ConfigError, PDNetSimError, require
from .graph import GRAPH_FORMATS, Graph, degree_ranked_nodes, load_graph
from .strategies import KIND_LETTERS, LETTER_OF_KIND, AgentKind


class ProportionGroup(_Record):
    """Strategy mix in eighths (12.5% steps) of the population, summing to 8.

    Stored as eighths so the grid the experiments walk is exact by
    construction; label format is 'D:C:T:R' style, e.g. '3:1:2:2'.
    """

    _checks = {name: Check(f"{name} eighths", int, 0) for name in ("defector", "cooperator", "tit_for_tat", "random")}
    __slots__ = _fields = tuple(_checks)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if sum(self._values()) != 8:
            raise ConfigError(f"proportions must sum to 8 eighths (100%), got {self._values()}")

    @property
    def label(self) -> str:
        return f"{self.defector}:{self.cooperator}:{self.tit_for_tat}:{self.random}"

    @classmethod
    def parse(cls, text: str) -> "ProportionGroup":
        fields = text.strip().split(":")
        if len(fields) != 4:
            raise ConfigError(f"expected D:C:T:R eighths like '3:1:2:2', got {text!r}")
        try:
            d, c, t, r = (int(f) for f in fields)
        except ValueError:
            raise ConfigError(f"non-integer proportion in {text!r}") from None
        return cls(d, c, t, r)

    def assign(self, graph: Graph, rng: random.Random) -> list[AgentKind]:
        return assign_proportional(graph.node_count, self, rng)


class DegreeGroup(_Record):
    """Kinds for the top, middle, and bottom degree-ranked thirds.

    The triple must be a permutation of Defector, Cooperator, Tit-for-Tat;
    within each third, a quarter of the nodes are overwritten with Random
    agents. Label format is 'D,C,T' style.
    """

    _checks = {name: Check(name, AgentKind) for name in ("top", "middle", "bottom")}
    __slots__ = _fields = tuple(_checks)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if set(self._values()) != {AgentKind.DEFECTOR, AgentKind.COOPERATOR, AgentKind.TIT_FOR_TAT}:
            raise ConfigError("degree group must be a permutation of Defector, Cooperator, Tit-for-Tat")

    @property
    def label(self) -> str:
        return ",".join(LETTER_OF_KIND[k] for k in (self.top, self.middle, self.bottom))

    @classmethod
    def parse(cls, text: str) -> "DegreeGroup":
        letters = [f.strip().upper() for f in text.strip().split(",")]
        if len(letters) != 3 or any(l not in ("D", "C", "T") for l in letters):
            raise ConfigError(f"expected a permutation of D,C,T like 'C,T,D', got {text!r}")
        return cls(*(KIND_LETTERS[l] for l in letters))

    def assign(self, graph: Graph, rng: random.Random) -> list[AgentKind]:
        return assign_by_degree(graph, self, rng)


EXPERIMENT1_GROUPS = tuple(
    ProportionGroup.parse(label)
    for label in ("2:2:2:2", "3:1:2:2", "3:2:1:2", "2:3:1:2", "1:3:2:2", "2:1:3:2", "1:2:3:2")
)

EXPERIMENT2_GROUPS = tuple(
    DegreeGroup.parse(label) for label in ("D,C,T", "D,T,C", "C,D,T", "C,T,D", "T,C,D", "T,D,C")
)


def experiment_groups(experiment: int) -> tuple:
    """(group type, built-in groups) of experiment 1 or 2.

    The one place an experiment number is read; anything else, 1.0 and
    True included, is a ConfigError.
    """
    require(experiment, "experiment", int)
    if experiment == 1:
        return ProportionGroup, EXPERIMENT1_GROUPS
    if experiment == 2:
        return DegreeGroup, EXPERIMENT2_GROUPS
    raise ConfigError(f"experiment must be 1 or 2, got {experiment!r}")


class BankSetting(_Record):
    _checks = {"label": Check("bank label", str), "bank": SimConfig._checks["bank"]._replace(default=REQUIRED)}
    __slots__ = _fields = tuple(_checks)

    @classmethod
    def parse(cls, label: str) -> "BankSetting":
        """The setting `label` names: a starting balance, or 'inf' or 'infinite' (any case) for an infinite bank."""
        try:
            return cls(label, None if label.lower() in ("inf", "infinite") else int(label))
        except ValueError:
            raise ConfigError(f"bank must be a non-negative integer or 'inf', got {label!r}") from None


DEFAULT_BANK_SETTINGS = (BankSetting("0", 0), BankSetting("10000", 10000), BankSetting("inf", None))


class NetworkSpec(_Record):
    _checks = {
        "name": Check("network name", str),
        "path": Check("the path of network {name!r}", PATH),
        "fmt": Check("the format of network {name!r}", str),
    }
    __slots__ = _fields = tuple(_checks)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.fmt not in GRAPH_FORMATS:
            raise ConfigError(f"unknown graph format {self.fmt!r} in network {self.name!r}")


# A suite builds every run's task (some 400 bytes) before the first run plays.
MAX_SUITE_RUNS = 100_000


class SuiteSpec(_Record):
    _checks = {
        "networks": Check("each network", NetworkSpec, each=True),
        "experiment": Check("experiment", int),
        "groups": Check("groups", tuple),
        "banks": Check("each bank setting", BankSetting, each=True, default=DEFAULT_BANK_SETTINGS),
        "base_seed": Check("base_seed", int, default=0),
        "replicates": Check("replicates", int, default=5),
        **{name: SimConfig._checks[name] for name in SHARED_SETTINGS},
    }
    __slots__ = _fields = tuple(_checks)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        wanted = experiment_groups(self.experiment)[0]
        if not self.networks or not self.groups or not self.banks or self.replicates < 1:
            raise ConfigError("suite requires at least one network, group, bank setting and replicate")
        runs = len(self.networks) * len(self.groups) * len(self.banks) * self.replicates
        if runs > MAX_SUITE_RUNS:
            raise ConfigError(
                f"suite has {runs} runs (networks x groups x banks x replicates), more than {MAX_SUITE_RUNS}"
            )
        for group in self.groups:
            require(group, f"each group of experiment {self.experiment}", wanted)


def assign_proportional(node_count: int, group: ProportionGroup, rng: random.Random) -> list[AgentKind]:
    """Random assignment matching the group's proportions as exactly as rounding allows.

    Node ids are shuffled, then cut at cumulative boundaries
    cumulative_fraction * node_count, rounded half up, in fixed D, C, T, R
    order, so every kind's count is within one node of its exact share.
    Works for any node count >= 1 (tiny graphs pair naturally with
    single-kind mixes such as 0:8:0:0).
    """
    require(node_count, "node_count", int)
    if node_count < 1:
        raise ConfigError(f"proportional assignment needs at least 1 node, got {node_count}")
    order = shuffle_order(range(node_count), rng)
    assignment: list[AgentKind] = [AgentKind.RANDOM] * node_count
    kinds = (AgentKind.DEFECTOR, AgentKind.COOPERATOR, AgentKind.TIT_FOR_TAT, AgentKind.RANDOM)
    eighths = (group.defector, group.cooperator, group.tit_for_tat, group.random)
    cumulative = 0
    lo = 0
    for kind, share in zip(kinds, eighths):
        cumulative += share
        hi = (cumulative * node_count + 4) // 8  # cumulative/8 * n, rounded half up
        for v in order[lo:hi]:
            assignment[v] = kind
        lo = hi
    return assignment


def assign_by_degree(graph: Graph, group: DegreeGroup, rng: random.Random) -> list[AgentKind]:
    """Degree-ranked assignment: one kind per third, then Random overwrites.

    Thirds split the degree-descending ranking at n/3 and 2n/3. Within each
    third, a quarter of its nodes are drawn without replacement, as
    rng.sample draws them (see `_sample_positions`), and overwritten with
    Random. Every cut is rounded half up, in integers.
    """
    n = graph.node_count
    if n < 12:
        raise ConfigError(f"degree-ranked assignment needs at least 12 nodes, got {n}")
    ranked = degree_ranked_nodes(graph)
    b1 = (2 * n + 3) // 6
    b2 = (4 * n + 3) // 6
    thirds = (ranked[:b1], ranked[b1:b2], ranked[b2:])
    samples = _sample_positions([(len(third), (len(third) + 2) // 4) for third in thirds], rng)
    assignment: list[AgentKind] = [AgentKind.RANDOM] * n
    for third, kind, positions in zip(thirds, (group.top, group.middle, group.bottom), samples):
        for v in third:
            assignment[v] = kind
        for p in positions:
            assignment[third[p]] = AgentKind.RANDOM
    return assignment


def _sample_positions(sizes: list[tuple[int, int]], rng: random.Random) -> list[list[int]]:
    """rng.sample(range(m), k) for each (m, k) of `sizes` in turn.

    `_pass.c` makes the same draws, on one copy of rng's state, when it may
    draw for rng (see `_kernel`). Each sample takes the route CPython's
    `sample` picks, by its own expression: a pool of the m positions when m
    is at most `setsize`, else redraws against a record of the positions
    taken. pd_sample needs m < 2**32: every m here is at most a Graph's
    node count, which its int32 ids keep below 2**31.
    """
    copied = _kernel.generator_copy(rng)
    if copied is None:
        return [rng.sample(range(m), k) for m, k in sizes]
    kernel, mt = copied
    samples = []
    for m, k in sizes:
        setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        positions = array("q", [0]) * k
        scratch = array("q", [0]) * m  # the pool, or the mask of positions taken
        kernel.pd_sample(positions.buffer_info()[0], m, k, m <= setsize, scratch.buffer_info()[0], mt.buffer_info()[0])
        samples.append(positions.tolist())
    _kernel.write_back(rng, mt)
    return samples


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit sub-seed from the base seed and any hashable run-key parts."""
    key = "\x1f".join([str(int(base_seed)), *(str(p) for p in parts)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


class RunTask(NamedTuple):
    """One run, as the objects that describe it; all of them pickle.

    `play_task` plays it. `cfg` holds the suite's shared settings, this
    row's bank and its run sub-seed as `cfg.seed`; in a suite both
    sub-seeds hash the run key (network name, group label, bank label,
    replicate). The `run` command plays its run as a one-row task.
    """

    network: NetworkSpec
    group: ProportionGroup | DegreeGroup
    bank: BankSetting
    replicate: int
    assign_seed: int
    cfg: SimConfig
    series_path: str | None


class SuiteRow(NamedTuple):
    network: str
    group: str
    bank: str
    replicate: int
    final_gini: float | None
    converged_at: int | None
    status: str


@functools.cache
def _cached_graph(path: str, fmt: str) -> Graph:
    """The graph of one network file, loaded once per process and suite.

    Suites run tasks grouped by network, so each worker loads each file once.
    `run_suite` empties the cache when it returns, so the next suite reads
    the files again and its workers inherit no graph.
    """
    return load_graph(path, fmt)


def play_task(task: RunTask, graph: Graph) -> RunResult:
    """Play `task` on `graph`, its network's graph: draw the group's assignment
    from `random.Random(task.assign_seed)`, run with `task.cfg`, and write the
    series file if the task names one. Any error propagates."""
    result = run(graph, task.group.assign(graph, random.Random(task.assign_seed)), task.cfg)
    if task.series_path is not None:
        from .output import write_gini_series_csv

        write_gini_series_csv(task.series_path, result)
    return result


def execute_task(task: RunTask) -> SuiteRow:
    """Play one suite task, trapping any per-run failure into the row status.

    The network's graph is loaded once per process (`_cached_graph`); the
    task's objects were validated when the suite was built. Input and I/O
    errors read `error: <message>`; any other exception reads
    `error: <Type>: <message>`.
    """
    try:
        result = play_task(task, _cached_graph(task.network.path, task.network.fmt))
    except Exception as exc:  # a failed run must not lose its siblings
        known = isinstance(exc, (PDNetSimError, OSError))
        return _task_row(task, f"error: {exc}" if known else f"error: {type(exc).__name__}: {exc}")
    return _task_row(task, "ok", result.gini_series[-1], result.converged_at)


def _task_row(task: RunTask, status: str, final_gini=None, converged_at=None) -> SuiteRow:
    key = (task.network.name, task.group.label, task.bank.label, task.replicate)
    return SuiteRow(*key, final_gini, converged_at, status)


def run_suite(spec: SuiteSpec, series_path_for=None, workers: int = 1, progress=None) -> list[SuiteRow]:
    """`suite.run_suite`, imported on call so that only a suite compiles it."""
    from .suite import run_suite

    return run_suite(spec, series_path_for, workers, progress)
