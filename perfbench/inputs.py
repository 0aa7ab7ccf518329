"""Seeded input generators and the workload definitions.

The generators live here, not in the test suite's conftest, so that an edit
to the tests cannot silently change what the benchmark measures. The program
under test sees only the files written here.
"""

import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 20240101
SNAP_FILE = "facebook_standin.txt"
BITCOIN_FILE = "bitcoin_standin.csv"


def scale_free_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Preferential attachment: each new node links to m earlier nodes, chosen
    with probability 0.9 proportionally to degree, else uniformly.

    Same recipe as the test suite's ``scale_free_graph``, so the default seed
    and (4039, 22) give the graph the acceptance performance gate uses.
    """
    rng = random.Random(seed)
    edges = []
    targets = list(range(m))
    endpoint_pool: list[int] = []
    for v in range(m, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            if endpoint_pool and rng.random() < 0.9:
                chosen.add(rng.choice(targets))
            else:
                chosen.add(rng.randrange(v))
        for u in chosen:
            edges.append((u, v))
            endpoint_pool.extend((u, v))
        targets = endpoint_pool
    return edges


def write_snap(path: str, edges) -> int:
    """Write a SNAP edge list ('#' header, 'u v' rows sorted by u); return the data row count."""
    rows = sorted((u, v) if u < v else (v, u) for u, v in edges)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# Undirected graph: preferential-attachment stand-in\n")
        handle.write(f"# Nodes: {max(max(r) for r in rows) + 1} Edges: {len(rows)}\n")
        handle.write("# FromNodeId\tToNodeId\n")
        handle.writelines(f"{u}\t{v}\n" for u, v in rows)
    return len(rows)


def write_bitcoin_otc(path: str, edges, seed: int, reverse_share: float = 0.1) -> int:
    """Write a SOURCE,TARGET,RATING,TIME trust CSV; return the row count.

    Labels start at 1 as in the real dataset. Each edge gets a random
    direction, a rating in -10..10 without 0, and a rising timestamp; a
    `reverse_share` of edges also appear as a reverse-direction rating, which
    the loader must merge into the same undirected edge.
    """
    rng = random.Random(seed)
    rows = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        rows.append((u + 1, v + 1))
        if rng.random() < reverse_share:
            rows.append((v + 1, u + 1))
    rng.shuffle(rows)
    stamp = 1289241911
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for src, dst in rows:
            stamp += rng.randrange(1, 4000)
            rating = rng.choice((-10, -5, -1, 1, 1, 1, 2, 2, 3, 5, 10))
            handle.write(f"{src},{dst},{rating},{stamp}.0\n")
    return len(rows)


@dataclass(frozen=True)
class Network:
    name: str
    fmt: str
    path: str
    nodes: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "suite"
    networks: tuple[Network, ...]
    config: dict  # key = value lines for the config file; repeated keys as lists
    workers: int = 1


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is the benchmark; TINY is for the self-tests."""

    fb_nodes: int
    fb_m: int
    btc_nodes: int
    btc_m: int
    run_iterations: int
    suite_iterations: int


FULL = Scale(fb_nodes=4039, fb_m=22, btc_nodes=5881, btc_m=6, run_iterations=1000, suite_iterations=20)
TINY = Scale(fb_nodes=300, fb_m=5, btc_nodes=400, btc_m=3, run_iterations=30, suite_iterations=5)


def generate(work_dir: str, seed: int, scale: Scale) -> dict:
    """Write both stand-in graphs under work_dir; return {path: data rows}."""
    os.makedirs(work_dir, exist_ok=True)
    fb = os.path.join(work_dir, SNAP_FILE)
    btc = os.path.join(work_dir, BITCOIN_FILE)
    rows = {fb: write_snap(fb, scale_free_edges(scale.fb_nodes, scale.fb_m, seed))}
    btc_edges = scale_free_edges(scale.btc_nodes, scale.btc_m, seed + 1)
    rows[btc] = write_bitcoin_otc(btc, btc_edges, seed + 2)
    return rows


def workloads(work_dir: str, seed: int, scale: Scale) -> dict[str, Workload]:
    fb = Network("facebook", "snap", os.path.join(work_dir, SNAP_FILE), scale.fb_nodes)
    btc = Network("bitcoin", "bitcoin_otc", os.path.join(work_dir, BITCOIN_FILE), scale.btc_nodes)
    run_common = {
        "graph": fb.path,
        "graph_format": fb.fmt,
        "experiment": "1",
        "iterations": str(scale.run_iterations),
        "initial_balance": "100",
        "balance_semantics": "live",
        "seed": str(seed),
    }
    return {
        # configs/run_control.cfg on a stand-in graph. The population collapses
        # (most nodes end at zero, most turns are skipped), so the per-iteration
        # O(n) work dominates: skip tests, the balance copy and compare, sum, and
        # gini sorting mostly zeros. An O(active nodes) engine shows here.
        "mix_bank0": Workload("mix_bank0", "run", (fb,), {**run_common, "group": "2:2:2:2", "bank": "0"}),
        # All cooperators with an infinite bank: no turn is ever skipped, so game
        # resolution and the per-iteration gini dominate. The bypass workload for
        # any skip-path optimisation, where the prediction is no change.
        "coop_inf": Workload("coop_inf", "run", (fb,), {**run_common, "group": "0:8:0:0", "bank": "inf"}),
        # Experiment 2 over both formats with the default groups and banks:
        # 36 short runs through the process pool. The only workload that parses
        # bitcoin_otc, ranks by degree, uses the finite 10000 bank, the pool with
        # its per-worker graph cache, and writes many CSVs.
        "suite_exp2": Workload(
            "suite_exp2",
            "suite",
            (fb, btc),
            {
                "experiment": "2",
                "network": [f"{net.name} {net.fmt} {net.path}" for net in (fb, btc)],
                "groups": "default",
                "banks": "default",
                "replicates": "1",
                "iterations": str(scale.suite_iterations),
                "initial_balance": "100",
                "seed": str(seed),
            },
            workers=2,
        ),
    }


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in config.items():
            for item in value if isinstance(value, list) else [value]:
                handle.write(f"{key} = {item}\n")
