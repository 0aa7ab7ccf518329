"""Shared fixtures: tiny graph builders, seeded random graphs, the Gini
oracle, the engine's two loops, and discovery of the optional real-world
dataset files.

The three benchmark networks are large public downloads that are not
bundled with the repository; tests that need them skip with a pointer to
the README when the files are absent. Set PDNETSIM_DATA_DIR to use a
data directory other than <repo>/data.
"""

import os
import random
import shutil

import pytest

from pdnetsim import Graph, _kernel, graph_from_edges
from pdnetsim.experiments import execute_task

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DATASETS = {
    "facebook": ("facebook_combined.txt", "snap"),
    "physics": ("ca-GrQc.txt", "snap"),
    "bitcoin": ("soc-sign-bitcoinotc.csv", "bitcoin_otc"),
}


def data_dir() -> str:
    return os.environ.get("PDNETSIM_DATA_DIR", os.path.join(REPO_ROOT, "data"))


def dataset_path(name: str) -> tuple[str, str]:
    filename, fmt = DATASETS[name]
    return os.path.join(data_dir(), filename), fmt


def require_dataset(name: str) -> tuple[str, str]:
    path, fmt = dataset_path(name)
    if not os.path.exists(path):
        pytest.skip(f"dataset {name!r} not found at {path}; see README 'Datasets' for the fetch steps")
    return path, fmt


def gini_oracle(balances) -> float:
    """Reference Gini: average absolute difference over all balance pairs.

    Computes sum_{i,j} |x_i - x_j| / (2 * n * sum(x)) directly, without
    sorting, as a cross-check of `pdnetsim.gini`'s ranked form; the two
    agree to ~1e-12 on integer inputs. Quadratic in the vector length.
    Accumulates in int64 only when the sums provably fit, and otherwise in
    exact Python integers. Needs numpy, which the simulator itself does not.
    """
    import numpy as np

    try:
        x = np.asarray(balances, dtype=np.int64)
    except OverflowError:  # an entry does not fit in 64 bits
        x = np.array([int(v) for v in balances], dtype=object)
    if x.size == 0:
        raise ValueError("gini_oracle requires a non-empty balance vector")
    if x.min() < 0:
        raise ValueError("gini_oracle requires non-negative balances")
    if x.size * x.size * int(x.max()) >= 2**63:  # the pair sum could leave int64
        x = x.astype(object)
    total = int(x.sum())
    if total == 0:
        return 0.0
    pair_diffs = int(np.abs(x[:, None] - x[None, :]).sum())
    return pair_diffs / (2 * x.size * total)


def path_graph(n: int) -> Graph:
    return graph_from_edges([(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return graph_from_edges([(0, i) for i in range(1, leaves + 1)])


def triangle_graph() -> Graph:
    return graph_from_edges([(0, 1), (1, 2), (0, 2)])


def random_graph(n: int, avg_degree: float, seed: int) -> Graph:
    """Seeded random graph over exactly n nodes (ids 0..n-1): a random
    spanning tree so every node appears, plus Erdos-Renyi extras."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    p = avg_degree / (n - 1)
    edges.extend(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return graph_from_edges(edges)


def scale_free_graph(n: int, m: int, seed: int) -> Graph:
    """Seeded preferential-attachment graph: each new node links to m others,
    mostly chosen proportionally to current degree."""
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
    return graph_from_edges(edges)


@pytest.fixture
def python_loop(monkeypatch):
    """Every pass played by the Python loop, as where the kernel cannot be built."""
    monkeypatch.setattr(_kernel, "load", lambda: (None, "forced"))


@pytest.fixture
def kernel():
    """The compiled kernel. Skips only where no C compiler exists; anywhere
    else it must load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    library, reason = _kernel.load()
    assert library is not None, reason
    return library


@pytest.fixture(scope="session")
def fb_scale_graph() -> Graph:
    """Synthetic stand-in matching the largest benchmark network's scale
    (about 4,000 nodes and 88k edges); used for performance checks when the
    real datasets are absent."""
    return scale_free_graph(4039, 22, seed=20240101)


def execute_task_or_die(task):
    """`execute_task`, except that the worker process running replicate 2
    dies at once with exit code 1, as one killed by a crash does."""
    if task.replicate == 2:
        os._exit(1)
    return execute_task(task)
