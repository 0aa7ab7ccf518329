"""Undirected simple graphs loaded from edge-list files.

Loading normalizes the input: self-loops are dropped, duplicate and
reverse-duplicate edges merge into one undirected edge, and original
node labels are remapped to contiguous ids 0..n-1 in order of first
appearance. First-appearance order makes reloading the same file yield
an identical graph on any platform.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import ConfigError, ParseError

FORMAT_SNAP = "snap"
FORMAT_BITCOIN_OTC = "bitcoin_otc"
GRAPH_FORMATS = (FORMAT_SNAP, FORMAT_BITCOIN_OTC)


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable undirected simple graph with contiguous node ids.

    adjacency holds one sorted neighbor list per node; edge_count is the
    number of undirected edges (half the sum of adjacency lengths);
    id_map maps original dataset labels to ids 0..node_count-1.
    """

    node_count: int
    adjacency: list[list[int]]
    edge_count: int
    id_map: dict[int, int]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, ascending."""
        for u, neighbors in enumerate(self.adjacency):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    def validate(self) -> None:
        """Exhaustively check the simple-graph invariants; raise ValueError on breach."""
        if self.node_count != len(self.adjacency):
            raise ValueError("adjacency length does not match node_count")
        degree_total = 0
        for u, neighbors in enumerate(self.adjacency):
            degree_total += len(neighbors)
            if sorted(set(neighbors)) != list(neighbors):
                raise ValueError(f"adjacency of node {u} is not sorted and duplicate-free")
            for v in neighbors:
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                if not 0 <= v < self.node_count:
                    raise ValueError(f"neighbor {v} of node {u} out of range")
                if u not in self.adjacency[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")
        if degree_total != 2 * self.edge_count:
            raise ValueError("edge_count does not equal half the adjacency total")


class _GraphBuilder:
    """Accumulates labeled edges, normalizing as they arrive."""

    def __init__(self) -> None:
        self.id_map: dict[int, int] = {}
        self.edge_set: set[tuple[int, int]] = set()
        self.adjacency: list[list[int]] = []

    def add_edge(self, label_u: int, label_v: int) -> None:
        if label_u == label_v:
            return
        u = self._node_id(label_u)
        v = self._node_id(label_v)
        key = (u, v) if u < v else (v, u)
        if key in self.edge_set:
            return
        self.edge_set.add(key)
        self.adjacency[u].append(v)
        self.adjacency[v].append(u)

    def _node_id(self, label: int) -> int:
        node = self.id_map.get(label)
        if node is None:
            node = len(self.id_map)
            self.id_map[label] = node
            self.adjacency.append([])
        return node

    def build(self) -> Graph:
        if not self.edge_set:
            raise ParseError("empty edge set after normalization")
        for neighbors in self.adjacency:
            neighbors.sort()
        return Graph(
            node_count=len(self.adjacency),
            adjacency=self.adjacency,
            edge_count=len(self.edge_set),
            id_map=self.id_map,
        )


def load_snap_edge_list(lines: Iterable[str]) -> Graph:
    """Load a plain-text edge list: '#' comment lines, two integer labels per data line.

    Blank lines are tolerated. Raises ParseError (with the 1-based line
    number) on non-integer tokens, wrong field counts, or an empty edge set.
    """
    builder = _GraphBuilder()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node label in {line!r}") from None
        builder.add_edge(u, v)
    return builder.build()


def load_bitcoin_otc_csv(lines: Iterable[str]) -> Graph:
    """Load a SOURCE,TARGET,RATING,TIME ratings CSV as an undirected, unweighted graph.

    Rating and time columns are discarded, as is edge direction: (u, v)
    and (v, u) merge into a single undirected edge. Raises ParseError on
    a wrong column count or non-integer endpoint.
    """
    builder = _GraphBuilder()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 columns, got {len(fields)}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node label in {line!r}") from None
        builder.add_edge(u, v)
    return builder.build()


def graph_from_edges(edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a normalized Graph from labeled edge pairs (same rules as the loaders)."""
    builder = _GraphBuilder()
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def load_graph(path: str, fmt: str) -> Graph:
    """Open `path` and dispatch on format name ('snap' or 'bitcoin_otc')."""
    if fmt not in GRAPH_FORMATS:
        raise ConfigError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            if fmt == FORMAT_SNAP:
                return load_snap_edge_list(handle)
            return load_bitcoin_otc_csv(handle)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def write_edge_list(graph: Graph, stream: TextIO) -> None:
    """Dump the normalized graph as a reloadable edge list (one 'u v' line per edge)."""
    stream.write(f"# nodes={graph.node_count} edges={graph.edge_count}\n")
    for u, v in graph.edges():
        stream.write(f"{u} {v}\n")


def degree_ranked_nodes(graph: Graph) -> list[int]:
    """Node ids sorted by degree descending, ties broken by ascending id."""
    adjacency = graph.adjacency
    return sorted(range(graph.node_count), key=lambda v: (-len(adjacency[v]), v))
