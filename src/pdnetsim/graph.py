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

# Format name -> (field separator, fields per data line, what the message
# calls a field, comment prefix). A None separator splits on whitespace;
# the first two fields are the edge's endpoint labels.
_FORMATS = {
    "snap": (None, 2, "fields", "#"),
    "bitcoin_otc": (",", 4, "columns", None),
}
GRAPH_FORMATS = tuple(_FORMATS)


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


def _label_pairs(lines: Iterable[str], fmt: str) -> Iterator[tuple[int, int]]:
    """Yield the (source, target) label pair of each data line of a `fmt` file.

    Blank lines, and in formats that have them comment lines, are skipped.
    Raises ParseError with the 1-based line number on a wrong field count
    or a non-integer label.
    """
    separator, field_count, noun, comment = _FORMATS[fmt]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (comment and line.startswith(comment)):
            continue
        fields = line.split(separator)
        if len(fields) != field_count:
            raise ParseError(f"line {lineno}: expected {field_count} {noun}, got {len(fields)}")
        try:
            pair = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node label in {line!r}") from None
        yield pair


def graph_from_edges(edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a normalized Graph from labeled edge pairs (the rules the loaders apply).

    Raises ParseError when no edge is left after normalization.
    """
    id_map: dict[int, int] = {}
    adjacency: list[list[int]] = []
    for label_u, label_v in edges:
        if label_u == label_v:
            continue  # before registering the label: a label seen only in self-loops is no node
        u = id_map.setdefault(label_u, len(adjacency))  # a new label takes the next id
        if u == len(adjacency):
            adjacency.append([])
        v = id_map.setdefault(label_v, len(adjacency))
        if v == len(adjacency):
            adjacency.append([])
        adjacency[u].append(v)
        adjacency[v].append(u)
    for node, neighbors in enumerate(adjacency):
        adjacency[node] = sorted(set(neighbors))  # merges duplicate and reverse-duplicate edges
    edge_count = sum(map(len, adjacency)) // 2
    if not edge_count:
        raise ParseError("empty edge set after normalization")
    return Graph(node_count=len(adjacency), adjacency=adjacency, edge_count=edge_count, id_map=id_map)


def load_snap_edge_list(lines: Iterable[str]) -> Graph:
    """Load a plain-text edge list: '#' comment lines, two integer labels per data line.

    Blank lines are tolerated. Raises ParseError (with the 1-based line
    number) on non-integer tokens, wrong field counts, or an empty edge set.
    """
    return graph_from_edges(_label_pairs(lines, "snap"))


def load_bitcoin_otc_csv(lines: Iterable[str]) -> Graph:
    """Load a SOURCE,TARGET,RATING,TIME ratings CSV as an undirected, unweighted graph.

    Rating and time columns are discarded, as is edge direction: (u, v)
    and (v, u) merge into a single undirected edge. Raises ParseError on
    a wrong column count or non-integer endpoint.
    """
    return graph_from_edges(_label_pairs(lines, "bitcoin_otc"))


def load_graph(path: str, fmt: str) -> Graph:
    """Open `path` and dispatch on format name ('snap' or 'bitcoin_otc')."""
    if fmt not in GRAPH_FORMATS:
        raise ConfigError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return graph_from_edges(_label_pairs(handle, fmt))
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
