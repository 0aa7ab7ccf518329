"""Undirected simple graphs loaded from edge-list files.

Loading normalizes the input: self-loops are dropped, duplicate and
reverse-duplicate edges merge into one undirected edge, and original
node labels are remapped to contiguous ids 0..n-1 in order of first
appearance. First-appearance order makes reloading the same file yield
an identical graph on any platform.

Two readers apply these rules. `load_graph` first hands the file's bytes
to the C reader in `_pass.c` (when `_kernel` can build it), which parses a
strict ASCII grammar straight into the CSR arrays the engine's kernel plays
on. On any other input, or without a C compiler, the Python reader
(`_label_pairs` and `graph_from_edges`) reads the file as UTF-8 text: it
builds the graph or raises the ParseError, and it is the reference the C
reader is tested against.
"""

import ctypes
from array import array
from itertools import accumulate, chain
from typing import Iterable, Iterator, TextIO

from . import _kernel
from .errors import ConfigError, ParseError

# Format name -> (field separator, fields per data line, what the message
# calls a field, comment prefix). A None separator splits on whitespace;
# the first two fields are the edge's endpoint labels.
_FORMATS = {
    "snap": (None, 2, "fields", "#"),
    "bitcoin_otc": (",", 4, "columns", None),
}
GRAPH_FORMATS = tuple(_FORMATS)
_C_FORMATS = {"snap": 0, "bitcoin_otc": 1}  # the FORMAT_* codes of _pass.c


class Graph:
    """Undirected simple graph with contiguous node ids; read-only by contract.

    adjacency holds one sorted neighbor list per node; edge_count is the
    number of undirected edges (half the sum of adjacency lengths);
    id_map maps original dataset labels to ids 0..node_count-1.

    A loaded graph holds its CSR arrays (int64 offsets, int32 targets) and
    derives `adjacency` from them on first access; a graph built from
    adjacency lists derives the CSR on first access instead.
    """

    __slots__ = ("node_count", "edge_count", "id_map", "_adjacency", "_csr")  # _csr: unset until built

    def __init__(
        self, node_count: int, adjacency: list[list[int]] | None, edge_count: int, id_map: dict[int, int]
    ):
        self.node_count = node_count
        self._adjacency = adjacency
        self.edge_count = edge_count
        self.id_map = id_map

    @classmethod
    def _from_csr(cls, offsets: array, targets: array, id_map: dict[int, int]) -> "Graph":
        graph = cls(len(offsets) - 1, None, len(targets) // 2, id_map)
        graph._csr = offsets, targets
        return graph

    @property
    def adjacency(self) -> list[list[int]]:
        if self._adjacency is None:
            offsets, targets = self._csr
            flat = targets.tolist()
            self._adjacency = [flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        return self._adjacency

    @property
    def csr(self):
        """(offsets, targets) arrays of the adjacency, or None when a
        neighbor is not an integer in [0, node_count), which the kernel
        could not index safely."""
        try:
            return self._csr
        except AttributeError:
            self._csr = _build_csr(self.node_count, self._adjacency)
            return self._csr

    def degrees(self) -> list[int]:
        """The degree of every node, by id."""
        if self._adjacency is None:
            offsets = self._csr[0]
            return [hi - lo for lo, hi in zip(offsets, offsets[1:])]
        return list(map(len, self._adjacency))

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, ascending."""
        for u, neighbors in enumerate(self.adjacency):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count, self.edge_count, self.id_map, self.adjacency) == (
            other.node_count,
            other.edge_count,
            other.id_map,
            other.adjacency,
        )

    def __repr__(self):
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"

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
    graph = _read_csr(path, fmt)
    if graph is not None:
        return graph
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return graph_from_edges(_label_pairs(handle, fmt))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _read_csr(path: str, fmt: str) -> Graph | None:
    """The graph of `path` as the C reader builds it, or None when the
    kernel library cannot be loaded or the reader gives up on the file."""
    library = _kernel.load()[0]
    if library is None:
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    counts = array("q", [0, 0])
    reader = ctypes.c_void_p()
    if library.pd_read_edges(data, len(data), _C_FORMATS[fmt], counts.buffer_info()[0], ctypes.byref(reader)):
        return None
    del data  # before the CSR is allocated
    n, pairs = counts
    try:
        labels = array("q", [0]) * n
        offsets = array("q", [0]) * (n + 1)
        targets = array("i", [0]) * (2 * pairs)
    except MemoryError:
        library.pd_edges_free(reader)
        return None
    if library.pd_edges_csr(reader, *(a.buffer_info()[0] for a in (labels, offsets, targets))):
        return None
    del targets[offsets[n]:]
    return Graph._from_csr(offsets, targets, dict(zip(labels, range(n))))


def _build_csr(n: int, adjacency):
    """The CSR arrays of hand-built adjacency lists, or None (see Graph.csr)."""
    if len(adjacency) != n:
        return None
    offsets = array("q", accumulate(map(len, adjacency), initial=0))
    flat = list(chain.from_iterable(adjacency))  # an array fills faster from a list
    try:
        targets = array("i", flat)
    except (TypeError, OverflowError):  # not integers that fit int32
        return None
    ids = set(flat)  # at most n entries: cheaper to scan than the targets
    if ids and (min(ids) < 0 or max(ids) >= n):
        return None
    return offsets, targets


def write_edge_list(graph: Graph, stream: TextIO) -> None:
    """Dump the normalized graph as a reloadable edge list (one 'u v' line per edge)."""
    stream.write(f"# nodes={graph.node_count} edges={graph.edge_count}\n")
    for u, v in graph.edges():
        stream.write(f"{u} {v}\n")


def degree_ranked_nodes(graph: Graph) -> list[int]:
    """Node ids sorted by degree descending, ties broken by ascending id."""
    # A reverse sort is stable too, so ties keep their ascending ids.
    return sorted(range(graph.node_count), key=graph.degrees().__getitem__, reverse=True)
