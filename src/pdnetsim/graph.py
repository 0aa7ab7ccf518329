"""Undirected simple graphs loaded from edge-list files.

Loading normalizes the input: self-loops are dropped, duplicate and
reverse-duplicate edges merge into one undirected edge, and original
node labels are remapped to contiguous ids 0..n-1 in order of first
appearance. First-appearance order makes reloading the same file yield
an identical graph on any platform.

Two readers apply these rules. `load_graph` first hands the file's bytes
to the C reader in `_pass.c` (when `_kernel` can build it), which parses a
strict ASCII grammar straight into the CSR arrays every Graph holds and the
label of each id, from which `Graph.id_map` is built when first read. On
any other input, or without a C compiler, the Python reader
(`_label_pairs` and `graph_from_edges`) reads the file as UTF-8 text: it
builds the graph or raises the ParseError, and it is the reference the C
reader is tested against.
"""

import ctypes
import operator
from array import array
from itertools import accumulate, chain
from typing import Iterable, Iterator, TextIO

from . import _kernel
from .errors import PATH, ConfigError, ParseError, require

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

    The graph is its CSR arrays: the neighbors of node v are
    targets[offsets[v]:offsets[v + 1]] (int64 offsets, int32 targets), and
    `adjacency` is the same rows as lists, built on first access. id_map
    maps original dataset labels to ids 0..node_count-1; a graph the C
    reader built keeps the label of each id and builds this dict on first
    access, since no run or suite reads it. The constructor
    takes adjacency lists and raises ConfigError on a neighbor that is not
    an integer in [0, node_count), so the kernel never reads out of bounds,
    on a self-loop, which the kernel and the Python loop play apart, or on
    an empty list: a run has no Gini of zero balances.
    """

    __slots__ = ("offsets", "targets", "_labels", "_id_map", "_adjacency", "_ranked")

    def __init__(self, adjacency: list[list[int]], id_map: dict[int, int]):
        n = len(adjacency)
        if n == 0:
            raise ConfigError("a graph needs at least one node")
        flat = list(chain.from_iterable(adjacency))  # an array fills faster from a list
        try:
            targets = array("i", flat)
        except (TypeError, OverflowError):  # not integers that fit int32
            raise _bad_neighbor(adjacency) from None
        if flat and (min(flat) < 0 or max(flat) >= n) or any(u in row for u, row in enumerate(adjacency)):
            raise _bad_neighbor(adjacency)
        self.offsets = array("q", accumulate(map(len, adjacency), initial=0))
        self.targets = targets
        self._labels, self._id_map = None, id_map
        self._adjacency = self._ranked = None

    @classmethod
    def _from_csr(cls, offsets: array, targets: array, labels: array) -> "Graph":
        """A graph of CSR arrays the caller has checked and the label of each
        id (the C reader's)."""
        graph = cls.__new__(cls)
        graph.offsets, graph.targets, graph._labels = offsets, targets, labels
        graph._id_map = graph._adjacency = graph._ranked = None
        return graph

    @property
    def id_map(self) -> dict[int, int]:
        if self._id_map is None:
            self._id_map = dict(zip(self._labels, range(self.node_count)))
        return self._id_map

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        """The number of undirected edges: half the number of targets."""
        return len(self.targets) // 2

    @property
    def adjacency(self) -> list[list[int]]:
        if self._adjacency is None:
            offsets, flat = self.offsets, self.targets.tolist()
            self._adjacency = [flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        return self._adjacency

    def degrees(self) -> list[int]:
        """The degree of every node, by id."""
        offsets = self.offsets
        return [hi - lo for lo, hi in zip(offsets, offsets[1:])]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, ascending."""
        offsets, flat = self.offsets, self.targets.tolist()
        for u, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            for v in flat[lo:hi]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.id_map, self.offsets, self.targets) == (other.id_map, other.offsets, other.targets)

    def __repr__(self):
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


def _bad_neighbor(adjacency) -> ConfigError:
    """The error naming the first neighbor that is not an integer in [0, n),
    or the node itself (a self-loop)."""
    n = len(adjacency)
    for node, neighbors in enumerate(adjacency):
        for v in neighbors:
            try:
                valid = 0 <= operator.index(v) < n
            except TypeError:
                valid = False
            if not valid:
                return ConfigError(f"neighbor {v!r} of node {node} is not an integer in [0, {n})")
            if v == node:
                return ConfigError(f"node {node} is its own neighbor (a self-loop)")
    return ConfigError(f"{n} nodes do not fit int32 ids")


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
    if not adjacency:  # every node registered has an edge
        raise ParseError("empty edge set after normalization")
    for node, neighbors in enumerate(adjacency):
        adjacency[node] = sorted(set(neighbors))  # merges duplicate and reverse-duplicate edges
    return Graph(adjacency, id_map)


def load_graph(path: str, fmt: str) -> Graph:
    """Open `path` and dispatch on format name ('snap' or 'bitcoin_otc')."""
    require(path, "path", PATH)
    require(fmt, "graph format", GRAPH_FORMATS)
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
    return Graph._from_csr(offsets, targets, labels)


def write_edge_list(graph: Graph, stream: TextIO) -> None:
    """Dump the normalized graph as a reloadable edge list (one 'u v' line per edge).

    Each node v's edges 'u v' with u < v follow in id order of v, highest u
    first, so a reload meets the labels in id order and keeps every id: a
    loaded graph numbers nodes by first appearance, so a node k with no lower
    neighbor was first seen beside the new label k + 1, and 'k k+1' opens
    the lines of k + 1.
    """
    stream.write(f"# nodes={graph.node_count} edges={graph.edge_count}\n")
    offsets, flat = graph.offsets, graph.targets.tolist()
    for v, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        stream.writelines(f"{u} {v}\n" for u in sorted(flat[lo:hi], reverse=True) if u < v)


def degree_ranked_nodes(graph: Graph) -> list[int]:
    """Node ids sorted by degree descending, ties broken by ascending id.

    The ranking is sorted once per graph; each call returns a new list.
    """
    if graph._ranked is None:
        # A reverse sort is stable too, so ties keep their ascending ids.
        graph._ranked = sorted(range(graph.node_count), key=graph.degrees().__getitem__, reverse=True)
    return graph._ranked.copy()
