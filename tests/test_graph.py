import os
import random
import shutil

import pytest

from pdnetsim import (
    ConfigError,
    Graph,
    NetworkSpec,
    ParseError,
    _kernel,
    degree_ranked_nodes,
    graph_from_edges,
    load_graph,
)
from pdnetsim import graph as graph_module
from pdnetsim.cli import EXIT_OK, main

from conftest import path_graph, require_dataset, star_graph, triangle_graph


def test_snap_dedup_and_self_loop_removal(tmp_path):
    g = _python_read(tmp_path, "# c\n0 1\n1 0\n1 1\n")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.adjacency == [[1], [0]]


def test_labels_remap_in_first_appearance_order(tmp_path):
    g = _python_read(tmp_path, "5 7\n7 9\n")
    assert g.id_map == {5: 0, 7: 1, 9: 2}
    assert g.adjacency == [[1], [0, 2], [1]]


def test_self_loop_only_labels_do_not_become_nodes(tmp_path):
    g = _python_read(tmp_path, "0 1\n2 2\n")
    assert g.node_count == 2


def test_blank_lines_tolerated(tmp_path):
    g = _python_read(tmp_path, "\n0 1\n\n")
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0 x\n", "line 1"),
        ("0 1\n1 2 3\n", "line 2"),
        ("0\n", "line 1"),
    ],
)
def test_snap_malformed_line_reports_line_number(content, fragment, tmp_path):
    with pytest.raises(ParseError, match=fragment):
        _python_read(tmp_path, content)


def test_empty_edge_set_rejected(tmp_path):
    with pytest.raises(ParseError, match="empty edge set"):
        _python_read(tmp_path, "# only comments\n")


def test_bitcoin_direction_and_weight_discarded(tmp_path):
    g = _python_read(tmp_path, "6,2,4,1289241911.7\n2,6,5,1289241911.8\n", "bitcoin_otc")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.id_map == {6: 0, 2: 1}


def test_bitcoin_self_loop_only_input_rejected(tmp_path):
    with pytest.raises(ParseError, match="empty edge set"):
        _python_read(tmp_path, "1,1,10,0\n", "bitcoin_otc")


def test_bitcoin_wrong_column_count_reports_line_number(tmp_path):
    with pytest.raises(ParseError, match="line 2: expected 4 columns, got 3"):
        _python_read(tmp_path, "1,2,3,4\n1,2,3\n", "bitcoin_otc")


def test_degree_ranking_star():
    assert degree_ranked_nodes(star_graph(4)) == [0, 1, 2, 3, 4]


def test_degree_ranking_all_ties_fall_back_to_id_order():
    assert degree_ranked_nodes(triangle_graph()) == [0, 1, 2]


def test_degree_ranking_path():
    # degrees (1, 2, 2, 1): middle nodes first, ties by ascending id
    assert degree_ranked_nodes(path_graph(4)) == [1, 2, 0, 3]


def _normalized_by_brute_force(pairs):
    """(node_count, edge_count, adjacency, id_map items) as the loaders must normalize `pairs`."""
    id_map = {}
    for u, v in pairs:
        if u != v:
            for label in (u, v):
                if label not in id_map:
                    id_map[label] = len(id_map)
    edges = {frozenset((id_map[u], id_map[v])) for u, v in pairs if u != v}
    adjacency = [sorted(w for edge in edges if x in edge for w in edge if w != x) for x in range(len(id_map))]
    return len(id_map), len(edges), adjacency, list(id_map.items())


@pytest.fixture
def c_reader():
    """Skips only where no C compiler exists; anywhere else the kernel
    library, and with it the C graph reader, must load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    library, reason = _kernel.load()
    assert library is not None, reason


def _python_load(path, fmt):
    """load_graph as it reads without the kernel: the Python reader alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: (None, "forced"))
        return load_graph(str(path), fmt)


def _python_read(tmp_path, text, fmt="snap"):
    """The Python reader on `text`, written to a file."""
    path = tmp_path / "graph"
    path.write_text(text)
    return _python_load(path, fmt)


def _as_tuple(g):
    return (g.node_count, g.edge_count, g.adjacency, list(g.id_map.items()))


def test_loaded_graphs_satisfy_invariants(tmp_path):
    rng = random.Random(42)
    path = tmp_path / "graph"
    for fmt, row in (("snap", "{} {}\n"), ("bitcoin_otc", "{},{},5,1289241911.7\n")):
        for _ in range(25):
            n = rng.randint(2, 40)
            pairs = []
            for _ in range(rng.randint(1, 120)):
                u, v = rng.randrange(n) + 1, rng.randrange(n) + 1
                pairs.append((u, v))
                extra = rng.random()
                if extra < 0.15:
                    pairs.append((v, u))  # reverse duplicate
                elif extra < 0.25:
                    pairs.append((u, v))  # repeated row
                elif extra < 0.3:
                    pairs.append((u, u))  # self-loop
            text = "".join(row.format(u, v) for u, v in pairs)
            path.write_text(text)
            try:
                g = _python_load(path, fmt)
            except ParseError:
                assert all(u == v for u, v in pairs)
                with pytest.raises(ParseError, match="empty edge set"):
                    load_graph(str(path), fmt)
                continue
            # The file loader with the Python reader alone, and the file
            # loader as it reads (the C reader wherever the kernel loads).
            for loaded in (g, load_graph(str(path), fmt)):
                expected = _normalized_by_brute_force(pairs)
                assert _as_tuple(loaded) == expected
                assert loaded.degrees() == list(map(len, expected[2]))
                ranked = degree_ranked_nodes(loaded)
                assert sorted(ranked) == list(range(loaded.node_count))
            # reload determinism
            assert _python_load(path, fmt) == g


def test_graph_from_edges_matches_loader(tmp_path):
    edges = [(0, 1), (1, 2), (2, 0), (1, 0)]
    text = "".join(f"{u} {v}\n" for u, v in edges)
    assert graph_from_edges(edges) == _python_read(tmp_path, text)


@pytest.mark.parametrize(
    "adjacency, message",
    [
        ([[1], [2]], "neighbor 2 of node 1 is not an integer in [0, 2)"),
        ([[1], [0], [-1]], "neighbor -1 of node 2 is not an integer in [0, 3)"),
        ([[1.0], [0]], "neighbor 1.0 of node 0 is not an integer in [0, 2)"),
        # The loaders drop self-loops; the kernel and the Python loop would play one apart.
        ([[0, 1], [0]], "node 0 is its own neighbor (a self-loop)"),
        ([[1], [0, 1]], "node 1 is its own neighbor (a self-loop)"),
    ],
    ids=["neighbor-out-of-range", "negative-neighbor", "non-integer-neighbor", "self-loop", "self-loop-last"],
)
def test_graph_rejects_a_neighbor_outside_its_nodes(adjacency, message):
    with pytest.raises(ConfigError) as caught:
        Graph(adjacency, {})
    assert str(caught.value) == message


def test_graph_holds_the_csr_of_its_rows():
    g = Graph([[1, 2], [0], [0], []], {})
    assert (g.node_count, g.edge_count) == (4, 2)
    assert (g.offsets.tolist(), g.targets.tolist()) == ([0, 2, 3, 4, 4], [1, 2, 0, 0])
    assert (g.offsets.typecode, g.targets.typecode) == ("q", "i")
    assert g.adjacency == [[1, 2], [0], [0], []]
    assert g == Graph([[1, 2], [0], [0], []], {}) != Graph([[1, 2], [0], [0], []], {7: 0})


def test_a_path_that_is_not_a_path_is_refused_and_its_descriptor_left_open(tmp_path):
    # open() takes an int as a file descriptor, which it reads and then
    # closes (on a pipe's read end it blocks); both entries refuse it.
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(ConfigError, match=f"^path must be a str or os.PathLike, got {fd}$"):
            load_graph(fd, "snap")
        with pytest.raises(ConfigError, match=f"^the path of network 'g' must be a str or os.PathLike, got {fd}$"):
            NetworkSpec("g", fd, "snap")
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert load_graph(path, "snap") == load_graph(str(path), "snap")
    assert NetworkSpec("g", path, "snap").path == path


def test_the_python_reader_closes_its_line_reader_before_an_error_leaves_load_graph(tmp_path, monkeypatch):
    # Left open, the label reader would be closed only when the traceback
    # that holds it is freed, while the partly built graph still holds the
    # memory; out of memory, that close fails, and the interpreter prints
    # "Exception ignored" besides the command's one error line.
    import inspect

    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    readers = []

    def fail_after_one_pair(pairs):
        readers.append(pairs)
        next(pairs)
        raise MemoryError

    monkeypatch.setattr(graph_module, "_read_csr", lambda path, fmt: None)
    monkeypatch.setattr(graph_module, "graph_from_edges", fail_after_one_pair)
    with pytest.raises(MemoryError):
        load_graph(str(path), "snap")
    assert inspect.getgeneratorstate(readers[0]) == inspect.GEN_CLOSED


def test_facebook_dataset_counts():
    path, fmt = require_dataset("facebook")
    g = load_graph(path, fmt)
    assert g.node_count == 4039
    assert g.edge_count == 88234


def test_physics_dataset_counts():
    path, fmt = require_dataset("physics")
    g = load_graph(path, fmt)
    assert g.node_count == 5242
    assert g.edge_count == 14496


def test_bitcoin_dataset_counts():
    path, fmt = require_dataset("bitcoin")
    g = load_graph(path, fmt)
    assert g.node_count == 5881
    assert g.edge_count == 35592


# --- the C reader and the Python reader ---------------------------------------

_EXTREME_LABELS = [2**63 - 1, -(2**63 - 1), -(2**63), 0, 10**12]


def _spell(label, rng):
    """`label` as a decimal with an optional sign and leading zeros."""
    sign = "-" if label < 0 else rng.choice(["", "", "+"])
    return sign + "0" * rng.choice([0, 0, 0, 1, 3]) + str(abs(label))


def _random_edge_file(rng, fmt):
    """(bytes of a random file in the C reader's grammar, whether it holds an
    edge that is no self-loop)."""
    pool = [rng.randrange(-50, 50) for _ in range(rng.randint(2, 30))] + rng.sample(_EXTREME_LABELS, 2)
    pad = ["", "", " ", "\t"]
    lines, has_edge = [], False
    for _ in range(rng.randint(1, 60)):
        u, v = rng.choice(pool), rng.choice(pool)
        # a reverse duplicate, a repeated row, a self-loop or a plain row
        rows = rng.choices([[(u, v), (v, u)], [(u, v)] * 2, [(u, u)], [(u, v)]], weights=[15, 10, 10, 65])[0]
        for a, b in rows:
            has_edge |= a != b
            if fmt == "snap":
                sep = rng.choice([" ", "\t", "  ", " \t "])
                lines.append(rng.choice(pad) + _spell(a, rng) + sep + _spell(b, rng) + rng.choice(pad))
            else:
                around = rng.choice(["", " "])
                a_text, b_text, rating = _spell(a, rng), _spell(b, rng), rng.randint(-10, 10)
                lines.append(f"{rng.choice(pad)}{a_text}{around},{around}{b_text},{rating},1289241911.7")
        if rng.random() < 0.1:
            lines.append(rng.choice(["", " \t", "# a comment", "\t#"] if fmt == "snap" else ["", " "]))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    text = end.join(lines) + rng.choice([end, end, ""])
    return text.encode(), has_edge


def test_c_reader_matches_the_python_reader_on_random_files(c_reader, tmp_path):
    rng = random.Random(707)
    path = tmp_path / "graph"
    for case in range(300):
        fmt = ("snap", "bitcoin_otc")[case % 2]
        data, has_edge = _random_edge_file(rng, fmt)
        path.write_bytes(data)
        if not has_edge:
            assert graph_module._read_csr(str(path), fmt) is None
            for read in (load_graph, _python_load):
                with pytest.raises(ParseError, match="^empty edge set after normalization$"):
                    read(str(path), fmt)
            continue
        read_in_c = graph_module._read_csr(str(path), fmt)
        assert read_in_c is not None, data  # the C reader must not give up on its own grammar
        expected = _python_load(path, fmt)
        assert _as_tuple(read_in_c) == _as_tuple(expected)
        assert _as_tuple(load_graph(str(path), fmt)) == _as_tuple(expected)
        assert (read_in_c.offsets, read_in_c.targets) == (expected.offsets, expected.targets)
        adjacency = expected.adjacency
        by_old_key = sorted(range(expected.node_count), key=lambda v: (-len(adjacency[v]), v))
        assert degree_ranked_nodes(read_in_c) == degree_ranked_nodes(expected) == by_old_key


@pytest.mark.parametrize("reader", ["c", "python"])
def test_a_converted_graph_reloads_with_the_same_ids_and_runs_alike(request, monkeypatch, tmp_path, reader):
    if reader == "c":
        request.getfixturevalue("c_reader")
    else:
        monkeypatch.setattr(_kernel, "load", lambda: (None, "forced"))
    rng = random.Random(909)
    original, dump = tmp_path / "graph", tmp_path / "dump.txt"
    for case in range(40):
        fmt = ("snap", "bitcoin_otc")[case % 2]
        data, has_edge = _random_edge_file(rng, fmt)
        if not has_edge:
            continue
        original.write_bytes(data)
        assert main(["convert", str(original), "--format", fmt, "--out", str(dump)]) == EXIT_OK
        graph, reloaded = load_graph(str(original), fmt), load_graph(str(dump), "snap")
        assert (reloaded.offsets, reloaded.targets) == (graph.offsets, graph.targets), data
        series = []
        for out, path, path_fmt in ((tmp_path / "a", original, fmt), (tmp_path / "b", dump, "snap")):
            config = tmp_path / "run.cfg"
            config.write_text(
                f"graph = {path}\ngraph_format = {path_fmt}\nexperiment = 1\ngroup = 2:2:2:2\n"
                f"bank = 0\niterations = 30\nseed = {case}\nout = {out}\n"
            )
            assert main(["run", "--config", str(config)]) == EXIT_OK
            series.append((out / "gini_series.csv").read_bytes())
        assert series[0] == series[1], data


@pytest.mark.parametrize(
    "fmt, data",
    [
        ("snap", "1 ٢\n".encode()),  # a non-ASCII digit, which int() reads as 2
        ("snap", b"1_0 2\n"),
        ("snap", b"1 2\r3 4\n"),  # a lone carriage return ends a line in text mode
        ("snap", b"1\x0b2\n"),  # whitespace other than space and tab
        ("snap", f"{2**63} 1\n".encode()),
        ("bitcoin_otc", f"1,{-(2**63) - 1},0,0\n".encode()),
        ("snap", b"1 2\n1 2 3\n"),
        ("bitcoin_otc", b"1,2,3,4\n1,2,3\n"),
        ("bitcoin_otc", b"# no comments here\n1,2,3,4\n"),
        ("snap", b"0 x\n"),
        ("snap", b"# only comments\n5 5\n"),
        ("snap", b"0 1\n\xff\n"),
    ],
    ids=[
        "non-ascii-digit",
        "underscore",
        "lone-cr",
        "vertical-tab",
        "2**63",
        "below-int64",
        "field-count",
        "column-count",
        "bitcoin-comment",
        "non-integer",
        "empty-edge-set",
        "non-utf8",
    ],
)
def test_c_reader_leaves_other_input_to_the_python_reader(c_reader, tmp_path, fmt, data):
    path = tmp_path / "graph"
    path.write_bytes(data)
    assert graph_module._read_csr(str(path), fmt) is None

    def outcome(read):
        try:
            return _as_tuple(read(str(path), fmt))
        except ParseError as exc:
            return f"ParseError: {exc}"

    assert outcome(load_graph) == outcome(_python_load)


def _line(fmt, a, b):
    return f"{a} {b}" if fmt == "snap" else f"{a},{b},1,0"


_WORD_LABELS = {
    # id: (label, whether it fits int64); the C reader reads a label's first 8 bytes as one word
    "digits-1": ("7", True),
    "digits-7": ("1234567", True),
    "digits-8": ("12345678", True),
    "digits-9": ("123456789", True),
    "digits-16": ("1234567890123456", True),
    "digits-17": ("12345678901234567", True),
    "digits-18": ("123456789012345678", True),
    "digits-19": ("1234567890123456789", True),
    "digits-19-nines": ("9" * 19, False),
    "zeros-to-8-bytes": ("00000005", True),
    "zeros-to-9-bytes": ("000000005", True),
    "zeros-to-26-bytes": ("-0000000000000000000000001", True),
    "plus": ("+5", True),
    "minus": ("-5", True),
    "minus-zero": ("-0", True),
    "int64-max": (str(2**63 - 1), True),
    "int64-min": (str(-(2**63)), True),
    "past-int64-max": (str(2**63), False),
    "past-int64-min": (str(-(2**63) - 1), False),
    "zeros-before-int64-max": ("0" * 30 + str(2**63 - 1), True),
    "zeros-before-past-int64-max": ("0" * 30 + str(2**63), False),
}

_SHORT_AND_LINE_END_CASES = {
    # id: (snap bytes, whether the C reader reads them, the same for bitcoin_otc)
    "1-byte": (b"1", False, b"1", False),
    "2-bytes": (b"12", False, b"1,", False),
    "3-bytes": (b"1 2", True, b"1,2", False),
    "4-bytes": (b"1 2\n", True, b"1,2,", False),
    "5-bytes": (b"-1 +2", True, b"1,2,,", True),
    "6-bytes": (b"12 345", True, b"1,2,3,", True),
    "7-bytes": (b"123 456", True, b"1,2,3,4", True),
    "7-bytes-one-label": (b"1234567", False, b"1234567", False),
    "colon-after-digit": (b"1:2 3\n4 5\n", False, b"1:2,3,4,5\n", False),  # ':' follows '9'
    "slash-after-digit": (b"1/2 3\n4 5\n", False, b"1/2,3,4,5\n", False),  # '/' precedes '0'
    "crlf": (b"1 2\r\n3 4\r\n", True, b"1,2,3,4\r\n3,4,5,6\r\n", True),
    "crlf-then-last-byte": (b"1 2\r\n3 4", True, b"1,2,3,4\r\n3,4,5,6", True),
    "blank-crlf-lines": (b"\r\n1 2\r\n\r\n", True, b"\r\n1,2,3,4\r\n\r\n", True),
    "lone-cr-after-label": (b"1 2\r3 4\n", False, b"1,2\r,3,4\n", False),
    "lone-cr-at-end": (b"1 2\r", False, b"1,2,3,4\r", False),
    "lone-cr-before-crlf": (b"1 2\r\r\n", False, b"1,2,3,4\r\r\n", False),
    "sign-alone": (b"- 2\n", False, b"-,2,3,4\n", False),
    "two-signs": (b"+-5 2\n", False, b"+-5,2,3,4\n", False),
    "minus-zero-self-loop": (b"-0 0\n", False, b"-0,0,3,4\n", False),
}


def _boundary_case(fmt, case):
    """(file bytes, whether the C reader reads them) of a `case` in `fmt`. A
    label is put first on one line and second on the last, where in snap it
    ends on the file's last byte."""
    if case in _WORD_LABELS:
        label, fits = _WORD_LABELS[case]
        return f"{_line(fmt, label, 2)}\n{_line(fmt, 3, label)}".encode(), fits
    snap, snap_reads, csv, csv_reads = _SHORT_AND_LINE_END_CASES[case]
    return (snap, snap_reads) if fmt == "snap" else (csv, csv_reads)


@pytest.mark.parametrize("fmt", ["snap", "bitcoin_otc"])
@pytest.mark.parametrize("case", [*_WORD_LABELS, *_SHORT_AND_LINE_END_CASES])
def test_c_reader_matches_the_python_reader_at_word_boundaries(c_reader, tmp_path, fmt, case):
    data, c_reads = _boundary_case(fmt, case)
    path = tmp_path / "graph"
    path.write_bytes(data)

    def outcome(read):
        try:
            g = read(str(path), fmt)
        except ParseError as exc:
            return f"ParseError: {exc}"
        return _as_tuple(g), g.offsets, g.targets

    read_in_c = graph_module._read_csr(str(path), fmt)
    assert (read_in_c is not None) == c_reads
    expected = outcome(_python_load)
    if c_reads:
        assert (_as_tuple(read_in_c), read_in_c.offsets, read_in_c.targets) == expected
    assert outcome(load_graph) == expected


def test_a_graph_from_the_c_reader_builds_id_map_on_first_read(c_reader, tmp_path):
    path = tmp_path / "graph"
    path.write_bytes(b"5 7\n7 -9\n")
    g = graph_module._read_csr(str(path), "snap")
    assert g._id_map is None
    expected = _python_load(path, "snap")
    assert g.id_map == expected.id_map == {5: 0, 7: 1, -9: 2}
    assert g.id_map is g.id_map and g == expected
    path.write_bytes(b"6 7\n7 -9\n")
    relabeled = graph_module._read_csr(str(path), "snap")
    assert (relabeled.offsets, relabeled.targets) == (g.offsets, g.targets)
    assert relabeled != g  # __eq__ compares the labels too
