import random
import shutil

import pytest

from pdnetsim import (
    ConfigError,
    Graph,
    ParseError,
    _kernel,
    degree_ranked_nodes,
    graph_from_edges,
    load_graph,
)
from pdnetsim import graph as graph_module

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
                loaded.validate()
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
