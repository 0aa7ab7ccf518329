import io
import random

import pytest

from pdnetsim import (
    ParseError,
    degree_ranked_nodes,
    graph_from_edges,
    load_bitcoin_otc_csv,
    load_graph,
    load_snap_edge_list,
)

from conftest import path_graph, require_dataset, star_graph, triangle_graph


def test_snap_dedup_and_self_loop_removal():
    g = load_snap_edge_list(io.StringIO("# c\n0 1\n1 0\n1 1\n"))
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.adjacency == [[1], [0]]


def test_labels_remap_in_first_appearance_order():
    g = load_snap_edge_list(io.StringIO("5 7\n7 9\n"))
    assert g.id_map == {5: 0, 7: 1, 9: 2}
    assert g.adjacency == [[1], [0, 2], [1]]


def test_self_loop_only_labels_do_not_become_nodes():
    g = load_snap_edge_list(io.StringIO("0 1\n2 2\n"))
    assert g.node_count == 2


def test_blank_lines_tolerated():
    g = load_snap_edge_list(io.StringIO("\n0 1\n\n"))
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0 x\n", "line 1"),
        ("0 1\n1 2 3\n", "line 2"),
        ("0\n", "line 1"),
    ],
)
def test_snap_malformed_line_reports_line_number(content, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_snap_edge_list(io.StringIO(content))


def test_empty_edge_set_rejected():
    with pytest.raises(ParseError, match="empty edge set"):
        load_snap_edge_list(io.StringIO("# only comments\n"))


def test_bitcoin_direction_and_weight_discarded():
    g = load_bitcoin_otc_csv(io.StringIO("6,2,4,1289241911.7\n2,6,5,1289241911.8\n"))
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.id_map == {6: 0, 2: 1}


def test_bitcoin_self_loop_only_input_rejected():
    with pytest.raises(ParseError, match="empty edge set"):
        load_bitcoin_otc_csv(io.StringIO("1,1,10,0\n"))


def test_bitcoin_wrong_column_count_reports_line_number():
    with pytest.raises(ParseError, match="line 2: expected 4 columns, got 3"):
        load_bitcoin_otc_csv(io.StringIO("1,2,3,4\n1,2,3\n"))


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


def test_loaded_graphs_satisfy_invariants():
    rng = random.Random(42)
    for load, row in (
        (load_snap_edge_list, "{} {}\n"),
        (load_bitcoin_otc_csv, "{},{},5,1289241911.7\n"),
    ):
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
            try:
                g = load(io.StringIO(text))
            except ParseError:
                assert all(u == v for u, v in pairs)
                continue
            g.validate()
            loaded = (g.node_count, g.edge_count, g.adjacency, list(g.id_map.items()))
            assert loaded == _normalized_by_brute_force(pairs)
            ranked = degree_ranked_nodes(g)
            assert sorted(ranked) == list(range(g.node_count))
            # reload determinism
            assert load(io.StringIO(text)) == g


def test_graph_from_edges_matches_loader():
    edges = [(0, 1), (1, 2), (2, 0), (1, 0)]
    text = "".join(f"{u} {v}\n" for u, v in edges)
    assert graph_from_edges(edges) == load_snap_edge_list(io.StringIO(text))


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
