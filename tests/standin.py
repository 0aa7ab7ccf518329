"""Write the 300-node stand-in graph the CI runs play on, as snap or bitcoin_otc.

The graph is perfbench's preferential-attachment recipe at 300 nodes, 5
links each, seed 1, with its edges as `graph_from_edges` lists them. A snap
file holds one "u v" line per edge; a bitcoin_otc file holds each edge twice,
as "v,u,1,0" and "u,v,-1,0", which the reader merges into one edge.

    PYTHONPATH=src python tests/standin.py snap g.txt
    PYTHONPATH=src python tests/standin.py bitcoin_otc g.csv

A run on it with experiment 1, group 2:2:2:2, bank 0, 50 iterations and
seed 1 ends at final_gini=0.412358. This file is a tool, not a test module:
pytest collects only test_*.py files.
"""

import argparse
import os
import sys

from pdnetsim import graph_from_edges

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from inputs import scale_free_edges  # noqa: E402  (perfbench/inputs.py: the benchmark's seeded stand-ins)

LINES = {"snap": "{u} {v}\n", "bitcoin_otc": "{v},{u},1,0\n{u},{v},-1,0\n"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("format", choices=LINES)
    parser.add_argument("out")
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        edges = graph_from_edges(scale_free_edges(300, 5, 1)).edges()
        handle.writelines(LINES[args.format].format(u=u, v=v) for u, v in edges)
    return 0


if __name__ == "__main__":
    sys.exit(main())
