"""The breadth-first shortest-path search of ``rwap.gen`` against the
Dijkstra reference, on seeded random multigraphs with parallel links,
banned nodes and links, equal endpoints and unreachable targets."""

import numpy as np

from rwap.gen import _adjacency, _shortest
from rwap.instance import Network

from helpers import reference_shortest


def random_multigraph(rng: np.random.Generator) -> Network:
    nodes = int(rng.integers(1, 9))
    links = []
    for _ in range(int(rng.integers(0, 3 * nodes + 1))):
        tail, head = rng.integers(0, nodes, size=2).tolist()
        if tail != head:
            links += [(tail, head)] * int(rng.integers(1, 4))  # up to three parallel links
    order = rng.permutation(len(links)).tolist()
    return Network(node_count=nodes, links=tuple(links[k] for k in order))


def test_the_breadth_first_search_matches_the_reference():
    rng = np.random.default_rng(20201)
    outcomes = {"path": 0, "none": 0, "same endpoints": 0, "banned changed it": 0}
    queries = 0
    while queries < 12_000:
        net = random_multigraph(rng)
        adj = _adjacency(net)
        for _ in range(20):
            source, target = rng.integers(0, net.node_count, size=2).tolist()
            banned_nodes = set((rng.random(net.node_count) < 0.15).nonzero()[0].tolist())
            banned_links = set((rng.random(net.link_count) < 0.15).nonzero()[0].tolist())
            got = _shortest(adj, source, target, banned_nodes, banned_links)
            assert got == reference_shortest(net, source, target, banned_nodes, banned_links)
            queries += 1
            outcomes["same endpoints" if source == target else "path" if got is not None else "none"] += 1
            outcomes["banned changed it"] += got != _shortest(adj, source, target, set(), set())
    assert min(outcomes.values()) > 500, outcomes
