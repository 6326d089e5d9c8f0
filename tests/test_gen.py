from collections import deque

import numpy as np
import pytest

from rwap.gen import (
    GenerationError,
    TopologyError,
    generate,
    k_shortest_paths,
    synth_topology,
)
from rwap.instance import Network


def _reachable(net: Network, start: int) -> set[int]:
    adj = [[] for _ in range(net.node_count)]
    for (t, h) in net.links:
        adj[t].append(h)
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def test_synth_topology_eon_shape():
    net = synth_topology(19, 2.05, seed=1)
    assert net.node_count == 19
    assert net.link_count == 78


def test_synth_topology_two_cycle():
    net = synth_topology(2, 1.0, seed=0)
    assert sorted(net.links) == [(0, 1), (1, 0)]


def test_synth_topology_reverse_links_present():
    net = synth_topology(10, 1.8, seed=5)
    link_set = set(net.links)
    assert all((h, t) in link_set for (t, h) in link_set)


@pytest.mark.parametrize("seed", range(50))
def test_synth_topology_strongly_connected(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    degree = float(rng.uniform(1.0, 2.5))
    if degree * n > n * (n - 1):
        degree = float(n - 1)
    net = synth_topology(n, degree, seed=seed)
    assert len(_reachable(net, 0)) == n
    reverse = Network(node_count=n, links=tuple((h, t) for (t, h) in net.links))
    assert len(_reachable(reverse, 0)) == n


def test_synth_topology_density_errors():
    with pytest.raises(TopologyError):
        synth_topology(4, 5.0, seed=0)  # exceeds feasible maximum
    with pytest.raises(TopologyError):
        synth_topology(6, 0.2, seed=0)  # below the connectivity minimum


def test_synth_topology_refuses_a_nan_degree():
    with pytest.raises(TopologyError, match="average out-degree nan"):
        synth_topology(10, float("nan"), seed=0)


def test_k_shortest_paths_orders_by_length():
    # diamond with a direct long chain: 0->1->3, 0->2->3, 0->3
    net = Network(node_count=4, links=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3)))
    paths = k_shortest_paths(net, 0, 3, 4)
    assert paths[0] == (4,)
    assert sorted(paths[1:]) == [(0, 1), (2, 3)]
    assert [len(p) for p in paths] == sorted(len(p) for p in paths)


def test_k_shortest_paths_simple_only():
    # cycle lets non-simple walks exist; they must not appear
    net = Network(node_count=3, links=((0, 1), (1, 0), (1, 2)))
    paths = k_shortest_paths(net, 0, 2, 10)
    assert paths == [(0, 2)]


def test_k_shortest_paths_multigraph_parallel_links():
    net = Network(node_count=2, links=((0, 1), (0, 1)))
    assert k_shortest_paths(net, 0, 1, 4) == [(0,), (1,)]


@pytest.mark.parametrize("k", [0, -1])
def test_k_shortest_paths_is_empty_below_one(k):
    net = Network(node_count=2, links=((0, 1), (0, 1)))
    assert k_shortest_paths(net, 0, 1, k) == []


def test_generate_variable_count_closed_form():
    topo = synth_topology(12, 2.0, seed=3)
    inst = generate(topo, wavelengths=2, request_count=3, paths_per_kind=2, seed=7)
    assert inst.n_vars == 3 * 2 * 2 * 2
    assert len(inst.requests) == 3
    sources = {(r.source, r.destination) for r in inst.requests}
    assert len(sources) == 3  # distinct ordered pairs


def test_generate_table_scale_variable_count():
    topo = synth_topology(19, 2.05, seed=11)
    inst = generate(topo, wavelengths=5, request_count=60, paths_per_kind=4, seed=11)
    assert inst.n_vars == 60 * (4 + 4) * 5 == 2400


def test_generate_single_link_topology():
    net = Network(node_count=2, links=((0, 1), (1, 0)))
    inst = generate(net, wavelengths=3, request_count=1, paths_per_kind=1, seed=0)
    req = inst.requests[0]
    assert len(req.working) == 3 and len(req.protection) == 3  # one path per wavelength


def test_generate_deterministic():
    topo = synth_topology(10, 2.0, seed=2)
    a = generate(topo, 2, 4, 2, seed=5)
    b = generate(topo, 2, 4, 2, seed=5)
    assert a == b
    c = generate(topo, 2, 4, 2, seed=6)
    assert a != c


def test_generate_skips_unreachable_pairs():
    # one-way chain: only three ordered pairs admit paths
    net = Network(node_count=3, links=((0, 1), (1, 2)))
    inst = generate(net, wavelengths=1, request_count=3, paths_per_kind=1, seed=1)
    assert {(r.source, r.destination) for r in inst.requests} == {(0, 1), (1, 2), (0, 2)}
    with pytest.raises(GenerationError):
        generate(net, wavelengths=1, request_count=4, paths_per_kind=1, seed=1)


def test_generate_rejects_impossible_request_count():
    net = Network(node_count=2, links=((0, 1), (1, 0)))
    with pytest.raises(GenerationError):
        generate(net, 1, 5, 1, seed=0)
