"""Seeded random instance generation and a synthetic topology builder.

Requests take distinct ordered source/destination pairs.  Each request draws
its working and protection paths independently, without replacement, from a
pool of k-shortest simple paths (k is four times the per-kind path count),
and every drawn path is combined with every available wavelength to form the
lightpath sets.  The main fidelity caveat is the pool itself: path selection
is random but restricted to shortest simple paths.
"""

from __future__ import annotations

import heapq
import logging

import numpy as np

from .instance import Instance, Lightpath, Network, Request

log = logging.getLogger(__name__)


class TopologyError(ValueError):
    """Raised for infeasible synthetic topology densities."""


class GenerationError(RuntimeError):
    """Raised when the requested instance cannot be generated."""


def _adjacency(net: Network) -> list[list[tuple[int, int]]]:
    """Per node, its outgoing (head, link id) pairs in link-id order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.node_count)]
    for lid, (tail, head) in enumerate(net.links):
        adj[tail].append((head, lid))
    return adj


def _shortest(
    adj: list[list[tuple[int, int]]],
    source: int,
    target: int,
    banned_nodes: set[int],
    banned_links: set[int],
) -> tuple[int, ...] | None:
    """Shortest simple path as a link-id tuple; ties break to the
    lexicographically smallest link sequence.  A breadth-first search that
    expands each node's links in id order reaches every node first along
    that sequence, so it returns on the first discovery of the target."""
    if source == target or source in banned_nodes or target in banned_nodes:
        return None
    reached = {source: ()}  # node -> its path, copied once per node reached
    frontier = [source]
    for node in frontier:  # the loop also visits the nodes appended while it runs
        for head, lid in adj[node]:
            if head in reached or head in banned_nodes or lid in banned_links:
                continue
            reached[head] = path = reached[node] + (lid,)
            if head == target:
                return path
            frontier.append(head)
    return None


def k_shortest_paths(net: Network, source: int, target: int, k: int) -> list[tuple[int, ...]]:
    """Up to k loopless paths in increasing length (then lexicographic) order.

    Parallel links count as distinct paths.
    """
    if k < 1:
        return []
    adj = _adjacency(net)
    first = _shortest(adj, source, target, set(), set())
    if first is None:
        return []
    accepted = [first]
    known = {first}
    candidates: list[tuple[int, tuple[int, ...]]] = []
    while len(accepted) < k:
        prev = accepted[-1]
        prev_nodes = [source, *(net.links[lid][1] for lid in prev)]
        for i in range(len(prev)):
            root = prev[:i]
            spur_node = prev_nodes[i]
            banned_links = {p[i] for p in accepted if len(p) > i and p[:i] == root}
            banned_nodes = set(prev_nodes[:i])
            spur = _shortest(adj, spur_node, target, banned_nodes, banned_links)
            if spur is None:
                continue
            total = root + spur
            if total not in known:
                known.add(total)
                heapq.heappush(candidates, (len(total), total))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        accepted.append(best)
    return accepted


def synth_topology(node_count: int, avg_out_degree: float, seed: int) -> Network:
    """Random strongly connected topology where every link's reverse exists.

    The undirected edge budget is round(node_count * avg_out_degree), capped
    at the simple-graph maximum; a bidirectional random spanning tree
    guarantees strong connectivity before the remaining edges are drawn.
    """
    if node_count < 1:
        raise TopologyError("need at least one node")
    if np.isnan(avg_out_degree):  # NaN would pass every range check below
        raise TopologyError(f"average out-degree {avg_out_degree} is not a number")
    if avg_out_degree * node_count > node_count * (node_count - 1):
        raise TopologyError("requested density exceeds the feasible maximum")
    target = round(node_count * avg_out_degree)
    target = min(target, node_count * (node_count - 1) // 2)
    if target < node_count - 1:
        raise TopologyError("too sparse to be strongly connected")
    rng = np.random.default_rng(seed)
    order = rng.permutation(node_count)
    edges: list[tuple[int, int]] = []
    used: set[tuple[int, int]] = set()
    for i in range(1, node_count):
        j = int(rng.integers(0, i))
        u, v = int(order[i]), int(order[j])
        edges.append((u, v))
        used.add((min(u, v), max(u, v)))
    free = [
        (u, v)
        for u in range(node_count)
        for v in range(u + 1, node_count)
        if (u, v) not in used
    ]
    extra = target - (node_count - 1)
    if extra:
        chosen = rng.choice(len(free), size=extra, replace=False)
        edges.extend(free[int(c)] for c in chosen)
    links: list[tuple[int, int]] = []
    for (u, v) in edges:
        links.append((u, v))
        links.append((v, u))
    return Network(node_count=node_count, links=tuple(links))


def generate(
    topology: Network,
    wavelengths: int,
    request_count: int,
    paths_per_kind: int,
    seed: int,
) -> Instance:
    """Draw requests over distinct ordered node pairs and build their
    lightpath sets; fully deterministic for a given seed."""
    if wavelengths < 1 or request_count < 1 or paths_per_kind < 1:
        raise GenerationError("wavelengths, request_count and paths_per_kind must be positive")
    n = topology.node_count
    pool = [(s, t) for s in range(n) for t in range(n) if s != t]
    if request_count > len(pool):
        raise GenerationError(f"cannot pick {request_count} distinct ordered pairs from {len(pool)}")
    rng = np.random.default_rng(seed)
    pair_order = rng.permutation(len(pool))
    requests: list[Request] = []
    for pair_idx in pair_order:
        if len(requests) == request_count:
            break
        s, t = pool[int(pair_idx)]
        paths = k_shortest_paths(topology, s, t, 4 * paths_per_kind)
        if not paths:
            continue  # resample: move to the next unused pair
        if len(paths) < paths_per_kind:
            log.warning("path pool for (%d, %d) has only %d entries", s, t, len(paths))
            w_idx = p_idx = list(range(len(paths)))
        else:
            w_idx = [int(i) for i in rng.choice(len(paths), size=paths_per_kind, replace=False)]
            p_idx = [int(i) for i in rng.choice(len(paths), size=paths_per_kind, replace=False)]
        working, protection = (
            tuple(Lightpath(links=paths[i], wavelength=lam) for i in idx for lam in range(wavelengths))
            for idx in (w_idx, p_idx)
        )
        requests.append(Request(id=len(requests), source=s, destination=t, working=working, protection=protection))
    if len(requests) < request_count:
        raise GenerationError(
            f"only {len(requests)} of {request_count} requests admit a path in this topology"
        )
    return Instance(network=topology, wavelength_count=wavelengths, requests=tuple(requests))
