"""Stable-set reduction: build an instance whose maximum number of
simultaneously grantable requests equals the maximum stable set of a graph.

One request is created per graph node, with a single two-link working and a
single two-link protection lightpath, all on one wavelength and initially
link-disjoint.  For every graph edge, four conflict pairs are forced (both
working/protection orientations, the working pair, and the protection pair)
by rewiring: the host lightpath of the pair is extended by one fresh link
and the other lightpath is re-routed through it, so each conflicting pair
shares exactly one link and all other lightpaths are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflicts import build_conflict_sets
from .instance import Instance, Lightpath, Network, PROTECTION, Request, SolveReport, WORKING, _int
from .oracle import ENUMERATION_CAP, branch_and_bound, brute_force_ip


class GraphError(ValueError):
    """Raised for malformed stable-set input graphs."""


@dataclass(frozen=True)
class MssGraph:
    """Undirected simple graph; edges stored canonically with u < v."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for (u, v) in self.edges:
            if u == v:
                raise GraphError(f"self-loop on node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise GraphError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) must be stored with u < v")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))


def graph_from_dict(data: dict) -> MssGraph:
    """A ``{"nodes": n, "edges": [[u, v], ...]}`` document, each edge stored
    with u < v."""
    try:
        nodes = _int(data["nodes"])
        edges = tuple(tuple(sorted((_int(u), _int(v)))) for u, v in data["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    return MssGraph(node_count=nodes, edges=edges)


class _Builder:
    def __init__(self, requests: int):
        self.next_node = 0
        self.next_link = 0
        self.links: dict[int, tuple[int, int]] = {}
        self.paths: dict[tuple[int, int], list[int]] = {}
        self.endpoints: list[tuple[int, int]] = []
        for r in range(requests):
            s, t, u1, v1 = (self.new_node() for _ in range(4))
            self.endpoints.append((s, t))
            self.paths[(r, WORKING)] = [self.add_link(s, u1), self.add_link(u1, t)]
            self.paths[(r, PROTECTION)] = [self.add_link(s, v1), self.add_link(v1, t)]

    def new_node(self) -> int:
        self.next_node += 1
        return self.next_node - 1

    def add_link(self, tail: int, head: int) -> int:
        self.links[self.next_link] = (tail, head)
        self.next_link += 1
        return self.next_link - 1

    def rewire(self, host: tuple[int, int], other: tuple[int, int]) -> int:
        """Extend the host by one fresh link and route the other through it;
        returns the shared link id."""
        host_path = self.paths[host]
        last = host_path.pop()
        q, t_host = self.links.pop(last)
        z = self.new_node()
        shared = self.add_link(q, z)
        host_path += [shared, self.add_link(z, t_host)]

        other_path = self.paths[other]
        last_o = other_path.pop()
        q2, t_other = self.links.pop(last_o)
        z2 = self.new_node()
        other_path += [self.add_link(q2, q), shared, self.add_link(z, z2), self.add_link(z2, t_other)]
        return shared


def mss_to_rwap(graph: MssGraph) -> Instance:
    """Reduce a stable-set instance to a request-granting instance."""
    builder = _Builder(graph.node_count)
    shared_by_pair: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    # canonical tuple order: edges sorted, then both working/protection
    # orientations, the working pair, the protection pair
    for (a, b) in sorted(graph.edges):
        for pair in (
            ((a, WORKING), (b, PROTECTION)),
            ((b, WORKING), (a, PROTECTION)),
            ((a, WORKING), (b, WORKING)),
            ((a, PROTECTION), (b, PROTECTION)),
        ):
            # host rule: lexicographically smaller (request, kind) end
            host, other = sorted(pair)
            shared_by_pair[pair] = builder.rewire(host, other)

    # compact link ids in creation order
    remap = {old: new for new, old in enumerate(sorted(builder.links))}
    net = Network(
        node_count=builder.next_node,
        links=tuple(builder.links[old] for old in sorted(builder.links)),
    )
    requests = []
    for r in range(graph.node_count):
        s, t = builder.endpoints[r]
        working = Lightpath(links=tuple(remap[e] for e in builder.paths[(r, WORKING)]), wavelength=0)
        protection = Lightpath(links=tuple(remap[e] for e in builder.paths[(r, PROTECTION)]), wavelength=0)
        requests.append(Request(id=r, source=s, destination=t, working=(working,), protection=(protection,)))
    instance = Instance(network=net, wavelength_count=1, requests=tuple(requests))

    # every forced pair shares exactly the one fresh link, and each request's
    # own lightpaths stay disjoint
    for ((ra, ka), (rb, kb)), shared in shared_by_pair.items():
        pa = set(remap[e] for e in builder.paths[(ra, ka)])
        pb = set(remap[e] for e in builder.paths[(rb, kb)])
        if pa & pb != {remap[shared]}:
            raise AssertionError("reduction produced a malformed conflict pair")
    for r in range(graph.node_count):
        w = set(builder.paths[(r, WORKING)])
        p = set(builder.paths[(r, PROTECTION)])
        if w & p:
            raise AssertionError("reduction broke a request's link-disjointness")
    return instance


def max_requests_only(instance: Instance, node_limit: int | None = None) -> SolveReport:
    """Maximize the number of granted requests only (alpha 0, beta 1)."""
    conflict_sets = build_conflict_sets(instance)
    if instance.n_vars <= ENUMERATION_CAP:
        return brute_force_ip(instance, conflict_sets, alpha=0, beta=1)
    return branch_and_bound(instance, conflict_sets.strong, 0, 1, node_limit, conflict_sets)
