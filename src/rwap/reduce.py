"""Stable-set reduction: build an instance whose maximum number of
simultaneously grantable requests equals the maximum stable set of a graph.

One request is created per graph node v, from network node 2v to 2v + 1,
with one working and one protection lightpath, all on one wavelength.  For
every graph edge, four conflict pairs are forced (both working/protection
orientations, the working pair, and the protection pair), and each forced
pair gets one fresh link between two fresh nodes.  Each lightpath runs
through the links of its forced pairs in that order, joined by connector
links of its own, so each conflicting pair shares exactly one link, a
request's two lightpaths share none, and no lightpath visits a node twice.
The network has 2|V| + 8|E| nodes and 2|V| + 12|E| links.
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


def mss_to_rwap(graph: MssGraph) -> Instance:
    """Reduce a stable-set instance to a request-granting instance."""
    n = graph.node_count
    # canonical pair order: edges sorted, then both working/protection
    # orientations, the working pair, the protection pair
    pairs = []
    for (a, b) in sorted(graph.edges):
        pairs += [((a, WORKING), (b, PROTECTION)), ((b, WORKING), (a, PROTECTION))]
        pairs += [((a, WORKING), (b, WORKING)), ((a, PROTECTION), (b, PROTECTION))]
    # forced pair i owns link i, from node 2n + 2i to node 2n + 2i + 1
    links = [(2 * n + 2 * i, 2 * n + 2 * i + 1) for i in range(len(pairs))]
    forced: dict[tuple[int, int], list[int]] = {(r, k): [] for r in range(n) for k in (WORKING, PROTECTION)}
    for i, pair in enumerate(pairs):
        for end in pair:
            forced[end].append(i)
    # each lightpath runs from node 2r through its forced links, in pair
    # order, to node 2r + 1, joined by connector links of its own
    paths: dict[tuple[int, int], Lightpath] = {}
    for (r, kind), shared in forced.items():
        at, path = 2 * r, []
        for i in shared:
            path += [len(links), i]
            links.append((at, links[i][0]))
            at = links[i][1]
        path.append(len(links))
        links.append((at, 2 * r + 1))
        paths[r, kind] = Lightpath(links=tuple(path), wavelength=0)

    # every forced pair shares exactly its own link, and each request's own
    # lightpaths stay disjoint
    for i, (a, b) in enumerate(pairs):
        if set(paths[a].links) & set(paths[b].links) != {i}:
            raise AssertionError("reduction produced a malformed conflict pair")
    for r in range(n):
        if set(paths[r, WORKING].links) & set(paths[r, PROTECTION].links):
            raise AssertionError("reduction broke a request's link-disjointness")
    requests = tuple(
        Request(
            id=r, source=2 * r, destination=2 * r + 1, working=(paths[r, WORKING],), protection=(paths[r, PROTECTION],)
        )
        for r in range(n)
    )
    net = Network(node_count=2 * n + 2 * len(pairs), links=tuple(links))
    return Instance(network=net, wavelength_count=1, requests=requests)


def max_requests_only(instance: Instance, node_limit: int | None = None) -> SolveReport:
    """Maximize the number of granted requests only (alpha 0, beta 1)."""
    conflict_sets = build_conflict_sets(instance)
    if instance.n_vars <= ENUMERATION_CAP:
        return brute_force_ip(instance, conflict_sets, alpha=0, beta=1)
    return branch_and_bound(instance, conflict_sets.strong, 0, 1, node_limit, conflict_sets)
