"""Shared test utilities: independent oracles and instance factories.

Everything here re-derives results from raw definitions, on purpose: these
functions are the cross-checks for the production code paths and must not
reuse them.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from rwap.gen import generate, synth_topology
from rwap.instance import Instance, Lightpath, Network, PROTECTION, Request, WORKING


def raw_feasible(instance: Instance, bits) -> bool:
    """Feasibility re-derived from the constraint definitions alone, without
    conflict-set precomputation."""
    selected = [i for i, b in enumerate(bits) if b]
    for req in instance.requests:
        cw = sum(
            1 for i in selected if instance.var_info(i)[0] == req.id and instance.var_info(i)[1] == WORKING
        )
        cp = sum(
            1 for i in selected if instance.var_info(i)[0] == req.id and instance.var_info(i)[1] == PROTECTION
        )
        if cw != cp or cw > 1:
            return False
    for i, j in itertools.combinations(selected, 2):
        ri, ki, _ = instance.var_info(i)
        rj, kj, _ = instance.var_info(j)
        li, lj = instance.lightpath_at(i), instance.lightpath_at(j)
        shares = bool(set(li.links) & set(lj.links))
        if ri == rj and {ki, kj} == {WORKING, PROTECTION} and shares:
            return False
        if li.wavelength == lj.wavelength and shares:
            return False
    return True


def raw_violation_count(instance: Instance, bits) -> int:
    """Total violation magnitude evaluated from the penalty definitions."""
    total = 0
    for req in instance.requests:
        cw = sum(bits[instance.var_of(req.id, WORKING, w)] for w in range(len(req.working)))
        cp = sum(bits[instance.var_of(req.id, PROTECTION, p)] for p in range(len(req.protection)))
        total += (cw - cp) ** 2 + cw * (cw - 1)
    n = instance.n_vars
    for i in range(n):
        for j in range(i + 1, n):
            if not (bits[i] and bits[j]):
                continue
            ri, ki, _ = instance.var_info(i)
            rj, kj, _ = instance.var_info(j)
            li, lj = instance.lightpath_at(i), instance.lightpath_at(j)
            if not set(li.links) & set(lj.links):
                continue
            if ri == rj and {ki, kj} == {WORKING, PROTECTION}:
                total += 1  # link-disjointness tuple
            if li.wavelength == lj.wavelength:
                if ki == WORKING and kj == WORKING:
                    total += 1
                elif ki == PROTECTION and kj == PROTECTION:
                    total += 1
                elif ri != rj:
                    total += 1
    return total


def enumerate_feasible_raw(instance: Instance):
    """Yield every feasible bit tuple by raw re-checking."""
    n = instance.n_vars
    for k in range(1 << n):
        bits = tuple((k >> (n - 1 - i)) & 1 for i in range(n))
        if raw_feasible(instance, bits):
            yield bits


def reference_shortest(
    net: Network, source: int, target: int, banned_nodes: set[int], banned_links: set[int]
) -> tuple[int, ...] | None:
    """Shortest simple path as a link-id tuple, ties to the lexicographically
    smallest link sequence: a Dijkstra heap keyed on (length, path)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.node_count)]
    for lid, (tail, head) in enumerate(net.links):
        adj[tail].append((head, lid))
    if source == target or source in banned_nodes or target in banned_nodes:
        return None
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), source)]
    done: set[int] = set()
    while heap:
        dist, path, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == target:
            return path
        for head, lid in sorted(adj[node]):
            if head in done or head in banned_nodes or lid in banned_links:
                continue
            heapq.heappush(heap, (dist + 1, path + (lid,), head))
    return None


def brute_force_stable_set(node_count: int, edges) -> int:
    """Maximum stable set size by subset enumeration."""
    best = 0
    for mask in range(1 << node_count):
        members = [v for v in range(node_count) if mask >> v & 1]
        if all(not (u in members and v in members) for u, v in edges):
            best = max(best, len(members))
    return best


def random_graph(rng: np.random.Generator, max_nodes: int = 6):
    nodes = int(rng.integers(1, max_nodes + 1))
    edges = []
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if rng.random() < 0.4:
                edges.append((u, v))
    return nodes, tuple(edges)


# parameter combinations keeping request_count * 2 * paths * wavelengths <= 14
_SMALL_SHAPES = [
    (1, 1, 1),
    (1, 1, 2),
    (1, 1, 3),
    (1, 2, 1),
    (2, 1, 1),
    (2, 1, 2),
    (2, 1, 3),
    (3, 1, 1),
    (3, 1, 2),
    (2, 2, 1),
    (3, 2, 1),
    (1, 2, 2),
    (1, 3, 2),
    (1, 2, 3),
]


def small_instance(seed: int, max_vars: int = 14) -> Instance:
    """Deterministic small random instance with at most max_vars variables."""
    rng = np.random.default_rng(seed)
    shapes = [s for s in _SMALL_SHAPES if s[0] * 2 * s[1] * s[2] <= max_vars]
    requests, paths, wavelengths = shapes[int(rng.integers(0, len(shapes)))]
    nodes = int(rng.integers(4, 8))
    degree = float(rng.uniform(1.2, 2.2))
    topo = synth_topology(nodes, degree, seed=int(rng.integers(0, 2**31)))
    return generate(topo, wavelengths, requests, paths, seed=int(rng.integers(0, 2**31)))


def grantable_small_instance(seed: int, max_vars: int = 14) -> Instance:
    """Small instance guaranteed to admit at least one grantable request."""
    for attempt in range(100):
        inst = small_instance(seed * 1000 + attempt, max_vars)
        for req in inst.requests:
            for w in req.working:
                for p in req.protection:
                    if not set(w.links) & set(p.links):
                        return inst
    raise AssertionError("could not build a grantable instance")


def parallel_link_requests(count: int, shared: bool) -> Instance:
    """count requests 0 -> 1, each with one working lightpath on its own
    parallel link and no protection; with shared, the last two requests use
    the same link and so conflict."""
    links = count - 1 if shared else count
    requests = tuple(Request(r, 0, 1, (Lightpath((min(r, links - 1),), 0),), ()) for r in range(count))
    return Instance(Network(node_count=2, links=((0, 1),) * links), 1, requests)


def random_bits(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


def hand_network() -> tuple[Network, dict[str, int]]:
    """Seven-node example network with two requests (see fixture figure1)."""
    names = {"s1": 0, "s2": 1, "a": 2, "b": 3, "c": 4, "t1": 5, "t2": 6}
    pairs = [
        ("s1", "a"),
        ("s1", "c"),
        ("s1", "s2"),
        ("a", "c"),
        ("a", "t1"),
        ("s2", "b"),
        ("s2", "c"),
        ("c", "t1"),
        ("c", "t2"),
        ("t1", "t2"),
        ("b", "t2"),
        ("c", "b"),
    ]
    links: list[tuple[int, int]] = []
    link_ids: dict[str, int] = {}
    for u, v in pairs:
        link_ids[f"{u}->{v}"] = len(links)
        links.append((names[u], names[v]))
        link_ids[f"{v}->{u}"] = len(links)
        links.append((names[v], names[u]))
    return Network(node_count=7, links=tuple(links)), link_ids


def figure1_instance() -> Instance:
    """Two requests over the hand network; both can be granted with the
    length-2 lightpaths and the conflict sets contain exactly one tuple of
    each of c1, c3 and c4 (c2 empty)."""
    net, lid = hand_network()
    red, green = 0, 1
    r0 = Request(
        id=0,
        source=0,
        destination=5,
        working=(
            Lightpath(links=(lid["s1->a"], lid["a->t1"]), wavelength=red),
            Lightpath(links=(lid["s1->a"], lid["a->c"], lid["c->t1"]), wavelength=green),
            Lightpath(
                links=(lid["s1->s2"], lid["s2->b"], lid["b->t2"], lid["t2->t1"]), wavelength=red
            ),
        ),
        protection=(Lightpath(links=(lid["s1->c"], lid["c->t1"]), wavelength=green),),
    )
    r1 = Request(
        id=1,
        source=1,
        destination=6,
        working=(Lightpath(links=(lid["s2->b"], lid["b->t2"]), wavelength=red),),
        protection=(
            Lightpath(links=(lid["s2->c"], lid["c->t2"]), wavelength=red),
            Lightpath(links=(lid["s2->s1"], lid["s1->c"], lid["c->t2"]), wavelength=green),
        ),
    )
    return Instance(network=net, wavelength_count=2, requests=(r0, r1))
