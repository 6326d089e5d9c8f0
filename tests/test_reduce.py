import numpy as np
import pytest

from rwap.conflicts import build_conflict_sets
from rwap.instance import PROTECTION, WORKING
from rwap.reduce import GraphError, MssGraph, max_requests_only, mss_to_rwap

from helpers import brute_force_stable_set, random_graph


def test_graph_validation():
    with pytest.raises(GraphError):
        MssGraph(node_count=2, edges=((0, 0),))
    with pytest.raises(GraphError):
        MssGraph(node_count=2, edges=((1, 0),))
    with pytest.raises(GraphError):
        MssGraph(node_count=2, edges=((0, 1), (0, 1)))


def test_path_graph_conflict_sets():
    # path on three nodes: edges {0,1} and {1,2}
    inst = mss_to_rwap(MssGraph(node_count=3, edges=((0, 1), (1, 2))))
    cs = build_conflict_sets(inst)
    assert cs.c1 == ()
    assert set(cs.c2) == {(0, 1, 0, 0), (1, 0, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0)}
    assert set(cs.c3) == {(0, 1, 0, 0), (1, 2, 0, 0)}
    assert set(cs.c4) == {(0, 1, 0, 0), (1, 2, 0, 0)}


def test_path_graph_maximum_grants():
    inst = mss_to_rwap(MssGraph(node_count=3, edges=((0, 1), (1, 2))))
    assert max_requests_only(inst).f_beta == 2  # endpoints form the stable set


def test_edgeless_graph_all_grantable():
    inst = mss_to_rwap(MssGraph(node_count=4, edges=()))
    assert max_requests_only(inst).f_beta == 4


def test_complete_graph_single_grant():
    edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    inst = mss_to_rwap(MssGraph(node_count=4, edges=edges))
    assert max_requests_only(inst).f_beta == 1


def test_wavelengths_uniform_and_instance_valid():
    inst = mss_to_rwap(MssGraph(node_count=3, edges=((0, 1),)))
    assert inst.wavelength_count == 1
    assert all(inst.lightpath_at(i).wavelength == 0 for i in range(inst.n_vars))
    # one working and one protection lightpath per request
    assert all(len(r.working) == 1 and len(r.protection) == 1 for r in inst.requests)


def test_conflicting_pairs_share_exactly_one_link():
    rng = np.random.default_rng(8)
    for _ in range(10):
        nodes, edges = random_graph(rng)
        inst = mss_to_rwap(MssGraph(node_count=nodes, edges=edges))
        cs = build_conflict_sets(inst)
        assert cs.c1 == ()

        def links_of(r, kind, local):
            return set(inst.requests[r].lightpaths(kind)[local].links)

        for (r1, r2, w, p) in cs.c2:
            assert len(links_of(r1, WORKING, w) & links_of(r2, PROTECTION, p)) == 1
        for (r1, r2, w1, w2) in cs.c3:
            assert len(links_of(r1, WORKING, w1) & links_of(r2, WORKING, w2)) == 1
        for (r1, r2, p1, p2) in cs.c4:
            assert len(links_of(r1, PROTECTION, p1) & links_of(r2, PROTECTION, p2)) == 1
        # the conflict families mirror the source edges exactly
        assert {(r1, r2) for (r1, r2, _, _) in cs.c3} == set(edges)
        assert {(r1, r2) for (r1, r2, _, _) in cs.c4} == set(edges)
        assert {(min(a, b), max(a, b)) for (a, b, _, _) in cs.c2} == set(edges)


def test_lightpaths_are_simple_and_the_network_polynomial():
    rng = np.random.default_rng(21)
    for _ in range(20):
        nodes, edges = random_graph(rng, max_nodes=8)
        inst = mss_to_rwap(MssGraph(node_count=nodes, edges=edges))
        assert inst.network.node_count == 2 * nodes + 8 * len(edges)
        assert inst.network.link_count == 2 * nodes + 12 * len(edges)
        for req in inst.requests:
            for lp in req.working + req.protection:
                hops = [inst.network.links[e] for e in lp.links]
                stops = [req.source] + [head for (_, head) in hops]
                # consecutive links meet, the path ends at the destination
                # and visits no node twice
                assert [tail for (tail, _) in hops] == stops[:-1]
                assert stops[-1] == req.destination
                assert len(set(stops)) == len(stops)


@pytest.mark.parametrize("trial", range(10))
def test_equivalence_with_stable_set(trial):
    rng = np.random.default_rng(100 + trial)
    nodes, edges = random_graph(rng)
    inst = mss_to_rwap(MssGraph(node_count=nodes, edges=edges))
    assert max_requests_only(inst).f_beta == brute_force_stable_set(nodes, edges)
