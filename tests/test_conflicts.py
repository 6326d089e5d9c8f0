import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwap.conflicts import build_conflict_sets, build_strong_groups, count_constraints
from rwap.gen import generate, synth_topology
from rwap.instance import Instance, Lightpath, Network, PROTECTION, Request, WORKING
from rwap.ip import build_ip
from rwap.oracle import branch_and_bound, brute_force_ip
from rwap.weights import tight_example

from helpers import hand_network, parallel_link_requests, random_bits, small_instance


def test_hand_example_conflict_tuples(figure1, figure1_conflicts):
    cs = figure1_conflicts
    assert cs.c1 == ((0, 1, 0),)
    assert cs.c2 == ()
    assert cs.c3 == ((0, 1, 2, 0),)
    assert cs.c4 == ((0, 1, 0, 1),)


def test_disjoint_instance_has_no_conflicts():
    cs = build_conflict_sets(tight_example(2, 3))
    assert cs.pair_count == 0


def _pairwise_oracle(instance):
    """Independent double loop comparing link sets of every lightpath pair."""
    c1, c2, c3, c4 = set(), set(), set(), set()
    for i, j in itertools.combinations(range(instance.n_vars), 2):
        ri, ki, li = instance.var_info(i)
        rj, kj, lj = instance.var_info(j)
        a, b = instance.lightpath_at(i), instance.lightpath_at(j)
        if not set(a.links) & set(b.links):
            continue
        if ri == rj and ki == WORKING and kj == PROTECTION:
            c1.add((ri, li, lj))
        if a.wavelength == b.wavelength:
            if ki == WORKING and kj == WORKING:
                c3.add((ri, rj, li, lj) if (ri, li) < (rj, lj) else (rj, ri, lj, li))
            elif ki == PROTECTION and kj == PROTECTION:
                c4.add((ri, rj, li, lj) if (ri, li) < (rj, lj) else (rj, ri, lj, li))
            elif ri != rj:
                if ki == WORKING:
                    c2.add((ri, rj, li, lj))
                else:
                    c2.add((rj, ri, lj, li))
    return c1, c2, c3, c4


@pytest.mark.parametrize("seed", range(12))
def test_conflict_sets_match_pairwise_oracle(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    c1, c2, c3, c4 = _pairwise_oracle(inst)
    assert set(cs.c1) == c1 and len(cs.c1) == len(c1)
    assert set(cs.c2) == c2
    assert set(cs.c3) == c3
    assert set(cs.c4) == c4


@pytest.mark.parametrize("seed", range(20))
def test_conflict_families_in_sorted_tuple_order(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    for family, oracle in zip((cs.c1, cs.c2, cs.c3, cs.c4), _pairwise_oracle(inst)):
        assert family == tuple(sorted(oracle))


@st.composite
def tangled_instances(draw):
    """Up to three requests on a 2-3 node graph with parallel links, walks
    that may revisit nodes and repeat links, possibly empty working or
    protection blocks, and 1-3 wavelengths."""
    nodes = draw(st.integers(2, 3))
    hops = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
    links = [hop for hop in hops for _ in range(draw(st.integers(1, 2)))]
    parallel = {hop: [e for e, link in enumerate(links) if link == hop] for hop in hops}
    wavelengths = draw(st.integers(1, 3))

    def lightpath(source, destination):
        stops = [source, *draw(st.lists(st.integers(0, nodes - 1), max_size=3)), destination]
        walk = [v for k, v in enumerate(stops) if k == 0 or v != stops[k - 1]]
        path = tuple(draw(st.sampled_from(parallel[hop])) for hop in zip(walk, walk[1:]))
        return Lightpath(path, draw(st.integers(0, wavelengths - 1)))

    requests = []
    for rid in range(draw(st.integers(1, 3))):
        source, destination = draw(st.sampled_from(hops))
        working, protection = (
            tuple(lightpath(source, destination) for _ in range(draw(st.integers(0, 2)))) for _ in range(2)
        )
        requests.append(Request(rid, source, destination, working, protection))
    return Instance(Network(nodes, tuple(links)), wavelengths, tuple(requests))


@settings(max_examples=150, deadline=None)
@given(inst=tangled_instances())
def test_conflict_core_matches_references_on_tangled_instances(inst):
    cs = build_conflict_sets(inst)
    strong = build_strong_groups(inst)
    for family, oracle in zip((cs.c1, cs.c2, cs.c3, cs.c4), _pairwise_oracle(inst)):
        assert family == tuple(sorted(oracle))
    assert cs.variable_pairs(inst) == strong.variable_pairs(inst)
    assert all(len(set(members)) == len(members) for members in strong.groups.values())


@settings(max_examples=150, deadline=None)
@given(inst=tangled_instances())
def test_slot_table_matches_walks_on_tangled_instances(inst):
    strong = build_conflict_sets(inst).strong
    assert strong == build_strong_groups(inst)
    assert len(strong.slots) == inst.n_vars
    members: dict[tuple[int, int], list[int]] = {}
    for i, covered in enumerate(strong.slots):
        lp = inst.lightpath_at(i)
        walk = [e * inst.wavelength_count + lp.wavelength for e in lp.links]
        assert covered == tuple(s for k, s in enumerate(walk) if s not in walk[:k])
        for e in set(lp.links):
            members.setdefault((e, lp.wavelength), []).append(i)
    assert strong.groups == {key: tuple(found) for key, found in members.items()}
    assert list(strong.groups) == sorted(members)


def test_oversized_conflict_key_raises_a_clear_error():
    with pytest.raises(ValueError, match="limit about 1.36e9"):
        build_conflict_sets(parallel_link_requests(40_000, shared=True))


def test_oversized_instance_without_shared_links_builds():
    assert build_conflict_sets(parallel_link_requests(40_000, shared=False)).pair_count == 0


def test_lightpath_repeating_a_link_does_not_conflict_with_itself():
    # a walk 0 -> 1 -> 0 -> 1 is a legal lightpath that uses link 0 twice
    net = Network(node_count=2, links=((0, 1), (1, 0)))
    req = Request(
        id=0,
        source=0,
        destination=1,
        working=(Lightpath((0, 1, 0), 0),),
        protection=(Lightpath((0,), 0),),
    )
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    cs = build_conflict_sets(inst)
    assert (cs.c1, cs.c2, cs.c3, cs.c4) == (((0, 0, 0),), (), (), ())


def test_strong_group_for_shared_link_and_wavelength(figure1):
    _, lid = hand_network()
    groups = build_strong_groups(figure1).groups
    members = groups[(lid["s2->b"], 0)]
    assert members == (figure1.var_of(0, WORKING, 2), figure1.var_of(1, WORKING, 0))


def test_single_lightpath_instance_groups_are_singletons():
    net = Network(node_count=2, links=((0, 1),))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0,), 0),), protection=())
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    strong = build_strong_groups(inst)
    assert all(len(m) <= 1 for m in strong.groups.values())
    assert strong.emitted_group_count == 0


@pytest.mark.parametrize("seed", range(12))
def test_group_pair_closure_equals_conflict_pairs(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    strong = build_strong_groups(inst)
    assert cs.variable_pairs(inst) == strong.variable_pairs(inst)


def test_pairwise_coverage_on_random_vectors():
    rng = np.random.default_rng(5)
    for seed in range(6):
        inst = small_instance(seed)
        cs = build_conflict_sets(inst)
        strong = build_strong_groups(inst)
        conflict_pairs = cs.variable_pairs(inst)
        strong_pairs = strong.variable_pairs(inst)
        for _ in range(60):
            bits = random_bits(rng, inst.n_vars)
            base_hit = any(bits[i] and bits[j] for i, j in conflict_pairs)
            strong_hit = any(bits[i] and bits[j] for i, j in strong_pairs)
            assert base_hit == strong_hit


def test_constraint_counts(figure1, figure1_conflicts):
    strong = build_strong_groups(figure1)
    counts = count_constraints(figure1, figure1_conflicts, strong)
    n_req = len(figure1.requests)
    assert counts.base_constraints == 2 * n_req + figure1_conflicts.pair_count
    n_working = sum(len(r.working) for r in figure1.requests)
    assert counts.strong_constraints == 2 * n_req + n_working + strong.emitted_group_count
    assert counts.strong_constraints_all_nonempty >= counts.strong_constraints
    assert counts.variables == figure1.n_vars


@pytest.mark.parametrize("seed", range(8))
def test_strong_model_not_larger_when_pairs_dominate(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    strong = build_strong_groups(inst)
    counts = count_constraints(inst, cs, strong)
    n_working = sum(len(r.working) for r in inst.requests)
    if cs.pair_count > n_working + strong.emitted_group_count:
        assert counts.strong_constraints < counts.base_constraints


def test_c3_includes_same_request_distinct_lightpaths():
    # two same-wavelength working paths of one request sharing a link
    net = Network(node_count=3, links=((0, 1), (1, 2), (0, 2)))
    req = Request(
        id=0,
        source=0,
        destination=2,
        working=(Lightpath((0, 1), 0), Lightpath((0, 1), 0)),
        protection=(Lightpath((2,), 0),),
    )
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    cs = build_conflict_sets(inst)
    assert (0, 0, 0, 1) in cs.c3  # same request, two distinct working paths


def test_walk_repeating_a_link_is_one_strong_group_member():
    # two nodes; the working walk 0->1->0->1 uses link 0 twice, protection
    # takes the parallel link 2; granting both bits is feasible
    net = Network(node_count=2, links=((0, 1), (1, 0), (0, 1)))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0, 1, 0), 0),), protection=(Lightpath((2,), 0),))
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    cs = build_conflict_sets(inst)
    strong = build_strong_groups(inst)
    assert strong.groups[(0, 0)] == (0,)
    assert count_constraints(inst, cs, strong).strong_constraints == 3
    assert brute_force_ip(inst, cs, 1, 10).solution.bits == (1, 1)
    assert branch_and_bound(inst, strong, 1, 10).solution.bits == (1, 1)
    for row in build_ip(inst, strong, 1, 10, kind="strong").constraints:
        lhs = sum(coeff for _, coeff in row.terms)
        assert lhs == row.rhs if row.relation == "=" else lhs <= row.rhs


def test_class_counts_are_family_lengths(figure1_conflicts):
    generated = build_conflict_sets(generate(synth_topology(10, 1.6, seed=2), 3, 8, 2, seed=4))
    assert min(generated.class_counts) > 0
    for cs in (figure1_conflicts, generated):
        assert cs.class_counts == [len(cs.c1), len(cs.c2), len(cs.c3), len(cs.c4)]
    empty = Instance(network=Network(node_count=1, links=()), wavelength_count=1, requests=())
    assert build_conflict_sets(empty).class_counts == [0, 0, 0, 0]
