"""The grant-options table of ``build_strong_groups`` against the two
structures it replaced: the greedy's route pairs, found by intersecting
route link sets, and branch-and-bound's variable pairs, read back from pbar.
Both are kept here as references, as they were written."""

import pytest
from hypothesis import given, settings

from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.gen import generate, synth_topology
from rwap.heuristic import RsConfig, rs_heur
from rwap.instance import Instance, Lightpath, Network, PROTECTION, Request, WORKING
from rwap.oracle import _plan, branch_and_bound

from helpers import empty_blocks_instance, small_instance
from test_conflicts import tangled_instances
from test_heuristic import _repeated_link_walk_instance, _repeated_route_instance


def reference_routes(lightpaths, variables):
    """Lightpaths grouped by route, in order of first appearance; a route's
    first variable on each wavelength stands for it."""
    table = {}
    for i, lp in zip(variables, lightpaths):
        table.setdefault(lp.links, {}).setdefault(lp.wavelength, i)
    return [(links, on, sum(1 << lam for lam in on)) for links, on in table.items()]


def reference_prepare(instance):
    """Per request, its link-disjoint (working route, protection route)
    pairs, shortest first."""
    prepared = []
    for req in instance.requests:
        wroutes = reference_routes(req.working, instance.var_range(req.id, WORKING))
        proutes = reference_routes(req.protection, instance.var_range(req.id, PROTECTION))
        pairs = sorted(
            (len(wl) + len(pl), wi, pi)
            for wi, (wl, _, _) in enumerate(wroutes)
            for pi, (pl, _, _) in enumerate(proutes)
            if not set(wl) & set(pl)
        )
        prepared.append([(wroutes[wi], proutes[pi]) for _, wi, pi in pairs])
    return prepared


def reference_plan(instance, strong):
    """Per request, its link-disjoint (combined length, working variable,
    protection variable, slots of both) pairs, shortest first, from pbar."""
    lengths, slots = instance.lengths.tolist(), strong.slots
    plans = []
    for req in instance.requests:
        protection = instance.var_range(req.id, PROTECTION)
        pairs = []
        for w, iw in enumerate(instance.var_range(req.id, WORKING)):
            blocked = set(strong.pbar[(req.id, w)])
            for p, ip_ in enumerate(protection):
                if p not in blocked:
                    pairs.append((lengths[iw] + lengths[ip_], iw, ip_, slots[iw] + slots[ip_]))
        pairs.sort()
        plans.append(pairs)
    return plans


def plain(options):
    """The table as nested tuples and dicts, for snapshots."""
    return [[tuple((links, on, dict(first), mask) for links, on, first, mask in pair) for pair in pairs]
            for pairs in options]


def check_table(instance):
    strong = build_strong_groups(instance)
    assert len(strong.options) == len(instance.requests)
    for got, want in zip(plain(strong.options), reference_prepare(instance)):
        assert [tuple((links, first, mask) for links, _, first, mask in pair) for pair in got] == want
        for pair in got:
            for (links, on, _, _), kind in zip(pair, (WORKING, PROTECTION)):  # every variable on the route, ascending
                rid = instance.request_of[on[0]]
                block = instance.var_range(rid, kind)
                assert on == tuple(i for i in block if instance.lightpath_at(i).links == links)
    assert _plan(strong) == reference_plan(instance, strong)
    return strong


@pytest.mark.parametrize("seed", range(40))
def test_table_equals_references_on_small_instances(seed):
    check_table(small_instance(seed, 16))


@settings(max_examples=150, deadline=None)
@given(inst=tangled_instances())
def test_table_equals_references_on_tangled_instances(inst):
    check_table(inst)


@pytest.mark.parametrize("make", [empty_blocks_instance, _repeated_route_instance, _repeated_link_walk_instance])
def test_table_equals_references_on_hand_built_instances(make):
    check_table(make())


def test_a_repeated_route_is_one_route_with_every_variable():
    strong = check_table(_repeated_route_instance())
    (wroute, proute), = strong.options[0]
    assert (wroute[1], dict(wroute[2])) == ((0, 1), {0: 0})
    assert (proute[1], dict(proute[2])) == ((2, 3), {0: 2})


def test_a_walk_repeating_a_link_counts_it_twice():
    strong = check_table(_repeated_link_walk_instance())
    assert [len(w[0]) + len(p[0]) for w, p in strong.options[0]] == [4]
    assert strong.pbar[0, 0] == strong.pbar[0, 1] == ()
    # two three-link walks, the second repeating link 0: equally long, so
    # they keep their order
    net = Network(node_count=2, links=((0, 1), (1, 0), (0, 1), (0, 1)))
    inst = Instance(net, 1, (Request(0, 0, 1, (Lightpath((0, 1, 2), 0), Lightpath((0, 1, 0), 0)), (Lightpath((3,), 0),)),))
    strong = check_table(inst)
    assert [w[0] for w, _ in strong.options[0]] == [(0, 1, 2), (0, 1, 0)]


@pytest.mark.parametrize("inst", [
    small_instance(3, 16),
    _repeated_route_instance(),
    generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5),
])
def test_solvers_leave_the_table_unchanged(inst):
    cs = build_conflict_sets(inst)
    before = plain(cs.strong.options)
    rs_heur(inst, cs, RsConfig(5, 0))
    branch_and_bound(inst, cs.strong, 1, 40, 500, cs)
    assert plain(cs.strong.options) == before == plain(build_strong_groups(inst).options)
    wroute = next(pairs[0][0] for pairs in cs.strong.options if pairs)
    with pytest.raises(TypeError):
        wroute[2][0] = 99  # a route's wavelength map is read-only
