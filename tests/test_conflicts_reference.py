"""The array conflict closure against the set-based reference it replaced.

The reference is the per-pair closure of ``build_strong_groups`` kept here
in behaviour: one packed key per conflicting pair added to a Python set,
then sorted.  ``first``/``second``/``classes`` must match in value, dtype
and order, and so must the c1..c4 views and the strong groups.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.gen import generate, synth_topology
from rwap.instance import Instance, Lightpath, Network, Request

from helpers import figure1_instance, small_instance
from test_conflicts import tangled_instances


def reference_closure(instance):
    """(first, second, classes) from one Python set of packed pair keys."""
    strong = build_strong_groups(instance)
    n, n_req = instance.n_vars, len(instance.requests)
    nn = n * n
    span = n_req * n_req * nn
    request_of = instance.request_of.tolist()
    is_working = instance.working.tolist()
    hi = [(r * n_req * n + i) * n for i, r in enumerate(request_of)]
    lo = [r * nn + i for i, r in enumerate(request_of)]
    blocks = instance.bounds.tolist()
    keys: set[int] = set()
    for (r, w), plist in strong.pbar.items():
        c1, p0 = span + hi[blocks[2 * r] + w], blocks[2 * r + 1]
        for p in plist:
            keys.add(c1 + lo[p0 + p])
    for members in strong.groups.values():
        working = [i for i in members if is_working[i]]
        protection = [i for i in members if not is_working[i]]
        for x, a in enumerate(working):
            for b in working[x + 1 :]:
                keys.add(3 * span + hi[a] + lo[b])
            for b in protection:
                if request_of[b] != request_of[a]:
                    keys.add(2 * span + hi[a] + lo[b])
        for x, a in enumerate(protection):
            for b in protection[x + 1 :]:
                keys.add(4 * span + hi[a] + lo[b])
    flat = np.fromiter(sorted(keys), np.int64, len(keys))
    first, second = np.divmod(flat % nn, n)
    return first, second, (flat // span).astype(np.int8), strong


def assert_matches_reference(instance):
    cs = build_conflict_sets(instance)
    first, second, classes, strong = reference_closure(instance)
    for got, want in ((cs.first, first), (cs.second, second), (cs.classes, classes)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    reference = tuple(tuple(_tuples(instance, first, second, classes, cls)) for cls in (1, 2, 3, 4))
    assert (cs.c1, cs.c2, cs.c3, cs.c4) == reference
    assert cs.strong.pbar == strong.pbar
    assert list(cs.strong.groups.items()) == list(strong.groups.items())
    assert cs.strong.emitted_groups() == strong.emitted_groups()


def _tuples(instance, first, second, classes, cls):
    rows = (classes == cls).nonzero()[0]
    a, b = first[rows], second[rows]
    r1, r2 = instance.request_of[a].tolist(), instance.request_of[b].tolist()
    l1, l2 = instance.local_of(a).tolist(), instance.local_of(b).tolist()
    if cls == 1:
        return list(zip(r1, l1, l2))
    return list(zip(r1, r2, l1, l2))


def test_figure1_matches_reference():
    assert_matches_reference(figure1_instance())


@pytest.mark.parametrize("seed", range(40))
def test_small_instances_match_reference(seed):
    assert_matches_reference(small_instance(seed))


@settings(max_examples=150, deadline=None)
@given(inst=tangled_instances())
def test_tangled_instances_match_reference(inst):
    assert_matches_reference(inst)


def test_repeated_link_walk_matches_reference():
    net = Network(node_count=2, links=((0, 1), (1, 0), (0, 1)))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0, 1, 0), 0),), protection=(Lightpath((2,), 0),))
    assert_matches_reference(Instance(network=net, wavelength_count=1, requests=(req,)))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0, 1, 0), 0),), protection=(Lightpath((0,), 0),))
    assert_matches_reference(Instance(network=Network(2, ((0, 1), (1, 0))), wavelength_count=1, requests=(req,)))


def test_criterion6_instance_matches_reference():
    assert_matches_reference(generate(synth_topology(14, 1.5, seed=7), 5, 60, 4, seed=7))


def test_contention_instance_matches_reference():
    assert_matches_reference(generate(synth_topology(30, 1.5, 7), 2, 300, 2, 7))


@pytest.mark.parametrize(
    "instance",
    [
        Instance(network=Network(node_count=1, links=()), wavelength_count=1, requests=()),
        # working lightpaths only, on disjoint links: no conflicting pair
        Instance(
            Network(2, ((0, 1), (0, 1))),
            1,
            (Request(0, 0, 1, (Lightpath((0,), 0),), ()), Request(1, 0, 1, (Lightpath((1,), 0),), ())),
        ),
        # protection lightpaths only, sharing a link: class 4 rows alone
        Instance(
            Network(2, ((0, 1),)),
            1,
            (Request(0, 0, 1, (), (Lightpath((0,), 0),)), Request(1, 0, 1, (), (Lightpath((0,), 0),))),
        ),
        # a request with no lightpaths at all next to one with both kinds
        Instance(
            Network(2, ((0, 1),)),
            1,
            (Request(0, 0, 1, (), ()), Request(1, 0, 1, (Lightpath((0,), 0),), (Lightpath((0,), 0),))),
        ),
    ],
    ids=["no-requests", "no-protection", "no-working", "empty-request"],
)
def test_empty_blocks_match_reference(instance):
    assert_matches_reference(instance)
    cs = build_conflict_sets(instance)
    assert cs.first.dtype == cs.second.dtype == np.int64 and cs.classes.dtype == np.int8


def test_large_instance_whose_keys_fit_builds():
    # 40,000 requests x 40,000 variables is past the key limit, but the one
    # conflicting pair, requests 0 and 1 on link 0, has a small key
    count = 40_000
    requests = tuple(Request(r, 0, 1, (Lightpath((max(r - 1, 0),), 0),), ()) for r in range(count))
    instance = Instance(Network(node_count=2, links=((0, 1),) * (count - 1)), 1, requests)
    assert build_conflict_sets(instance).c3 == ((0, 1, 0, 0),)
    assert_matches_reference(instance)
