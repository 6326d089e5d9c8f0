from fractions import Fraction

import pytest

from rwap.conflicts import build_conflict_sets
from rwap.instance import Instance, Lightpath, Network, Request, instance_to_dict
from rwap.weights import (
    UndefinedWeightError,
    _level_extremes,
    beta_base,
    check_prioritization,
    compute_omega,
    max_pair_length,
    tight_example,
)

from helpers import grantable_small_instance, small_instance


def test_beta_base_tight_example():
    w = beta_base(tight_example(2, 3))
    assert (w.m_value, w.beta) == (5, 6)


def test_beta_base_shortest_paths():
    w = beta_base(tight_example(1, 1))
    assert (w.m_value, w.beta) == (2, 3)


def test_beta_base_matches_hand_scan(figure1):
    hand_m = max(
        max(lp.length for lp in req.working) + max(lp.length for lp in req.protection)
        for req in figure1.requests
    )
    w = beta_base(figure1)
    assert w.m_value == hand_m == 6
    assert w.beta == len(figure1.requests) * (hand_m - 2) + 3 == 11


def test_beta_base_undefined_without_grantable_request():
    net = Network(node_count=2, links=((0, 1),))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0,), 0),), protection=())
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    with pytest.raises(UndefinedWeightError):
        beta_base(inst)


def test_m_skips_requests_missing_a_kind():
    net = Network(node_count=2, links=((0, 1), (1, 0), (0, 1)))
    long_only_working = Request(
        id=0, source=0, destination=1, working=(Lightpath((0,), 0), Lightpath((2,), 0)), protection=()
    )
    full = Request(id=1, source=0, destination=1, working=(Lightpath((0,), 0),), protection=(Lightpath((2,), 0),))
    inst = Instance(network=net, wavelength_count=1, requests=(long_only_working, full))
    assert max_pair_length(inst) == 2  # only the grantable request counts


def test_compute_omega_tight_example():
    report = compute_omega(tight_example(2, 3))
    assert report.omega_eq == Fraction(5)
    assert report.omega_gt == Fraction(5)
    assert report.beta_tight == 6


def test_compute_omega_undefined_when_nothing_grantable():
    # the only working/protection pair shares its link: never grantable
    net = Network(node_count=2, links=((0, 1),))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0,), 0),), protection=(Lightpath((0,), 0),))
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    report = compute_omega(inst)
    assert report.omega_eq is None and report.beta_tight is None


@pytest.mark.parametrize("seed", range(10))
def test_omega_eq_equals_omega_gt(seed):
    inst = grantable_small_instance(seed, max_vars=10)
    report = compute_omega(inst)
    if report.omega_eq is not None:
        assert report.omega_eq == report.omega_gt


def test_tight_example_shapes():
    inst = tight_example(2, 3)
    assert inst.n_vars == 2
    assert build_conflict_sets(inst).pair_count == 0
    assert compute_omega(tight_example(4, 7)).beta_tight == 12  # lengths sum plus one


def _chain_doc(nodes: int, links: list[list[int]], l_a: int) -> dict:
    working = {"links": list(range(l_a)), "wavelength": 0}
    protection = {"links": list(range(l_a, len(links))), "wavelength": 0}
    request = {"source": 0, "dest": 1, "working": [working], "protection": [protection]}
    return {"nodes": nodes, "links": links, "wavelengths": 1, "requests": [request]}


@pytest.mark.parametrize("shape, doc", [
    ((1, 1), _chain_doc(2, [[0, 1], [0, 1]], 1)),
    ((2, 3), _chain_doc(5, [[0, 2], [2, 1], [0, 3], [3, 4], [4, 1]], 2)),
    ((4, 7), _chain_doc(
        11, [[0, 2], [2, 3], [3, 4], [4, 1], [0, 5], [5, 6], [6, 7], [7, 8], [8, 9], [9, 10], [10, 1]], 4
    )),
])
def test_tight_example_documents(shape, doc):
    assert instance_to_dict(tight_example(*shape)) == doc


def test_check_prioritization_tight_example():
    inst = tight_example(2, 3)
    assert check_prioritization(inst, alpha=1, beta=6)
    assert not check_prioritization(inst, alpha=1, beta=5)


@pytest.mark.parametrize("seed", range(10))
def test_beta_base_always_prioritizes(seed):
    inst = grantable_small_instance(seed)
    w = beta_base(inst)
    assert check_prioritization(inst, w.alpha, w.beta)


@pytest.mark.parametrize("seed", range(10))
def test_beta_tight_minimality_and_dominance(seed):
    inst = grantable_small_instance(seed, max_vars=12)
    report = compute_omega(inst)
    w = beta_base(inst)
    if report.beta_tight is None:
        return
    assert w.beta >= report.beta_tight
    assert check_prioritization(inst, 1, report.beta_tight)
    if report.omega_eq.denominator == 1 and report.beta_tight - 1 >= 1:
        # integer threshold: one less must fail
        assert not check_prioritization(inst, 1, report.beta_tight - 1)


def _prioritizes_by_levels(inst, alpha, beta, conflict_sets):
    """The definition, pair by pair of granted-count levels: the worst
    objective at the higher level beats the best at the lower one."""
    levels = _level_extremes(inst, conflict_sets, 22)
    return all(
        alpha * levels[hi][0] - beta * hi < alpha * levels[lo][1] - beta * lo
        for hi in levels
        for lo in levels
        if hi > lo
    )


@pytest.mark.parametrize("seed", range(16))
def test_check_prioritization_matches_the_level_pairs(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    tight = compute_omega(inst, cs).beta_tight or 1
    for alpha in range(4):
        for beta in sorted({*range(0, 6), *range(max(0, alpha * tight - 4), alpha * tight + 5)}):
            assert check_prioritization(inst, alpha, beta, cs) == _prioritizes_by_levels(inst, alpha, beta, cs)


@pytest.mark.parametrize("alpha,beta", [(-1, 6), (1, -6), (-1, -1)])
def test_check_prioritization_refuses_negative_weights(alpha, beta):
    with pytest.raises(ValueError, match="non-negative"):
        check_prioritization(tight_example(2, 3), alpha, beta)
