import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwap.conflicts import build_conflict_sets
from rwap.instance import (
    DimensionError,
    Instance,
    InstanceError,
    Lightpath,
    Network,
    PROTECTION,
    Request,
    Solution,
    f_alpha,
    f_beta,
    instance_from_dict,
    instance_to_dict,
    WORKING,
    ip_objective,
    verify_feasible,
)
from rwap.weights import tight_example

from helpers import raw_feasible, random_bits, small_instance

BOTH_GRANTED = Solution(bits=(1, 0, 0, 1, 1, 1, 0))  # w0/p0 for both requests


def test_f_alpha_both_requests_short_paths(figure1):
    assert f_alpha(figure1, BOTH_GRANTED) == 8


def test_f_alpha_all_zero(figure1):
    assert f_alpha(figure1, Solution.zeros(figure1.n_vars)) == 0


def test_f_alpha_matches_per_bit_oracle():
    # six-variable toy: three parallel links, two wavelengths
    net = Network(node_count=2, links=((0, 1), (0, 1), (0, 1)))
    req = Request(
        id=0,
        source=0,
        destination=1,
        working=tuple(Lightpath((e,), lam) for e in (0, 1) for lam in (0, 1)),
        protection=tuple(Lightpath((2,), lam) for lam in (0, 1)),
    )
    inst = Instance(network=net, wavelength_count=2, requests=(req,))
    assert inst.n_vars == 6
    rng = np.random.default_rng(42)
    for _ in range(20):
        bits = random_bits(rng, inst.n_vars)
        expected = sum(inst.lightpath_at(i).length * bits[i] for i in range(inst.n_vars))
        assert f_alpha(inst, bits) == expected


def test_f_beta_examples(figure1):
    assert f_beta(figure1, BOTH_GRANTED) == 2
    assert f_beta(figure1, Solution.zeros(7)) == 0
    protection_only = Solution(bits=(0, 0, 0, 1, 0, 0, 0))
    assert f_beta(figure1, protection_only) == 0  # counts working bits only


def test_ip_objective_examples(figure1):
    assert ip_objective(figure1, BOTH_GRANTED, alpha=1, beta=11) == 8 - 22 == -14
    assert ip_objective(figure1, Solution.zeros(7), 1, 11) == 0


def test_ip_objective_tight_example_ties_empty():
    inst = tight_example(2, 3)
    grant = Solution(bits=(1, 1))
    assert ip_objective(inst, grant, alpha=1, beta=5) == 0  # beta too small to prioritize


def test_dimension_errors(figure1):
    with pytest.raises(DimensionError):
        f_alpha(figure1, Solution.zeros(3))
    with pytest.raises(DimensionError):
        f_beta(figure1, (0,) * 9)
    with pytest.raises(DimensionError):
        verify_feasible(figure1, build_conflict_sets(figure1), (0,))


def test_verify_feasible_example(figure1, figure1_conflicts):
    verdict = verify_feasible(figure1, figure1_conflicts, BOTH_GRANTED)
    assert verdict.feasible and not verdict.violations


def test_verify_flags_overlapping_pair(figure1, figure1_conflicts):
    # request 0 with its second working path and its protection share a link
    bits = [0] * figure1.n_vars
    bits[figure1.var_of(0, 0, 1)] = 1
    bits[figure1.var_of(0, 1, 0)] = 1
    verdict = verify_feasible(figure1, figure1_conflicts, bits)
    assert not verdict.feasible
    assert ("c1", (0, 1, 0)) in [(v.kind, v.detail) for v in verdict.violations]


def test_verify_all_zero_feasible_everywhere():
    for seed in range(10):
        inst = small_instance(seed)
        cs = build_conflict_sets(inst)
        assert verify_feasible(inst, cs, Solution.zeros(inst.n_vars)).feasible


def test_verify_agrees_with_raw_recheck():
    rng = np.random.default_rng(3)
    for seed in range(8):
        inst = small_instance(seed)
        cs = build_conflict_sets(inst)
        for _ in range(100):
            bits = random_bits(rng, inst.n_vars)
            assert verify_feasible(inst, cs, bits).feasible == raw_feasible(inst, bits)


def test_granted_usage_lower_bound():
    # every granted request uses a working and a protection lightpath
    rng = np.random.default_rng(11)
    for seed in range(6):
        inst = small_instance(seed)
        if any(lp.length < 2 for i in range(inst.n_vars) for lp in [inst.lightpath_at(i)]):
            continue
        cs = build_conflict_sets(inst)
        for _ in range(50):
            bits = random_bits(rng, inst.n_vars)
            if verify_feasible(inst, cs, bits).feasible:
                assert f_alpha(inst, bits) >= 2 * f_beta(inst, bits)


def test_variable_order_is_request_then_kind_then_local(figure1):
    infos = [figure1.var_info(i) for i in range(figure1.n_vars)]
    assert infos == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_var_of_rejects_out_of_range_local(tight23):
    assert tight23.var_of(0, WORKING, 0) == 0
    assert tight23.var_of(0, PROTECTION, 0) == 1
    for local in (-1, 1):
        with pytest.raises(IndexError):
            tight23.var_of(0, PROTECTION, local)


def test_empty_lightpath_sets_are_legal():
    net = Network(node_count=2, links=((0, 1),))
    req = Request(id=0, source=0, destination=1, working=(), protection=(Lightpath((0,), 0),))
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    assert inst.n_vars == 1
    assert f_beta(inst, (1,)) == 0


def test_load_rejects_broken_contiguity():
    net = Network(node_count=3, links=((0, 1), (1, 2)))
    with pytest.raises(InstanceError):
        Instance(
            network=net,
            wavelength_count=1,
            requests=(
                Request(id=0, source=0, destination=2, working=(Lightpath((1, 0), 0),), protection=()),
            ),
        )


def test_load_rejects_bad_wavelength():
    net = Network(node_count=2, links=((0, 1),))
    with pytest.raises(InstanceError):
        Instance(
            network=net,
            wavelength_count=1,
            requests=(Request(id=0, source=0, destination=1, working=(Lightpath((0,), 1),), protection=()),),
        )


def test_json_round_trip(figure1):
    doc = instance_to_dict(figure1)
    again = instance_from_dict(json.loads(json.dumps(doc)))
    assert again == figure1
    assert set(doc) == {"nodes", "links", "wavelengths", "requests"}
    assert set(doc["requests"][0]) == {"source", "dest", "working", "protection"}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_objective_decomposition_property(data):
    inst = small_instance(data.draw(st.integers(0, 30)))
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n_vars))
    alpha = data.draw(st.integers(0, 4))
    beta = data.draw(st.integers(0, 12))
    assert ip_objective(inst, bits, alpha, beta) == alpha * f_alpha(inst, bits) - beta * f_beta(inst, bits)
