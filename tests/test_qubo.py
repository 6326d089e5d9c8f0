import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwap.conflicts import build_conflict_sets
from rwap.instance import DimensionError, Instance, Network, Solution, f_alpha, f_beta, verify_feasible
from rwap.oracle import brute_force_ip, brute_force_qubo
from rwap.qubo import QuboModel, build_qubo, flip_delta, penalty, rho_base, rho_tight
from rwap.weights import beta_base, tight_example

from helpers import random_bits, raw_violation_count, small_instance


def test_rho_base_tight_example():
    bound = rho_base(tight_example(2, 3), alpha=1, beta=6)
    assert bound.raw_bound == 6 * 2 - (1 + 2 + 3) == 6
    assert bound.rho == 7 and not bound.clamped


def test_rho_base_clamps_to_one():
    bound = rho_base(tight_example(1, 1), alpha=1, beta=1)
    assert bound.raw_bound == 2 - 3 == -1
    assert bound.rho == 1 and bound.clamped


def test_rho_base_matches_hand_formula(figure1):
    w = beta_base(figure1)
    shortest = sum(
        min(lp.length for lp in req.working) + min(lp.length for lp in req.protection)
        for req in figure1.requests
    )
    expected = w.beta * (len(figure1.requests) + 1) - w.alpha * (1 + shortest)
    assert rho_base(figure1, w.alpha, w.beta).rho == expected + 1


def test_energy_table_tight_example():
    inst = tight_example(2, 3)
    q = build_qubo(inst, build_conflict_sets(inst), alpha=1, beta=6, rho=7)
    table = {(0, 0): 0, (1, 0): 3, (0, 1): 10, (1, 1): -1}
    for bits, expected in table.items():
        assert q.energy(bits) == expected


def test_empty_instance_qubo():
    inst = Instance(network=Network(node_count=1, links=()), wavelength_count=1, requests=())
    q = build_qubo(inst, build_conflict_sets(inst), 1, 1, 1)
    assert q.n == 0 and q.constant == 0 and q.energy(()) == 0


@pytest.mark.parametrize("seed", range(10))
def test_energy_identity_against_independent_counter(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    w = beta_base(inst) if any(r.working and r.protection for r in inst.requests) else None
    alpha, beta = (w.alpha, w.beta) if w else (1, 3)
    rho = beta + 100
    q = build_qubo(inst, cs, alpha, beta, rho)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        bits = random_bits(rng, inst.n_vars)
        expected = alpha * f_alpha(inst, bits) - beta * f_beta(inst, bits) + rho * raw_violation_count(inst, bits)
        assert q.energy(bits) == expected


HAND_MODELS = [
    QuboModel(n=4, linear=(3, -2, 0, 5), quadratic={(0, 1): -7, (0, 3): -1, (1, 3): 4, (2, 3): -9},
              constant=11, rho=1, alpha=1, beta=1),
    QuboModel(n=3, linear=(1, -1, 2), quadratic={}, constant=-4, rho=1, alpha=1, beta=1),
    QuboModel(n=0, linear=(), quadratic={}, constant=5, rho=1, alpha=1, beta=1),
]


@st.composite
def drawn_models(draw):
    n = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coefficient = st.integers(-50, 50)
    return QuboModel(n=n, linear=tuple(draw(coefficient) for _ in range(n)),
                     quadratic={key: draw(coefficient) for key in keys},
                     constant=draw(coefficient), rho=1, alpha=1, beta=1)


@st.composite
def instance_models(draw):
    inst = small_instance(draw(st.integers(0, 20)))
    return build_qubo(inst, build_conflict_sets(inst), draw(st.integers(1, 5)), draw(st.integers(1, 20)),
                      draw(st.integers(1, 30)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_energy_matches_an_independent_sum(data):
    q = data.draw(st.one_of(st.sampled_from(HAND_MODELS), drawn_models(), instance_models()))
    pattern = data.draw(st.sampled_from(["zeros", "ones", "random"]))
    random = data.draw(st.lists(st.integers(0, 1), min_size=q.n, max_size=q.n))
    bits = {"zeros": [0] * q.n, "ones": [1] * q.n, "random": random}[pattern]
    expected = (
        q.constant
        + sum(c * b for c, b in zip(q.linear, bits))
        + sum(v * bits[i] * bits[j] for (i, j), v in dict(q.quadratic).items())
    )
    for given_bits in (Solution(bits=tuple(bits)), tuple(bits), np.array(bits, dtype=np.int8)):
        energy = q.energy(given_bits)
        assert type(energy) is int and energy == expected


def test_penalty_breakdown_examples(figure1, figure1_conflicts):
    feasible = (1, 0, 0, 1, 1, 1, 0)
    assert penalty(figure1, figure1_conflicts, feasible).total_g == 0

    lone_working = (1, 0, 0, 0, 0, 0, 0)
    breakdown = penalty(figure1, figure1_conflicts, lone_working)
    assert breakdown.eq2_violation == 1 and breakdown.total_g == 1

    three_working = (1, 1, 1, 0, 0, 0, 0)
    breakdown = penalty(figure1, figure1_conflicts, three_working)
    assert breakdown.eq3_violation == 3 * 2 == 6
    assert breakdown.eq2_violation == 9


def test_penalty_zero_iff_feasible():
    rng = np.random.default_rng(2)
    for seed in range(6):
        inst = small_instance(seed)
        cs = build_conflict_sets(inst)
        for _ in range(60):
            bits = random_bits(rng, inst.n_vars)
            assert (penalty(inst, cs, bits).total_g == 0) == verify_feasible(inst, cs, bits).feasible


def test_adjacency_is_built_from_the_model_it_belongs_to():
    q = QuboModel(n=3, linear=(0, 0, 0), quadratic={(0, 1): 5}, constant=0, rho=1, alpha=0, beta=0)
    q.adjacency()  # cache the old model's adjacency first
    replaced = dataclasses.replace(q, quadratic={(1, 2): 7})
    fresh = QuboModel(n=3, linear=(0, 0, 0), quadratic={(1, 2): 7}, constant=0, rho=1, alpha=0, beta=0)
    for got, want in zip(replaced.adjacency(), fresh.adjacency()):
        assert np.array_equal(got, want)
    assert replaced.energy([0, 1, 1]) == fresh.energy([0, 1, 1]) == 7
    assert q.energy([0, 1, 1]) == 0
    with pytest.raises(TypeError):  # the adjacency is no constructor argument
        QuboModel(n=1, linear=(0,), quadratic={}, constant=0, rho=1, alpha=0, beta=0, _adj=None)


def test_flip_delta_examples():
    inst = tight_example(2, 3)
    q = build_qubo(inst, build_conflict_sets(inst), 1, 6, 7)
    assert flip_delta(q, (1, 0), 1) == -1 - 3 == -4
    with pytest.raises(IndexError):
        flip_delta(q, (1, 0), 2)


@pytest.mark.parametrize("bits", [(1, 0), (1, 1, 0, 1, 1)])
def test_flip_delta_rejects_a_bit_vector_of_the_wrong_length(bits):
    q = QuboModel(n=3, linear=(1, 2, 3), quadratic={(0, 1): 5}, constant=0, rho=1, alpha=1, beta=1)
    for evaluate in (q.energy, lambda b: flip_delta(q, b, 0)):
        with pytest.raises(DimensionError, match="model has 3 variables"):
            evaluate(bits)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flip_delta_matches_full_recompute(data):
    inst = small_instance(data.draw(st.integers(0, 20)))
    cs = build_conflict_sets(inst)
    q = build_qubo(inst, cs, 1, data.draw(st.integers(1, 20)), data.draw(st.integers(1, 30)))
    bits = [data.draw(st.integers(0, 1)) for _ in range(q.n)]
    var = data.draw(st.integers(0, q.n - 1))
    flipped = list(bits)
    flipped[var] ^= 1
    delta = flip_delta(q, bits, var)
    assert delta == q.energy(flipped) - q.energy(bits)
    assert flip_delta(q, flipped, var) == -delta  # involution


@pytest.mark.parametrize("seed", range(8))
def test_exactness_with_separating_rho(seed):
    inst = small_instance(seed, max_vars=12)
    if not any(r.working and r.protection for r in inst.requests):
        return
    cs = build_conflict_sets(inst)
    w = beta_base(inst)
    rho = rho_base(inst, w.alpha, w.beta).rho
    q = build_qubo(inst, cs, w.alpha, w.beta, rho)
    n = inst.n_vars
    best_feasible = None
    for k in range(1 << n):
        bits = tuple((k >> (n - 1 - i)) & 1 for i in range(n))
        energy = q.energy(bits)
        if verify_feasible(inst, cs, bits).feasible:
            assert energy <= 0  # the empty solution caps feasible objectives
            best_feasible = energy if best_feasible is None else min(best_feasible, energy)
        else:
            assert energy > 0
    ip_opt = brute_force_ip(inst, cs, w.alpha, w.beta)
    qubo_sol, qubo_energy = brute_force_qubo(q)
    assert qubo_energy == ip_opt.objective == best_feasible
    assert verify_feasible(inst, cs, qubo_sol).feasible


def test_rho_tight_tight_example():
    inst = tight_example(2, 3)
    cs = build_conflict_sets(inst)
    # lone-working state sits at -4 with one violation unit: 5 separates it
    assert rho_tight(inst, cs, alpha=1, beta=6) == 5
    assert rho_tight(inst, cs, 1, 6) <= rho_base(inst, 1, 6).rho


def _energy_split(inst, cs, alpha, beta, rho):
    q = build_qubo(inst, cs, alpha, beta, rho)
    feasible, infeasible = [], []
    n = inst.n_vars
    for k in range(1 << n):
        bits = tuple((k >> (n - 1 - i)) & 1 for i in range(n))
        target = feasible if verify_feasible(inst, cs, bits).feasible else infeasible
        target.append(q.energy(bits))
    return feasible, infeasible


@pytest.mark.parametrize("seed", range(6))
def test_rho_tight_separates_and_never_exceeds_base(seed):
    inst = small_instance(seed, max_vars=10)
    if not any(r.working and r.protection for r in inst.requests):
        return
    cs = build_conflict_sets(inst)
    w = beta_base(inst)
    tight = rho_tight(inst, cs, w.alpha, w.beta)
    assert 1 <= tight <= rho_base(inst, w.alpha, w.beta).rho
    feasible, infeasible = _energy_split(inst, cs, w.alpha, w.beta, tight)
    if not infeasible:
        return
    assert min(infeasible) > max(feasible)
    if tight > 1:
        # one step below the threshold the separation must break
        feasible_low, infeasible_low = _energy_split(inst, cs, w.alpha, w.beta, tight - 1)
        assert min(infeasible_low) <= max(feasible_low)


def test_qubo_text_round_trip_values():
    inst = tight_example(2, 3)
    q = build_qubo(inst, build_conflict_sets(inst), 1, 6, 7)
    from rwap.qubo import qubo_text

    lines = qubo_text(q).strip().splitlines()
    assert lines[0] == f"{q.n} 0"
    rebuilt_linear = [0] * q.n
    rebuilt_quad = {}
    for line in lines[1:]:
        i, j, c = (int(x) for x in line.split())
        if i == j:
            rebuilt_linear[i] = c
        else:
            rebuilt_quad[(i, j)] = c
    assert tuple(rebuilt_linear) == q.linear
    assert rebuilt_quad == q.quadratic
