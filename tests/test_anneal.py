import math

import pytest

from rwap.anneal import _LIST_MAX_VARS, AnnealConfig, AnnealResult, anneal, repair, solve_rwap_da
from rwap.conflicts import build_conflict_sets
from rwap.gen import generate, synth_topology
from rwap.instance import Instance, Lightpath, Network, Request
from rwap.oracle import brute_force_qubo
from rwap.qubo import QuboModel, build_qubo
from rwap.weights import beta_base, tight_example

from helpers import small_instance


def _above_the_list_cutoff(rho):
    inst = generate(synth_topology(8, 1.6, 3), 3, 3, 2, 3)
    q = build_qubo(inst, build_conflict_sets(inst), alpha=1, beta=15, rho=rho)
    assert q.n == 36 > _LIST_MAX_VARS
    return q


def _tight_qubo():
    inst = tight_example(2, 3)
    return inst, build_qubo(inst, build_conflict_sets(inst), alpha=1, beta=6, rho=7)


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_finds_tight_example_optimum(seed):
    _, q = _tight_qubo()
    result = anneal(q, AnnealConfig(iterations=500, seed=seed))
    assert result.best_energy == -1
    assert result.best_bits == (1, 1)


def test_the_energy_check_reads_the_model_energy(monkeypatch):
    # the check fires after every 1024 iterations and must recompute through
    # QuboModel.energy, on the list path (2 variables) and the numpy path (36)
    models = [_tight_qubo()[1], _above_the_list_cutoff(rho=115)]
    true_energy = QuboModel.energy
    monkeypatch.setattr(QuboModel, "energy", lambda self, bits: true_energy(self, bits) + 1)
    for q in models:
        with pytest.raises(AssertionError, match="incremental energy bookkeeping diverged"):
            anneal(q, AnnealConfig(iterations=1024, seed=0))


def test_zero_model_immediate():
    q = QuboModel(n=3, linear=(0, 0, 0), quadratic={}, constant=0, rho=1, alpha=1, beta=1)
    result = anneal(q, AnnealConfig(iterations=10, seed=0))
    assert result.best_energy == 0
    assert result.trace[0] == (0, 0)


def test_empty_model_trivial():
    q = QuboModel(n=0, linear=(), quadratic={}, constant=4, rho=1, alpha=1, beta=1)
    result = anneal(q, AnnealConfig(iterations=5, seed=0))
    assert result == AnnealResult(best_bits=(), best_energy=4, trace=((0, 4),), accepted_flips=0, offset_activations=0)


def test_determinism_same_seed():
    _, q = _tight_qubo()
    config = AnnealConfig(iterations=2000, replicas=4, seed=7)
    assert anneal(q, config) == anneal(q, config)


def test_seed_changes_behavior():
    _, q = _tight_qubo()
    a = anneal(q, AnnealConfig(iterations=2000, replicas=4, seed=1))
    b = anneal(q, AnnealConfig(iterations=2000, replicas=4, seed=2))
    assert a.accepted_flips != b.accepted_flips or a.trace != b.trace


def test_trace_is_monotone_and_consistent():
    _, q = _tight_qubo()
    result = anneal(q, AnnealConfig(iterations=3000, seed=5))
    energies = [e for _, e in result.trace]
    assert all(earlier > later for earlier, later in zip(energies, energies[1:]))
    assert q.energy(result.best_bits) == result.best_energy


def test_dynamic_offset_unsticks_cold_search():
    # at a freezing temperature nothing passes the test until the offset has
    # grown past the uphill deltas
    q = QuboModel(n=2, linear=(50, 80), quadratic={}, constant=0, rho=1, alpha=1, beta=1)
    config = AnnealConfig(
        iterations=300,
        replicas=1,
        t_min=1e-6,
        t_max=1e-6,
        seed=3,
        mode="single",
    )
    result = anneal(q, config)
    assert result.offset_activations > 0
    assert result.accepted_flips > 0  # offset growth eventually forces a move


def test_single_mode_runs_without_exchange():
    _, q = _tight_qubo()
    result = anneal(q, AnnealConfig(iterations=800, replicas=2, seed=11, mode="single"))
    assert result.best_energy == -1


@pytest.mark.parametrize("seed", range(6))
def test_matches_brute_force_on_small_instances(seed):
    inst = small_instance(seed, max_vars=12)
    cs = build_conflict_sets(inst)
    if any(r.working and r.protection for r in inst.requests):
        w = beta_base(inst)
        alpha, beta = w.alpha, w.beta
    else:
        alpha, beta = 1, 3
    q = build_qubo(inst, cs, alpha, beta, beta + 100)
    _, optimum = brute_force_qubo(q)
    best = min(anneal(q, AnnealConfig(iterations=4000, seed=s)).best_energy for s in range(3))
    assert best == optimum


def test_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(iterations=-1)
    with pytest.raises(ValueError):
        AnnealConfig(iterations=1, replicas=0)
    with pytest.raises(ValueError):
        AnnealConfig(iterations=1, t_min=2.0, t_max=1.0)
    with pytest.raises(ValueError):
        AnnealConfig(iterations=1, mode="hot")


@pytest.mark.parametrize("field", ["t_min", "t_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_refuses_non_finite_temperatures(field, value):
    # a NaN t_max once ran every iteration without a flip, and a NaN or
    # infinite t_min annealed on NaN temperatures
    with pytest.raises(ValueError, match="temperatures must be positive and finite|t_max must be finite"):
        AnnealConfig(iterations=1, **{field: value})


def test_solve_hand_example_grants_both(figure1, figure1_conflicts):
    w = beta_base(figure1)
    report = solve_rwap_da(
        figure1, figure1_conflicts, w.alpha, w.beta, w.beta + 100, AnnealConfig(iterations=2000, seed=0)
    )
    assert report.granted == (0, 1)
    assert report.f_alpha == 8
    assert report.feasible and not report.repaired


def test_solve_tight_example_grants_one():
    inst = tight_example(2, 3)
    cs = build_conflict_sets(inst)
    report = solve_rwap_da(inst, cs, 1, 6, 106, AnnealConfig(iterations=1000, seed=1))
    assert report.f_beta == 1 and report.feasible


def test_solve_nothing_grantable():
    net = Network(node_count=2, links=((0, 1),))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0,), 0),), protection=(Lightpath((0,), 0),))
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    cs = build_conflict_sets(inst)
    report = solve_rwap_da(inst, cs, 1, 3, 10, AnnealConfig(iterations=500, seed=0))
    assert report.f_beta == 0 and report.feasible


def test_repair_flags_subseparation_rho():
    # with rho below the separation bound the optimum is infeasible: a lone
    # working bit beats everything, and repair must clear it
    inst = tight_example(1, 2)
    cs = build_conflict_sets(inst)
    q = build_qubo(inst, cs, alpha=1, beta=4, rho=1)
    _, energy = brute_force_qubo(q)
    assert energy == -2  # infeasible optimum: working selected, no protection
    report = solve_rwap_da(inst, cs, 1, 4, 1, AnnealConfig(iterations=2000, seed=0))
    assert report.feasible
    assert report.repaired


def test_repair_clears_cheapest_damage_first():
    inst = tight_example(1, 2)
    cs = build_conflict_sets(inst)
    bits = [1, 0]
    assert repair(inst, cs, bits, alpha=1, beta=4)
    assert bits == [0, 0]


# Seeded anneal results on a 16-variable instance (alpha 1, beta 15), computed
# once and checked in.  300 iterations end inside the second refill block of
# 256.  The last two rows leave t_max unset with rho 2 below t_min 50, so t_max
# is clamped up to t_min.  Columns: mode, iterations, replicas, rho, t_min,
# then best bits, best energy, accepted flips, offset activations and trace.
_PINNED = [
    ("tempering", 0, 1, 115, 1.0, "0000000000000000", 0, 0, 0, ((0, 0),)),
    ("tempering", 0, 3, 115, 1.0, "0000000000000000", 0, 0, 0, ((0, 0),)),
    ("tempering", 1, 1, 115, 1.0, "0000000000000000", 0, 1, 0, ((0, 0),)),
    ("tempering", 1, 3, 115, 1.0, "0000000000000000", 0, 1, 2, ((0, 0),)),
    ("tempering", 300, 1, 115, 1.0, "0010010000010001", -19, 300, 0, ((0, 0), (14, -9), (38, -18), (236, -19))),
    ("tempering", 300, 3, 115, 1.0, "0001010000100010", -19, 322, 578, ((0, 0), (14, -9), (38, -18), (233, -19))),
    ("single", 0, 1, 115, 1.0, "0000000000000000", 0, 0, 0, ((0, 0),)),
    ("single", 0, 3, 115, 1.0, "0000000000000000", 0, 0, 0, ((0, 0),)),
    ("single", 1, 1, 115, 1.0, "0000000000000000", 0, 1, 0, ((0, 0),)),
    ("single", 1, 3, 115, 1.0, "0000000000000000", 0, 3, 0, ((0, 0),)),
    ("single", 300, 1, 115, 1.0, "0001010000100010", -19, 84, 216, ((0, 0), (8, -9), (38, -16), (47, -18), (131, -19))),
    ("single", 300, 3, 115, 1.0, "0010010000010001", -19, 282, 618, ((0, 0), (8, -9), (10, -17), (47, -18), (52, -19))),
    ("tempering", 300, 3, 2, 50.0, "0100000000110001", -24, 900, 0,
     ((0, 0), (1, -10), (2, -12), (3, -17), (4, -19), (11, -21), (14, -24))),
    ("single", 300, 3, 2, 50.0, "0110100000110001", -26, 900, 0,
     ((0, 0), (1, -10), (2, -12), (3, -17), (4, -19), (11, -21), (14, -24), (182, -26))),
]


@pytest.mark.parametrize("mode, iterations, replicas, rho, t_min, bits, energy, accepted, activations, trace", _PINNED)
def test_seeded_results_are_pinned(mode, iterations, replicas, rho, t_min, bits, energy, accepted, activations, trace):
    inst = generate(synth_topology(8, 1.6, 3), 2, 2, 2, 3)
    q = build_qubo(inst, build_conflict_sets(inst), alpha=1, beta=15, rho=rho)
    config = AnnealConfig(iterations, replicas, t_min=t_min, exchange_interval=50, seed=4, mode=mode)
    assert anneal(q, config) == AnnealResult(tuple(map(int, bits)), energy, trace, accepted, activations)


# The same runs on a 36-variable instance, above _LIST_MAX_VARS, so they take
# the numpy path; computed with the iteration-major loop that ran for every
# model size before the list path existed.  Same columns as _PINNED.
_PINNED_NUMPY_PATH = [
    ("tempering", 300, 1, 115, 1.0, "000001001000000100001000010000000010", -25, 300, 0,
     ((0, 0), (2, -8), (4, -18), (230, -25))),
    ("tempering", 300, 3, 115, 1.0, "000001001000000100001000010000000010", -25, 328, 572,
     ((0, 0), (2, -8), (4, -18), (230, -25))),
    ("single", 300, 1, 115, 1.0, "000010100000000001000001100000100000", -26, 100, 200,
     ((0, 0), (2, -8), (4, -18), (30, -24), (96, -25), (136, -26))),
    ("single", 300, 3, 115, 1.0, "000100001000000001000001010000000100", -27, 300, 600,
     ((0, 0), (2, -8), (4, -18), (30, -24), (76, -25), (84, -27))),
    ("tempering", 300, 3, 2, 50.0, "100010010000000001000000100001001000", -28, 900, 0,
     ((0, 0), (1, -10), (2, -12), (3, -19), (4, -21), (6, -23), (7, -28))),
]


@pytest.mark.parametrize(
    "mode, iterations, replicas, rho, t_min, bits, energy, accepted, activations, trace", _PINNED_NUMPY_PATH
)
def test_seeded_results_are_pinned_on_the_numpy_path(
    mode, iterations, replicas, rho, t_min, bits, energy, accepted, activations, trace
):
    q = _above_the_list_cutoff(rho)
    config = AnnealConfig(iterations, replicas, t_min=t_min, exchange_interval=50, seed=4, mode=mode)
    assert anneal(q, config) == AnnealResult(tuple(map(int, bits)), energy, trace, accepted, activations)
