"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is designed to finish within its stated budgets on a
small machine.
"""

import os
import time

import numpy as np
import pytest

from rwap.anneal import AnnealConfig, anneal, repair, solve_rwap_da
from rwap.bench import BenchTask, run_bench
from rwap.conflicts import build_conflict_sets, build_strong_groups, count_constraints
from rwap.gen import generate, synth_topology
from rwap.heuristic import RsConfig, rs_heur
from rwap.instance import f_alpha, f_beta, verify_feasible
from rwap.ip import build_ip
from rwap.oracle import branch_and_bound, brute_force_ip, brute_force_qubo
from rwap.qubo import build_qubo, penalty, rho_base
from rwap.reduce import MssGraph, max_requests_only, mss_to_rwap
from rwap.weights import beta_base, check_prioritization, compute_omega, tight_example

from helpers import (
    brute_force_stable_set,
    figure1_instance,
    grantable_small_instance,
    random_bits,
    random_graph,
    raw_violation_count,
)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _all_bits(n: int) -> np.ndarray:
    ks = np.arange(1 << n, dtype=np.int64)
    shifts = (n - 1 - np.arange(n, dtype=np.int64))[None, :]
    return ((ks[:, None] >> shifts) & 1).astype(np.int8)


def _case(seed: int, max_vars: int = 14):
    inst = grantable_small_instance(seed, max_vars=max_vars)
    cs = build_conflict_sets(inst)
    w = beta_base(inst)
    return inst, cs, w


def test_criterion_1_qubo_exactness_with_base_penalty():
    started = time.perf_counter()
    for seed in range(50):
        inst, cs, w = _case(seed)
        rho = rho_base(inst, w.alpha, w.beta).rho
        q = build_qubo(inst, cs, w.alpha, w.beta, rho)
        bits = _all_bits(inst.n_vars)
        energies = np.array([q.energy(tuple(row)) for row in bits], dtype=np.int64)
        feasible = np.array(
            [verify_feasible(inst, cs, tuple(row)).feasible for row in bits], dtype=bool
        )
        assert (energies[~feasible] > 0).all(), f"seed {seed}: infeasible vector at non-positive energy"
        assert (energies[feasible] <= 0).all(), f"seed {seed}: feasible vector above zero"
        ip_opt = brute_force_ip(inst, cs, w.alpha, w.beta)
        _, qubo_min = brute_force_qubo(q)
        assert qubo_min == ip_opt.objective == energies.min()
    _report("criterion 1 (exact penalty separation)", f"50 instances, {time.perf_counter() - started:.1f}s")


def test_criterion_2_penalty_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    seed = 0
    while checked < 1000:
        inst, cs, w = _case(seed)
        rho = w.beta + 100
        q = build_qubo(inst, cs, w.alpha, w.beta, rho)
        for _ in range(50):
            bits = random_bits(rng, inst.n_vars)
            lhs = q.energy(bits)
            rhs = (
                w.alpha * f_alpha(inst, bits)
                - w.beta * f_beta(inst, bits)
                + rho * raw_violation_count(inst, bits)
            )
            assert lhs == rhs
            breakdown = penalty(inst, cs, bits)
            assert breakdown.total_g == raw_violation_count(inst, bits)
            checked += 1
        seed += 1
    _report("criterion 2 (penalty identity)", f"{checked} pairs, {time.perf_counter() - started:.1f}s")


def test_criterion_3_base_weight_prioritizes():
    started = time.perf_counter()
    for seed in range(50):
        inst, cs, w = _case(seed)
        assert w.beta == len(inst.requests) * (w.m_value - 2) + 3
        assert check_prioritization(inst, w.alpha, w.beta, cs)
    _report("criterion 3 (closed-form weight prioritizes)", f"50 instances, {time.perf_counter() - started:.1f}s")


def test_criterion_4_weight_bound_necessary_on_tight_family():
    inst = tight_example(2, 3)
    assert not check_prioritization(inst, alpha=1, beta=5)
    assert check_prioritization(inst, alpha=1, beta=6)
    _report("criterion 4 (tight-family necessity)", "beta 5 fails, beta 6 passes")


def test_criterion_5_threshold_maxima_agree():
    started = time.perf_counter()
    found = 0
    seed = 0
    while found < 30:
        inst, cs, w = _case(seed, max_vars=12)
        seed += 1
        report = compute_omega(inst, cs)
        if report.omega_eq is None:
            continue
        found += 1
        assert report.omega_eq == report.omega_gt
        assert report.beta_tight > report.omega_eq
        assert check_prioritization(inst, 1, report.beta_tight, cs)
        if report.omega_eq.denominator == 1 and report.beta_tight - 1 >= 1:
            assert not check_prioritization(inst, 1, report.beta_tight - 1, cs)
        assert w.beta >= report.beta_tight
    _report("criterion 5 (adjacent equals all-pairs threshold)", f"30 instances, {time.perf_counter() - started:.1f}s")


def _model_feasible_mask(model, bits: np.ndarray) -> np.ndarray:
    n = bits.shape[1]
    ok = np.ones(bits.shape[0], dtype=bool)
    b64 = bits.astype(np.int64)
    for row in model.constraints:
        coeffs = np.zeros(n, dtype=np.int64)
        for i, c in row.terms:
            coeffs[i] += c
        values = b64 @ coeffs
        ok &= (values == row.rhs) if row.relation == "=" else (values <= row.rhs)
    return ok


def test_criterion_6_base_strong_equivalence_and_size_gap():
    started = time.perf_counter()
    for seed in range(50):
        inst, cs, w = _case(seed)
        strong = build_strong_groups(inst)
        base_model = build_ip(inst, cs, w.alpha, w.beta, kind="base")
        strong_model = build_ip(inst, strong, w.alpha, w.beta, kind="strong")
        bits = _all_bits(inst.n_vars)
        assert (_model_feasible_mask(base_model, bits) == _model_feasible_mask(strong_model, bits)).all()
    # table-scale size gap: 5 wavelengths x 60 requests x 4 paths per kind on
    # a moderately sparse topology (dense random graphs understate conflict
    # density relative to real optical networks)
    topo = synth_topology(14, 1.5, seed=7)
    big = generate(topo, wavelengths=5, request_count=60, paths_per_kind=4, seed=7)
    assert big.n_vars == 2400
    counts = count_constraints(big, build_conflict_sets(big), build_strong_groups(big))
    ratio_gap = counts.base_ratio / counts.strong_ratio
    assert ratio_gap >= 100, f"cons/vars gap only {ratio_gap:.1f}x"
    _report(
        "criterion 6 (model equivalence and constraint-count gap)",
        f"50 instances equal; table-scale gap {ratio_gap:.0f}x "
        f"(base {counts.base_ratio:.1f}, strong {counts.strong_ratio:.2f}), "
        f"{time.perf_counter() - started:.1f}s",
    )


@pytest.mark.slow
def test_criterion_7_annealer_reaches_optimum_at_desk_scale():
    started = time.perf_counter()
    instance_hits = 0
    run_hits = 0
    runs = 0
    for seed in range(30):
        inst, cs, w = _case(seed)
        rho = w.beta + 100
        q = build_qubo(inst, cs, w.alpha, w.beta, rho)
        _, optimum = brute_force_qubo(q)
        best = None
        for run_seed in range(10):
            result = anneal(q, AnnealConfig(iterations=20_000, replicas=8, seed=run_seed))
            runs += 1
            if result.best_energy == optimum:
                run_hits += 1
            best = result.best_energy if best is None else min(best, result.best_energy)
            decoded = list(result.best_bits)
            raw_feasible = verify_feasible(inst, cs, decoded).feasible
            repaired = repair(inst, cs, decoded, w.alpha, w.beta)
            assert raw_feasible or repaired
            assert verify_feasible(inst, cs, decoded).feasible
        assert best == optimum, f"seed {seed}: best-of-seeds {best} != optimum {optimum}"
        instance_hits += 1
    rate = run_hits / runs
    assert rate >= 0.95, f"per-run hit rate {rate:.3f} below 0.95"
    _report(
        "criterion 7 (annealer optimality)",
        f"30/30 instances, per-run rate {rate:.3f}, {time.perf_counter() - started:.0f}s",
    )


def test_criterion_8_greedy_soundness():
    started = time.perf_counter()
    for seed in range(50):
        inst, cs, w = _case(seed)
        report = rs_heur(inst, cs, RsConfig(permutation_budget=8, seed=seed), w.alpha, w.beta)
        assert verify_feasible(inst, cs, report.solution).feasible
        optimum = brute_force_ip(inst, cs, w.alpha, w.beta)
        assert report.f_beta <= optimum.f_beta
    fig1 = figure1_instance()
    fig1_report = rs_heur(fig1, build_conflict_sets(fig1), RsConfig(4, 1))
    assert fig1_report.f_beta == 2
    _report("criterion 8 (greedy sound and never above optimum)", f"50 instances, {time.perf_counter() - started:.1f}s")


def test_criterion_9_stable_set_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(30):
        nodes, edges = random_graph(rng, max_nodes=6)
        inst = mss_to_rwap(MssGraph(node_count=nodes, edges=edges))
        cs = build_conflict_sets(inst)
        assert cs.c1 == ()
        for kind, tuples in (("c2", cs.c2), ("c3", cs.c3), ("c4", cs.c4)):
            for tup in tuples:
                r1, r2 = tup[0], tup[1]
                first = inst.requests[r1].working[tup[2]] if kind != "c4" else inst.requests[r1].protection[tup[2]]
                second = (
                    inst.requests[r2].protection[tup[3]]
                    if kind in ("c2", "c4")
                    else inst.requests[r2].working[tup[3]]
                )
                assert len(set(first.links) & set(second.links)) == 1
        assert max_requests_only(inst).f_beta == brute_force_stable_set(nodes, edges)
    _report("criterion 9 (stable-set reduction equivalence)", f"30 graphs, {time.perf_counter() - started:.1f}s")


def test_criterion_10_branch_and_bound_oracle():
    started = time.perf_counter()
    for seed in range(20):
        inst, cs, w = _case(seed, max_vars=20)
        strong = build_strong_groups(inst)
        exact = brute_force_ip(inst, cs, w.alpha, w.beta, cap=20)
        full = branch_and_bound(inst, strong, w.alpha, w.beta, conflict_sets=cs)
        assert full.optimal
        assert (full.objective, full.f_alpha, full.solution) == (exact.objective, exact.f_alpha, exact.solution)
        assert full.bound == exact.objective
        limited = branch_and_bound(inst, strong, w.alpha, w.beta, node_limit=3, conflict_sets=cs)
        assert limited.bound <= exact.objective
    _report("criterion 10 (branch and bound matches enumeration)", f"20 instances, {time.perf_counter() - started:.1f}s")


def test_criterion_11_determinism_across_worker_counts():
    started = time.perf_counter()
    topo = synth_topology(10, 1.8, seed=3)
    inst_a = generate(topo, wavelengths=2, request_count=4, paths_per_kind=2, seed=5)
    inst_b = generate(topo, wavelengths=2, request_count=4, paths_per_kind=2, seed=5)
    assert inst_a == inst_b
    cs = build_conflict_sets(inst_a)
    w = beta_base(inst_a)
    q = build_qubo(inst_a, cs, w.alpha, w.beta, w.beta + 100)
    cfg = AnnealConfig(iterations=5000, replicas=4, seed=9)
    assert anneal(q, cfg) == anneal(q, cfg)
    rs_cfg = RsConfig(permutation_budget=20, seed=9)
    assert rs_heur(inst_a, cs, rs_cfg) == rs_heur(inst_b, cs, rs_cfg)

    tasks = [
        BenchTask(
            label="inst",
            instance=inst_a,
            method=method,
            seed=seed,
            iterations=2000,
            permutations=10,
            node_limit=None,
            rho_offset=None,
        )
        for method in ("da", "rs")
        for seed in (0, 1)
    ]

    def rows_with(threads: str):
        old = os.environ.get("RWAP_THREADS")
        os.environ["RWAP_THREADS"] = threads
        try:
            rows = run_bench(tasks)
        finally:
            if old is None:
                del os.environ["RWAP_THREADS"]
            else:
                os.environ["RWAP_THREADS"] = old
        for row in rows:
            row.pop("wall_time_s")
        return rows

    assert rows_with("1") == rows_with("4")
    _report("criterion 11 (seeded determinism under 1 and N workers)", f"{time.perf_counter() - started:.1f}s")


@pytest.mark.slow
def test_criterion_12_scale_smoke_annealer_vs_greedy():
    started = time.perf_counter()
    # 15 wavelengths x 100 requests x 2 paths per kind = 6000 variables, within
    # the 8192-variable annealer capacity; sparse topology for real contention
    topo = synth_topology(22, 1.4, seed=7)
    inst = generate(topo, wavelengths=15, request_count=100, paths_per_kind=2, seed=7)
    assert inst.n_vars == 6000
    cs = build_conflict_sets(inst)
    w = beta_base(inst)
    rho = w.beta + 100
    q = build_qubo(inst, cs, w.alpha, w.beta, rho)
    rs = rs_heur(inst, cs, RsConfig(permutation_budget=200, seed=0), w.alpha, w.beta)
    assert rs.feasible
    wins = 0
    grants = []
    for seed in range(10):
        config = AnnealConfig(
            iterations=100_000,
            replicas=4,
            seed=seed,
            t_max=300.0,
            t_min=0.5,
            exchange_interval=50,
        )
        report = solve_rwap_da(inst, cs, w.alpha, w.beta, rho, config, qubo=q)
        assert report.feasible
        grants.append(report.f_beta)
        if report.f_beta >= rs.f_beta:
            wins += 1
    assert wins >= 8, f"annealer >= greedy on only {wins}/10 seeds (greedy {rs.f_beta}, annealer {grants})"
    _report(
        "criterion 12 (scale smoke test)",
        f"greedy {rs.f_beta}, annealer {grants}, >= on {wins}/10 seeds, "
        f"{time.perf_counter() - started:.0f}s",
    )
