"""The oracles' one chunked enumeration: ``rho_tight`` against the
per-vector loop it replaced, the penalty totals against the definitions,
and every enumeration result across chunk boundaries."""

import numpy as np
import pytest

import rwap.oracle as oracle
from rwap.conflicts import build_conflict_sets
from rwap.instance import f_alpha, f_beta
from rwap.oracle import _enumeration, _penalty_totals, brute_force_ip, brute_force_qubo, feasible_objectives
from rwap.qubo import build_qubo, penalty, rho_tight
from rwap.weights import beta_base, tight_example

from helpers import raw_violation_count, small_instance


def reference_rho_tight(instance, conflict_sets, alpha, beta):
    """The per-vector loop: one penalty and objective evaluation per vector."""
    n = instance.n_vars
    feasible_max = None
    requirements = [1]
    rows = []
    for k in range(1 << n):
        bits = tuple((k >> (n - 1 - i)) & 1 for i in range(n))
        g = penalty(instance, conflict_sets, bits).total_g
        f = alpha * f_alpha(instance, bits) - beta * f_beta(instance, bits)
        if g == 0:
            feasible_max = f if feasible_max is None else max(feasible_max, f)
        else:
            rows.append((f, g))
    for f, g in rows:
        requirements.append((feasible_max - f) // g + 1)
    return max(requirements)


SMALL = [small_instance(seed, max_vars=12) for seed in range(40)]


@pytest.mark.parametrize("seed", range(40))
def test_rho_tight_equals_the_per_vector_reference(seed):
    inst = SMALL[seed]
    cs = build_conflict_sets(inst)
    w = beta_base(inst)
    for alpha, beta in ((w.alpha, w.beta), (1, 20), (2, 5), (0, 3), (3, 0)):
        assert rho_tight(inst, cs, alpha, beta) == reference_rho_tight(inst, cs, alpha, beta)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (4, 1), (1, 5)])
def test_rho_tight_equals_the_per_vector_reference_on_tight_examples(shape):
    inst = tight_example(*shape)
    cs = build_conflict_sets(inst)
    for alpha, beta in ((0, 1), (0, 7), (1, 6), (1, 1), (2, 9), (5, 3)):
        assert rho_tight(inst, cs, alpha, beta) == reference_rho_tight(inst, cs, alpha, beta)


def test_rho_tight_cap():
    inst = small_instance(0)
    with pytest.raises(ValueError, match="diagnostic cap of 2"):
        rho_tight(inst, build_conflict_sets(inst), 1, 1, cap=2)


@pytest.mark.parametrize("seed", range(20))
def test_penalty_totals_equal_the_definitions_row_by_row(seed):
    inst = SMALL[seed]
    cs = build_conflict_sets(inst)
    (start, bits), *rest = _enumeration(inst.n_vars)
    assert start == 0 and not rest and bits.dtype == np.int8 and len(bits) == 1 << inst.n_vars
    totals = _penalty_totals(inst, cs, bits)
    assert totals.tolist() == [raw_violation_count(inst, row.tolist()) for row in bits]


def test_enumeration_chunks_are_the_rows_in_lexicographic_order(monkeypatch):
    monkeypatch.setattr(oracle, "CHUNK_BITS", 2)
    chunks = list(_enumeration(5))
    assert [start for start, _ in chunks] == list(range(0, 32, 4))
    rows = np.concatenate([bits for _, bits in chunks])
    assert ["".join(map(str, row)) for row in rows.tolist()] == [format(k, "05b") for k in range(32)]
    assert [(start, bits.shape) for start, bits in _enumeration(0)] == [(0, (1, 0))]


@pytest.mark.parametrize("seed", range(10))
def test_oracles_agree_across_chunk_boundaries(seed, monkeypatch):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    w = beta_base(inst)
    qubo = build_qubo(inst, cs, w.alpha, w.beta, w.beta + 1)

    def results():
        report = brute_force_ip(inst, cs, w.alpha, w.beta)
        fa, fb = feasible_objectives(inst, cs)
        return (
            report.solution.bits,
            report.bound,
            brute_force_qubo(qubo),
            fa.tolist(),
            fb.tolist(),
            rho_tight(inst, cs, w.alpha, w.beta),
        )

    whole = results()
    monkeypatch.setattr(oracle, "CHUNK_BITS", 1)
    assert results() == whole
