"""The array-built quadratic model against the dict-built reference."""

import numpy as np
import pytest

from rwap.conflicts import build_conflict_sets
from rwap.gen import generate, synth_topology
from rwap.instance import PROTECTION, WORKING
from rwap.qubo import QuboModel, build_qubo
from rwap.weights import beta_base

from helpers import figure1_instance, small_instance


def reference_qubo(instance, conflict_sets, alpha, beta, rho):
    """(linear, quadratic) of the model, assembled one pair at a time."""
    n = instance.n_vars
    linear = [0] * n
    quad = {}

    def add_pair(i, j, coeff):
        key = (i, j) if i < j else (j, i)
        quad[key] = quad.get(key, 0) + coeff

    for i in range(n):
        _, kind, _ = instance.var_info(i)
        linear[i] += alpha * instance.lightpath_at(i).length - (beta if kind == WORKING else 0)
    for req in instance.requests:
        wvars = instance.var_range(req.id, WORKING)
        pvars = instance.var_range(req.id, PROTECTION)
        for v in [*wvars, *pvars]:
            linear[v] += rho
        for a in range(len(wvars)):
            for b in range(a + 1, len(wvars)):
                add_pair(wvars[a], wvars[b], 4 * rho)
        for a in range(len(pvars)):
            for b in range(a + 1, len(pvars)):
                add_pair(pvars[a], pvars[b], 2 * rho)
        for vw in wvars:
            for vp in pvars:
                add_pair(vw, vp, -2 * rho)
    for i, j in zip(conflict_sets.first.tolist(), conflict_sets.second.tolist()):
        add_pair(i, j, rho)
    return tuple(linear), {key: coeff for key, coeff in sorted(quad.items()) if coeff != 0}


def reference_adjacency(n, quad):
    """Symmetric CSR of a pair dict: both orientations, lexsorted."""
    rows, cols, vals = [], [], []
    for (i, j), q in quad.items():
        rows += [i, j]
        cols += [j, i]
        vals += [q, q]
    row_arr = np.array(rows, dtype=np.int64)
    col_arr = np.array(cols, dtype=np.int64)
    val_arr = np.array(vals, dtype=np.int64)
    order = np.lexsort((col_arr, row_arr))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, row_arr[order] + 1, 1)
    return np.cumsum(indptr), col_arr[order], val_arr[order]


def _large_instance():
    inst = generate(synth_topology(12, 1.6, seed=3), 4, 10, 4, seed=5)
    assert inst.n_vars >= 300
    return inst


CASES = [("figure1", figure1_instance)]
CASES += [(f"small{seed}", lambda seed=seed: small_instance(seed)) for seed in range(20)]
CASES += [("generated", _large_instance)]


@pytest.mark.parametrize("make", [make for _, make in CASES], ids=[name for name, _ in CASES])
def test_array_build_matches_dict_reference(make):
    inst = make()
    cs = build_conflict_sets(inst)
    w = beta_base(inst) if any(r.working and r.protection for r in inst.requests) else None
    alpha, beta = (w.alpha, w.beta) if w else (1, 3)
    for rho in (1, beta + 100):
        q = build_qubo(inst, cs, alpha, beta, rho)
        linear, quad = reference_qubo(inst, cs, alpha, beta, rho)
        assert q.linear == linear
        qi, qj, qv = q.pair_arrays()
        assert [qi.tolist(), qj.tolist(), qv.tolist()] == [
            [i for i, _ in quad],
            [j for _, j in quad],
            list(quad.values()),
        ]
        assert all(arr.dtype == np.int64 for arr in (qi, qj, qv))
        assert dict(q.quadratic) == quad and len(q.quadratic) == len(quad)
        for got, want in zip(q.adjacency(), reference_adjacency(inst.n_vars, quad)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_hand_built_model_stores_sorted_arrays():
    quad = {(2, 3): 5, (0, 3): -1, (0, 1): 2}
    q = QuboModel(n=4, linear=(0,) * 4, quadratic=quad, constant=0, rho=1, alpha=1, beta=1)
    assert [arr.tolist() for arr in q.pair_arrays()] == [[0, 0, 2], [1, 3, 3], [2, -1, 5]]
    assert q.quadratic[(0, 3)] == -1 and (3, 0) not in q.quadratic and (1, 2, 3) not in q.quadratic
    assert q.quadratic == {(0, 1): 2, (0, 3): -1, (2, 3): 5}
    with pytest.raises(ValueError):
        q.pair_arrays()[2][0] = 7  # the stored arrays are read-only


@pytest.mark.parametrize("key", [(1, 1), (2, 1), (-1, 1), (0, 3), (3, 4)])
def test_hand_built_key_out_of_order_or_range(key):
    with pytest.raises(ValueError):
        QuboModel(n=3, linear=(0, 0, 0), quadratic={key: 1}, constant=0, rho=1, alpha=1, beta=1)
