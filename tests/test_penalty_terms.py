"""``penalty_terms``, the one definition of the constraint terms: a stack of
vectors reads the same as each of its rows, and on every vector of the
enumeration all terms are zero exactly when the verifier and the penalty
breakdown call the vector feasible."""

import numpy as np
import pytest

from rwap.conflicts import build_conflict_sets
from rwap.instance import penalty_terms, verify_feasible
from rwap.oracle import _enumeration
from rwap.qubo import penalty

from helpers import small_instance


@pytest.mark.parametrize("seed", range(20))
def test_penalty_terms_agree_with_themselves_and_the_verifier(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    ((_, bits),) = _enumeration(inst.n_vars)
    stack = penalty_terms(inst, cs, bits)
    assert [term.shape for term in stack] == [(len(bits), len(inst.requests))] * 3 + [(len(bits), cs.pair_count)]
    rng = np.random.default_rng(seed)
    for k in rng.choice(len(bits), size=min(64, len(bits)), replace=False).tolist():
        for row in (bits[k], bits[k].astype(bool), bits[k].tolist()):
            assert [term.tolist() for term in penalty_terms(inst, cs, row)] == [term[k].tolist() for term in stack]
    all_zero = ~np.concatenate(stack[1:], axis=1).any(axis=1)
    assert all_zero.any() and not all_zero.all()
    for row, zero in zip(bits.tolist(), all_zero.tolist()):
        assert verify_feasible(inst, cs, row).feasible == zero == (penalty(inst, cs, row).total_g == 0)
