"""The numpy kernel's candidate draw against the law it must have.

`_candidates` replaces one gate per variable by a near set with one gate
each and a binomial number of thinned proposals from the tail.  Flip i must
still pass independently with probability p_i = min(1, exp(-(delta_i -
offset) / T)), so every subset of the flips is drawn with the product of
p_i over its members and 1 - p_i over the rest.  Each case enumerates that
law over all subsets of a short row and requires every empirical frequency
to lie within five standard deviations of it.
"""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from rwap.anneal import _candidates

DRAWS = 40_000


def _at_reach(off: float, temp: float, n: int) -> float:
    """The delta at the near/tail boundary, computed as `_candidates` does."""
    return off + temp * math.log(n)


# (deltas, offset, temperature); the tail is every delta - offset >= T ln n
CASES = {
    # -3 and 0 pass surely (delta <= offset), 0.5 is near, 2 and 7 are tail
    "p_is_one": ([-3.0, 0.0, 0.5, 2.0, 7.0], 0.0, 1.0),
    "empty_tail": ([0.2, 1.0, 1.5, -1.0], 0.0, 2.0),
    "all_tail": ([2.0, 3.0, 1.5, 4.0], 0.0, 1.0),
    # 4, 5 and 6 are near only because of the offset; 9, 12 and 30 are tail
    "nonzero_offset": ([5.0, 6.0, 9.0, 4.0, 12.0, 30.0], 4.0, 1.5),
    # one flip exactly at the boundary, which is tail, and one deeper
    "boundary_and_deep": ([_at_reach(0.75, 1.0, 2), _at_reach(0.75, 1.0, 2) + 1.0], 0.75, 1.0),
    # both flips at the boundary: p = 1/2 each, every proposal kept
    "boundary_pair": ([_at_reach(0.0, 3.0, 2)] * 2, 0.0, 3.0),
}


def _product_law(row, off, temp) -> dict[tuple[int, ...], float]:
    p = [min(1.0, math.exp(-(d - off) / temp)) for d in row]
    law = {}
    for passes in product((False, True), repeat=len(row)):
        subset = tuple(i for i, x in enumerate(passes) if x)
        law[subset] = math.prod(p[i] if x else 1.0 - p[i] for i, x in enumerate(passes))
    return law


@pytest.mark.parametrize("case", CASES)
def test_candidate_sets_follow_the_product_law(case):
    deltas, off, temp = CASES[case]
    row = np.array(deltas)
    rng = np.random.default_rng(0)
    seen = Counter()
    for _ in range(DRAWS):
        cand = _candidates(row, off, temp, rng).tolist()
        assert cand == sorted(set(cand))  # distinct, in ascending index order
        seen[tuple(cand)] += 1
    law = _product_law(deltas, off, temp)
    assert set(seen) <= set(law)
    for subset, p in law.items():
        # a subset of probability 0 or 1 must then appear never or always
        assert abs(seen[subset] - DRAWS * p) <= 5 * math.sqrt(DRAWS * p * (1 - p)), (subset, seen[subset], DRAWS * p)


def test_the_cases_cover_both_sides_of_the_boundary():
    # the near set is delta - offset < T ln n: check which side each case's
    # flips fall on, so that a case cannot drift into testing something else
    def tail(case):
        deltas, off, temp = CASES[case]
        return [d >= _at_reach(off, temp, len(deltas)) for d in deltas]

    assert tail("p_is_one") == [False, False, False, True, True]
    assert not any(tail("empty_tail"))
    assert all(tail("all_tail"))
    assert tail("nonzero_offset") == [False, False, True, False, True, True]
    assert tail("boundary_and_deep") == [True, True]
    assert tail("boundary_pair") == [True, True]
