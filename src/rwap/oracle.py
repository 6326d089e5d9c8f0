"""Exact solvers: exhaustive enumeration and branch-and-bound.

These are the ground truth the stochastic solvers are measured against.
``_enumeration`` is the one loop over all bit vectors, in int8 chunks, and is
restricted to small variable counts.  The QUBO oracle and ``qubo.rho_tight``
read it, and so does ``_feasible``, the one pass over the feasible vectors
that both IP oracles read; ``_penalty_totals`` scores a chunk's rows (zero
exactly when feasible).  Branch-and-bound searches over per-request
assignments with mutually-exclusive-group propagation and an optimistic
objective bound, walking a stack of child generators, and remains exact
whenever its node budget is not exhausted.
"""

from __future__ import annotations

import numpy as np

from .conflicts import ConflictSets, StrongGroups, build_conflict_sets, check_built_for
from .instance import (
    Instance,
    PROTECTION,
    Solution,
    SolveReport,
    WORKING,
    make_report,
    penalty_terms,
)

ENUMERATION_CAP = 24
CHUNK_BITS = 16


class EnumerationLimitError(RuntimeError):
    """Raised when an instance is too large for exhaustive enumeration."""


def _enumeration(n: int):
    """The full enumeration of n bits as (first row, int8 bits) chunks,
    variable 0 as the most significant bit so that row order equals
    lexicographic bit-string order.  Callers check the cap first."""
    total, shifts = 1 << n, np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, 1 << CHUNK_BITS):
        ks = np.arange(start, min(total, start + (1 << CHUNK_BITS)), dtype=np.int64)
        yield start, ((ks[:, None] >> shifts) & 1).astype(np.int8)


def _penalty_totals(instance: Instance, conflict_sets: ConflictSets, bits: np.ndarray) -> np.ndarray:
    """Per row of a stack of bit vectors, the sum of its ``penalty_terms``:
    the QUBO penalty over rho, zero exactly when the row is feasible."""
    _, eq2, eq3, hit = penalty_terms(instance, conflict_sets, bits)
    return (eq2 + eq3).sum(axis=-1) + hit.sum(axis=-1)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationLimitError(f"{n} variables exceed the enumeration cap of {cap}")


def _feasible(instance: Instance, conflict_sets: ConflictSets, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row index, link usage and granted count of every feasible bit vector,
    in row order, as three int64 arrays."""
    _check_cap(instance.n_vars, cap)
    working = instance.working.astype(np.int64)
    parts = []
    for start, bits in _enumeration(instance.n_vars):
        idx = np.flatnonzero(_penalty_totals(instance, conflict_sets, bits) == 0)
        sel = bits[idx].astype(np.int64)
        parts.append((start + idx, sel @ instance.lengths, sel @ working))
    return tuple(np.concatenate(column) for column in zip(*parts))


def feasible_objectives(
    instance: Instance, conflict_sets: ConflictSets, cap: int = ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Link usage and granted count of every feasible bit vector."""
    _, fa, fb = _feasible(instance, conflict_sets, cap)
    return fa, fb


def brute_force_ip(
    instance: Instance,
    conflict_sets: ConflictSets,
    alpha: int,
    beta: int,
    cap: int = ENUMERATION_CAP,
) -> SolveReport:
    """Minimum-objective feasible solution by full enumeration.

    Ties break toward fewer links, then the lexicographically smallest bit
    string.
    """
    idx, fa, fb = _feasible(instance, conflict_sets, cap)  # never empty: the all-zero vector is feasible
    obj = alpha * fa - beta * fb
    best = np.lexsort((idx, fa, obj))[0]
    solution = Solution.from_array((int(idx[best]) >> np.arange(instance.n_vars - 1, -1, -1)) & 1)
    bound = int(obj[best])
    return make_report(instance, conflict_sets, solution, alpha, beta, method="exact", optimal=True, bound=bound)


def brute_force_qubo(qubo, cap: int = ENUMERATION_CAP) -> tuple[Solution, int]:
    """Global minimum of a QUBO by full enumeration (lexicographic tie-break)."""
    n = qubo.n
    _check_cap(n, cap)
    lin = np.asarray(qubo.linear, dtype=np.int64)
    upper = np.zeros((n, n), dtype=np.int64)
    qi, qj, qv = qubo.pair_arrays()
    upper[qi, qj] = qv
    best: tuple[int, int] | None = None  # (energy, index)
    for start, bits in _enumeration(n):
        bits = bits.astype(np.int64)
        energy = qubo.constant + bits @ lin + ((bits @ upper) * bits).sum(axis=1)
        k = int(energy.argmin())  # argmin returns the first minimum: lex smallest
        cand = (int(energy[k]), start + k)
        if best is None or cand < best:
            best, row = cand, bits[k]
    return Solution.from_array(row), best[0]


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def _plan(instance: Instance, strong: StrongGroups) -> list[tuple[int, list]]:
    """Per request, its link-disjoint (combined length, working variable,
    protection variable, slots of both) pairs, shortest first."""
    lengths, slots = instance.lengths.tolist(), strong.slots
    plans = []
    for req in instance.requests:
        protection = instance.var_range(req.id, PROTECTION)
        pairs = []
        for w, iw in enumerate(instance.var_range(req.id, WORKING)):
            blocked = set(strong.pbar[(req.id, w)])
            for p, ip_ in enumerate(protection):
                if p not in blocked:
                    pairs.append((lengths[iw] + lengths[ip_], iw, ip_, slots[iw] + slots[ip_]))
        pairs.sort()  # (length, working, protection) never ties, so slots are not compared
        plans.append((req.id, pairs))
    return plans


def branch_and_bound(
    instance: Instance,
    strong_groups: StrongGroups,
    alpha: int,
    beta: int,
    node_limit: int | None = None,
    conflict_sets: ConflictSets | None = None,
) -> SolveReport:
    """Depth-first search over per-request assignments.

    Granting a request marks every (link, wavelength) slot of the chosen
    pair, which forces all group-mates to zero; the bound adds the best-case
    gain of every still-open grantable request.  Exact when the node budget
    is not exhausted, otherwise returns the incumbent with a proven lower
    bound on the optimum: the least bound of the incumbent and of every node
    left with children unexplored.  The stack holds one child generator per
    open node, so its depth (one level per request) is not bounded by the
    interpreter's recursion limit.
    """
    check_built_for(instance, strong_groups, conflict_sets)
    # requests by descending best-case gain, working pairs before skipping
    plans = sorted(_plan(instance, strong_groups), key=lambda pl: (alpha * pl[1][0][0] - beta if pl[1] else 1, pl[0]))
    order = [pairs for _, pairs in plans]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (min(0, alpha * order[i][0][0] - beta) if order[i] else 0)

    assignment = [0] * instance.n_vars
    occupied: set[int] = set()  # slot ids of the granted pairs
    incumbent = (0, 0, tuple(assignment))  # (objective, links, bits); all-zero is feasible
    nodes = 0
    unexplored: list[int] = []  # bounds of the nodes the node budget cut off; non-empty once it is spent

    def children(depth: int, cur_obj: int, cur_fa: int):
        """Each free pair's child with its slots marked, then the skip child."""
        for combined, iw, ip_, needed in order[depth]:
            if not occupied.isdisjoint(needed):
                continue
            occupied.update(needed)
            assignment[iw] = assignment[ip_] = 1
            yield depth + 1, cur_obj + alpha * combined - beta, cur_fa + combined
            assignment[iw] = assignment[ip_] = 0
            occupied.difference_update(needed)
            if unexplored:  # the budget ran out below: the other pairs stay open
                unexplored.append(cur_obj + suffix[depth])
                return
        yield depth + 1, cur_obj, cur_fa

    stack = [iter([(0, 0, 0)])]  # the root, as the only child of a one-item iterator
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        depth, cur_obj, cur_fa = child
        bound = cur_obj + suffix[depth]
        if node_limit is not None and nodes >= node_limit:
            unexplored.append(bound)
            continue
        nodes += 1
        if bound > incumbent[0]:
            continue
        if depth == len(order):
            incumbent = min(incumbent, (cur_obj, cur_fa, tuple(assignment)))
        else:
            stack.append(children(depth, cur_obj, cur_fa))

    if conflict_sets is None:
        conflict_sets = build_conflict_sets(instance)
    return make_report(
        instance,
        conflict_sets,
        Solution(bits=incumbent[2]),
        alpha,
        beta,
        method="bnb",
        optimal=not unexplored,
        bound=min([incumbent[0], *unexplored]),
        nodes=nodes,
    )
