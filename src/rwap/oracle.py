"""Exact solvers: exhaustive enumeration and branch-and-bound.

These are the ground truth the stochastic solvers are measured against.
Enumeration is vectorised over chunks of the bit-vector space and is
restricted to small variable counts; branch-and-bound searches over
per-request assignments with mutually-exclusive-group propagation and an
optimistic objective bound, and remains exact whenever its node budget is
not exhausted.
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
    request_counts,
)

ENUMERATION_CAP = 24
CHUNK_BITS = 16


class EnumerationLimitError(RuntimeError):
    """Raised when an instance is too large for exhaustive enumeration."""


def _bits_chunk(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the full enumeration, variable 0 as the most
    significant bit so that row order equals lexicographic bit-string order."""
    ks = np.arange(start, stop, dtype=np.int64)
    shifts = (n - 1 - np.arange(n, dtype=np.int64))[None, :]
    return ((ks[:, None] >> shifts) & 1).astype(np.int8)


def _feasible_mask(instance: Instance, conflict_sets: ConflictSets, bits: np.ndarray) -> np.ndarray:
    """Which rows of a stack of bit vectors satisfy every constraint."""
    cw, cp = request_counts(instance, bits)
    ok = (cw == cp).all(axis=1) & (cw <= 1).all(axis=1)
    if conflict_sets.pair_count:
        ok &= ~((bits[:, conflict_sets.first] & bits[:, conflict_sets.second]).any(axis=1))
    return ok


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationLimitError(f"{n} variables exceed the enumeration cap of {cap}")


def _feasible_chunks(instance: Instance, conflict_sets: ConflictSets):
    """Per chunk of the enumeration: its first row, the indices of its
    feasible rows and their bits as int64.  Callers check the cap first."""
    n = instance.n_vars
    total = 1 << n
    for start in range(0, total, 1 << CHUNK_BITS):
        bits = _bits_chunk(n, start, min(total, start + (1 << CHUNK_BITS)))
        idx = np.flatnonzero(_feasible_mask(instance, conflict_sets, bits))
        yield start, idx, bits[idx].astype(np.int64)


def feasible_objectives(
    instance: Instance, conflict_sets: ConflictSets, cap: int = ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Link usage and granted count of every feasible bit vector."""
    _check_cap(instance.n_vars, cap)
    working = instance.working.astype(np.int64)
    fa_parts: list[np.ndarray] = []
    fb_parts: list[np.ndarray] = []
    for _, _, sel in _feasible_chunks(instance, conflict_sets):
        fa_parts.append(sel @ instance.lengths)
        fb_parts.append(sel @ working)
    return np.concatenate(fa_parts), np.concatenate(fb_parts)


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
    n = instance.n_vars
    _check_cap(n, cap)
    working = instance.working.astype(np.int64)
    best: tuple[int, int, int] | None = None  # (objective, f_alpha, index)
    for start, idx, sel in _feasible_chunks(instance, conflict_sets):
        if not len(idx):
            continue
        fa = sel @ instance.lengths
        obj = alpha * fa - beta * (sel @ working)
        order = np.lexsort((idx, fa, obj))[0]
        cand = (int(obj[order]), int(fa[order]), start + int(idx[order]))
        if best is None or cand < best:
            best = cand
    assert best is not None  # the all-zero vector is always feasible
    bits_row = _bits_chunk(n, best[2], best[2] + 1)[0] if n else np.zeros(0, dtype=np.int8)
    solution = Solution.from_array(bits_row)
    return make_report(
        instance, conflict_sets, solution, alpha, beta, method="exact", optimal=True, bound=best[0]
    )


def brute_force_qubo(qubo, cap: int = ENUMERATION_CAP) -> tuple[Solution, int]:
    """Global minimum of a QUBO by full enumeration (lexicographic tie-break)."""
    n = qubo.n
    _check_cap(n, cap)
    if n == 0:
        return Solution.zeros(0), qubo.constant
    lin = np.asarray(qubo.linear, dtype=np.int64)
    upper = np.zeros((n, n), dtype=np.int64)
    qi, qj, qv = qubo.pair_arrays()
    upper[qi, qj] = qv
    best: tuple[int, int] | None = None  # (energy, index)
    total = 1 << n
    for start in range(0, total, 1 << CHUNK_BITS):
        stop = min(total, start + (1 << CHUNK_BITS))
        bits = _bits_chunk(n, start, stop).astype(np.int64)
        energy = qubo.constant + bits @ lin + ((bits @ upper) * bits).sum(axis=1)
        k = int(energy.argmin())  # argmin returns the first minimum: lex smallest
        cand = (int(energy[k]), start + k)
        if best is None or cand < best:
            best = cand
    bits_row = _bits_chunk(n, best[1], best[1] + 1)[0]
    return Solution.from_array(bits_row), best[0]


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
    bound on the optimum.  The search keeps its own stack, so its depth (one
    level per request) is not bounded by the interpreter's recursion limit.
    """
    check_built_for(instance, strong_groups, conflict_sets)
    # requests by descending best-case gain, working pairs before skipping
    plans = sorted(_plan(instance, strong_groups), key=lambda pl: (alpha * pl[1][0][0] - beta if pl[1] else 1, pl[0]))
    order = [pairs for _, pairs in plans]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (min(0, alpha * order[i][0][0] - beta) if order[i] else 0)

    n = instance.n_vars
    assignment = [0] * n
    occupied: set[int] = set()  # slot ids of the granted pairs
    incumbent_bits = tuple([0] * n)
    incumbent_key = (0, 0, incumbent_bits)  # all-zero is always feasible
    nodes = 0
    exhausted = False
    open_bound_min: int | None = None

    def note_open(bound: int) -> None:
        nonlocal open_bound_min
        open_bound_min = bound if open_bound_min is None else min(open_bound_min, bound)

    # one frame per open node: [depth, objective, links, next pair, granted
    # pair or None]; next pair len(pairs) + 1 marks a running skip branch
    stack: list[list] = []

    def visit(depth: int, cur_obj: int, cur_fa: int) -> None:
        """Count and bound a node; push it when it has children."""
        nonlocal nodes, exhausted, incumbent_key, incumbent_bits
        bound = cur_obj + suffix[depth]
        if exhausted or (node_limit is not None and nodes >= node_limit):
            exhausted = True
            note_open(bound)
            return
        nodes += 1
        if bound > incumbent_key[0]:
            return
        if depth == len(order):
            key = (cur_obj, cur_fa, tuple(assignment))
            if key < incumbent_key:
                incumbent_key = key
                incumbent_bits = tuple(assignment)
            return
        stack.append([depth, cur_obj, cur_fa, 0, None])

    visit(0, 0, 0)
    while stack:
        frame = stack[-1]
        depth, cur_obj, cur_fa, k, granted = frame
        pairs = order[depth]
        if granted is not None:
            _, iw, ip_, needed = granted
            assignment[iw] = assignment[ip_] = 0
            occupied.difference_update(needed)
            frame[4] = None
            if exhausted:
                # alternatives at this node remain unexplored
                note_open(cur_obj + suffix[depth])
                stack.pop()
                continue
        elif k > len(pairs):
            stack.pop()
            continue
        while k < len(pairs) and not occupied.isdisjoint(pairs[k][3]):
            k += 1
        frame[3] = k + 1
        if k < len(pairs):
            combined, iw, ip_, needed = frame[4] = pairs[k]
            occupied.update(needed)
            assignment[iw] = assignment[ip_] = 1
            visit(depth + 1, cur_obj + alpha * combined - beta, cur_fa + combined)
        else:
            visit(depth + 1, cur_obj, cur_fa)

    if conflict_sets is None:
        conflict_sets = build_conflict_sets(instance)
    solution = Solution(bits=incumbent_bits)
    lower = incumbent_key[0]
    if exhausted and open_bound_min is not None:
        lower = min(lower, open_bound_min)
    return make_report(
        instance,
        conflict_sets,
        solution,
        alpha,
        beta,
        method="bnb",
        optimal=not exhausted,
        bound=lower,
        nodes=nodes,
    )
