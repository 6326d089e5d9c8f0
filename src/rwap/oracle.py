"""Exact solvers: exhaustive enumeration and branch-and-bound.

These are the ground truth the stochastic solvers are measured against.
Enumeration is vectorised over chunks of the bit-vector space and is
restricted to small variable counts; branch-and-bound searches over
per-request assignments with mutually-exclusive-group propagation and an
optimistic objective bound, and remains exact whenever its node budget is
not exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflicts import ConflictSets, StrongGroups, build_conflict_sets
from .instance import (
    Instance,
    PROTECTION,
    Solution,
    SolveReport,
    WORKING,
    make_report,
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


@dataclass(frozen=True)
class _FeasibilityTables:
    working_members: np.ndarray  # (R, n) int8
    protection_members: np.ndarray  # (R, n) int8
    pair_i: np.ndarray  # conflict pair endpoints, int64
    pair_j: np.ndarray


def _tables(instance: Instance, conflict_sets: ConflictSets) -> _FeasibilityTables:
    n = instance.n_vars
    n_req = len(instance.requests)
    wm = np.zeros((n_req, n), dtype=np.int8)
    pm = np.zeros((n_req, n), dtype=np.int8)
    for i in range(n):
        r, kind, _ = instance.var_info(i)
        (wm if kind == WORKING else pm)[r, i] = 1
    return _FeasibilityTables(wm, pm, conflict_sets.first, conflict_sets.second)


def _feasible_mask(tables: _FeasibilityTables, bits: np.ndarray) -> np.ndarray:
    cw = bits.astype(np.int64) @ tables.working_members.T.astype(np.int64)
    cp = bits.astype(np.int64) @ tables.protection_members.T.astype(np.int64)
    ok = (cw == cp).all(axis=1) & (cw <= 1).all(axis=1)
    if tables.pair_i.size:
        ok &= ~((bits[:, tables.pair_i] & bits[:, tables.pair_j]).any(axis=1))
    return ok


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationLimitError(f"{n} variables exceed the enumeration cap of {cap}")


def feasible_objectives(
    instance: Instance, conflict_sets: ConflictSets, cap: int = ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Link usage and granted count of every feasible bit vector."""
    n = instance.n_vars
    _check_cap(n, cap)
    tables = _tables(instance, conflict_sets)
    lengths = instance.lengths_array()
    working = instance.working_mask().astype(np.int64)
    fa_parts: list[np.ndarray] = []
    fb_parts: list[np.ndarray] = []
    total = 1 << n
    for start in range(0, total, 1 << CHUNK_BITS):
        bits = _bits_chunk(n, start, min(total, start + (1 << CHUNK_BITS)))
        ok = _feasible_mask(tables, bits)
        sel = bits[ok].astype(np.int64)
        fa_parts.append(sel @ lengths)
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
    tables = _tables(instance, conflict_sets)
    lengths = instance.lengths_array()
    working = instance.working_mask().astype(np.int64)
    best: tuple[int, int, int] | None = None  # (objective, f_alpha, index)
    total = 1 << n
    for start in range(0, total, 1 << CHUNK_BITS):
        stop = min(total, start + (1 << CHUNK_BITS))
        bits = _bits_chunk(n, start, stop)
        ok = _feasible_mask(tables, bits)
        if not ok.any():
            continue
        idx = np.flatnonzero(ok)
        sel = bits[idx].astype(np.int64)
        fa = sel @ lengths
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

@dataclass
class _RequestPlan:
    request_id: int
    pairs: list[tuple[int, int, int]]  # (combined length, working local, protection local)
    min_pair_length: int | None


def _plan(instance: Instance, strong: StrongGroups) -> list[_RequestPlan]:
    plans = []
    for req in instance.requests:
        pairs = []
        for w, wl in enumerate(req.working):
            blocked = set(strong.pbar[(req.id, w)])
            for p, pl in enumerate(req.protection):
                if p not in blocked:
                    pairs.append((wl.length + pl.length, w, p))
        pairs.sort()
        plans.append(
            _RequestPlan(
                request_id=req.id,
                pairs=pairs,
                min_pair_length=pairs[0][0] if pairs else None,
            )
        )
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
    bound on the optimum.
    """
    plans = _plan(instance, strong_groups)
    # requests by descending best-case gain, working pairs before skipping
    order = sorted(
        plans,
        key=lambda pl: (
            -(beta - alpha * pl.min_pair_length) if pl.min_pair_length is not None else 1,
            pl.request_id,
        ),
    )
    gains = [
        min(0, alpha * pl.min_pair_length - beta) if pl.min_pair_length is not None else 0
        for pl in order
    ]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gains[i]

    n = instance.n_vars
    assignment = [0] * n
    occupied: set[tuple[int, int]] = set()
    incumbent_bits = tuple([0] * n)
    incumbent_key = (0, 0, incumbent_bits)  # all-zero is always feasible
    nodes = 0
    exhausted = False
    open_bound_min: int | None = None

    def slots(lp) -> list[tuple[int, int]]:
        return [(e, lp.wavelength) for e in lp.links]

    def note_open(bound: int) -> None:
        nonlocal open_bound_min
        open_bound_min = bound if open_bound_min is None else min(open_bound_min, bound)

    def dfs(depth: int, cur_obj: int, cur_fa: int) -> None:
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
        plan = order[depth]
        req = instance.requests[plan.request_id]
        for combined, w, p in plan.pairs:
            wl, pl = req.working[w], req.protection[p]
            needed = slots(wl) + slots(pl)
            if any(s in occupied for s in needed):
                continue
            iw = instance.var_of(req.id, WORKING, w)
            ip_ = instance.var_of(req.id, PROTECTION, p)
            occupied.update(needed)
            assignment[iw] = assignment[ip_] = 1
            dfs(depth + 1, cur_obj + alpha * combined - beta, cur_fa + combined)
            assignment[iw] = assignment[ip_] = 0
            occupied.difference_update(needed)
            if exhausted:
                # alternatives at this node remain unexplored
                note_open(bound)
                return
        dfs(depth + 1, cur_obj, cur_fa)

    dfs(0, 0, 0)

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
