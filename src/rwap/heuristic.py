"""Random-permutation greedy assignment.

Each pass processes the requests in a random order.  A request is granted
with the first available combination found by scanning link-disjoint
(working path, protection path) pairs in increasing combined length and, per
pair, wavelengths in index order: both paths on the same wavelength first,
then mixed wavelength pairs in lexicographic order (the model itself allows
the two paths of a request to differ in wavelength).  A combination is
available when no (link, wavelength) slot it needs is already taken by a
granted lightpath.  The best pass by granted count wins, ties broken by
fewer links and then by earliest pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflicts import ConflictSets
from .instance import Instance, PROTECTION, Solution, SolveReport, WORKING, make_report


@dataclass(frozen=True)
class RsConfig:
    permutation_budget: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.permutation_budget < 1:
            raise ValueError("at least one permutation is required")


@dataclass(frozen=True)
class _PathGroup:
    links: tuple[int, ...]
    length: int
    by_wavelength: dict[int, int]  # wavelength -> variable index

    @property
    def wavelengths(self) -> list[int]:
        return sorted(self.by_wavelength)


def _path_groups(lightpaths, variables: range) -> list[_PathGroup]:
    order: list[tuple[int, ...]] = []
    table: dict[tuple[int, ...], dict[int, int]] = {}
    for i, lp in zip(variables, lightpaths):
        if lp.links not in table:
            table[lp.links] = {}
            order.append(lp.links)
        table[lp.links].setdefault(lp.wavelength, i)
    return [_PathGroup(links=key, length=len(key), by_wavelength=table[key]) for key in order]


@dataclass(frozen=True)
class _RequestPairs:
    request_id: int
    working: list[_PathGroup]
    protection: list[_PathGroup]
    pairs: list[tuple[int, int]]  # (working group, protection group), link-disjoint, shortest first


def _prepare(instance: Instance) -> list[_RequestPairs]:
    prepared = []
    for req in instance.requests:
        wgroups = _path_groups(req.working, instance.var_range(req.id, WORKING))
        pgroups = _path_groups(req.protection, instance.var_range(req.id, PROTECTION))
        pairs = [
            (wi, pi)
            for wi, wg in enumerate(wgroups)
            for pi, pg in enumerate(pgroups)
            if not set(wg.links) & set(pg.links)
        ]
        pairs.sort(key=lambda wp: (wgroups[wp[0]].length + pgroups[wp[1]].length, wp[0], wp[1]))
        prepared.append(_RequestPairs(req.id, wgroups, pgroups, pairs))
    return prepared


def _free(occupied: set[tuple[int, int]], links: tuple[int, ...], wavelength: int) -> bool:
    return all((e, wavelength) not in occupied for e in links)


def rs_heur(
    instance: Instance,
    conflict_sets: ConflictSets,
    config: RsConfig,
    alpha: int = 1,
    beta: int = 1,
) -> SolveReport:
    prepared = _prepare(instance)
    n_req = len(instance.requests)
    best_key: tuple[int, int] | None = None  # (-granted, links)
    best_bits: list[int] = [0] * instance.n_vars
    best_mixed = 0

    for perm_index in range(config.permutation_budget):
        stream = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(perm_index,)))
        )
        order = stream.permutation(n_req)
        occupied: set[tuple[int, int]] = set()
        bits = [0] * instance.n_vars
        granted = 0
        links_used = 0
        mixed = 0
        for rid in order:
            plan = prepared[rid]
            assigned = None
            for wi, pi in plan.pairs:
                wg, pg = plan.working[wi], plan.protection[pi]
                for lam in sorted(set(wg.by_wavelength) & set(pg.by_wavelength)):
                    if _free(occupied, wg.links, lam) and _free(occupied, pg.links, lam):
                        assigned = (wg, lam, pg, lam)
                        break
                if assigned is None:
                    for lw in wg.wavelengths:
                        if not _free(occupied, wg.links, lw):
                            continue
                        for lp in pg.wavelengths:
                            if lp == lw:
                                continue
                            if _free(occupied, pg.links, lp):
                                assigned = (wg, lw, pg, lp)
                                mixed += 1
                                break
                        if assigned is not None:
                            break
                if assigned is not None:
                    break
            if assigned is None:
                continue
            wg, lw, pg, lp = assigned
            bits[wg.by_wavelength[lw]] = 1
            bits[pg.by_wavelength[lp]] = 1
            occupied.update((e, lw) for e in wg.links)
            occupied.update((e, lp) for e in pg.links)
            granted += 1
            links_used += wg.length + pg.length
        key = (-granted, links_used)
        if best_key is None or key < best_key:
            best_key = key
            best_bits = bits
            best_mixed = mixed

    return make_report(
        instance,
        conflict_sets,
        Solution.from_array(best_bits),
        alpha=alpha,
        beta=beta,
        method="rs",
        permutations=config.permutation_budget,
        mixed_wavelength_grants=best_mixed,
    )
