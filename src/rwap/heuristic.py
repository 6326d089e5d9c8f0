"""Random-permutation greedy assignment.

Each pass processes the requests in a random order.  A request is granted
with the first available combination found by scanning link-disjoint
(working path, protection path) pairs in increasing combined length and, per
pair, wavelengths in index order: both paths on the same wavelength first,
then mixed wavelength pairs in lexicographic order (the model itself allows
the two paths of a request to differ in wavelength).  A combination is
available when no (link, wavelength) slot its two variables cover, as read
from the slot table ``ConflictSets.strong.slots``, is already taken by a
granted lightpath.  The best pass by granted count wins, ties broken by
fewer links and then by earliest pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflicts import ConflictSets
from .instance import Instance, PROTECTION, Solution, SolveReport, WORKING, check_built_for, make_report


@dataclass(frozen=True)
class RsConfig:
    permutation_budget: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.permutation_budget < 1:
            raise ValueError("at least one permutation is required")


_Options = list[tuple[int, int]]  # (wavelength, variable index) of one route, wavelength ascending


def _routes(lightpaths, variables: range) -> list[tuple[tuple[int, ...], _Options]]:
    """Lightpaths grouped by route, in order of first appearance; a route's
    first variable on each wavelength stands for it."""
    table: dict[tuple[int, ...], dict[int, int]] = {}
    for i, lp in zip(variables, lightpaths):
        table.setdefault(lp.links, {}).setdefault(lp.wavelength, i)
    return [(links, sorted(by_wavelength.items())) for links, by_wavelength in table.items()]


def _prepare(instance: Instance) -> list[list[tuple[_Options, _Options, list[tuple[int, int]]]]]:
    """Per request, its link-disjoint (working route, protection route)
    pairs, shortest first, each as the two routes' options and the
    (working, protection) variables of every wavelength both carry."""
    prepared = []
    for req in instance.requests:
        wroutes = _routes(req.working, instance.var_range(req.id, WORKING))
        proutes = _routes(req.protection, instance.var_range(req.id, PROTECTION))
        pairs = sorted(
            (len(wl) + len(pl), wi, pi)
            for wi, (wl, _) in enumerate(wroutes)
            for pi, (pl, _) in enumerate(proutes)
            if not set(wl) & set(pl)
        )
        plan = []
        for _, wi, pi in pairs:
            wopts, popts = wroutes[wi][1], proutes[pi][1]
            on_p = dict(popts)
            plan.append((wopts, popts, [(iw, on_p[lam]) for lam, iw in wopts if lam in on_p]))
        prepared.append(plan)
    return prepared


def _first_free(plan, occupied: set[int], slots) -> tuple[int, int, bool] | None:
    """The first available (working, protection) variables of a request,
    and whether their wavelengths differ."""
    for wopts, popts, same in plan:
        for iw, ip in same:
            if occupied.isdisjoint(slots[iw]) and occupied.isdisjoint(slots[ip]):
                return iw, ip, False
        for lw, iw in wopts:
            if occupied.isdisjoint(slots[iw]):
                for lp, ip in popts:
                    if lp != lw and occupied.isdisjoint(slots[ip]):
                        return iw, ip, True
    return None


def rs_heur(
    instance: Instance,
    conflict_sets: ConflictSets,
    config: RsConfig,
    alpha: int = 1,
    beta: int = 1,
) -> SolveReport:
    check_built_for(instance, conflict_sets)
    prepared = _prepare(instance)
    slots = conflict_sets.strong.slots
    lengths = instance.lengths.tolist()
    n_req = len(instance.requests)
    best_key: tuple[int, int] | None = None  # (-granted, links)
    best_bits: list[int] = [0] * instance.n_vars
    best_mixed = 0

    for perm_index in range(config.permutation_budget):
        stream = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(perm_index,)))
        )
        order = stream.permutation(n_req)
        occupied: set[int] = set()  # slot ids of the granted lightpaths
        bits = [0] * instance.n_vars
        granted = 0
        links_used = 0
        mixed = 0
        for rid in order:
            chosen = _first_free(prepared[rid], occupied, slots)
            if chosen is None:
                continue
            iw, ip, differ = chosen
            bits[iw] = bits[ip] = 1
            occupied.update(slots[iw])
            occupied.update(slots[ip])
            granted += 1
            links_used += lengths[iw] + lengths[ip]
            mixed += differ
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
