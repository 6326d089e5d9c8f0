"""Random-permutation greedy assignment.

Each pass processes the requests in a random order.  A request is granted
with the first available combination found by scanning its grant options
(``StrongGroups.options``: link-disjoint route pairs) in increasing combined
length and, per pair, wavelengths in index order: both paths on the same
wavelength first, then mixed wavelength pairs in lexicographic order (the
model itself allows the two paths of a request to differ in wavelength).
Occupancy is one integer mask per link, whose bit lam is set while a
granted lightpath holds (link, lam).  A route's free wavelengths are those
it carries with no bit set on any of its links, so a pair's first available
combination is the lowest wavelength free on both routes, or else the lowest
free on each.  The best pass by granted count wins, ties broken by fewer
links and then by earliest pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conflicts import ConflictSets, Route
from .instance import Instance, Solution, SolveReport, check_built_for, make_report


@dataclass(frozen=True)
class RsConfig:
    permutation_budget: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.permutation_budget < 1:
            raise ValueError("at least one permutation is required")


def _free(route: Route, busy: list[int]) -> int:
    """The wavelengths the route carries that none of its links has busy."""
    links, _, _, have = route
    taken = 0
    for e in links:
        taken |= busy[e]
    return have & ~taken


def rs_heur(
    instance: Instance,
    conflict_sets: ConflictSets,
    config: RsConfig,
    alpha: int = 1,
    beta: int = 1,
) -> SolveReport:
    check_built_for(instance, conflict_sets)
    options = conflict_sets.strong.options
    n_links = len(instance.network.links)
    n_req = len(instance.requests)
    best_key: tuple[int, int] | None = None  # (-granted, links)
    best_bits: list[int] = [0] * instance.n_vars
    best_mixed = 0

    for perm_index in range(config.permutation_budget):
        stream = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(perm_index,)))
        )
        order = stream.permutation(n_req)
        busy = [0] * n_links  # per link, bit lam set while a granted lightpath holds (link, lam)
        bits = [0] * instance.n_vars
        granted = 0
        links_used = 0
        mixed = 0
        for rid in order.tolist():
            for wroute, proute in options[rid]:
                free_w = _free(wroute, busy)
                free_p = _free(proute, busy) if free_w else 0
                if not free_p:
                    continue
                if free_w & free_p:  # the lowest wavelength free on both
                    free_w = free_p = free_w & free_p
                else:  # the lowest free on each: they differ, as the masks share no bit
                    mixed += 1
                lw, lp = (free_w & -free_w).bit_length() - 1, (free_p & -free_p).bit_length() - 1
                for links, lam in ((wroute[0], lw), (proute[0], lp)):
                    for e in links:
                        busy[e] |= 1 << lam
                iw, ip = wroute[2][lw], proute[2][lp]
                bits[iw] = bits[ip] = 1
                granted += 1
                links_used += len(wroute[0]) + len(proute[0])
                break
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
