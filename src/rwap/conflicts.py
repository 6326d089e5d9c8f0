"""Pairwise conflict sets and the mutually-exclusive group strengthening.

Two lightpaths conflict when they cannot both be selected: a request's own
working and protection lightpaths must be link-disjoint (class c1), and any
two lightpaths carrying the same wavelength must not share a link (classes
c2, c3, c4 for working/protection, working/working and protection/protection
combinations).  The strengthened form replaces those pairwise constraints
with at-most-one groups: per working lightpath, the set of same-request
protections overlapping it; per (link, wavelength) slot, every lightpath
covering it.

``build_strong_groups`` is the one place that turns links and wavelengths
into slots and tests lightpaths for shared links.  ``ConflictSets.strong``
keeps its slot table, read by the pairwise closure and branch-and-bound, and
its grant options, read by the greedy and branch-and-bound.  The closure is
numpy array work, with one sortable int64 key per pair and no loop over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType

import numpy as np

from .instance import Instance, PROTECTION, WORKING, check_built_for

Route = tuple[tuple[int, ...], tuple[int, ...], MappingProxyType[int, int], int]  # see StrongGroups


@dataclass(frozen=True, eq=False)
class ConflictSets:
    """Every conflicting variable pair of an instance, once, as dense arrays.

    Row t is the variable pair (``first[t]``, ``second[t]``) of class
    ``classes[t]``: 1 for a request's own working and protection lightpaths
    sharing a link, and for two same-wavelength lightpaths sharing a link 2
    (working and protection of different requests), 3 (two working) or 4
    (two protection).  ``first`` is the working endpoint in classes 1 and 2
    and the smaller index in classes 3 and 4.  Rows run by class and within
    a class in the order of its tuple family c1..c4, which base-model row
    names follow.  ``strong`` holds the groups the rows were closed from.
    """

    instance: Instance
    first: np.ndarray  # int64 per row
    second: np.ndarray  # int64 per row
    classes: np.ndarray  # int8 per row
    strong: StrongGroups

    @property
    def pair_count(self) -> int:
        return len(self.classes)

    @property
    def class_counts(self) -> list[int]:
        """Row counts of classes 1..4, the lengths of c1..c4."""
        return np.bincount(self.classes, minlength=5)[1:].tolist()

    def conflict_tuples(self, rows: np.ndarray) -> list[tuple[int, ...]]:
        """The c1..c4 tuple of each row in rows."""
        inst = self.instance
        a, b = self.first[rows], self.second[rows]
        columns = (inst.request_of[a], inst.request_of[b], inst.local_of(a), inst.local_of(b))
        return [
            (r1, l1, l2) if cls == 1 else (r1, r2, l1, l2)
            for cls, r1, r2, l1, l2 in zip(self.classes[rows].tolist(), *(c.tolist() for c in columns))
        ]

    def _family(self, cls: int) -> tuple[tuple[int, ...], ...]:
        lo, hi = np.searchsorted(self.classes, (cls, cls + 1)).tolist()
        return tuple(self.conflict_tuples(np.arange(lo, hi)))

    @cached_property
    def c1(self) -> tuple[tuple[int, int, int], ...]:
        """(request, working, protection) triples whose paths overlap."""
        return self._family(1)

    @cached_property
    def c2(self) -> tuple[tuple[int, int, int, int], ...]:
        """(r1, r2, w, p) with r1 != r2, both orientations enumerated."""
        return self._family(2)

    @cached_property
    def c3(self) -> tuple[tuple[int, int, int, int], ...]:
        """(r1, r2, w1, w2), each unordered working pair once, (r1, w1) < (r2, w2)."""
        return self._family(3)

    @cached_property
    def c4(self) -> tuple[tuple[int, int, int, int], ...]:
        """(r1, r2, p1, p2), each unordered protection pair once, (r1, p1) < (r2, p2)."""
        return self._family(4)

    def variable_pairs(self, instance: Instance) -> set[tuple[int, int]]:
        """All conflicting variable-index pairs (i < j), for cross-checks."""
        return {(min(a, b), max(a, b)) for a, b in zip(self.first.tolist(), self.second.tolist())}


def build_conflict_sets(instance: Instance) -> ConflictSets:
    """Pairwise closure of the mutually exclusive groups of
    build_strong_groups, as array work: pbar gives class 1, the member
    pairs of each (link, wavelength) group classes 2-4."""
    strong = build_strong_groups(instance)
    n, n_req = instance.n_vars, len(instance.requests)
    working, request_of = instance.working, instance.request_of
    # pbar runs over the working variables in index order
    w = np.repeat(working.nonzero()[0], np.fromiter(map(len, strong.pbar.values()), np.int64, len(strong.pbar)))
    p = instance.bounds[1::2][request_of[w]] + np.fromiter(chain.from_iterable(strong.pbar.values()), np.int64, len(w))
    # a group's members ascend, so member k pairs, as the smaller index,
    # with the later[k] members after it in its group
    members = np.fromiter(chain.from_iterable(strong.groups.values()), np.int64)
    sizes = np.fromiter(map(len, strong.groups.values()), np.int64, len(strong.groups))
    ends = np.repeat(sizes.cumsum(), sizes)
    later = ends - np.arange(1, len(members) + 1)
    a = np.concatenate((w, np.repeat(members, later)))
    b = np.concatenate((p, members[np.arange(len(a) - len(w)) + np.repeat(ends - later.cumsum(), later)]))
    # A group's same-request working/protection pair is class 1: it shares
    # a link, so pbar holds it too and the repeat is dropped below.  Class 2
    # puts its working endpoint first.
    wa, wb, ra, rb = working[a], working[b], request_of[a], request_of[b]
    swap = wb > wa
    first, second = np.where(swap, b, a), np.where(swap, a, b)
    classes = np.where(wa == wb, 4 - wa, 2 - (ra == rb))
    # A pair is one integer, block * n * n + first * n + second with block
    # (class * R + r1) * R + r2, whose order is the order of the c1..c4
    # tuples.  It fits in int64 while requests * variables stays below
    # about 1.36e9; numpy would wrap a larger key silently.
    block = (classes * n_req + request_of[first]) * n_req + request_of[second]
    key = first * n + second
    del w, p, members, ends, later, a, b, wa, wb, ra, rb, swap, first, second, classes
    nn, span, top = n * n, n_req * n_req * n * n, 2**63 - 1
    if 5 * span > top and len(key):  # some keys may not fit: find the largest
        last = block.max()
        if int(last) * nn + int(key[block == last].max()) > top:
            raise ValueError(
                f"{n_req} requests x {n} variables = {n_req * n} is too large for the conflict "
                "sort key of an instance with shared links (limit about 1.36e9)"
            )
    key += block * nn
    del block
    key.sort()
    fresh = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    first, second = np.divmod(key % nn, n)
    return ConflictSets(instance, first, second, (key // span).astype(np.int8), strong)


@dataclass(frozen=True)
class StrongGroups:
    """Mutually-exclusive variable groups replacing the pairwise conflicts.

    pbar maps (request, working local index) to the local indices of that
    request's protections sharing a link with the working path.  slots holds,
    per variable, the distinct slot ids ``link * wavelength_count +
    wavelength`` its lightpath covers, in walk order: two lightpaths conflict
    on wavelength exactly when their slot ids meet.  groups maps (link,
    wavelength), in key order, to the sorted variable indices of every
    lightpath covering that slot; groups with fewer than two members
    constrain nothing and are skipped at constraint emission but kept here
    for counting.  options holds per request its grant options, the
    link-disjoint (working route, protection route) pairs, by combined length
    and then by route order.  A route is a distinct link tuple of a request's
    working or protection lightpaths: (links, its variables ascending,
    wavelength -> its first variable there, which stands for the route, mask
    of the wavelengths it carries).  instance is the instance the groups were
    built for.
    """

    instance: Instance = field(compare=False, repr=False)
    pbar: dict[tuple[int, int], tuple[int, ...]]
    groups: dict[tuple[int, int], tuple[int, ...]]
    slots: tuple[tuple[int, ...], ...]
    options: tuple[tuple[tuple[Route, Route], ...], ...] = field(compare=False, repr=False)

    def emitted_groups(self) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
        return [(key, mem) for key, mem in self.groups.items() if len(mem) >= 2]

    @property
    def emitted_group_count(self) -> int:
        return sum(1 for mem in self.groups.values() if len(mem) >= 2)

    @property
    def nonempty_group_count(self) -> int:
        return len(self.groups)

    def variable_pairs(self, instance: Instance) -> set[tuple[int, int]]:
        """Pairwise closure of pbar and the (link, wavelength) groups."""
        pairs = {  # a request's working variables precede its protections
            (instance.var_of(r, WORKING, w), instance.var_of(r, PROTECTION, p))
            for (r, w), plist in self.pbar.items()
            for p in plist
        }
        for members in self.groups.values():
            pairs.update(combinations(members, 2))  # members ascend
        return pairs


def _routes(lightpaths, start: int) -> tuple[list[int], list[Route]]:
    """Each lightpath's route index, and the routes in order of first appearance; variables count from start."""
    table: dict[tuple[int, ...], list] = {}  # links -> [route index, variables, wavelength -> first variable, mask]
    route_of = []
    for i, lp in enumerate(lightpaths, start):
        route = table.get(lp.links)
        if route is None:
            table[lp.links] = route = [len(table), [], {}, 0]
        route_of.append(route[0])
        route[1].append(i)
        if lp.wavelength not in route[2]:
            route[2][lp.wavelength] = i
            route[3] |= 1 << lp.wavelength
    return route_of, [(links, tuple(on), MappingProxyType(wl), mask) for links, (_, on, wl, mask) in table.items()]


def build_strong_groups(instance: Instance) -> StrongGroups:
    pbar: dict[tuple[int, int], tuple[int, ...]] = {}
    groups: dict[int, list[int]] = {}
    slots: list[tuple[int, ...]] = []
    options: list[tuple[tuple[Route, Route], ...]] = []
    n_wl = instance.wavelength_count
    for req in instance.requests:
        working_of, wroutes = _routes(req.working, len(slots))
        protection_of, proutes = _routes(req.protection, len(slots) + len(req.working))
        # the one test for shared links, once per (working, protection) route pair;
        # blocked holds per working route the protections sharing a link with it
        pairs, blocked = [], []
        for a, (wl, *_) in enumerate(wroutes):
            links, hit = set(wl), []
            for b, (pl, *_) in enumerate(proutes):
                if links.isdisjoint(pl):
                    pairs.append((len(wl) + len(pl), a, b))
                else:
                    hit.append(b)
            blocked.append(tuple([p for p, b in enumerate(protection_of) if b in hit]))
        pairs.sort()
        options.append(tuple([(wroutes[a], proutes[b]) for _, a, b in pairs]))
        for w, a in enumerate(working_of):
            pbar[req.id, w] = blocked[a]
        # lightpaths are walked in variable order, so i is the variable
        # index and each group comes out sorted
        for i, lp in enumerate(req.working + req.protection, len(slots)):
            covered = tuple([e * n_wl + lp.wavelength for e in dict.fromkeys(lp.links)])  # a walk may repeat a link
            for s in covered:
                groups.setdefault(s, []).append(i)
            slots.append(covered)
    keyed = {divmod(s, n_wl): tuple(members) for s, members in sorted(groups.items())}
    return StrongGroups(instance=instance, pbar=pbar, groups=keyed, slots=tuple(slots), options=tuple(options))


@dataclass(frozen=True)
class ConstraintCounts:
    """Constraint counts of both model variants, for cons/vars reports."""

    variables: int
    base_constraints: int
    strong_constraints: int
    strong_constraints_all_nonempty: int

    @property
    def base_ratio(self) -> float:
        return self.base_constraints / self.variables if self.variables else 0.0

    @property
    def strong_ratio(self) -> float:
        return self.strong_constraints / self.variables if self.variables else 0.0

    @property
    def strong_ratio_all_nonempty(self) -> float:
        return self.strong_constraints_all_nonempty / self.variables if self.variables else 0.0


def count_constraints(instance: Instance, conflict_sets: ConflictSets, strong: StrongGroups) -> ConstraintCounts:
    check_built_for(instance, conflict_sets, strong)
    n_req = len(instance.requests)
    n_working = int(np.count_nonzero(instance.working))
    return ConstraintCounts(
        variables=instance.n_vars,
        base_constraints=2 * n_req + conflict_sets.pair_count,
        strong_constraints=2 * n_req + n_working + strong.emitted_group_count,
        strong_constraints_all_nonempty=2 * n_req + n_working + strong.nonempty_group_count,
    )
