"""Objective weight selection for prioritizing request granting.

The combined objective is alpha * links_used - beta * requests_granted.
``beta_base`` gives the closed-form integer grant weight that provably makes
any extra granted request outweigh any possible link usage; ``compute_omega``
enumerates the exact threshold on small instances and derives the minimal
integer weight; ``check_prioritization`` compares the weights with that
threshold.

Omega values are kept as exact rationals so that threshold comparisons never
touch floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

import numpy as np

from .conflicts import ConflictSets, build_conflict_sets
from .instance import Instance, Lightpath, Network, Request
from .oracle import feasible_objectives

OMEGA_ENUMERATION_CAP = 22


class UndefinedWeightError(ValueError):
    """Raised when no request is grantable, leaving the weight bound undefined."""


@dataclass(frozen=True)
class Weights:
    """Objective weights plus the quantities they were derived from.

    alpha may be zero only for the grant-count-only variant; beta_base and
    m_value are populated when the weights come from the closed-form bound.
    """

    alpha: int
    beta: int
    m_value: int | None = None
    beta_base: int | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights must be non-negative integers")


def max_pair_length(instance: Instance) -> int:
    """Largest longest-working plus longest-protection length over requests
    that have both kinds of lightpaths (others can never be granted)."""
    best = None
    for req in instance.requests:
        if not req.working or not req.protection:
            continue
        value = max(lp.length for lp in req.working) + max(lp.length for lp in req.protection)
        best = value if best is None else max(best, value)
    if best is None:
        raise UndefinedWeightError("no request has both working and protection lightpaths")
    return best


def beta_base(instance: Instance, alpha: int = 1) -> Weights:
    """Smallest integer beta whose ratio to alpha provably prioritizes
    granting: beta / alpha must exceed |R| * (M - 2) + 2 with M the largest
    per-request worst-case pair length."""
    if alpha < 1:
        raise ValueError("the closed-form bound requires alpha >= 1")
    m = max_pair_length(instance)
    bound = len(instance.requests) * (m - 2) + 2
    beta = alpha * bound + 1
    return Weights(alpha=alpha, beta=beta, m_value=m, beta_base=beta)


@dataclass(frozen=True)
class OmegaReport:
    """Enumerated prioritization thresholds and the minimal integer weight.

    omega_eq maximizes the link-usage spread over feasible solution pairs
    whose granted counts differ by exactly one; omega_gt allows any positive
    difference (the two coincide).  beta_tight is the smallest integer
    strictly above omega_eq, for alpha = 1.  All fields are None when no
    feasible pair differs in granted count.
    """

    omega_eq: Fraction | None
    omega_gt: Fraction | None
    beta_tight: int | None


def _level_extremes(instance: Instance, conflict_sets: ConflictSets, cap: int) -> dict[int, tuple[int, int]]:
    fa, fb = feasible_objectives(instance, conflict_sets, cap=cap)
    levels: dict[int, tuple[int, int]] = {}
    for level in np.unique(fb):
        sel = fa[fb == level]
        levels[int(level)] = (int(sel.max()), int(sel.min()))
    return levels


def compute_omega(
    instance: Instance,
    conflict_sets: ConflictSets | None = None,
    cap: int = OMEGA_ENUMERATION_CAP,
) -> OmegaReport:
    """Enumerate all feasible solutions and evaluate both threshold maxima."""
    if conflict_sets is None:
        conflict_sets = build_conflict_sets(instance)
    levels = _level_extremes(instance, conflict_sets, cap)
    keys = sorted(levels)
    omega_eq: Fraction | None = None
    omega_gt: Fraction | None = None
    for hi in keys:
        for lo in keys:
            if hi <= lo:
                continue
            ratio = Fraction(levels[hi][0] - levels[lo][1], hi - lo)
            if omega_gt is None or ratio > omega_gt:
                omega_gt = ratio
            if hi - lo == 1 and (omega_eq is None or ratio > omega_eq):
                omega_eq = ratio
    if omega_eq is None:
        return OmegaReport(omega_eq=None, omega_gt=omega_gt, beta_tight=None)
    # smallest integer strictly above the threshold
    return OmegaReport(omega_eq=omega_eq, omega_gt=omega_gt, beta_tight=math.floor(omega_eq) + 1)


def check_prioritization(
    instance: Instance,
    alpha: int,
    beta: int,
    conflict_sets: ConflictSets | None = None,
    cap: int = OMEGA_ENUMERATION_CAP,
) -> bool:
    """True iff every feasible solution granting more requests scores a
    strictly lower objective than every feasible solution granting fewer,
    by exhaustive enumeration.  With non-negative weights that holds
    exactly when alpha * omega_gt < beta."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative integers")
    omega_gt = compute_omega(instance, conflict_sets, cap).omega_gt
    return omega_gt is None or alpha * omega_gt < beta


def tight_example(l_a: int, l_b: int) -> Instance:
    """One request with a working path of l_a links and a disjoint protection
    path of l_b links on a single wavelength; the closed-form weight bound is
    necessary on this family."""
    if l_a < 1 or l_b < 1:
        raise ValueError("path lengths must be at least 1")
    # node lists from source 0 to destination 1, sharing no other node
    working_nodes = [0, *range(2, l_a + 1), 1]
    protection_nodes = [0, *range(l_a + 1, l_a + l_b), 1]
    net = Network(node_count=l_a + l_b, links=(*pairwise(working_nodes), *pairwise(protection_nodes)))
    working = Lightpath(links=tuple(range(l_a)), wavelength=0)
    protection = Lightpath(links=tuple(range(l_a, l_a + l_b)), wavelength=0)
    req = Request(id=0, source=0, destination=1, working=(working,), protection=(protection,))
    return Instance(network=net, wavelength_count=1, requests=(req,))
