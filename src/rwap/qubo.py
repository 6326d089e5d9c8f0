"""Penalty reformulation of the model as an unconstrained quadratic form.

Each equality row contributes its squared violation, the at-most-one rows
contribute count*(count-1), and every conflict tuple contributes a bilinear
product; all are scaled by a penalty coefficient and added to the weighted
objective.  Squares expand exactly over binaries (b*b == b), so the stored
form has integer linear, pairwise and constant terms only, and the energy of
any bit vector equals

    alpha * links_used - beta * granted + rho * violation_total.

``rho_base`` derives the smallest integer coefficient that provably pushes
every infeasible vector strictly above every feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conflicts import ConflictSets
from .instance import (
    DimensionError,
    Instance,
    PROTECTION,
    Solution,
    WORKING,
    _check_dims,
    f_alpha,
    f_beta,
    request_counts,
    write_atomic,
)


@dataclass(frozen=True)
class RhoBound:
    """Penalty coefficient from the separation bound, clamped to >= 1."""

    rho: int
    raw_bound: int
    clamped: bool


def rho_base(instance: Instance, alpha: int, beta: int) -> RhoBound:
    """Smallest integer rho strictly above
    beta * (|R| + 1) - alpha * (1 + sum of shortest-pair lengths), where
    requests lacking either lightpath kind contribute nothing to the sum."""
    shortest = 0
    for req in instance.requests:
        if req.working and req.protection:
            shortest += min(lp.length for lp in req.working) + min(lp.length for lp in req.protection)
    bound = beta * (len(instance.requests) + 1) - alpha * (1 + shortest)
    rho = bound + 1
    if rho < 1:
        return RhoBound(rho=1, raw_bound=bound, clamped=True)
    return RhoBound(rho=rho, raw_bound=bound, clamped=False)


@dataclass(frozen=True)
class QuboModel:
    """Integer quadratic form with upper-triangular pair storage (i < j)."""

    n: int
    linear: tuple[int, ...]
    quadratic: dict[tuple[int, int], int]
    constant: int
    rho: int
    alpha: int
    beta: int
    _adj: tuple | None = field(default=None, compare=False, repr=False)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric CSR-style (indptr, indices, data) over the pair terms."""
        if self._adj is None:
            rows: list[int] = []
            cols: list[int] = []
            vals: list[int] = []
            for (i, j), q in self.quadratic.items():
                rows += [i, j]
                cols += [j, i]
                vals += [q, q]
            row_arr = np.array(rows, dtype=np.int64)
            col_arr = np.array(cols, dtype=np.int64)
            val_arr = np.array(vals, dtype=np.int64)
            order = np.lexsort((col_arr, row_arr))
            row_arr, col_arr, val_arr = row_arr[order], col_arr[order], val_arr[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.add.at(indptr, row_arr + 1, 1)
            indptr = np.cumsum(indptr)
            object.__setattr__(self, "_adj", (indptr, col_arr, val_arr))
        return self._adj

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        items = sorted(self.quadratic.items())
        qi = np.array([ij[0] for ij, _ in items], dtype=np.int64)
        qj = np.array([ij[1] for ij, _ in items], dtype=np.int64)
        qv = np.array([q for _, q in items], dtype=np.int64)
        return qi, qj, qv

    def energy(self, bits: Solution | Sequence[int]) -> int:
        raw = bits.bits if isinstance(bits, Solution) else bits
        if len(raw) != self.n:
            raise DimensionError(f"bit vector has {len(raw)} bits, model has {self.n} variables")
        total = self.constant + sum(c for i, c in enumerate(self.linear) if raw[i])
        for (i, j), q in self.quadratic.items():
            if raw[i] and raw[j]:
                total += q
        return int(total)


def build_qubo(instance: Instance, conflict_sets: ConflictSets, alpha: int, beta: int, rho: int) -> QuboModel:
    """Assemble the penalized quadratic form.

    Variable indices follow the instance's dense order, so bit vectors move
    between the quadratic model and the instance unchanged.  One uniform rho
    covers every penalty group.
    """
    if rho < 1:
        raise ValueError("rho must be a positive integer")

    n = instance.n_vars
    linear = [0] * n
    quad: dict[tuple[int, int], int] = {}

    def add_pair(i: int, j: int, coeff: int) -> None:
        key = (i, j) if i < j else (j, i)
        quad[key] = quad.get(key, 0) + coeff

    for i in range(n):
        _, kind, _ = instance.var_info(i)
        linear[i] += alpha * instance.lightpath_at(i).length - (beta if kind == WORKING else 0)

    for req in instance.requests:
        wvars = instance.var_range(req.id, WORKING)
        pvars = instance.var_range(req.id, PROTECTION)
        # squared working/protection count difference, plus count * (count - 1)
        # over working bits, which is purely pairwise on binaries
        for v in [*wvars, *pvars]:
            linear[v] += rho
        for a in range(len(wvars)):
            for b in range(a + 1, len(wvars)):
                add_pair(wvars[a], wvars[b], 4 * rho)
        for a in range(len(pvars)):
            for b in range(a + 1, len(pvars)):
                add_pair(pvars[a], pvars[b], 2 * rho)
        for vw in wvars:
            for vp in pvars:
                add_pair(vw, vp, -2 * rho)

    for i, j in zip(conflict_sets.first.tolist(), conflict_sets.second.tolist()):
        add_pair(i, j, rho)

    quad = {key: coeff for key, coeff in sorted(quad.items()) if coeff != 0}
    return QuboModel(
        n=n,
        linear=tuple(linear),
        quadratic=quad,
        constant=0,
        rho=rho,
        alpha=alpha,
        beta=beta,
    )


@dataclass(frozen=True)
class PenaltyBreakdown:
    """Violation magnitude per penalty group; zero total iff feasible."""

    eq2_violation: int
    eq3_violation: int
    c1_violations: int
    c2_violations: int
    c3_violations: int
    c4_violations: int

    @property
    def total_g(self) -> int:
        return (
            self.eq2_violation
            + self.eq3_violation
            + self.c1_violations
            + self.c2_violations
            + self.c3_violations
            + self.c4_violations
        )


def penalty(instance: Instance, conflict_sets: ConflictSets, solution: Solution | Sequence[int]) -> PenaltyBreakdown:
    """Evaluate the penalty terms directly from their definitions."""
    bits = _check_dims(instance, solution)
    counts = request_counts(instance, bits)
    per_class = np.bincount(conflict_sets.classes[conflict_sets.hits(bits)], minlength=5).tolist()
    return PenaltyBreakdown(
        sum((cw - cp) ** 2 for cw, cp in counts),
        sum(cw * (cw - 1) for cw, _ in counts),
        *per_class[1:],
    )


def flip_delta(qubo: QuboModel, bits: Solution | Sequence[int] | np.ndarray, var_index: int) -> int:
    """Energy change from flipping one bit, in time proportional to its degree."""
    raw = bits.bits if isinstance(bits, Solution) else bits
    if not (0 <= var_index < qubo.n):
        raise IndexError(f"variable index {var_index} out of range for {qubo.n} variables")
    indptr, indices, data = qubo.adjacency()
    lo, hi = indptr[var_index], indptr[var_index + 1]
    cross = int(sum(int(data[k]) for k in range(lo, hi) if raw[indices[k]]))
    partial = int(qubo.linear[var_index]) + cross
    return partial if not raw[var_index] else -partial


def rho_tight(instance: Instance, conflict_sets: ConflictSets, alpha: int, beta: int, cap: int = 20) -> int:
    """Smallest integer penalty coefficient separating infeasible from
    feasible vectors, by exhaustive enumeration (diagnostic, tiny instances).

    Separation demands every infeasible vector scores strictly above every
    feasible one; since infeasible energies grow linearly in the coefficient
    while feasible energies do not move, the threshold has a closed form per
    vector and the maximum is exact in integer arithmetic.
    """
    n = instance.n_vars
    if n > cap:
        raise ValueError(f"{n} variables exceed the diagnostic cap of {cap}")
    feasible_max = None
    requirements = [1]
    rows = []
    for k in range(1 << n):
        bits = tuple((k >> (n - 1 - i)) & 1 for i in range(n))
        g = penalty(instance, conflict_sets, bits).total_g
        f = alpha * f_alpha(instance, bits) - beta * f_beta(instance, bits)
        if g == 0:
            feasible_max = f if feasible_max is None else max(feasible_max, f)
        else:
            rows.append((f, g))
    for f, g in rows:
        requirements.append((feasible_max - f) // g + 1)
    return max(requirements)


# plain-text sparse export: header "n constant", then "i j coeff" rows
def qubo_text(model: QuboModel) -> str:
    lines = [f"{model.n} {model.constant}"]
    for i, c in enumerate(model.linear):
        if c:
            lines.append(f"{i} {i} {c}")
    for (i, j), q in sorted(model.quadratic.items()):
        lines.append(f"{i} {j} {q}")
    return "\n".join(lines) + "\n"


def export_qubo(model: QuboModel, destination: str) -> None:
    write_atomic(destination, qubo_text(model))
