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

from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bytetext import GATHER_MIN_TERMS, byte_table, codes, row_blocks, squeeze
from .conflicts import ConflictSets
from .instance import (
    DimensionError,
    Instance,
    Solution,
    _selected,
    check_built_for,
    objective_coefficients,
    penalty_terms,
    write_atomic,
)
from .oracle import _enumeration, _penalty_totals


DEFAULT_RHO_OFFSET = 100  # the CLI and bench default penalty is beta + DEFAULT_RHO_OFFSET


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


class PairTerms(Mapping):
    """Read-only ``{(i, j): q}`` view of pair coefficients stored as three
    int64 arrays, with i < j and the keys (i, j) in ascending order."""

    __slots__ = ("i", "j", "q")

    def __init__(self, i: np.ndarray, j: np.ndarray, q: np.ndarray) -> None:
        for arr in (i, j, q):
            arr.setflags(write=False)
        self.i, self.j, self.q = i, j, q

    @classmethod
    def from_mapping(cls, terms: Mapping[tuple[int, int], int], n: int) -> "PairTerms":
        """Sorted arrays of a hand-given mapping, whose keys must be (i, j)
        with 0 <= i < j < n."""
        for i, j in terms:
            if not 0 <= i < j < n:
                raise ValueError(f"pair key {(i, j)} needs 0 <= i < j < {n}")
        items = sorted(terms.items())
        i = np.array([ij[0] for ij, _ in items], dtype=np.int64)
        j = np.array([ij[1] for ij, _ in items], dtype=np.int64)
        return cls(i, j, np.array([q for _, q in items], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.q)

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist())

    def __getitem__(self, key: tuple[int, int]) -> int:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KeyError(key)
        a, b = key
        lo, hi = np.searchsorted(self.i, (a, a + 1)).tolist()
        k = lo + int(np.searchsorted(self.j[lo:hi], b))
        if k == hi or self.j[k] != b:
            raise KeyError(key)
        return int(self.q[k])

    def items(self) -> ItemsView:
        return _PairItems(self)

    def __repr__(self) -> str:
        return f"PairTerms({len(self)} pairs)"


class _PairItems(ItemsView):
    def __iter__(self):
        return zip(iter(self._mapping), self._mapping.q.tolist())


@dataclass(frozen=True)
class QuboModel:
    """Integer quadratic form with upper-triangular pair storage (i < j).

    A hand-given ``quadratic`` mapping is stored as ``PairTerms``.
    """

    n: int
    linear: tuple[int, ...]
    quadratic: Mapping[tuple[int, int], int]
    constant: int
    rho: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if not isinstance(self.quadratic, PairTerms):
            object.__setattr__(self, "quadratic", PairTerms.from_mapping(self.quadratic, self.n))

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetric CSR-style (indptr, indices, data) over the pair terms,
        each row's columns ascending."""
        return self._adj

    @cached_property
    def _adj(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # built once per model; a model made by dataclasses.replace builds its own
        qi, qj, qv = self.pair_arrays()
        rows = np.concatenate((qi, qj))
        cols = np.concatenate((qj, qi))
        order = np.argsort(rows * self.n + cols)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return indptr, cols[order], np.concatenate((qv, qv))[order]

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (i, j, q) arrays, read-only, keys ascending."""
        return self.quadratic.i, self.quadratic.j, self.quadratic.q

    def _bits(self, bits: Solution | Sequence[int]) -> np.ndarray:
        raw = bits.bits if isinstance(bits, Solution) else bits
        if len(raw) != self.n:
            raise DimensionError(f"bit vector has {len(raw)} bits, model has {self.n} variables")
        return np.asarray(raw, dtype=bool)

    def energy(self, bits: Solution | Sequence[int]) -> int:
        """Energy of a bit vector, read from the adjacency rows of its set bits."""
        on = self._bits(bits)
        ones = on.nonzero()[0]
        indptr, indices, data = self.adjacency()
        # CSR positions of the set bits' rows laid end to end: a row ending at hi there ends at sizes.cumsum() here
        hi = indptr[ones + 1]
        sizes = hi - indptr[ones]
        at = np.repeat(hi - sizes.cumsum(), sizes)
        at += np.arange(len(at))
        pairs = int(data[at][on[indices[at]]].sum()) // 2  # each pair is met from both of its ends
        return self.constant + sum(self.linear[i] for i in ones.tolist()) + pairs


def build_qubo(instance: Instance, conflict_sets: ConflictSets, alpha: int, beta: int, rho: int) -> QuboModel:
    """Assemble the penalized quadratic form.

    Variable indices follow the instance's dense order, so bit vectors move
    between the quadratic model and the instance unchanged.  One uniform rho
    covers every penalty group.
    """
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    check_built_for(instance, conflict_sets)

    n = instance.n_vars
    # squared working/protection count difference, plus count * (count - 1)
    # over working bits: rho on every variable, and per request 4 rho on a
    # working pair, 2 rho on a protection pair, -2 rho on a mixed pair
    linear = tuple((objective_coefficients(instance, alpha, beta) + rho).tolist())

    # a request's variables are one block, working first; every pair inside
    # a block, in key order: variable a pairs with the after[a] variables
    # that follow it in its block, and (a, b) lands in slot b - shift[a]
    end = instance.bounds[2 * instance.request_of + 2]
    succ = np.arange(1, n + 1)  # a + 1 for each variable a
    after = end - succ
    shift = succ - (after.cumsum() - after)
    qi = np.repeat(succ - 1, after)
    qj = np.arange(len(qi)) + shift[qi]
    working = instance.working
    qv = np.where(working[qj], 4 * rho, np.where(working[qi], -2 * rho, 2 * rho))

    # each conflict pair adds rho: to its block slot within a request, else
    # as a pair of its own; with rho >= 1 no coefficient sums to zero
    lo = np.minimum(conflict_sets.first, conflict_sets.second)
    hi = np.maximum(conflict_sets.first, conflict_sets.second)
    inside = hi < end[lo]
    qv[hi[inside] - shift[lo[inside]]] += rho
    outside = ~inside
    qi = np.concatenate((qi, lo[outside]))
    qj = np.concatenate((qj, hi[outside]))
    qv = np.concatenate((qv, np.full(len(qi) - len(qv), rho, dtype=np.int64)))
    order = np.argsort(qi * n + qj)
    return QuboModel(
        n=n,
        linear=linear,
        quadratic=PairTerms(qi[order], qj[order], qv[order]),
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
    """The sums of ``penalty_terms``: each request term, and the conflict rows hit per class."""
    _, eq2, eq3, hit = penalty_terms(instance, conflict_sets, _selected(instance, solution))
    per_class = np.bincount(conflict_sets.classes[hit], minlength=5).tolist()
    return PenaltyBreakdown(int(eq2.sum()), int(eq3.sum()), *per_class[1:])


def flip_delta(qubo: QuboModel, bits: Solution | Sequence[int] | np.ndarray, var_index: int) -> int:
    """Energy change from flipping one bit, in time proportional to its degree."""
    on = qubo._bits(bits)
    if not (0 <= var_index < qubo.n):
        raise IndexError(f"variable index {var_index} out of range for {qubo.n} variables")
    indptr, indices, data = qubo.adjacency()
    row = slice(indptr[var_index], indptr[var_index + 1])
    partial = int(qubo.linear[var_index]) + int(data[row][on[indices[row]]].sum())
    return -partial if on[var_index] else partial


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
    coefficients = objective_coefficients(instance, alpha, beta)
    chunks = [(bits @ coefficients, _penalty_totals(instance, conflict_sets, bits)) for _, bits in _enumeration(n)]
    f, g = (np.concatenate(parts) for parts in zip(*chunks))
    infeasible = g > 0
    return int(((f[~infeasible].max() - f[infeasible]) // g[infeasible]).max(initial=0)) + 1


# plain-text sparse export: header "n constant", then one "i j coeff" line
# per nonzero diagonal entry (i == j) and per pair term, field by field
_HEADER, _INDEX, _COEFF = "{} {}\n", "%d ", "%d\n"


def _qubo_by_strings(model: QuboModel) -> str:
    """The QUBO text, formatted with one format string."""
    diagonal = [i for i, c in enumerate(model.linear) if c]
    qi, qj, qv = model.pair_arrays()
    columns = (diagonal + qi.tolist(), diagonal + qj.tolist(), [model.linear[i] for i in diagonal] + qv.tolist())
    flat = [0] * (3 * len(columns[0]))
    flat[0::3], flat[1::3], flat[2::3] = columns
    return _HEADER.format(model.n, model.constant) + (2 * _INDEX + _COEFF) * len(columns[0]) % tuple(flat)


def _qubo_blocks(model: QuboModel) -> Iterator[bytes]:
    """The QUBO text as blocks of bytes: the header, then the lines in
    blocks of ``BLOCK_ROWS``, the diagonal lines first.  They are gathered
    from a table of index fields, one row per variable, and a table of each
    block's coefficient fields, one row per distinct value, as wide as the
    model's widest value."""
    linear = np.array(model.linear, dtype=np.int64)
    diagonal = linear.nonzero()[0]
    qi, qj, qv = model.pair_arrays()
    yield _HEADER.format(model.n, model.constant).encode()
    indices = byte_table([_INDEX % k for k in range(model.n)], 8)
    extremes = (linear.min(initial=0), linear.max(initial=0), qv.min(initial=0), qv.max(initial=0))
    width = -(-max(len(_COEFF % q) for q in extremes) // 8) * 8
    d = len(diagonal)
    for rows, block, (i, j, coeff) in row_blocks(d + len(qv), (indices.itemsize, indices.itemsize, width)):
        lines, pairs = diagonal[rows], slice(max(rows.start - d, 0), max(rows.stop - d, 0))
        cut = len(lines)  # the block's diagonal lines, then its pair lines
        np.take(indices, lines, out=i[:cut])
        np.take(indices, qi[pairs], out=i[cut:])
        np.take(indices, lines, out=j[:cut])
        np.take(indices, qj[pairs], out=j[cut:])
        values, value_of = codes(np.concatenate((linear[lines], qv[pairs])))
        np.take(byte_table([_COEFF % q for q in values.tolist()], 8, width), value_of, out=coeff)
        yield squeeze(block)


def _qubo_by_gather(model: QuboModel) -> bytes:
    """The QUBO text as bytes, its blocks joined."""
    return b"".join(_qubo_blocks(model))


def _gathered(model: QuboModel) -> bool:
    """Whether the QUBO text is gathered as bytes: from ``GATHER_MIN_TERMS``
    variables plus pair entries on; a smaller model is formatted as strings."""
    return len(model.linear) + len(model.quadratic) >= GATHER_MIN_TERMS


def qubo_text(model: QuboModel) -> str:
    """The sparse QUBO text.  A model with ``GATHER_MIN_TERMS`` (300)
    variables plus pair entries or more is gathered as bytes from a table of
    index fields and a table of coefficient fields, in blocks of
    ``BLOCK_ROWS`` lines (``rwap.bytetext``); a smaller one is formatted
    with one format string, which is as fast or faster there (the measured
    break-even is in ``rwap.bytetext``)."""
    return _qubo_by_gather(model).decode() if _gathered(model) else _qubo_by_strings(model)


def export_qubo(model: QuboModel, destination: str) -> None:
    """Write the QUBO file atomically; a gathered one is written block by
    block, never held whole."""
    write_atomic(destination, _qubo_blocks(model) if _gathered(model) else _qubo_by_strings(model))
