"""Explicit constraint systems for both model variants, and LP-file export.

The base model carries one row per conflict tuple; the strong model replaces
those rows with at-most-one group constraints.  Objective coefficients are
folded per variable before export (alpha * length - beta for working
variables, alpha * length for protection), which keeps files minimal and
loses nothing.  Rows are stored as flat columns and read back lazily.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, islice

from .conflicts import ConflictSets, StrongGroups, check_built_for
from .instance import Instance, WORKING, objective_coefficients, write_atomic


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, int], ...]  # (variable index, coefficient)
    relation: str  # "=" or "<="
    rhs: int


@dataclass(frozen=True)
class ConstraintView(Sequence):
    """Read-only rows of a LinearModel; reading a row builds its Constraint."""

    model: LinearModel

    def __len__(self) -> int:
        return len(self.model.names)

    def __getitem__(self, k):
        m = self.model
        k = range(len(m.names))[k]  # negative indices; IndexError past the end
        lo, hi = m.indptr[k : k + 2]
        return Constraint(m.names[k], tuple(zip(m.index[lo:hi], m.coeff[lo:hi])), m.relation[k], m.rhs[k])


@dataclass(frozen=True)
class LinearModel:
    """A minimization model with binary variables and integer coefficients.

    Rows are flat columns of Python lists: row k is ``names[k]``, with the
    terms ``(index[t], coeff[t])`` for t in ``range(indptr[k], indptr[k + 1])``,
    ``relation[k]`` and ``rhs[k]``.  ``constraints`` is a read-only sequence
    view of them that builds a ``Constraint`` only for a row it is asked for.
    """

    kind: str  # "base" or "strong"
    objective: tuple[int, ...]  # folded coefficient per variable
    var_names: tuple[str, ...]
    names: list[str]  # match_r*, single_r*, then c* (base) or excl_* and slot_* (strong)
    indptr: list[int]
    index: list[int]
    coeff: list[int]
    relation: list[str]
    rhs: list[int]
    constraints = property(ConstraintView)


def variable_names(instance: Instance) -> tuple[str, ...]:
    blocks = instance.bounds.tolist()
    return tuple(
        f"x_r{block // 2}_w{local}" if block % 2 == WORKING else f"y_r{block // 2}_p{local}"
        for block, (start, stop) in enumerate(zip(blocks, blocks[1:]))
        for local in range(stop - start)
    )


def build_ip(
    instance: Instance,
    structure: ConflictSets | StrongGroups,
    alpha: int,
    beta: int,
    kind: str = "base",
) -> LinearModel:
    """Materialize the base (pairwise) or strong (grouped) model."""
    if alpha < 0 or beta < 0:
        raise ValueError("weights must be non-negative")
    expected = {"base": ConflictSets, "strong": StrongGroups}.get(kind)
    if expected is None:
        raise ValueError(f"unknown model kind {kind!r}")
    if not isinstance(structure, expected):
        raise TypeError(f"{kind} model requires {expected.__name__}")
    check_built_for(instance, structure)
    blocks = instance.bounds.tolist()
    spans = list(zip(blocks[0::2], blocks[1::2], blocks[2::2]))  # working start, protection start, end
    names = [f"match_r{r}" for r in range(len(spans))] + [f"single_r{r}" for r in range(len(spans))]
    members = [range(w, end) for w, _, end in spans] + [range(w, p) for w, p, _ in spans]
    if kind == "strong":
        for (r, w), plist in sorted(structure.pbar.items()):
            names.append(f"excl_r{r}_w{w}")
            members.append([blocks[2 * r] + w] + [blocks[2 * r + 1] + p for p in plist])
        for (e, lam), group in structure.emitted_groups():
            names.append(f"slot_e{e}_l{lam}")
            members.append(group)
    index = [i for group in members for i in group]
    indptr = list(accumulate(map(len, members), initial=0))
    if kind == "base":  # one row per pair; classes ascend, so t counts the rows of class cls
        classes = structure.classes.tolist()
        names += [f"c{cls}_{t}" for cls in range(1, 5) for t in range(classes.count(cls))]
        index += chain.from_iterable(zip(structure.first.tolist(), structure.second.tolist()))
        indptr += range(indptr[-1] + 2, len(index) + 1, 2)
    # the match rows come first and tile the variables: -1 on each protection
    coeff = [1 if on else -1 for on in instance.working.tolist()] + [1] * (len(index) - instance.n_vars)
    n_req, fixed = len(spans), len(names) - len(spans)
    objective = tuple(objective_coefficients(instance, alpha, beta).tolist())
    relation, rhs = ["="] * n_req + ["<="] * fixed, [0] * n_req + [1] * fixed
    return LinearModel(kind, objective, variable_names(instance), names, indptr, index, coeff, relation, rhs)


def lp_text(model: LinearModel) -> str:
    """Render the model in CPLEX LP syntax with deterministic row order.

    Terms are formatted once per (coefficient, variable) as they follow
    another, " + c name"; the replacements lead each body with "c name".
    """
    names = model.var_names
    heads = {c: f" {'-' if c < 0 else '+'} {abs(c)} " for c in set(model.coeff)}
    tables = {c: list(map(head.__add__, names)) if c else [""] * len(names) for c, head in heads.items()}
    terms = [tables[c][i] for c, i in zip(model.coeff, model.index)]
    tails = {key: f" {'=' if key[0] == '=' else '<='} {key[1]}" for key in set(zip(model.relation, model.rhs))}
    ptr = model.indptr
    rows = [
        f" {name}: {''.join(terms[lo:hi])}{tails[key]}"
        for name, lo, hi, key in zip(model.names, ptr, islice(ptr, 1, None), zip(model.relation, model.rhs))
    ]
    obj = "".join([f" {'-' if c < 0 else '+'} {abs(c)} {v}" for c, v in zip(model.objective, names) if c])
    lines = ["Minimize", f" obj: {obj}".rstrip(), "Subject To", *rows, "Binary", *[f" {v}" for v in names], "End", ""]
    return "\n".join(lines).replace(":  + ", ": ").replace(":  - ", ": - ")


def export_lp(model: LinearModel, destination: str) -> None:
    """Write the LP file atomically (temp file + rename)."""
    write_atomic(destination, lp_text(model))
