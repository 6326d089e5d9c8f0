"""Explicit constraint systems for both model variants, and LP-file export.

The base model carries one row per conflict tuple; the strong model replaces
those rows with at-most-one group constraints.  Objective coefficients are
folded per variable before export (alpha * length - beta for working
variables, alpha * length for protection), which keeps files minimal and
loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflicts import ConflictSets, StrongGroups
from .instance import Instance, PROTECTION, WORKING, objective_coefficients, write_atomic


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, int], ...]  # (variable index, coefficient)
    relation: str  # "=" or "<="
    rhs: int


@dataclass(frozen=True)
class LinearModel:
    """A minimization model with binary variables and integer coefficients."""

    kind: str  # "base" or "strong"
    objective: tuple[int, ...]  # folded coefficient per variable
    constraints: tuple[Constraint, ...]
    var_names: tuple[str, ...]


def variable_names(instance: Instance) -> tuple[str, ...]:
    blocks = instance.bounds.tolist()
    return tuple(
        f"x_r{block // 2}_w{local}" if block % 2 == WORKING else f"y_r{block // 2}_p{local}"
        for block, (start, stop) in enumerate(zip(blocks, blocks[1:]))
        for local in range(stop - start)
    )


def _common_rows(instance: Instance) -> list[Constraint]:
    blocks = instance.bounds.tolist()
    match, single = [], []
    for r in range(len(instance.requests)):
        w, p, end = blocks[2 * r : 2 * r + 3]
        terms = tuple((i, 1) for i in range(w, p))
        match.append(Constraint(f"match_r{r}", terms + tuple((i, -1) for i in range(p, end)), "=", 0))
        single.append(Constraint(f"single_r{r}", terms, "<=", 1))
    return match + single


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
    rows = _common_rows(instance)
    if kind == "base":
        if not isinstance(structure, ConflictSets):
            raise TypeError("base model requires ConflictSets")
        first_row: dict[int, int] = {}
        columns = (structure.first.tolist(), structure.second.tolist(), structure.classes.tolist())
        for row, (a, b, cls) in enumerate(zip(*columns)):
            t = row - first_row.setdefault(cls, row)
            rows.append(Constraint(f"c{cls}_{t}", ((a, 1), (b, 1)), "<=", 1))
    elif kind == "strong":
        if not isinstance(structure, StrongGroups):
            raise TypeError("strong model requires StrongGroups")
        for (r, w), plist in sorted(structure.pbar.items()):
            terms = [(instance.var_of(r, WORKING, w), 1)]
            terms += [(instance.var_of(r, PROTECTION, p), 1) for p in plist]
            rows.append(Constraint(f"excl_r{r}_w{w}", tuple(terms), "<=", 1))
        for (e, lam), members in structure.emitted_groups():
            terms = tuple((i, 1) for i in members)
            rows.append(Constraint(f"slot_e{e}_l{lam}", terms, "<=", 1))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return LinearModel(
        kind=kind,
        objective=tuple(objective_coefficients(instance, alpha, beta).tolist()),
        constraints=tuple(rows),
        var_names=variable_names(instance),
    )


def _format_terms(terms: list[tuple[int, str]]) -> str:
    parts: list[str] = []
    for coeff, name in terms:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if not parts:
            lead = "- " if coeff < 0 else ""
            parts.append(f"{lead}{mag} {name}")
        else:
            parts.append(f"{sign} {mag} {name}")
    return " ".join(parts)


def lp_text(model: LinearModel) -> str:
    """Render the model in CPLEX LP syntax with deterministic row order."""
    lines = ["Minimize"]
    obj_terms = [(c, model.var_names[i]) for i, c in enumerate(model.objective)]
    lines.append(f" obj: {_format_terms(obj_terms)}".rstrip())
    lines.append("Subject To")
    for row in model.constraints:
        body = _format_terms([(c, model.var_names[i]) for i, c in row.terms])
        rel = "=" if row.relation == "=" else "<="
        lines.append(f" {row.name}: {body} {rel} {row.rhs}")
    lines.append("Binary")
    for name in model.var_names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(model: LinearModel, destination: str) -> None:
    """Write the LP file atomically (temp file + rename)."""
    write_atomic(destination, lp_text(model))
