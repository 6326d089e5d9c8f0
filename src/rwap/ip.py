"""Explicit constraint systems for both model variants, and LP-file export.

The base model carries one row per conflict tuple; the strong model replaces
those rows with at-most-one group constraints.  Objective coefficients are
folded per variable before export (alpha * length - beta for working
variables, alpha * length for protection), which keeps files minimal and
loses nothing.  Named rows are stored as flat columns of Python lists, and
the base model's conflict-pair rows as the conflict sets' arrays.  The named
rows' LP text is always formatted as strings.  In a large model the pair
rows, almost all of a base model's text, are gathered as bytes in blocks of
rows, and an export writes each block as it is made; in a small model they
are formatted as strings too.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .bytetext import LP_GATHER_MIN_TERMS, byte_table, decimal_table, row_blocks, squeeze
from .conflicts import ConflictSets, StrongGroups
from .instance import Instance, WORKING, check_built_for, objective_coefficients, write_atomic

PAIR_COEFF, PAIR_RELATION, PAIR_RHS = 1, "<=", 1  # every pair row reads "first + second <= 1"


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
        return len(self.model.names) + len(self.model.first)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        m = self.model
        k = range(len(self))[k]  # negative indices; IndexError past the end
        j = k - len(m.names)
        if j < 0:
            lo, hi = m.indptr[k : k + 2]
            return Constraint(m.names[k], tuple(zip(m.index[lo:hi], m.coeff[lo:hi])), m.relation[k], m.rhs[k])
        terms = ((int(m.first[j]), PAIR_COEFF), (int(m.second[j]), PAIR_COEFF))
        return Constraint(m.pair_names(j, j + 1)[0], terms, PAIR_RELATION, PAIR_RHS)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


_NO_PAIRS = _read_only(np.zeros(0, np.int64))


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A minimization model with binary variables and integer coefficients.

    The named rows are flat columns of Python lists: row k is ``names[k]``,
    with the terms ``(index[t], coeff[t])`` for t in
    ``range(indptr[k], indptr[k + 1])``, ``relation[k]`` and ``rhs[k]``.
    A base model's conflict-pair rows follow them, as the read-only int64
    arrays ``first`` and ``second``: pair row j reads
    ``first[j] + second[j] <= 1``.  The pair rows come in runs, one
    ``(class, rows)`` entry of ``pair_runs`` each, and row t of a run of
    class c is named ``c{c}_{t}``; no pair row's name or terms are stored
    as Python objects.  ``constraints`` is a read-only sequence view of all
    rows that builds a ``Constraint`` only for a row it is asked for.
    """

    kind: str  # "base" or "strong"
    objective: tuple[int, ...]  # folded coefficient per variable
    var_names: tuple[str, ...]
    names: list[str]  # match_r*, single_r*, then excl_* and slot_* (strong)
    indptr: list[int]
    index: list[int]
    coeff: list[int]
    relation: list[str]  # "=" or "<="
    rhs: list[int]
    pair_runs: tuple[tuple[int, int], ...]  # (class, rows) of each run of pair rows
    first: np.ndarray
    second: np.ndarray
    constraints = property(ConstraintView)

    def __post_init__(self) -> None:
        if not sum(rows for _, rows in self.pair_runs) == len(self.first) == len(self.second):
            raise ValueError("pair runs, first and second must count the same pair rows")

    def __eq__(self, other: object) -> bool:
        """Field by field, the pair arrays by value."""
        if not isinstance(other, LinearModel):
            return NotImplemented
        pairs = zip(vars(self).values(), vars(other).values())
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def pair_names(self, start: int = 0, stop: int | None = None) -> list[str]:
        """The names of the pair rows from start to stop (all by default)."""
        stop = len(self.first) if stop is None else stop
        names, at = [], 0
        for cls, rows in self.pair_runs:
            names += map(_PAIR.format(cls, "{}").format, range(max(start - at, 0), min(stop - at, rows)))
            at += rows
        return names


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
    index = list(chain.from_iterable(members))
    indptr = list(accumulate(map(len, members), initial=0))
    # the match rows come first and tile the variables: -1 on each protection
    coeff = [1 if on else -1 for on in instance.working.tolist()] + [1] * (len(index) - instance.n_vars)
    n_req, fixed = len(spans), len(names) - len(spans)
    objective = tuple(objective_coefficients(instance, alpha, beta).tolist())
    relation, rhs = ["="] * n_req + ["<="] * fixed, [0] * n_req + [1] * fixed
    runs, first, second = (), _NO_PAIRS, _NO_PAIRS
    if kind == "base":  # one run of pair rows per class, as the conflict sets' rows run by class
        runs = tuple((cls, rows) for cls, rows in enumerate(structure.class_counts, 1) if rows)
        first, second = _read_only(structure.first), _read_only(structure.second)
    var_names = variable_names(instance)
    return LinearModel(kind, objective, var_names, names, indptr, index, coeff, relation, rhs, runs, first, second)


# The LP text field by field; both formatting paths read these.
_NAME_START, _NAME_END = " ", ": "  # around a row's name
_HEAD = _NAME_START + "{}" + _NAME_END
_PAIR = "c{}_{}"  # a pair row's name, from its class and its place in its run
_TAIL = " {} {}\n"  # a row's relation and rhs


def _lead(c: int) -> str:  # before the variable of a row's first nonzero term
    return f"- {-c} " if c < 0 else f"{c} "


def _follow(c: int) -> str:  # before the variable of each later nonzero term
    return f" - {-c} " if c < 0 else f" + {c} "


def _lp_frame(model: LinearModel) -> tuple[str, str]:
    """The text before the rows and the text after them."""
    obj = "".join([_follow(c) + v for c, v in zip(model.objective, model.var_names) if c])
    lead = next(filter(None, model.objective), 0)  # the first term takes the lead form
    opening = f"Minimize\n{_HEAD.format('obj')}{obj.replace(_follow(lead), _lead(lead), 1)}".rstrip()
    binaries = " " + "\n ".join(model.var_names) + "\n" if model.var_names else ""
    return opening + "\nSubject To\n", "Binary\n" + binaries + "End\n"


def _named_rows(model: LinearModel) -> str:
    """The named rows' text, each (coefficient, variable) term formatted
    once in follow-on form, a zero term as nothing, and one string per row."""
    names, ptr = model.var_names, model.indptr
    follow = {c: _follow(c) for c in set(model.coeff)}
    tables = {c: list(map(form.__add__, names)) if c else [""] * len(names) for c, form in follow.items()}
    terms = [tables[c][i] for c, i in zip(model.coeff, model.index)]
    tails = {key: _TAIL.format(*key) for key in set(zip(model.relation, model.rhs))}
    rows = "".join([
        f"{_NAME_START}{name}{_NAME_END}{''.join(terms[lo:hi])}{tails[key]}"
        for name, lo, hi, key in zip(model.names, ptr, ptr[1:], zip(model.relation, model.rhs))
    ])
    # Each body's first nonzero term follows a name's end, which is found
    # nowhere else, and a follow-on form ends in a space, so it is not the
    # start of a longer coefficient's: turn it into the lead form.
    for c, form in follow.items():
        if c:
            rows = rows.replace(_NAME_END + form, _NAME_END + _lead(c))
    return rows


def _pair_terms(model: LinearModel) -> tuple[list[str], list[str]]:
    """Per variable, a pair row's body when the variable is its first, and
    the rest of the row when it is its second."""
    lead, follow, tail = _lead(PAIR_COEFF), _follow(PAIR_COEFF), _TAIL.format(PAIR_RELATION, PAIR_RHS)
    return [lead + v for v in model.var_names], [follow + v + tail for v in model.var_names]


def _lp_by_strings(model: LinearModel) -> str:
    """The LP text formatted as strings, a pair row as one f-string."""
    opening, closing = _lp_frame(model)
    rows = [opening, _named_rows(model)]
    if model.pair_runs:
        lead, close = _pair_terms(model)
        pairs = zip(model.pair_names(), model.first.tolist(), model.second.tolist())
        rows += [f"{_NAME_START}{name}{_NAME_END}{lead[i]}{close[j]}" for name, i, j in pairs]
    return "".join([*rows, closing])


def _lp_blocks(model: LinearModel) -> Iterator[bytes]:
    """The LP text as blocks of bytes: the frame's opening and the named
    rows formatted as strings, then the pair rows gathered as five byte
    columns in blocks of ``BLOCK_ROWS`` rows, then the frame's closing.
    Pair row t of a run of class c is its run's head ``" c{c}_"``, the
    digits of t, the head's end, the first variable's term and the
    second's with the tail."""
    opening, closing = _lp_frame(model)
    yield (opening + _named_rows(model)).encode()
    if model.pair_runs:
        classes, counts = zip(*model.pair_runs)
        heads = byte_table([_NAME_START + _PAIR.format(c, "") for c in classes])
        lead, close = map(byte_table, _pair_terms(model))
        starts = [0, *accumulate(counts)]
        widths = (heads.itemsize, len(str(max(counts) - 1)), len(_NAME_END), lead.itemsize, close.itemsize)
        for rows, block, (head, digits, end, first, second) in row_blocks(len(model.first), widths):
            places = np.arange(rows.start, rows.stop)
            for k, (run, stop) in enumerate(zip(starts, starts[1:])):
                at = slice(max(run - rows.start, 0), max(stop - rows.start, 0))  # run k's rows here
                head[at] = heads[k]
                places[at] -= run
            digits[:] = decimal_table(places)  # narrower digits are padded after, and squeezed
            end[:] = _NAME_END.encode()
            np.take(lead, model.first[rows], out=first)
            np.take(close, model.second[rows], out=second)
            yield squeeze(block)
    yield closing.encode()


def _lp_by_gather(model: LinearModel) -> bytes:
    """The LP text as bytes, its blocks joined."""
    return b"".join(_lp_blocks(model))


def _gathered(model: LinearModel) -> bool:
    """Whether the pair rows are gathered as bytes: from
    ``LP_GATHER_MIN_TERMS`` matrix entries on; a smaller model is formatted
    as strings."""
    return len(model.index) + 2 * len(model.first) >= LP_GATHER_MIN_TERMS


def lp_text(model: LinearModel) -> str:
    """Render the model in CPLEX LP syntax with deterministic row order.

    The frame and the named rows are formatted as strings.  In a model
    with ``LP_GATHER_MIN_TERMS`` (700) matrix entries or more, the pair rows
    are gathered as bytes from per-variable byte tables, in blocks of
    ``BLOCK_ROWS`` rows (``rwap.bytetext``); in a smaller one each is one
    f-string.  Both read the same per-field strings.
    """
    return _lp_by_gather(model).decode() if _gathered(model) else _lp_by_strings(model)


def export_lp(model: LinearModel, destination: str) -> None:
    """Write the LP file atomically (temp file + rename); gathered pair
    rows are written block by block, never held whole."""
    write_atomic(destination, _lp_blocks(model) if _gathered(model) else _lp_by_strings(model))
