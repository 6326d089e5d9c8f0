"""The column-stored LinearModel and its LP text against the eager reference.

The reference is the row-object build and per-row formatter that the
column layout replaced, kept here verbatim in behaviour: one tuple of terms
per row and one formatting call per row.  Every row (name, terms, relation,
rhs) and the LP bytes must match on both model kinds.
"""

import pytest
from hypothesis import given, settings

from rwap.conflicts import build_conflict_sets
from rwap.instance import Instance, Network, PROTECTION, WORKING, objective_coefficients
from rwap.ip import Constraint, build_ip, lp_text, variable_names
from rwap.weights import beta_base, tight_example

from helpers import figure1_instance, small_instance
from test_conflicts import tangled_instances


def reference_rows(instance, structure, kind):
    """(name, terms, relation, rhs) per row, built one row object at a time."""
    blocks = instance.bounds.tolist()
    match, single = [], []
    for r in range(len(instance.requests)):
        w, p, end = blocks[2 * r : 2 * r + 3]
        terms = tuple((i, 1) for i in range(w, p))
        match.append((f"match_r{r}", terms + tuple((i, -1) for i in range(p, end)), "=", 0))
        single.append((f"single_r{r}", terms, "<=", 1))
    rows = match + single
    if kind == "base":
        first_row: dict[int, int] = {}
        columns = (structure.first.tolist(), structure.second.tolist(), structure.classes.tolist())
        for row, (a, b, cls) in enumerate(zip(*columns)):
            t = row - first_row.setdefault(cls, row)
            rows.append((f"c{cls}_{t}", ((a, 1), (b, 1)), "<=", 1))
    else:
        for (r, w), plist in sorted(structure.pbar.items()):
            terms = [(instance.var_of(r, WORKING, w), 1)]
            terms += [(instance.var_of(r, PROTECTION, p), 1) for p in plist]
            rows.append((f"excl_r{r}_w{w}", tuple(terms), "<=", 1))
        for (e, lam), members in structure.emitted_groups():
            rows.append((f"slot_e{e}_l{lam}", tuple((i, 1) for i in members), "<=", 1))
    return rows


def _reference_terms(terms):
    parts = []
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


def reference_lp_text(objective, rows, var_names):
    lines = ["Minimize"]
    lines.append(f" obj: {_reference_terms([(c, var_names[i]) for i, c in enumerate(objective)])}".rstrip())
    lines.append("Subject To")
    for name, terms, relation, rhs in rows:
        body = _reference_terms([(c, var_names[i]) for i, c in terms])
        rel = "=" if relation == "=" else "<="
        lines.append(f" {name}: {body} {rel} {rhs}")
    lines.append("Binary")
    for name in var_names:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _check_against_reference(instance, alpha, beta):
    conflicts = build_conflict_sets(instance)
    for kind, structure in (("base", conflicts), ("strong", conflicts.strong)):
        model = build_ip(instance, structure, alpha, beta, kind)
        rows = reference_rows(instance, structure, kind)
        assert len(model.constraints) == len(rows)
        assert [tuple(vars(row).values()) for row in model.constraints] == rows
        objective = objective_coefficients(instance, alpha, beta).tolist()
        assert model.objective == tuple(objective)
        assert lp_text(model) == reference_lp_text(objective, rows, variable_names(instance))


def _empty_instance():
    return Instance(network=Network(node_count=1, links=()), wavelength_count=1, requests=())


@pytest.mark.parametrize("seed", range(40))
def test_small_instances_match_reference(seed):
    inst = small_instance(seed)
    w = beta_base(inst)
    _check_against_reference(inst, w.alpha, w.beta)


@pytest.mark.parametrize(
    "make", [figure1_instance, lambda: tight_example(2, 3), _empty_instance], ids=["figure1", "tight", "empty"]
)
@pytest.mark.parametrize("alpha,beta", [(1, 11), (0, 0), (3, 1)])
def test_fixed_instances_match_reference(make, alpha, beta):
    _check_against_reference(make(), alpha, beta)


@settings(max_examples=150, deadline=None)
@given(inst=tangled_instances())
def test_tangled_instances_match_reference(inst):
    # parallel links, repeated links and empty blocks (rows without terms)
    _check_against_reference(inst, 1, 4)


def test_constraints_view_indexing(figure1):
    model = build_ip(figure1, build_conflict_sets(figure1), 1, 11, "base")
    rows = reference_rows(figure1, build_conflict_sets(figure1), "base")
    view = model.constraints
    assert view[-1] == Constraint(*rows[-1]) and view[-len(rows)] == Constraint(*rows[0])
    assert list(reversed(view)) == [Constraint(*row) for row in reversed(rows)]
    for bad in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            view[bad]


def test_len_builds_no_constraint(monkeypatch, figure1):
    model = build_ip(figure1, build_conflict_sets(figure1), 1, 11, "base")

    def refuse(*args, **kwargs):
        raise AssertionError("a Constraint was built")

    monkeypatch.setattr(Constraint, "__init__", refuse)
    assert len(model.constraints) == 7
