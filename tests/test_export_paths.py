"""The two ways of writing each export give the same text.

Models below their export's cutoff (``LP_GATHER_MIN_TERMS`` matrix entries
for the LP, ``GATHER_MIN_TERMS`` terms for the QUBO) are formatted as
strings and larger ones are assembled as bytes from byte tables.  Both
writers are called here directly, on every digest-pinned instance, on a
model past the cutoff and on hand-built edge cases, and must agree byte for
byte.  The view and file tests pin what readers of a model and of an
exported file see.
"""

import numpy as np
import pytest

from rwap import ip
from rwap.bytetext import GATHER_MIN_TERMS, codes, decimal_table
from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.gen import generate, synth_topology
from rwap.instance import write_atomic
from rwap.ip import Constraint, LinearModel, build_ip, export_lp, lp_text
from rwap.qubo import QuboModel, _qubo_by_gather, _qubo_by_strings, build_qubo, export_qubo, qubo_text
from rwap.weights import beta_base

from helpers import figure1_instance, small_instance
from test_export_digests import DIGESTS


def _models(inst):
    w = beta_base(inst)
    conflicts = build_conflict_sets(inst)
    return (
        build_ip(inst, conflicts, w.alpha, w.beta, "base"),
        build_ip(inst, build_strong_groups(inst), w.alpha, w.beta, "strong"),
        build_qubo(inst, conflicts, w.alpha, w.beta, w.beta + 100),
    )


def _same_text(model):
    if isinstance(model, QuboModel):
        strings, gathered = _qubo_by_strings(model), _qubo_by_gather(model)
    else:
        strings, gathered = ip._lp_by_strings(model), ip._lp_by_gather(model)
    assert isinstance(gathered, bytes)
    assert gathered.decode() == strings


@pytest.mark.parametrize("key", list(DIGESTS))
def test_paths_agree_on_digest_instances(key):
    for model in _models(figure1_instance() if key == "figure1" else small_instance(key)):
        _same_text(model)


def test_paths_agree_past_the_cutoff():
    inst = generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5)
    assert inst.n_vars == 360
    base, strong, qubo = _models(inst)
    assert ip._gathered(base) and len(qubo.quadratic) >= GATHER_MIN_TERMS
    for model in (base, strong, qubo):
        _same_text(model)


def _hand_model(runs=(), var_names=("a", "b", "c_long_name", "d")):
    # row 0: a zero coefficient leads; row 1: no terms; row 2: -1, 0 and
    # two-digit coefficients; row 3: a negative rhs; then the pair rows
    pairs = sum(rows for _, rows in runs)
    first, second = np.array([1, 0, 2, 0][:pairs]), np.array([2, 3, 3, 1][:pairs])
    names = ["first_zero", "empty", "mixed", "negative"]
    indptr, index, coeff = [0, 2, 2, 6, 7], [0, 1, 2, 0, 1, 3, 3], [0, 3, -1, 0, 12, 10, -7]
    relation, rhs = ["=", "<=", "<=", "<="], [0, 1, 4, -2]
    objective = (0,) * len(var_names)
    return LinearModel("base", objective, var_names, names, indptr, index, coeff, relation, rhs, runs, first, second)


@pytest.mark.parametrize("runs", [(), ((2, 1),), ((1, 2), (4, 1)), ((3, 2), (1, 2)), ((12, 2), (1, 2))])
def test_paths_agree_on_hand_built_rows(runs):
    model = _hand_model(runs)
    _same_text(model)
    text = lp_text(model)
    assert "Minimize\n obj:\nSubject To\n" in text  # an all-zero objective
    assert " first_zero: 3 b = 0\n" in text
    assert " empty:  <= 1\n" in text
    assert " mixed: - 1 c_long_name + 12 b + 10 d <= 4\n" in text
    assert " negative: - 7 d <= -2\n" in text
    # row t of a run of class c is c{c}_{t}, whatever the order of the runs
    pair_names = [f"c{cls}_{t}" for cls, rows in runs for t in range(rows)]
    assert model.pair_names() == [row.name for row in model.constraints[4:]] == pair_names
    assert [model.pair_names(j, j + 1)[0] for j in range(len(pair_names))] == pair_names
    assert text.split("Subject To\n")[1].split("Binary")[0].count("\n") == 4 + len(pair_names)
    for name, row in zip(pair_names, model.constraints[4:]):
        (i, _), (j, _) = row.terms
        assert f" {name}: 1 {model.var_names[i]} + 1 {model.var_names[j]} <= 1\n" in text


def test_paths_agree_on_names_past_ascii(tmp_path):
    n = ip.LP_GATHER_MIN_TERMS
    var_names = tuple(f"λ{i}_ü" for i in range(n))
    hand = _hand_model(((1, 2),), var_names)
    model = LinearModel(
        "base", tuple(range(-3, n - 3)), var_names, [*hand.names, "sum_ß"], [*hand.indptr, 7 + n],
        [*hand.index, *range(n)], [*hand.coeff, *[2] * n], [*hand.relation, "<="], [*hand.rhs, 9],
        hand.pair_runs, hand.first, hand.second,
    )
    assert ip._gathered(model)
    _same_text(model)
    export_lp(model, str(tmp_path / "m.lp"))
    assert (tmp_path / "m.lp").read_bytes() == lp_text(model).encode()
    assert " sum_ß: 2 λ0_ü + 2 λ1_ü" in lp_text(model)


@pytest.mark.parametrize(
    "linear,quadratic,constant",
    [
        ((0, 0, 0), {(0, 1): 5, (1, 2): -3}, 7),  # no linear entries, a nonzero constant
        ((0, -4, 12), {}, -1),
        ((1, 0, -10), {(0, 2): 100, (1, 2): -1, (0, 1): 0}, 0),
    ],
)
def test_qubo_paths_agree_on_hand_built_models(linear, quadratic, constant):
    model = QuboModel(3, linear, quadratic, constant, rho=1, alpha=1, beta=1)
    _same_text(model)
    assert qubo_text(model).startswith(f"3 {constant}\n")


@pytest.mark.parametrize("key", [3, 8])
def test_constraint_slices_hold_python_ints(key):
    inst = small_instance(key)
    model = build_ip(inst, build_conflict_sets(inst), 1, 11)
    view = model.constraints
    rows = view[0:2]
    assert isinstance(rows, tuple) and rows == (view[0], view[1]) and all(isinstance(r, Constraint) for r in rows)
    assert view[::-1] == tuple(reversed(list(view))) and view[5:2] == ()
    for row in (*view, *view[:]):
        assert type(row.rhs) is int
        assert all(type(i) is int and type(c) is int for i, c in row.terms)


def test_base_pair_rows_are_read_only_arrays():
    inst = small_instance(8)
    conflicts = build_conflict_sets(inst)
    model = build_ip(inst, conflicts, 1, 11)
    for column, source in ((model.first, conflicts.first), (model.second, conflicts.second)):
        assert not column.flags.writeable and np.array_equal(column, source)
    assert model.pair_runs == tuple((cls, rows) for cls, rows in enumerate(conflicts.class_counts, 1) if rows)
    assert len(model.constraints) == len(model.names) + conflicts.pair_count


@pytest.mark.parametrize("runs,first,second", [(((1, 1),), [0, 0], [1, 1]), (((1, 2),), [0], [1]), (((1, 1),), [0], [])])
def test_pair_runs_must_count_the_pair_rows(runs, first, second):
    hand = _hand_model()
    with pytest.raises(ValueError, match="same pair rows"):
        LinearModel(*list(vars(hand).values())[:-3], runs, np.array(first, np.int64), np.array(second, np.int64))


def test_models_compare_pair_rows_by_value():
    model = _hand_model(((1, 2),))
    assert model == _hand_model(((1, 2),)) and model != _hand_model(((2, 2),))
    moved = LinearModel(*list(vars(model).values())[:-1], np.array([3, 3]))
    assert moved != model and (moved == object()) is False


@pytest.mark.parametrize("make", [lambda: small_instance(3), lambda: generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5)],
                         ids=["string path", "gather path"])
def test_exported_files_hold_the_text_bytes(tmp_path, make):
    base, strong, qubo = _models(make())
    for k, model in enumerate((base, strong)):
        export_lp(model, str(tmp_path / f"{k}.lp"))
        assert (tmp_path / f"{k}.lp").read_bytes() == lp_text(model).encode()
    export_qubo(qubo, str(tmp_path / "q.txt"))
    assert (tmp_path / "q.txt").read_bytes() == qubo_text(qubo).encode()


def test_write_atomic_writes_bytes_as_they_are(tmp_path):
    write_atomic(str(tmp_path / "b"), b"a\r\nb\x00")
    write_atomic(str(tmp_path / "s"), "a\nb")
    assert (tmp_path / "b").read_bytes() == b"a\r\nb\x00" and (tmp_path / "s").read_text() == "a\nb"


def test_byte_table_helpers():
    for values in (np.array([127, -128, 5, 127], np.int8), np.array([10**12, -3, 10**12]), np.zeros(0, np.int64)):
        distinct, position = codes(values)
        assert distinct.tolist() == sorted(set(values.tolist())) and (distinct[position] == values).all()
    digits = decimal_table(np.array([0, 7, 10, 123]))
    assert [bytes(row).strip(b"\0").decode() for row in digits] == ["0", "7", "10", "123"]
