"""The gathered exports are made in blocks of ``BLOCK_ROWS`` lines.

With the block size set to 1, 2 and 7 lines, block edges fall inside class
runs, between a QUBO's diagonal and pair lines and at every digit width, and
the joined blocks and the streamed files must still equal the strings path.
The memory tests pin that an export streamed to a file holds only a few
blocks at a time, and the slow test runs the exports at three times the
criterion-12 size.
"""

import os
import tracemalloc

import numpy as np
import pytest

from rwap import bytetext, ip
from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.gen import generate, synth_topology
from rwap.instance import write_atomic
from rwap.ip import LinearModel, build_ip, export_lp, lp_text
from rwap.qubo import QuboModel, _qubo_by_gather, _qubo_by_strings, build_qubo, export_qubo, qubo_text
from rwap.weights import beta_base

@pytest.fixture(params=[1, 2, 7], ids=lambda rows: f"block{rows}")
def block_rows(request, monkeypatch):
    monkeypatch.setattr(bytetext, "BLOCK_ROWS", request.param)
    return request.param


def _models(inst, strong=True):
    w = beta_base(inst)
    conflicts = build_conflict_sets(inst)
    base = build_ip(inst, conflicts, w.alpha, w.beta, "base")
    qubo = build_qubo(inst, conflicts, w.alpha, w.beta, w.beta + 100)
    return (base, build_ip(inst, build_strong_groups(inst), w.alpha, w.beta, "strong"), qubo) if strong else (base, qubo)


def _same(got, want):
    """Fail on the first differing line, without diffing whole texts."""
    if got != want:
        lines = zip([*got.splitlines(keepends=True), None], [*want.splitlines(keepends=True), None])
        pytest.fail("first differing lines: %r" % (next(pair for pair in lines if pair[0] != pair[1]),))


def _gathered_equals_strings(model):
    if isinstance(model, QuboModel):
        _same(_qubo_by_gather(model).decode(), _qubo_by_strings(model))
    else:
        _same(ip._lp_by_gather(model).decode(), ip._lp_by_strings(model))


def _pair_model(runs, n_vars=5, seed=0):
    """A base model with one named row and the given runs of pair rows."""
    rng = np.random.default_rng(seed)
    pairs = sum(rows for _, rows in runs)
    first = rng.integers(0, n_vars - 1, pairs)
    second = first + 1 + rng.integers(0, n_vars - 1 - first)
    var_names = tuple(f"x{k}" for k in range(n_vars))
    return LinearModel(
        "base", (3,) * n_vars, var_names, ["match_r0"], [0, 2], [0, 1], [1, -1], ["="], [0],
        tuple(runs), first.astype(np.int64), second.astype(np.int64),
    )


def test_blocks_agree_on_the_360_variable_model(block_rows):
    inst = generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5)
    assert inst.n_vars == 360
    for model in _models(inst):
        _gathered_equals_strings(model)


@pytest.mark.parametrize("runs", [
    ((1, 3), (2, 5), (4, 4)),  # every run crosses an edge of a 2- or 7-line block
    ((2, 13),),  # one- and two-digit places in one run
    ((1, 1), (3, 1), (4, 12)),  # runs shorter than a block
    ((4, 101), (1, 7)),  # three-digit places, the widest run first
])
def test_blocks_agree_on_runs_across_block_edges(block_rows, runs):
    model = _pair_model(runs)
    _gathered_equals_strings(model)
    names = ip.lp_text(model).split("Subject To\n")[1].split("Binary")[0]
    assert names.count("\n") == 1 + sum(rows for _, rows in runs)


def test_blocks_agree_with_an_edge_between_diagonal_and_pair_lines(block_rows):
    # block_rows nonzero linear entries, so the first block ends right after
    # the diagonal lines, then pairs whose coefficients differ per block; the
    # last is wider than 8 bytes, so earlier blocks' coefficients are narrower
    n = block_rows + 4
    linear = tuple(-5 * (k + 1) if k < block_rows else 0 for k in range(n))
    quadratic = {(i, j): (i * 7 + j) % 5 * 1000 - 2 for i in range(n) for j in range(i + 1, n) if (i + j) % 3}
    quadratic[n - 2, n - 1] = -10**9
    model = QuboModel(n, linear, quadratic, 9, rho=1, alpha=1, beta=1)
    _gathered_equals_strings(model)
    lines = qubo_text(model).split("\n")
    assert lines[block_rows] == f"{block_rows - 1} {block_rows - 1} {-5 * block_rows}"
    assert len(lines) == 2 + block_rows + len(quadratic)


@pytest.mark.parametrize("linear,quadratic", [((0, 4, -12, 0), {}), ((0, 0, 0, 0), {})], ids=["diagonal only", "empty"])
def test_blocks_agree_without_pair_rows(block_rows, linear, quadratic):
    _gathered_equals_strings(_pair_model(()))
    _gathered_equals_strings(QuboModel(4, linear, quadratic, -3, rho=1, alpha=1, beta=1))


def test_streamed_files_hold_the_text_bytes(tmp_path, block_rows):
    inst = generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5)
    base, strong, qubo = _models(inst)
    for k, model in enumerate((base, strong, _pair_model(((1, 3), (2, 5))))):
        export_lp(model, str(tmp_path / f"{k}.lp"))
        _same((tmp_path / f"{k}.lp").read_bytes(), lp_text(model).encode())
    export_qubo(qubo, str(tmp_path / "q.txt"))
    _same((tmp_path / "q.txt").read_bytes(), qubo_text(qubo).encode())


def test_write_atomic_streams_blocks(tmp_path):
    write_atomic(str(tmp_path / "b"), iter([b"a\n", b"", b"b\x00"]))
    assert (tmp_path / "b").read_bytes() == b"a\nb\x00"


def test_a_failing_block_iterator_leaves_the_destination_alone(tmp_path):
    out = tmp_path / "m.lp"
    out.write_bytes(b"old contents\n")

    def blocks():
        yield b"new "
        raise RuntimeError("no second block")

    with pytest.raises(RuntimeError, match="no second block"):
        write_atomic(str(out), blocks())
    assert out.read_bytes() == b"old contents\n"
    assert sorted(os.listdir(tmp_path)) == ["m.lp"]


@pytest.fixture(scope="module")
def criterion12_models():
    return _models(generate(synth_topology(22, 1.4, 7), 15, 100, 2, 7), strong=False)


@pytest.mark.parametrize("which", ["base LP", "QUBO"])
def test_streamed_exports_hold_a_few_blocks(tmp_path, criterion12_models, which):
    """An export of the criterion-12 instance (a 17.4 MB base LP, a 7.7 MB
    QUBO) allocates at most 16 MB above what was allocated before it."""
    base, qubo = criterion12_models
    export = (lambda: export_lp(base, str(tmp_path / "m.lp"))) if which == "base LP" else (
        lambda: export_qubo(qubo, str(tmp_path / "m.txt")))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 16 * 2**20


@pytest.mark.slow
def test_exports_at_three_times_the_criterion12_size(tmp_path):
    inst = generate(synth_topology(30, 1.4, 7), 15, 300, 2, 7)
    conflicts = build_conflict_sets(inst)
    assert (inst.n_vars, conflicts.pair_count) == (17_820, 2_917_350)
    w = beta_base(inst)
    for kind, groups in (("base", conflicts), ("strong", conflicts.strong)):
        model = build_ip(inst, groups, w.alpha, w.beta, kind)
        export_lp(model, str(tmp_path / "m.lp"))
        text = lp_text(model)
        rows = text.split("Subject To\n")[1].split("Binary\n")[0]
        assert rows.count("\n") == len(model.constraints)
        _same((tmp_path / "m.lp").read_bytes(), text.encode())
        del text, rows
    qubo = build_qubo(inst, conflicts, w.alpha, w.beta, w.beta + 100)
    export_qubo(qubo, str(tmp_path / "q.txt"))
    text = qubo_text(qubo)
    assert text.count("\n") == 1 + sum(1 for c in qubo.linear if c) + len(qubo.quadratic)
    _same((tmp_path / "q.txt").read_bytes(), text.encode())
