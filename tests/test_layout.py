"""The instance's variable layout arrays, and the evaluation functions built
on them, against raw re-derivations, including requests with empty blocks."""

import itertools
import json

import numpy as np
import pytest

from rwap.anneal import repair
from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.instance import (
    Instance,
    PROTECTION,
    Solution,
    WORKING,
    f_alpha,
    f_beta,
    make_report,
    report_to_dict,
    verify_feasible,
)
from rwap.ip import build_ip
from rwap.oracle import branch_and_bound, brute_force_ip, feasible_objectives
from rwap.qubo import build_qubo, penalty
from rwap.heuristic import RsConfig, rs_heur

from helpers import empty_blocks_instance, enumerate_feasible_raw, raw_feasible, raw_violation_count


def raw_counts(instance, bits):
    return [
        (
            sum(bits[instance.var_of(req.id, WORKING, w)] for w in range(len(req.working))),
            sum(bits[instance.var_of(req.id, PROTECTION, p)] for p in range(len(req.protection))),
        )
        for req in instance.requests
    ]


def raw_objectives(instance, bits):
    """(links used, requests granted)."""
    links = sum(instance.lightpath_at(i).length for i, b in enumerate(bits) if b)
    return links, sum(cw for cw, _ in raw_counts(instance, bits))


KINDS = {1: (WORKING, PROTECTION), 2: (WORKING, PROTECTION), 3: (WORKING, WORKING), 4: (PROTECTION, PROTECTION)}


def raw_violations(instance, conflict_sets, bits):
    """Violations in verify_feasible's order: per request eq2 then eq3, then
    the set conflict tuples class by class."""
    out = []
    for r, (cw, cp) in enumerate(raw_counts(instance, bits)):
        if cw != cp:
            out.append(("eq2", (r,)))
        if cw > 1:
            out.append(("eq3", (r,)))
    families = (conflict_sets.c1, conflict_sets.c2, conflict_sets.c3, conflict_sets.c4)
    for k, family in enumerate(families, 1):
        k1, k2 = KINDS[k]
        for t in family:
            r1, r2, l1, l2 = (t[0], *t) if k == 1 else t
            if bits[instance.var_of(r1, k1, l1)] and bits[instance.var_of(r2, k2, l2)]:
                out.append((f"c{k}", t))
    return out


def raw_pair_conflicts(instance, i, j):
    a, b = instance.lightpath_at(i), instance.lightpath_at(j)
    (ri, ki, _), (rj, kj, _) = instance.var_info(i), instance.var_info(j)
    return bool(set(a.links) & set(b.links)) and ((ri == rj and ki != kj) or a.wavelength == b.wavelength)


def raw_repair(instance, bits, alpha, beta):
    """Greedy clearing with set bookkeeping, cheapest damage first, ties to
    the lower index."""

    def damage(i):
        length = instance.lightpath_at(i).length
        return beta - alpha * length if instance.var_info(i)[1] == WORKING else -alpha * length

    changed = False
    while True:
        on = [i for i, b in enumerate(bits) if b]
        involved = {x for i, j in itertools.combinations(on, 2) if raw_pair_conflicts(instance, i, j) for x in (i, j)}
        for r, (cw, cp) in enumerate(raw_counts(instance, bits)):
            if cw != cp or cw > 1:
                involved.update(i for i in on if instance.var_info(i)[0] == r)
        if not involved:
            return changed
        bits[min(involved, key=lambda i: (damage(i), i))] = 0
        changed = True


def test_layout_arrays():
    inst = empty_blocks_instance()
    assert inst.lengths.tolist() == [2, 1, 2, 1, 2, 2, 2, 1, 2, 2]
    assert inst.working.tolist() == [1, 1, 0, 0, 0, 1, 1, 1, 0, 0]
    assert inst.request_of.tolist() == [0, 0, 0, 1, 1, 2, 4, 4, 4, 4]
    assert inst.bounds.tolist() == [0, 2, 3, 3, 5, 6, 6, 6, 6, 8, 10]
    assert (inst.lengths.dtype, inst.working.dtype, inst.request_of.dtype, inst.bounds.dtype) == (
        np.int64, np.bool_, np.int64, np.int64
    )
    for arr in (inst.lengths, inst.working, inst.request_of, inst.bounds):
        assert not arr.flags.writeable
    infos = [inst.var_info(i) for i in range(inst.n_vars)]
    assert infos == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (4, 0, 0), (4, 0, 1), (4, 1, 0), (4, 1, 1)
    ]
    assert all(type(v) is int for info in infos for v in info)
    assert inst.local_of(np.arange(inst.n_vars)).tolist() == [info[2] for info in infos]
    for i, (r, kind, local) in enumerate(infos):
        assert inst.var_of(r, kind, local) == i
        assert inst.lightpath_at(i) == inst.requests[r].lightpaths(kind)[local]
    sizes = [len(inst.var_range(r, k)) for r in range(5) for k in (WORKING, PROTECTION)]
    assert sizes == [2, 1, 0, 2, 1, 0, 0, 0, 2, 2]
    assert inst == Instance(inst.network, inst.wavelength_count, inst.requests)


@pytest.mark.parametrize("request_id, kind", [(-1, WORKING), (-1, PROTECTION), (5, WORKING), (0, 2), (3, -1)])
def test_var_of_and_var_range_reject_bad_blocks(request_id, kind):
    inst = empty_blocks_instance()
    with pytest.raises(LookupError):
        inst.var_range(request_id, kind)
    with pytest.raises(LookupError):
        inst.var_of(request_id, kind, 0)


def test_empty_blocks_agree_with_raw_helpers_on_every_bit_vector():
    inst = empty_blocks_instance()
    cs = build_conflict_sets(inst)
    assert all(cs.class_counts)  # every conflict class occurs
    pairs = itertools.combinations(range(inst.n_vars), 2)
    assert cs.variable_pairs(inst) == {(i, j) for i, j in pairs if raw_pair_conflicts(inst, i, j)}
    alpha, beta = 1, 7
    for bits in itertools.product((0, 1), repeat=inst.n_vars):
        fa, fb = raw_objectives(inst, bits)
        assert f_alpha(inst, bits) == fa
        assert f_beta(inst, bits) == fb
        verdict = verify_feasible(inst, cs, bits)
        assert [(v.kind, v.detail) for v in verdict.violations] == raw_violations(inst, cs, bits)
        assert verdict.feasible == raw_feasible(inst, bits)
        assert penalty(inst, cs, bits).total_g == raw_violation_count(inst, bits)
        report = make_report(inst, cs, Solution(bits), alpha, beta, "x")
        assert report.granted == tuple(r for r, (cw, _) in enumerate(raw_counts(inst, bits)) if cw)
        assert (report.f_alpha, report.f_beta, report.objective) == (fa, fb, alpha * fa - beta * fb)
        got, want = list(bits), list(bits)
        assert repair(inst, cs, got, alpha, beta) == raw_repair(inst, want, alpha, beta)
        assert got == want

    feasible = list(enumerate_feasible_raw(inst))
    fa, fb = feasible_objectives(inst, cs)
    assert list(zip(fa.tolist(), fb.tolist())) == [raw_objectives(inst, bits) for bits in feasible]

    def key(bits):
        fa, fb = raw_objectives(inst, bits)
        return alpha * fa - beta * fb, fa, bits

    best = min(feasible, key=key)
    assert brute_force_ip(inst, cs, alpha, beta).solution.bits == best


def test_public_values_are_python_ints(figure1, figure1_conflicts):
    cs, strong = figure1_conflicts, build_strong_groups(figure1)
    reports = [
        brute_force_ip(figure1, cs, 1, 11),
        branch_and_bound(figure1, strong, 1, 11, None, cs),
        rs_heur(figure1, cs, RsConfig(3, 0), 1, 11),
    ]
    for report in reports:
        for value in (report.f_alpha, report.f_beta, report.objective, report.bound, *report.granted):
            assert value is None or type(value) is int
        json.dumps(report_to_dict(report))
    assert all(type(c) is int for c in build_qubo(figure1, cs, 1, 11, 20).linear)
    assert all(type(c) is int for c in build_ip(figure1, cs, 1, 11).objective)
