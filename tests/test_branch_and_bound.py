"""Branch-and-bound's explicit-stack search against the recursive search it
replaced, and on more requests than the interpreter's recursion limit."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.gen import generate, synth_topology
from rwap.instance import PROTECTION, WORKING
from rwap.oracle import branch_and_bound

from helpers import small_instance
from test_conflicts import tangled_instances


def recursive_branch_and_bound(instance, strong, alpha, beta, node_limit=None):
    """The recursive depth-first search, as reference: (bits, nodes, bound, optimal)."""
    plans = []
    for req in instance.requests:
        pairs = []
        for w, wl in enumerate(req.working):
            blocked = set(strong.pbar[(req.id, w)])
            for p, pl in enumerate(req.protection):
                if p not in blocked:
                    pairs.append((wl.length + pl.length, w, p))
        pairs.sort()
        plans.append((req.id, pairs, pairs[0][0] if pairs else None))
    order = sorted(plans, key=lambda pl: (-(beta - alpha * pl[2]) if pl[2] is not None else 1, pl[0]))
    gains = [min(0, alpha * pl[2] - beta) if pl[2] is not None else 0 for pl in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gains[i]

    assignment = [0] * instance.n_vars
    occupied = set()
    state = {"nodes": 0, "exhausted": False, "open": None, "key": (0, 0, tuple(assignment))}

    def note_open(bound):
        state["open"] = bound if state["open"] is None else min(state["open"], bound)

    def dfs(depth, cur_obj, cur_fa):
        bound = cur_obj + suffix[depth]
        if state["exhausted"] or (node_limit is not None and state["nodes"] >= node_limit):
            state["exhausted"] = True
            note_open(bound)
            return
        state["nodes"] += 1
        if bound > state["key"][0]:
            return
        if depth == len(order):
            key = (cur_obj, cur_fa, tuple(assignment))
            if key < state["key"]:
                state["key"] = key
            return
        rid, pairs, _ = order[depth]
        req = instance.requests[rid]
        for combined, w, p in pairs:
            wl, pl = req.working[w], req.protection[p]
            needed = [(e, wl.wavelength) for e in wl.links] + [(e, pl.wavelength) for e in pl.links]
            if any(s in occupied for s in needed):
                continue
            iw, ip_ = instance.var_of(rid, WORKING, w), instance.var_of(rid, PROTECTION, p)
            occupied.update(needed)
            assignment[iw] = assignment[ip_] = 1
            dfs(depth + 1, cur_obj + alpha * combined - beta, cur_fa + combined)
            assignment[iw] = assignment[ip_] = 0
            occupied.difference_update(needed)
            if state["exhausted"]:
                note_open(bound)
                return
        dfs(depth + 1, cur_obj, cur_fa)

    dfs(0, 0, 0)
    lower = state["key"][0]
    if state["exhausted"] and state["open"] is not None:
        lower = min(lower, state["open"])
    return state["key"][2], state["nodes"], lower, not state["exhausted"]


@pytest.mark.parametrize("seed", range(25))
def test_stack_search_equals_recursive_reference(seed):
    inst = small_instance(seed)
    strong, conflicts = build_strong_groups(inst), build_conflict_sets(inst)
    for alpha, beta in ((1, 20), (2, 5), (0, 3)):
        for limit in (0, 1, 2, 3, 5, 8, 13, 40, None):
            report = branch_and_bound(inst, strong, alpha, beta, limit, conflicts)
            got = (report.solution.bits, report.nodes, report.bound, report.optimal)
            assert got == recursive_branch_and_bound(inst, strong, alpha, beta, limit)


def test_stack_search_equals_recursive_reference_on_a_larger_instance():
    inst = generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5)
    strong, conflicts = build_strong_groups(inst), build_conflict_sets(inst)
    for limit in (10, 100, 1000, 5000):
        report = branch_and_bound(inst, strong, 1, 40, limit, conflicts)
        got = (report.solution.bits, report.nodes, report.bound, report.optimal)
        assert got == recursive_branch_and_bound(inst, strong, 1, 40, limit)


def test_search_deeper_than_the_recursion_limit():
    inst = generate(synth_topology(40, 1.5, 3), 1, 1100, 1, 3)
    assert inst.n_vars == 2200 and len(inst.requests) > sys.getrecursionlimit()
    report = branch_and_bound(inst, build_strong_groups(inst), 1, 2000, node_limit=2000)
    assert report.nodes == 2000 and not report.optimal
    assert report.feasible and report.bound <= report.objective


@settings(max_examples=150, deadline=None)
@given(inst=tangled_instances(), limit=st.one_of(st.none(), st.integers(0, 60)))
def test_generator_search_equals_recursive_reference_on_tangled_instances(inst, limit):
    strong, conflicts = build_strong_groups(inst), build_conflict_sets(inst)
    for alpha, beta in ((1, 20), (0, 3)):
        report = branch_and_bound(inst, strong, alpha, beta, limit, conflicts)
        got = (report.solution.bits, report.nodes, report.bound, report.optimal)
        assert got == recursive_branch_and_bound(inst, strong, alpha, beta, limit)
