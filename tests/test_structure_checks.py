"""A conflict structure built for one instance is refused for another."""

import pytest

from rwap.anneal import repair
from rwap.conflicts import build_conflict_sets, build_strong_groups, count_constraints
from rwap.gen import generate, synth_topology
from rwap.heuristic import RsConfig, rs_heur
from rwap.instance import Solution, instance_from_dict, instance_to_dict, make_report, verify_feasible
from rwap.ip import build_ip
from rwap.oracle import branch_and_bound
from rwap.qubo import build_qubo, penalty

from helpers import figure1_instance, small_instance


def _other():
    other = small_instance(3)
    assert other.n_vars != figure1_instance().n_vars
    return other


def test_build_ip_refuses_conflict_sets_of_another_instance():
    with pytest.raises(ValueError, match="another instance"):
        build_ip(figure1_instance(), build_conflict_sets(_other()), 1, 11, "base")


def test_build_ip_refuses_strong_groups_of_another_instance():
    with pytest.raises(ValueError, match="strong groups cover"):
        build_ip(figure1_instance(), build_strong_groups(_other()), 1, 11, "strong")


def test_build_ip_accepts_structures_of_an_equal_instance():
    inst = figure1_instance()
    copy = instance_from_dict(instance_to_dict(inst))
    assert copy is not inst and copy == inst
    conflicts = build_conflict_sets(copy)
    assert build_ip(inst, conflicts, 1, 11, "base") == build_ip(copy, conflicts, 1, 11, "base")
    assert build_ip(inst, conflicts.strong, 1, 11, "strong") == build_ip(copy, conflicts.strong, 1, 11, "strong")


def test_branch_and_bound_refuses_strong_groups_of_another_instance():
    with pytest.raises(ValueError, match="strong groups cover"):
        branch_and_bound(figure1_instance(), build_strong_groups(_other()), 1, 11)


def test_branch_and_bound_refuses_conflict_sets_of_another_instance():
    inst = figure1_instance()
    with pytest.raises(ValueError, match="another instance"):
        branch_and_bound(inst, build_strong_groups(inst), 1, 11, conflict_sets=build_conflict_sets(_other()))


def test_count_constraints_refuses_strong_groups_of_another_instance():
    inst = figure1_instance()
    with pytest.raises(ValueError, match="strong groups cover"):
        count_constraints(inst, build_conflict_sets(inst), build_strong_groups(_other()))


def test_count_constraints_refuses_conflict_sets_of_another_instance():
    inst = figure1_instance()
    with pytest.raises(ValueError, match="another instance"):
        count_constraints(inst, build_conflict_sets(_other()), build_strong_groups(inst))


def _equal_size_pair():
    a = generate(synth_topology(8, 1.5, 1), 2, 3, 1, 1)
    b = generate(synth_topology(8, 1.5, 2), 2, 3, 1, 5)
    assert a.n_vars == b.n_vars == 12 and a != b
    return a, b


def test_build_ip_refuses_strong_groups_of_another_instance_of_equal_size():
    a, b = _equal_size_pair()
    with pytest.raises(ValueError, match="strong groups cover"):
        build_ip(a, build_strong_groups(b), 1, 11, "strong")


def test_branch_and_bound_refuses_strong_groups_of_another_instance_of_equal_size():
    a, b = _equal_size_pair()
    assert branch_and_bound(a, build_strong_groups(a), 1, 100).objective == 0
    with pytest.raises(ValueError, match="strong groups cover"):
        branch_and_bound(a, build_strong_groups(b), 1, 100)


# Every reader of conflict sets; one that takes bits gets all ones, one per
# variable of the instance it is called on.
CONFLICT_READERS = {
    "build_qubo": lambda inst, cs: build_qubo(inst, cs, 1, 11, 20),
    "verify_feasible": lambda inst, cs: verify_feasible(inst, cs, [1] * inst.n_vars),
    "make_report": lambda inst, cs: make_report(inst, cs, Solution((1,) * inst.n_vars), 1, 11, "test"),
    "penalty": lambda inst, cs: penalty(inst, cs, [1] * inst.n_vars),
    "repair": lambda inst, cs: repair(inst, cs, [1] * inst.n_vars, 1, 11),
    "rs_heur": lambda inst, cs: rs_heur(inst, cs, RsConfig(2)),
}


def _sizes_apart():
    a, b = small_instance(3), small_instance(8)
    assert (a.n_vars, b.n_vars) == (8, 12)
    return a, b


@pytest.mark.parametrize("reader", list(CONFLICT_READERS))
@pytest.mark.parametrize("direction", ["fewer variables", "more variables"])
def test_conflict_readers_refuse_conflict_sets_of_another_instance(reader, direction):
    a, b = _sizes_apart()
    inst, other = (b, a) if direction == "fewer variables" else (a, b)
    with pytest.raises(ValueError, match="conflict sets were built for another instance"):
        CONFLICT_READERS[reader](inst, build_conflict_sets(other))


@pytest.mark.parametrize("reader", list(CONFLICT_READERS))
def test_conflict_readers_refuse_conflict_sets_of_another_instance_of_equal_size(reader):
    a, b = _equal_size_pair()
    with pytest.raises(ValueError, match="conflict sets were built for another instance"):
        CONFLICT_READERS[reader](a, build_conflict_sets(b))


@pytest.mark.parametrize("reader", list(CONFLICT_READERS))
def test_conflict_readers_accept_conflict_sets_of_an_equal_instance(reader):
    inst = small_instance(8)
    copy = instance_from_dict(instance_to_dict(inst))
    assert copy is not inst and copy == inst
    assert CONFLICT_READERS[reader](inst, build_conflict_sets(copy)) == CONFLICT_READERS[reader](inst, build_conflict_sets(inst))
