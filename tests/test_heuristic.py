import numpy as np
import pytest

from rwap.conflicts import build_conflict_sets
from rwap.gen import generate, synth_topology
from rwap.heuristic import RsConfig, rs_heur
from rwap.instance import Instance, Lightpath, Network, PROTECTION, Request, Solution, WORKING, verify_feasible
from rwap.oracle import brute_force_ip
from rwap.weights import beta_base

from helpers import empty_blocks_instance, small_instance


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_hand_example_grants_both(figure1, figure1_conflicts, seed):
    report = rs_heur(figure1, figure1_conflicts, RsConfig(permutation_budget=2, seed=seed))
    assert report.f_beta == 2
    assert report.feasible


def test_nothing_grantable():
    net = Network(node_count=2, links=((0, 1),))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0,), 0),), protection=(Lightpath((0,), 0),))
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    report = rs_heur(inst, build_conflict_sets(inst), RsConfig(1, 0))
    assert report.f_beta == 0 and report.feasible


@pytest.mark.parametrize("seed", range(10))
def test_always_feasible_and_never_beats_oracle(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    report = rs_heur(inst, cs, RsConfig(permutation_budget=5, seed=seed))
    assert verify_feasible(inst, cs, report.solution).feasible
    if any(r.working and r.protection for r in inst.requests):
        w = beta_base(inst)
        optimum = brute_force_ip(inst, cs, w.alpha, w.beta)
        assert report.f_beta <= optimum.f_beta


def test_monotone_in_budget():
    inst = small_instance(4)
    cs = build_conflict_sets(inst)
    granted = [
        rs_heur(inst, cs, RsConfig(permutation_budget=b, seed=123)).f_beta for b in (1, 2, 4, 8, 16)
    ]
    assert all(a <= b for a, b in zip(granted, granted[1:]))


def test_determinism():
    inst = small_instance(9)
    cs = build_conflict_sets(inst)
    a = rs_heur(inst, cs, RsConfig(6, seed=42))
    b = rs_heur(inst, cs, RsConfig(6, seed=42))
    assert a == b


def test_mixed_wavelengths_used_when_same_wavelength_impossible():
    # parallel links, but the working path only exists on wavelength 0 and
    # the protection path only on wavelength 1
    net = Network(node_count=2, links=((0, 1), (0, 1)))
    req = Request(
        id=0,
        source=0,
        destination=1,
        working=(Lightpath((0,), 0),),
        protection=(Lightpath((1,), 1),),
    )
    inst = Instance(network=net, wavelength_count=2, requests=(req,))
    report = rs_heur(inst, build_conflict_sets(inst), RsConfig(1, 0))
    assert report.f_beta == 1
    assert report.mixed_wavelength_grants == 1


def test_same_wavelength_preferred():
    net = Network(node_count=2, links=((0, 1), (0, 1)))
    req = Request(
        id=0,
        source=0,
        destination=1,
        working=tuple(Lightpath((0,), lam) for lam in (0, 1)),
        protection=tuple(Lightpath((1,), lam) for lam in (0, 1)),
    )
    inst = Instance(network=net, wavelength_count=2, requests=(req,))
    report = rs_heur(inst, build_conflict_sets(inst), RsConfig(1, 0))
    assert report.f_beta == 1
    assert report.mixed_wavelength_grants == 0


def test_shortest_pairs_tried_first():
    # two disjoint pair options; the greedy must take the shorter one
    net = Network(node_count=4, links=((0, 1), (1, 3), (0, 2), (2, 3), (0, 3), (0, 3)))
    req = Request(
        id=0,
        source=0,
        destination=3,
        working=(Lightpath((0, 1), 0), Lightpath((4,), 0)),
        protection=(Lightpath((2, 3), 0), Lightpath((5,), 0)),
    )
    inst = Instance(network=net, wavelength_count=1, requests=(req,))
    report = rs_heur(inst, build_conflict_sets(inst), RsConfig(1, 0))
    assert report.f_alpha == 2  # both single-link paths


def tuple_slot_rs_heur(instance, budget, seed):
    """The greedy with its own (link, wavelength) tuple occupancy, as
    reference: (bits, links, granted, mixed) of the best pass."""

    def route_groups(lightpaths, variables):
        table = {}
        for i, lp in zip(variables, lightpaths):
            table.setdefault(lp.links, {}).setdefault(lp.wavelength, i)
        return list(table.items())

    def free(occupied, links, wavelength):
        return all((e, wavelength) not in occupied for e in links)

    plans = []
    for req in instance.requests:
        wgroups = route_groups(req.working, instance.var_range(req.id, WORKING))
        pgroups = route_groups(req.protection, instance.var_range(req.id, PROTECTION))
        pairs = [
            (len(wl) + len(pl), wi, pi)
            for wi, (wl, _) in enumerate(wgroups)
            for pi, (pl, _) in enumerate(pgroups)
            if not set(wl) & set(pl)
        ]
        plans.append([(wgroups[wi], pgroups[pi]) for _, wi, pi in sorted(pairs)])

    best = None
    for perm_index in range(budget):
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(perm_index,))))
        occupied, bits, granted, links_used, mixed = set(), [0] * instance.n_vars, 0, 0, 0
        for rid in stream.permutation(len(instance.requests)):
            assigned = None
            for (wl, wv), (pl, pv) in plans[rid]:
                for lam in sorted(set(wv) & set(pv)):
                    if free(occupied, wl, lam) and free(occupied, pl, lam):
                        assigned = (wl, lam, pl, lam, wv, pv)
                        break
                if assigned is None:
                    for lw in sorted(wv):
                        if free(occupied, wl, lw):
                            lp = next((lp for lp in sorted(pv) if lp != lw and free(occupied, pl, lp)), None)
                            if lp is not None:
                                assigned = (wl, lw, pl, lp, wv, pv)
                                mixed += 1
                                break
                if assigned is not None:
                    break
            if assigned is None:
                continue
            wl, lw, pl, lp, wv, pv = assigned
            bits[wv[lw]] = bits[pv[lp]] = 1
            occupied.update((e, lw) for e in wl)
            occupied.update((e, lp) for e in pl)
            granted += 1
            links_used += len(wl) + len(pl)
        if best is None or (-granted, links_used) < best[0]:
            best = ((-granted, links_used), (tuple(bits), links_used, granted, mixed))
    return best[1]


def _greedy_outputs(inst, cs, budget, seed):
    report = rs_heur(inst, cs, RsConfig(budget, seed))
    return report.solution.bits, report.f_alpha, report.f_beta, report.mixed_wavelength_grants


@pytest.mark.parametrize("seed", range(40))
def test_slot_table_greedy_equals_tuple_slot_reference(seed):
    inst = small_instance(seed)
    cs = build_conflict_sets(inst)
    for budget in (1, 5, 20):
        assert _greedy_outputs(inst, cs, budget, seed) == tuple_slot_rs_heur(inst, budget, seed)


def test_slot_table_greedy_equals_tuple_slot_reference_with_mixed_grants():
    inst = generate(synth_topology(12, 1.6, 3), 3, 30, 2, 5)
    cs = build_conflict_sets(inst)
    for budget in (1, 5, 20):
        got = _greedy_outputs(inst, cs, budget, 11)
        assert got == tuple_slot_rs_heur(inst, budget, 11)
        assert got[3] > 0


def _parallel(links: int) -> Network:
    return Network(node_count=2, links=((0, 1),) * links)


def _repeated_route_instance():
    # request 0 lists (link 0, wavelength 0) twice and (link 1, wavelength 0)
    # twice; only the first variable of each may be granted
    twice = Request(0, 0, 1, (Lightpath((0,), 0), Lightpath((0,), 0)), (Lightpath((1,), 0), Lightpath((1,), 0)))
    rival = Request(1, 0, 1, (Lightpath((0,), 0), Lightpath((2,), 1)), (Lightpath((1,), 0), Lightpath((1,), 1)))
    return Instance(_parallel(3), 2, (twice, rival))


def _repeated_link_walk_instance():
    # the working walk 0 -> 1 -> 0 -> 1 uses link 0 twice; a rival wants link 0
    net = Network(node_count=2, links=((0, 1), (1, 0), (0, 1), (0, 1)))
    walk = Request(0, 0, 1, (Lightpath((0, 1, 0), 0), Lightpath((0, 1, 0), 1)), (Lightpath((2,), 0),))
    rival = Request(1, 0, 1, (Lightpath((0,), 0), Lightpath((0,), 1)), (Lightpath((3,), 0), Lightpath((3,), 1)))
    return Instance(net, 2, (walk, rival))


def _wide_mask_instance():
    # 70 wavelengths, lightpaths only on 0, 63, 64 and 69, so the masks span
    # more than one 64-bit word; requests 3 and 4 can only be granted mixed
    both, high = (0, 63, 64, 69), (64, 69)
    requests = [
        Request(r, 0, 1, tuple(Lightpath((0,), lam) for lam in both), tuple(Lightpath((1,), lam) for lam in both))
        for r in range(3)
    ] + [
        Request(r, 0, 1, tuple(Lightpath((0,), lam) for lam in high), tuple(Lightpath((1,), lam) for lam in (0, 63)))
        for r in (3, 4)
    ]
    return Instance(_parallel(2), 70, tuple(requests))


def _no_disjoint_pair_instance():
    # request 0's routes all share link 0; request 1 is grantable
    shared = Request(0, 0, 1, (Lightpath((0,), 0),), (Lightpath((0,), 0), Lightpath((0,), 1)))
    free = Request(1, 0, 1, (Lightpath((0,), 1),), (Lightpath((1,), 0), Lightpath((1,), 1)))
    return Instance(_parallel(2), 2, (shared, free))


MASK_CASES = {
    "same route and wavelength twice": _repeated_route_instance,
    "walk repeating a link": _repeated_link_walk_instance,
    "masks wider than a word": _wide_mask_instance,
    "no link-disjoint pair": _no_disjoint_pair_instance,
    "empty blocks": empty_blocks_instance,
    "contention": lambda: generate(synth_topology(30, 1.5, 7), 2, 300, 2, 7),
}


@pytest.mark.parametrize("case", MASK_CASES)
def test_mask_greedy_equals_tuple_slot_reference(case):
    inst = MASK_CASES[case]()
    cs = build_conflict_sets(inst)
    for budget in (3,) if case == "contention" else (1, 5, 20):
        for seed in (0, 7):
            got = _greedy_outputs(inst, cs, budget, seed)
            assert got == tuple_slot_rs_heur(inst, budget, seed)
            assert verify_feasible(inst, cs, Solution.from_array(got[0])).feasible


def test_mask_greedy_grants_past_the_first_word():
    inst = _wide_mask_instance()
    report = rs_heur(inst, build_conflict_sets(inst), RsConfig(20, 0))
    granted = {inst.lightpath_at(i).wavelength for i in np.flatnonzero(report.solution.bits).tolist()}
    assert report.f_beta == 4 and report.mixed_wavelength_grants >= 1
    assert {64, 69} <= granted


def test_repeated_route_grants_its_first_variable():
    inst = _repeated_route_instance()
    bits = rs_heur(inst, build_conflict_sets(inst), RsConfig(20, 0)).solution.bits
    assert bits[1] == bits[3] == 0  # the second copies of request 0's routes
