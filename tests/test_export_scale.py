"""Exported bytes and conflict arrays of the criterion-12 instance (6000
variables, 435,705 conflict pairs), pinned in full so that a change to the
conflict closure, the model layout or the formatting path cannot alter a
large build unnoticed."""

import hashlib

import numpy as np

from rwap.conflicts import build_conflict_sets
from rwap.gen import generate, synth_topology
from rwap.ip import build_ip, lp_text
from rwap.qubo import build_qubo, qubo_text
from rwap.weights import beta_base


def test_criterion12_export_digests():
    inst = generate(synth_topology(22, 1.4, 7), 15, 100, 2, 7)
    w = beta_base(inst)
    conflicts = build_conflict_sets(inst)
    texts = (
        lp_text(build_ip(inst, conflicts, w.alpha, w.beta, "base")),
        lp_text(build_ip(inst, conflicts.strong, w.alpha, w.beta, "strong")),
        qubo_text(build_qubo(inst, conflicts, w.alpha, w.beta, w.beta + 100)),
    )
    assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == [
        "9f8136f57853352be046973879cd64057e08644864f28ede6c41d5e809474f92",
        "9753a471581b6befd57d2bb6b1a940ed85fb45ab53b3341fa77ca9c4fff9b550",
        "eaf8009489440f9b95267a186f237da12ea49fc3f88a3298c26ca1bb7f08b933",
    ]


def test_criterion12_conflict_arrays_digest():
    cs = build_conflict_sets(generate(synth_topology(22, 1.4, 7), 15, 100, 2, 7))
    assert (cs.first.dtype, cs.second.dtype, cs.classes.dtype) == (np.int64, np.int64, np.int8)
    assert cs.class_counts == [len(cs.c1), len(cs.c2), len(cs.c3), len(cs.c4)] and cs.pair_count == 435_705
    digest = hashlib.sha256(cs.first.tobytes() + cs.second.tobytes() + cs.classes.tobytes()).hexdigest()
    assert digest == "868b049067fe6918f2f6d50d9d6746e5476be5e558b3dce9ed606e1bac8cde55"
