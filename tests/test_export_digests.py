"""Golden digests of the LP and QUBO exports.

The digests pin the exported bytes, row names and row order included, so a
change to how the models are built cannot alter an export unnoticed.
"""

import hashlib

import pytest

from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.ip import build_ip, lp_text
from rwap.qubo import build_qubo, qubo_text
from rwap.weights import beta_base

from helpers import figure1_instance, small_instance

# (base LP, strong LP, QUBO at rho = beta + 100) sha256 per instance
DIGESTS = {
    "figure1": (
        "52bf1073e2414f2e7616f3845e982b6e4287a3f22a09148c2dd3cde84e9225bb",
        "146579e1cf74375b281743b831e5face4b14e1aa0df64f13c1dde9c7688d8f8f",
        "582cc155c249d1b7159c99b188ba49266b7db16aa3407ac7373745e3599a6c62",
    ),
    4: (
        "fb036d9473bb1b29b425f472d79c68e8fefdec0e3cb700c41a6360179c4bdfcf",
        "0d2c71a43dcfa0edd1e58c56e87b046babe5b4ae1c42667fd8dbd02e2697b408",
        "688dd5c89cf81c6dcacc350f7e4d1635b10448e2b893510f6b65bcb8d8e8be29",
    ),
    6: (
        "37e820ddc419aed61edc6470239b26b45d92ef4e52b47edfaeac6a2cb9c37cf9",
        "c50e723050401789f48ab29481334580220a5e3b2e96aa990feb4cda1c46e853",
        "371eba7ad4c6368c284c02cd3918296e4762661e13ae3ee2c2c3594ff8c967eb",
    ),
    8: (
        "a4aa774d3697fee1b2fd386cd6effbbd3fb5477f3ad68399c659c52e0b59c6f0",
        "cf13af8178bffb23bf04d792b2811588ce42834558c8fbed8dccf9a101c204c7",
        "672c8303a34e593fdccfdb1d57f0c2deb37f1a74adb5ceb54f17f9f8d452e0f3",
    ),
    16: (
        "8c5cca4552f0363db6f941cbbfdeb8e1e4447dc221bc8e66f132507c3d5af3ff",
        "2236d25756d1c34ee6f7fc681945043fb81b369ca492ad9383b206965768884b",
        "716f281834e3283bcecf3d225b0935fde073c955a9a7cbdb805db38325deb100",
    ),
    17: (
        "959f5dccf775ef30903f5094f084a17236b5f988667edf6f925bf900f61b318a",
        "11165b545cebb9976c39ba19dbbb1407adc62e993d4c85354f4f2d6f7d01d7a1",
        "1cb0a8da14fc9b3a201ce77887281dc2f11a25fed5e89e6309a7c3f9cca481b4",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", list(DIGESTS))
def test_export_digests(key):
    inst = figure1_instance() if key == "figure1" else small_instance(key)
    w = beta_base(inst)
    conflicts = build_conflict_sets(inst)
    base = lp_text(build_ip(inst, conflicts, w.alpha, w.beta, "base"))
    strong = lp_text(build_ip(inst, build_strong_groups(inst), w.alpha, w.beta, "strong"))
    qubo = qubo_text(build_qubo(inst, conflicts, w.alpha, w.beta, w.beta + 100))
    assert (_sha(base), _sha(strong), _sha(qubo)) == DIGESTS[key]
