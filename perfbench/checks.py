"""Output checks and digests.

``slot_problems`` returns a list of problems, empty when the solution is
feasible.  It re-derives feasibility from the lightpaths alone, without the
conflict sets that ``verify_feasible`` relies on, so a defect shared by
conflict-set construction and verification still shows.
"""

from __future__ import annotations

import hashlib

from rwap.instance import WORKING

BITS_SHOWN = 64  # longer bit strings are printed as a hash


def slot_problems(instance, bits) -> list[str]:
    """Link-slot occupancy check: at most one working and as many protection
    lightpaths as working ones per request, the two link-disjoint, and no
    (link, wavelength) slot used twice."""
    problems: list[str] = []
    owner: dict[tuple[int, int], int] = {}
    chosen: dict[int, tuple[list, list]] = {}
    for i, b in enumerate(bits):
        if not b:
            continue
        request, kind, _ = instance.var_info(i)
        lightpath = instance.lightpath_at(i)
        chosen.setdefault(request, ([], []))[0 if kind == WORKING else 1].append(lightpath)
        for link in lightpath.links:
            slot = (link, lightpath.wavelength)
            if slot in owner:
                problems.append(f"slot {slot} used by variables {owner[slot]} and {i}")
            owner[slot] = i
    for request, (working, protection) in sorted(chosen.items()):
        if len(working) != len(protection) or len(working) > 1:
            problems.append(f"request {request}: {len(working)} working, {len(protection)} protection")
        elif set(working[0].links) & set(protection[0].links):
            problems.append(f"request {request}: working and protection share a link")
    return problems


def bits_digest(bits) -> str:
    text = "".join(str(int(b)) for b in bits)
    if len(text) <= BITS_SHOWN:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    data = text.encode("utf-8")
    return f"sha256:{hashlib.sha256(data).hexdigest()[:16]} bytes={len(data)}"
