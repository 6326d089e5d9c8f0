"""Core data model for protected routing-and-wavelength-assignment instances.

A problem instance is a directed multigraph, a wavelength count, and a set of
connection requests, each carrying precomputed alternative working and
protection lightpaths (a lightpath is a link path plus a wavelength index).
A solution assigns one bit per (request, lightpath) variable: working bits
``x`` and protection bits ``y`` under a fixed dense variable ordering.

All objective arithmetic is integer. Objects are immutable value types and
safe to share across threads.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

WORKING = 0
PROTECTION = 1


class InstanceError(ValueError):
    """Raised when instance data violates the format or its invariants."""


class DimensionError(ValueError):
    """Raised when a bit vector does not match the instance variable count."""


@dataclass(frozen=True)
class Network:
    """Directed multigraph with dense link ids 0..link_count-1."""

    node_count: int
    links: tuple[tuple[int, int], ...]  # link id -> (tail, head)

    def __post_init__(self) -> None:
        if self.node_count < 0:
            raise InstanceError("node_count must be non-negative")
        for e, (tail, head) in enumerate(self.links):
            if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
                raise InstanceError(f"link {e} endpoint out of range")
            if tail == head:
                raise InstanceError(f"link {e} is a self-loop")

    @property
    def link_count(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class Lightpath:
    """A link path plus the wavelength it occupies."""

    links: tuple[int, ...]
    wavelength: int

    @property
    def length(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class Request:
    id: int
    source: int
    destination: int
    working: tuple[Lightpath, ...]
    protection: tuple[Lightpath, ...]

    def lightpaths(self, kind: int) -> tuple[Lightpath, ...]:
        return self.working if kind == WORKING else self.protection


def _check_lightpath(net: Network, req: Request, lp: Lightpath, label: str, wavelengths: int) -> None:
    if lp.length < 1:
        raise InstanceError(f"{label}: lightpath must contain at least one link")
    if not (0 <= lp.wavelength < wavelengths):
        raise InstanceError(f"{label}: wavelength {lp.wavelength} out of range")
    at = req.source
    for e in lp.links:
        if not (0 <= e < net.link_count):
            raise InstanceError(f"{label}: unknown link id {e}")
        tail, head = net.links[e]
        if tail != at:
            raise InstanceError(f"{label}: link {e} does not continue the path")
        at = head
    if at != req.destination:
        raise InstanceError(f"{label}: path ends at node {at}, not the destination")


@dataclass(frozen=True)
class Instance:
    """Network, wavelength set and requests, with the dense variable order.

    Variables are ordered deterministically: requests by id, working
    lightpaths before protection lightpaths, local index ascending.
    """

    network: Network
    wavelength_count: int
    requests: tuple[Request, ...]
    _vars: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)
    _offsets: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.wavelength_count < 0:
            raise InstanceError("wavelength_count must be non-negative")
        order: list[tuple[int, int, int]] = []
        offsets: dict[tuple[int, int], int] = {}
        for pos, req in enumerate(self.requests):
            if req.id != pos:
                raise InstanceError(f"request ids must be dense and ordered; got {req.id} at {pos}")
            for kind in (WORKING, PROTECTION):
                offsets[(req.id, kind)] = len(order)
                for local, lp in enumerate(req.lightpaths(kind)):
                    label = f"request {req.id} {'working' if kind == WORKING else 'protection'}[{local}]"
                    _check_lightpath(self.network, req, lp, label, self.wavelength_count)
                    order.append((req.id, kind, local))
        object.__setattr__(self, "_vars", tuple(order))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def n_vars(self) -> int:
        return len(self._vars)

    def var_of(self, request_id: int, kind: int, local: int) -> int:
        base = self._offsets[(request_id, kind)]
        if not 0 <= local < len(self.requests[request_id].lightpaths(kind)):
            raise IndexError(f"no lightpath {local} for request {request_id} kind {kind}")
        return base + local

    def var_range(self, request_id: int, kind: int) -> range:
        """Dense indices of one request's lightpaths of one kind."""
        base = self._offsets[(request_id, kind)]
        return range(base, base + len(self.requests[request_id].lightpaths(kind)))

    def var_info(self, index: int) -> tuple[int, int, int]:
        """Map a dense variable index back to (request id, kind, local index)."""
        return self._vars[index]

    def lightpath_at(self, index: int) -> Lightpath:
        r, kind, local = self._vars[index]
        return self.requests[r].lightpaths(kind)[local]

    def lengths_array(self) -> np.ndarray:
        """Lightpath lengths per variable, int64."""
        return np.array([self.lightpath_at(i).length for i in range(self.n_vars)], dtype=np.int64)

    def working_mask(self) -> np.ndarray:
        """Boolean mask of working variables."""
        return np.array([kind == WORKING for (_, kind, _) in self._vars], dtype=bool)


@dataclass(frozen=True)
class Solution:
    """One bit per instance variable."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("solution bits must be 0 or 1")

    @classmethod
    def zeros(cls, n: int) -> "Solution":
        return cls(bits=(0,) * n)

    @classmethod
    def from_array(cls, arr: Iterable[int]) -> "Solution":
        return cls(bits=tuple(int(b) for b in arr))

    @classmethod
    def from_string(cls, s: str) -> "Solution":
        return cls(bits=tuple(int(c) for c in s))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.bits)


def _check_dims(instance: Instance, solution: Solution | Sequence[int]) -> Sequence[int]:
    bits = solution.bits if isinstance(solution, Solution) else solution
    if len(bits) != instance.n_vars:
        raise DimensionError(f"solution has {len(bits)} bits, instance has {instance.n_vars} variables")
    return bits


def f_alpha(instance: Instance, solution: Solution | Sequence[int]) -> int:
    """Total number of links used by the selected lightpaths."""
    bits = _check_dims(instance, solution)
    return sum(instance.lightpath_at(i).length for i, b in enumerate(bits) if b)


def f_beta(instance: Instance, solution: Solution | Sequence[int]) -> int:
    """Number of requests granted, i.e. the count of selected working bits."""
    bits = _check_dims(instance, solution)
    return sum(1 for i, b in enumerate(bits) if b and instance.var_info(i)[1] == WORKING)


def objective_coefficients(instance: Instance, alpha: int, beta: int) -> list[int]:
    """Per-variable coefficient of alpha * links_used - beta * requests_granted:
    alpha * length, less beta for a working variable."""
    coefficients = []
    for req in instance.requests:
        coefficients += [alpha * lp.length - beta for lp in req.working]
        coefficients += [alpha * lp.length for lp in req.protection]
    return coefficients


def ip_objective(instance: Instance, solution: Solution | Sequence[int], alpha: int, beta: int) -> int:
    """Weighted objective alpha * links_used - beta * requests_granted."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative integers")
    return alpha * f_alpha(instance, solution) - beta * f_beta(instance, solution)


@dataclass(frozen=True)
class Violation:
    """A violated constraint, tagged with its class.

    kind is one of eq2 (working/protection count mismatch), eq3 (more than
    one working lightpath), or c1..c4 (a conflict tuple with both bits set);
    detail is the request id for eq2/eq3 and the conflict tuple otherwise.
    """

    kind: str
    detail: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    violations: tuple[Violation, ...]


def request_counts(instance: Instance, bits: Sequence[int]) -> list[tuple[int, int]]:
    """Selected (working, protection) lightpath counts per request."""
    counts = []
    for req in instance.requests:
        w = instance._offsets[(req.id, WORKING)]
        p = w + len(req.working)  # protection follows working
        counts.append((sum(bits[w:p]), sum(bits[p : p + len(req.protection)])))
    return counts


def verify_feasible(instance: Instance, conflict_sets, solution: Solution | Sequence[int]) -> Verdict:
    """Check a bit vector against all model constraints.

    Returns every violated constraint: per-request working/protection count
    equality, the at-most-one-working rule, and all four conflict classes.
    """
    bits = _check_dims(instance, solution)
    violations: list[Violation] = []
    for r, (cw, cp) in enumerate(request_counts(instance, bits)):
        if cw != cp:
            violations.append(Violation("eq2", (r,)))
        if cw > 1:
            violations.append(Violation("eq3", (r,)))
    for row in conflict_sets.hits(bits).tolist():
        violations.append(Violation(f"c{conflict_sets.classes[row]}", conflict_sets.conflict_tuple(row)))
    return Verdict(feasible=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class SolveReport:
    """A decoded solution with its evaluation, as produced by every solver."""

    method: str
    solution: Solution
    granted: tuple[int, ...]
    f_alpha: int
    f_beta: int
    objective: int
    alpha: int
    beta: int
    feasible: bool
    repaired: bool = False
    optimal: bool | None = None
    bound: int | None = None
    energy: int | None = None
    iterations: int | None = None
    permutations: int | None = None
    nodes: int | None = None
    mixed_wavelength_grants: int | None = None


def make_report(
    instance: Instance,
    conflict_sets,
    solution: Solution,
    alpha: int,
    beta: int,
    method: str,
    **extra,
) -> SolveReport:
    """Evaluate a solution and assemble the common report fields."""
    verdict = verify_feasible(instance, conflict_sets, solution)
    granted = tuple(r for r, (cw, _) in enumerate(request_counts(instance, solution.bits)) if cw)
    return SolveReport(
        method=method,
        solution=solution,
        granted=granted,
        f_alpha=f_alpha(instance, solution),
        f_beta=f_beta(instance, solution),
        objective=ip_objective(instance, solution, alpha, beta),
        alpha=alpha,
        beta=beta,
        feasible=verdict.feasible,
        **extra,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def instance_to_dict(instance: Instance) -> dict:
    return {
        "nodes": instance.network.node_count,
        "links": [[t, h] for (t, h) in instance.network.links],
        "wavelengths": instance.wavelength_count,
        "requests": [
            {
                "source": req.source,
                "dest": req.destination,
                "working": [{"links": list(lp.links), "wavelength": lp.wavelength} for lp in req.working],
                "protection": [{"links": list(lp.links), "wavelength": lp.wavelength} for lp in req.protection],
            }
            for req in instance.requests
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        net = Network(
            node_count=int(data["nodes"]),
            links=tuple((int(t), int(h)) for t, h in data["links"]),
        )
        requests = []
        for rid, rd in enumerate(data["requests"]):
            requests.append(
                Request(
                    id=rid,
                    source=int(rd["source"]),
                    destination=int(rd["dest"]),
                    working=tuple(
                        Lightpath(links=tuple(int(e) for e in lp["links"]), wavelength=int(lp["wavelength"]))
                        for lp in rd["working"]
                    ),
                    protection=tuple(
                        Lightpath(links=tuple(int(e) for e in lp["links"]), wavelength=int(lp["wavelength"]))
                        for lp in rd["protection"]
                    ),
                )
            )
        return Instance(network=net, wavelength_count=int(data["wavelengths"]), requests=tuple(requests))
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def write_atomic(destination: str, text: str) -> None:
    """Write text to destination through a temp file and a rename, so a
    failed write leaves no partial file behind."""
    directory = os.path.dirname(os.path.abspath(destination))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1)
        fh.write("\n")


def report_to_dict(report: SolveReport) -> dict:
    out = {
        "bits": report.solution.to_string(),
        "granted": list(report.granted),
        "objective": report.objective,
        "f_alpha": report.f_alpha,
        "f_beta": report.f_beta,
        "feasible": report.feasible,
        "method": report.method,
        "alpha": report.alpha,
        "beta": report.beta,
    }
    for key in ("repaired", "optimal", "bound", "energy", "iterations", "permutations", "nodes"):
        val = getattr(report, key)
        if val not in (None, False):
            out[key] = val
    return out
