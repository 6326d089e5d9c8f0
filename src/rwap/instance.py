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
import secrets
from dataclasses import MISSING, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

WORKING = 0
PROTECTION = 1


class InstanceError(ValueError):
    """Raised when instance data violates the format or its invariants."""


class MalformedDocument(InstanceError):
    """Raised when a document lacks a field or holds a value of the wrong type."""


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


def _lightpath_error(req: Request, kind: int, local: int, problem: str) -> InstanceError:
    return InstanceError(f"request {req.id} {'working' if kind == WORKING else 'protection'}[{local}]: {problem}")


def _check_lightpath(net: Network, req: Request, kind: int, local: int, lp: Lightpath, wavelengths: int) -> None:
    if lp.length < 1:
        raise _lightpath_error(req, kind, local, "lightpath must contain at least one link")
    if not (0 <= lp.wavelength < wavelengths):
        raise _lightpath_error(req, kind, local, f"wavelength {lp.wavelength} out of range")
    at = req.source
    for e in lp.links:
        if not (0 <= e < net.link_count):
            raise _lightpath_error(req, kind, local, f"unknown link id {e}")
        tail, head = net.links[e]
        if tail != at:
            raise _lightpath_error(req, kind, local, f"link {e} does not continue the path")
        at = head
    if at != req.destination:
        raise _lightpath_error(req, kind, local, f"path ends at node {at}, not the destination")


@dataclass(frozen=True)
class Instance:
    """Network, wavelength set and requests, with the dense variable order.

    Variables are ordered deterministically: requests by id, working
    lightpaths before protection lightpaths, local index ascending.  The
    order is stored once, as read-only arrays: ``lengths`` (int64),
    ``working`` (bool) and ``request_of`` (int64) per variable, and
    ``bounds`` (int64), the 2R + 1 block starts: request r's working block
    starts at ``bounds[2r]``, its protection block at ``bounds[2r + 1]``,
    and ``bounds[-1]`` is ``n_vars``.
    """

    network: Network
    wavelength_count: int
    requests: tuple[Request, ...]
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    working: np.ndarray = field(init=False, repr=False, compare=False)
    request_of: np.ndarray = field(init=False, repr=False, compare=False)
    bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.wavelength_count < 0:
            raise InstanceError("wavelength_count must be non-negative")
        lengths: list[int] = []
        working: list[bool] = []
        request_of: list[int] = []
        bounds = [0]
        for pos, req in enumerate(self.requests):
            if req.id != pos:
                raise InstanceError(f"request ids must be dense and ordered; got {req.id} at {pos}")
            for kind in (WORKING, PROTECTION):
                for local, lp in enumerate(req.lightpaths(kind)):
                    _check_lightpath(self.network, req, kind, local, lp, self.wavelength_count)
                    lengths.append(lp.length)
                    working.append(kind == WORKING)
                    request_of.append(pos)
                bounds.append(len(lengths))
        columns = {"lengths": lengths, "working": working, "request_of": request_of, "bounds": bounds}
        for name, values in columns.items():
            arr = np.array(values, dtype=bool if name == "working" else np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return len(self.lengths)

    def var_of(self, request_id: int, kind: int, local: int) -> int:
        block = self.var_range(request_id, kind)
        if not 0 <= local < len(block):
            raise IndexError(f"no lightpath {local} for request {request_id} kind {kind}")
        return block[local]

    def var_range(self, request_id: int, kind: int) -> range:
        """Dense indices of one request's lightpaths of one kind."""
        if not (0 <= request_id < len(self.requests) and kind in (WORKING, PROTECTION)):
            raise KeyError(f"no variable block for request {request_id} kind {kind}")
        block = 2 * request_id + kind
        return range(*self.bounds[block : block + 2].tolist())

    def var_info(self, index: int) -> tuple[int, int, int]:
        """Map a dense variable index back to (request id, kind, local index)."""
        index = range(self.n_vars)[index]  # IndexError when out of range, as for a tuple
        r = int(self.request_of[index])
        start, middle = self.bounds[2 * r : 2 * r + 2].tolist()
        return (r, WORKING, index - start) if index < middle else (r, PROTECTION, index - middle)

    def local_of(self, index: np.ndarray) -> np.ndarray:
        """Local lightpath index of each variable in index."""
        return index - self.bounds[2 * self.request_of[index] + ~self.working[index]]

    def lightpath_at(self, index: int) -> Lightpath:
        r, kind, local = self.var_info(index)
        return self.requests[r].lightpaths(kind)[local]


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

    def __len__(self) -> int:
        return len(self.bits)


def _selected(instance: Instance, solution: Solution | Sequence[int]) -> np.ndarray:
    """The solution's bits as a bool array, checked against the variable count."""
    bits = solution.bits if isinstance(solution, Solution) else solution
    if len(bits) != instance.n_vars:
        raise DimensionError(f"solution has {len(bits)} bits, instance has {instance.n_vars} variables")
    return np.asarray(bits, dtype=bool)


def f_alpha(instance: Instance, solution: Solution | Sequence[int]) -> int:
    """Total number of links used by the selected lightpaths."""
    return int(instance.lengths @ _selected(instance, solution))


def f_beta(instance: Instance, solution: Solution | Sequence[int]) -> int:
    """Number of requests granted, i.e. the count of selected working bits."""
    return int(np.count_nonzero(instance.working & _selected(instance, solution)))


def objective_coefficients(instance: Instance, alpha: int, beta: int) -> np.ndarray:
    """Per-variable coefficient of alpha * links_used - beta * requests_granted:
    alpha * length, less beta for a working variable (int64)."""
    return alpha * instance.lengths - np.where(instance.working, beta, 0)


def _weighted(links: int, granted: int, alpha: int, beta: int) -> int:
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative integers")
    return alpha * links - beta * granted


def ip_objective(instance: Instance, solution: Solution | Sequence[int], alpha: int, beta: int) -> int:
    """Weighted objective alpha * links_used - beta * requests_granted."""
    return _weighted(f_alpha(instance, solution), f_beta(instance, solution), alpha, beta)


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


def check_built_for(instance: Instance, *structures) -> None:
    """Raise ValueError for conflict sets or strong groups (the structures
    with a ``pbar``) built for another instance; None is skipped."""
    for s in structures:
        if s is not None and s.instance is not instance and s.instance != instance:
            what = "strong groups cover" if hasattr(s, "pbar") else "conflict sets were built for"
            raise ValueError(f"{what} another instance")


def penalty_terms(instance: Instance, conflict_sets, bits) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The constraint terms of one bit vector, or of each row of a stack of
    them (last axis): per request the selected working count cw and the two
    request penalties, (cw - cp)**2 for eq 2 and cw * (cw - 1) for eq 3, as
    int64; per conflict row whether both of its bits are set.  A vector is
    feasible exactly when every term is zero.  Conflict sets built for
    another instance are refused."""
    check_built_for(instance, conflict_sets)
    return penalty_terms_unchecked(instance, conflict_sets, bits)


def penalty_terms_unchecked(instance: Instance, conflict_sets, bits) -> tuple[np.ndarray, ...]:
    """``penalty_terms`` for a caller that has run ``check_built_for`` once."""
    bits = np.asarray(bits)
    at = np.zeros(bits.shape[:-1] + (instance.n_vars + 1,), dtype=np.int64)
    np.add.accumulate(bits, -1, np.int64, at[..., 1:])
    # a cumsum difference, not np.add.reduceat, which is wrong on empty blocks
    at = at.take(instance.bounds, -1)
    counts = at[..., 1:] - at[..., :-1]
    cw, cp = counts[..., 0::2], counts[..., 1::2]
    # gathering along the first axis keeps the one-vector gather as fast as bits[first]
    hit = (bits.T[conflict_sets.first] & bits.T[conflict_sets.second]).T
    return cw, (cw - cp) ** 2, cw * (cw - 1), hit


def _violations(instance: Instance, conflict_sets, on: np.ndarray) -> tuple[list[Violation], np.ndarray]:
    """The violated constraints of a bool bit vector, and its working counts."""
    cw, eq2, eq3, hit = penalty_terms(instance, conflict_sets, on)
    violations = []
    for r in (eq2 + eq3).nonzero()[0].tolist():
        violations += [Violation(kind, (r,)) for kind, bad in (("eq2", eq2[r]), ("eq3", eq3[r])) if bad]
    rows = hit.nonzero()[0]
    if rows.size:
        classes = conflict_sets.classes[rows].tolist()
        violations += [Violation(f"c{c}", t) for c, t in zip(classes, conflict_sets.conflict_tuples(rows))]
    return violations, cw


def verify_feasible(instance: Instance, conflict_sets, solution: Solution | Sequence[int]) -> Verdict:
    """Check a bit vector against all model constraints.

    Returns every violated constraint: per-request working/protection count
    equality, the at-most-one-working rule, and all four conflict classes.
    """
    violations, _ = _violations(instance, conflict_sets, _selected(instance, solution))
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
    on = _selected(instance, solution)
    violations, cw = _violations(instance, conflict_sets, on)
    links, granted = int(instance.lengths @ on), int(cw.sum())
    return SolveReport(
        method=method,
        solution=solution,
        granted=tuple(cw.nonzero()[0].tolist()),
        f_alpha=links,
        f_beta=granted,
        objective=_weighted(links, granted, alpha, beta),
        alpha=alpha,
        beta=beta,
        feasible=not violations,
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


def _int(value) -> int:
    """An integer field of a document: a JSON integer, not a bool, float or string."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def network_from_dict(data: dict) -> Network:
    """The {nodes, links} part of an instance document."""
    try:
        nodes, links = _int(data["nodes"]), tuple((_int(t), _int(h)) for t, h in data["links"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"malformed network document: {exc}") from exc
    return Network(node_count=nodes, links=links)


def _lightpaths(docs: Iterable[dict]) -> tuple[Lightpath, ...]:
    return tuple(Lightpath(links=tuple(map(_int, lp["links"])), wavelength=_int(lp["wavelength"])) for lp in docs)


def instance_from_dict(data: dict) -> Instance:
    net = network_from_dict(data)
    try:
        requests = tuple(
            Request(
                id=rid,
                source=_int(rd["source"]),
                destination=_int(rd["dest"]),
                working=_lightpaths(rd["working"]),
                protection=_lightpaths(rd["protection"]),
            )
            for rid, rd in enumerate(data["requests"])
        )
        wavelengths = _int(data["wavelengths"])
    except (KeyError, TypeError) as exc:
        raise MalformedDocument(f"malformed instance document: {exc}") from exc
    return Instance(network=net, wavelength_count=wavelengths, requests=requests)


def read_json(path: str):
    """The JSON document at path; a text that is not UTF-8 or not JSON names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def load_instance(path: str) -> Instance:
    """The instance document at path; a malformed one ends its message with the path."""
    try:
        return instance_from_dict(read_json(path))
    except MalformedDocument as exc:
        raise MalformedDocument(f"{exc}, in {path}") from exc


def write_atomic(destination: str, text: str | bytes) -> None:
    """Write text, or bytes as they are, to destination through a temp file
    and a rename, so a failed write leaves no partial file behind.  The file
    gets the mode a plain ``open`` gives a new file: 0o666 less the umask."""
    directory, name = os.path.split(os.path.abspath(destination))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file the caller asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, destination) from None
    try:
        with os.fdopen(fd, "wb") if isinstance(text, bytes) else os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, destination)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_instance(instance: Instance, path: str) -> None:
    write_atomic(path, json.dumps(instance_to_dict(instance), indent=1) + "\n")


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
    for f in fields(SolveReport):
        if f.default is not MISSING and (val := getattr(report, f.name)) is not None:
            out[f.name] = val
    return out
