"""Annealing solver for the quadratic model.

The search differs from textbook simulated annealing in three ways.  Every
iteration evaluates the energy change of all single-bit flips and accepts one
candidate chosen uniformly at random among the flips passing the Metropolis
test (parallel trial).  When an iteration accepts nothing, an escape offset
is added before the next test and grows with every further rejection,
resetting to zero on the next accepted flip (dynamic offset).  In tempering
mode, replicas run at fixed temperatures from a geometric ladder and
periodically exchange their states between adjacent rungs (replica
exchange); in single mode each replica cools geometrically over iterations
and never exchanges.  Both modes read one temperature table indexed by
(iteration, replica): the ladder repeated for every iteration, or the
cooling curve repeated for every replica.

Randomness is organised for reproducibility regardless of host parallelism:
every replica owns two substreams derived from (seed, replica), one for the
per-variable acceptance draws and one for the candidate choice, and each
exchange round draws from a stream derived from (seed, round).  Flip i is a
candidate iff u_i < exp(-max(0, delta_i - offset) / T), evaluated as
max(0, delta_i - offset) < log(u_i) * -T to avoid overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conflicts import ConflictSets
from .instance import Instance, Solution, SolveReport, make_report, objective_coefficients, request_counts
from .qubo import QuboModel, build_qubo


@dataclass(frozen=True)
class AnnealConfig:
    iterations: int
    replicas: int = 8
    t_min: float = 1.0
    t_max: float | None = None  # defaults to rho at solve time
    exchange_interval: int = 100
    seed: int = 0
    mode: str = "tempering"  # or "single"

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.replicas < 1:
            raise ValueError("at least one replica is required")
        if self.exchange_interval < 1:
            raise ValueError("exchange_interval must be positive")
        if self.t_min <= 0:
            raise ValueError("temperatures must be positive")
        if self.t_max is not None and self.t_max < self.t_min:
            raise ValueError("t_max must be at least t_min")
        if self.mode not in ("tempering", "single"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class AnnealResult:
    best_bits: tuple[int, ...]
    best_energy: int
    trace: tuple[tuple[int, int], ...]  # (iteration, best-so-far energy)
    accepted_flips: int
    offset_activations: int


def _replica_stream(seed: int, replica: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0, replica, purpose))))


def _exchange_stream(seed: int, round_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1, round_index))))


def anneal(qubo: QuboModel, config: AnnealConfig) -> AnnealResult:
    n = qubo.n
    if n == 0:
        return AnnealResult(
            best_bits=(),
            best_energy=qubo.constant,
            trace=((0, qubo.constant),),
            accepted_flips=0,
            offset_activations=0,
        )
    reps = config.replicas
    iters = config.iterations
    t_max = float(qubo.rho) if config.t_max is None else config.t_max
    t_max = max(t_max, config.t_min)
    increment = max(qubo.rho / 100.0, 1.0)

    indptr, indices, data = qubo.adjacency()
    # per variable: its neighbours with their couplings q and -q
    neighbours = np.split(indices, indptr[1:-1])
    couplings = np.split(data, indptr[1:-1])
    anti = np.split(-data, indptr[1:-1])

    state = np.zeros((reps, n), dtype=np.int8)
    # all-zero start: delta_i = linear_i; kept in float64 (exact for these
    # magnitudes) so the acceptance comparison avoids per-iteration upcasts
    delta = np.tile(np.array(qubo.linear, dtype=np.float64), (reps, 1))
    energy = np.full(reps, qubo.constant, dtype=np.int64)
    offset = np.zeros(reps)

    # temperature of each (iteration, replica), a read-only view
    tempering = config.mode == "tempering"
    temps = np.geomspace(t_max, config.t_min, reps if tempering else iters)
    table = np.broadcast_to(temps if tempering else temps[:, None], (iters, reps))

    flip_streams = [_replica_stream(config.seed, r, 0) for r in range(reps)]
    choice_streams = [_replica_stream(config.seed, r, 1) for r in range(reps)]

    # iterations per refill, sized so thresholds stay in a core's cache;
    # each stream is read in order, so the size does not change results
    block = max(8, min(256, 200_000 // max(n * reps, 1)))
    thresholds = np.empty((block, reps, n))  # iteration-major: contiguous slices
    choices = np.empty((block, reps))
    gate = np.empty((reps, n))
    candidates = np.empty((reps, n), dtype=bool)

    best_energy = int(qubo.constant)
    best_bits = state[0].copy()
    trace: list[tuple[int, int]] = [(0, best_energy)]
    accepted = 0
    activations = 0
    exchange_round = 0

    for t in range(iters):
        bt = t % block
        if bt == 0:
            cold = -table[t : t + block]
            with np.errstate(divide="ignore"):
                for r in range(reps):
                    u = flip_streams[r].random((block, n))[: len(cold)]
                    np.log(u, out=u)
                    np.multiply(u, cold[:, r, None], out=thresholds[: len(cold), r])
                    choices[:, r] = choice_streams[r].random(block)
        np.add(thresholds[bt], offset[:, None], out=gate)
        np.less(delta, gate, out=candidates)

        # replicas without a candidate raise their offset; the others take
        # candidate floor(choice * m) of their m candidates
        live = candidates.any(axis=1)
        active = live.nonzero()[0].tolist()
        if len(active) < reps:
            offset[~live] += increment
            activations += reps - len(active)
        for r in active:
            idx = candidates[r].nonzero()[0]
            m = len(idx)
            pick = int(idx[min(int(choices[bt, r] * m), m - 1)])
            row, bits = delta[r], state[r]
            step = row[pick]
            energy[r] += int(step)
            nb = neighbours[pick]
            # a neighbour's delta moves by +q if its bit equals the flipped
            # bit before the flip, else by -q
            up, down = (anti[pick], couplings[pick]) if bits[pick] else (couplings[pick], anti[pick])
            row[nb] += np.where(bits[nb], down, up)
            row[pick] = -step
            bits[pick] ^= 1
            offset[r] = 0.0
        accepted += len(active)

        if active:
            r_min = int(energy.argmin())
            if energy[r_min] < best_energy:
                best_energy = int(energy[r_min])
                best_bits = state[r_min].copy()
                trace.append((t + 1, best_energy))

        if tempering and reps > 1 and (t + 1) % config.exchange_interval == 0:
            draws = _exchange_stream(config.seed, exchange_round).random(reps - 1)
            exchange_round += 1
            for k in range(reps - 1):
                arg = (1.0 / temps[k] - 1.0 / temps[k + 1]) * float(energy[k] - energy[k + 1])
                if arg >= 0 or draws[k] < math.exp(arg):
                    state[[k, k + 1]] = state[[k + 1, k]]
                    delta[[k, k + 1]] = delta[[k + 1, k]]
                    energy[[k, k + 1]] = energy[[k + 1, k]]

        if __debug__ and (t + 1) % 1024 == 0:
            assert [qubo.energy(bits) for bits in state] == energy.tolist(), "incremental energy bookkeeping diverged"

    return AnnealResult(
        best_bits=tuple(int(b) for b in best_bits),
        best_energy=best_energy,
        trace=tuple(trace),
        accepted_flips=accepted,
        offset_activations=activations,
    )


def repair(instance: Instance, conflict_sets: ConflictSets, bits: list[int], alpha: int, beta: int) -> bool:
    """Greedily clear bits involved in violations, cheapest damage first.

    The damage of clearing a set bit is the objective increase it causes,
    the negated objective coefficient; ties go to the lower index.  Returns
    True when anything was cleared.  Terminates because every pass clears
    one set bit and the all-zero vector is feasible.
    """
    damage = -objective_coefficients(instance, alpha, beta)
    on = np.array(bits, dtype=bool)
    changed = False
    while True:
        rows = conflict_sets.hits(on)
        cw, cp = request_counts(instance, on)
        involved = ((cw != cp) | (cw > 1))[instance.request_of]
        involved[conflict_sets.first[rows]] = True
        involved[conflict_sets.second[rows]] = True
        # every violated constraint holds a set bit
        candidates = (involved & on).nonzero()[0]
        if not candidates.size:
            return changed
        target = int(candidates[damage[candidates].argmin()])
        bits[target] = 0
        on[target] = False
        changed = True


def decode_result(
    instance: Instance,
    conflict_sets: ConflictSets,
    alpha: int,
    beta: int,
    result: AnnealResult,
    iterations: int,
) -> SolveReport:
    """Turn the best annealed state into a verified report, repairing and
    flagging it when the raw decode is infeasible."""
    bits = list(result.best_bits)
    repaired = repair(instance, conflict_sets, bits, alpha, beta)
    solution = Solution.from_array(bits)
    return make_report(
        instance,
        conflict_sets,
        solution,
        alpha,
        beta,
        method="da",
        repaired=repaired,
        energy=result.best_energy,
        iterations=iterations,
    )


def solve_rwap_da(
    instance: Instance,
    conflict_sets: ConflictSets,
    alpha: int,
    beta: int,
    rho: int,
    config: AnnealConfig,
    qubo: QuboModel | None = None,
) -> SolveReport:
    """Build the quadratic model, anneal it, decode and verify the result.

    With penalty coefficients below the separation bound the best state can
    decode to an infeasible assignment; in that case a repair sweep clears
    violating bits and the report is flagged."""
    if qubo is None:
        qubo = build_qubo(instance, conflict_sets, alpha, beta, rho)
    result = anneal(qubo, config)
    return decode_result(instance, conflict_sets, alpha, beta, result, config.iterations)
