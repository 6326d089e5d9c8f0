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

Replicas meet only at exchanges and at the energy check every 1024
iterations.  The loop therefore walks segments, each ending at the next of
these, at a length cap or at the last iteration.  Inside a segment each
replica runs alone on its own streams and temperature column, on one of two
kernels.  A model of up to ``_LIST_MAX_VARS`` variables runs on Python lists
(``_stretch``), where numpy's per-call cost would dominate arrays this
short: it draws, logs and scales one gate per variable and iteration, keeps
its state in lists for the whole run, and skips the scan of an iteration
whose smallest delta is at least the largest gate plus the offset, since no
flip can pass.  A larger one runs on numpy rows (``_stretch_np``), reads a
flip's neighbours as a slice of the adjacency and draws its candidates
sparsely (``_candidates``).  Each replica records its new lows, and merging
them in (iteration, energy, replica) order gives the best state and trace
that a per-iteration minimum over the replicas gives.

Randomness is organised for reproducibility regardless of host parallelism:
every replica owns two substreams derived from (seed, replica), one for the
acceptance draws and one for the candidate choice, and each exchange round
draws from a stream derived from (seed, round).  Every stream is read in
order, so a kernel's results depend neither on where segments end nor on
the thread count.  Flip i is a candidate with probability p_i = min(1,
exp(-(delta_i - offset) / T)), independently of the others.  The list
kernel draws u_i for every flip and tests max(0, delta_i - offset) <
log(u_i) * -T, which avoids overflow.  The numpy kernel gives the set the
same law from fewer draws: a uniform each only for the flips with p_i >
1/n, and a binomial number of thinned proposals for the rest.  The two
kernels therefore give different results for the same model and seed; the
candidate among the set is picked by the choice stream in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .conflicts import ConflictSets
from .instance import Instance, Solution, SolveReport, check_built_for, make_report, objective_coefficients
from .instance import penalty_terms_unchecked
from .qubo import QuboModel, build_qubo

# Models of at most this many variables anneal on the list kernel, larger
# ones on the numpy kernel; both run one replica at a time.  Measured per
# replica-iteration of a whole anneal on generated models (8 replicas,
# tempering, rho = beta + 100, 2-core x86-64 VM), the list kernel took
# 19-27% of the numpy kernel's time at 24-40 variables and 32% at 48 (best
# of 5, 2000 and 4000 iterations), then 43% at 64, 74% at 128, and the two
# were even at 192 (best of 3, 2000 iterations).  Before the numpy kernel
# drew its candidates sparsely they were even at 48.  The cutoff stays: the
# benchmark's models have at most 14 variables or at least 2388.
_LIST_MAX_VARS = 32


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
        if not 0 < self.t_min < math.inf:  # also refuses NaN
            raise ValueError("temperatures must be positive and finite")
        if self.t_max is not None and not self.t_min <= self.t_max < math.inf:
            raise ValueError("t_max must be finite and at least t_min")
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
        return AnnealResult((), qubo.constant, ((0, qubo.constant),), 0, 0)
    reps = config.replicas
    iters = config.iterations
    t_max = float(qubo.rho) if config.t_max is None else config.t_max
    t_max = max(t_max, config.t_min)
    increment = max(qubo.rho / 100.0, 1.0)

    indptr, indices, data = qubo.adjacency()
    state = np.zeros((reps, n), dtype=np.int8)
    # all-zero start: delta_i = linear_i; kept in float64 (exact for these
    # magnitudes) so the acceptance comparison avoids per-iteration upcasts
    delta = np.tile(np.array(qubo.linear, dtype=np.float64), (reps, 1))
    on_lists = n <= _LIST_MAX_VARS
    if on_lists:
        # each replica's state lives in Python lists for the whole run;
        # per variable: its (neighbour, coupling) pairs as Python numbers
        state, delta = state.tolist(), delta.tolist()
        cols, qs = indices.tolist(), data.astype(np.float64).tolist()
        links = [list(zip(cols[a:b], qs[a:b])) for a, b in pairwise(indptr.tolist())]
    else:
        # variable i's neighbours and couplings q are the slice
        # indptr[i]:indptr[i + 1] of indices and data; the last holds -q
        links = (indptr.tolist(), indices, data, -data)
    energy = [int(qubo.constant)] * reps
    offset = [0.0] * reps

    # temperature of each (iteration, replica), a read-only view
    tempering = config.mode == "tempering"
    temps = np.geomspace(t_max, config.t_min, reps if tempering else iters)
    table = np.broadcast_to(temps if tempering else temps[:, None], (iters, reps))
    exchanging = tempering and reps > 1

    flip_streams = [_replica_stream(config.seed, r, 0) for r in range(reps)]
    choice_streams = [_replica_stream(config.seed, r, 1) for r in range(reps)]
    kernel = _stretch if on_lists else _stretch_np

    # the longest segment, sized so a replica's gate rows on the list path
    # stay in a core's cache; each stream is read in order, so the cap does
    # not change results
    cap = max(8, min(256, 200_000 // max(n * reps, 1)))

    best_energy = int(qubo.constant)
    best_bits = state[0].copy()
    trace: list[tuple[int, int]] = [(0, best_energy)]
    accepted = 0
    activations = 0
    exchange_round = 0

    t0 = 0
    while t0 < iters:
        # a segment runs to the next exchange, energy check, the cap or the end
        t1 = min(t0 + cap, (t0 // 1024 + 1) * 1024, iters)
        if exchanging:
            t1 = min(t1, (t0 // config.exchange_interval + 1) * config.exchange_interval)

        # each replica runs its stretch alone on its own streams and its
        # temperature column; the new lows merge in (iteration, energy,
        # replica) order, as a per-iteration minimum over the replicas would
        # have taken them
        lows: list[tuple[int, int, int, list[int] | np.ndarray]] = []
        with np.errstate(divide="ignore"):  # only log(0) divides by zero; -inf * -T is a gate all pass
            for r in range(reps):
                draws = choice_streams[r].random(t1 - t0).tolist()
                head = (delta[r], state[r], links, flip_streams[r], table[t0:t1, r], draws)
                tail = (energy[r], offset[r], increment, best_energy, t0, r, lows)
                energy[r], offset[r], flips = kernel(*head, *tail)
                accepted += flips
                activations += t1 - t0 - flips
        for t, e, r, bits in sorted(lows):  # (t, r) is unique, so bits are never compared
            if e < best_energy:
                best_energy, best_bits = e, bits
                trace.append((t + 1, e))

        if exchanging and t1 % config.exchange_interval == 0:
            draws = _exchange_stream(config.seed, exchange_round).random(reps - 1)
            exchange_round += 1
            for k in range(reps - 1):
                arg = (1.0 / temps[k] - 1.0 / temps[k + 1]) * float(energy[k] - energy[k + 1])
                if arg >= 0 or draws[k] < math.exp(arg):
                    # swaps two list items or two numpy rows (numpy copies an overlapping source first)
                    for a in (state, delta, energy):
                        a[k : k + 2] = a[k : k + 2][::-1]

        if __debug__ and t1 % 1024 == 0:
            assert [qubo.energy(bits) for bits in state] == energy, "incremental energy bookkeeping diverged"
        t0 = t1

    return AnnealResult(tuple(int(b) for b in best_bits), best_energy, tuple(trace), accepted, activations)


def _stretch(row, bits, links, rng, temps, draws, energy, off, increment, low, t0, r, lows):
    """Run replica r alone from iteration t0, one iteration per temperature
    in ``temps`` (a numpy column).

    ``row`` (the flip deltas) and ``bits`` are Python lists, updated in
    place; ``rng`` is the replica's flip stream and ``draws`` its choice
    draws.  Each energy below ``low`` and below every earlier one is
    appended to ``lows`` as (iteration, energy, r, bits).  Returns the
    energy, the offset and the number of flips.

    Every iteration draws one gate per variable, -T log u, and flip i passes
    when ``row[i] < gate + off``.  An iteration whose smallest delta is at
    least its gate row's largest gate ``top`` plus ``off`` raises the offset
    without a scan.  That is exact: rounding is monotone, so ``fl(top +
    off)`` is at least every ``fl(g[i] + off)``; a gate is never NaN, and
    ``top + 0.0 == top``.
    """
    gates = rng.random((len(draws), len(row)))
    np.log(gates, out=gates)
    gates *= -temps[:, None]
    span = range(len(row))
    flips = 0
    floor = min(row)
    tops = gates.max(axis=1).tolist()
    for t, (g, top, c) in enumerate(zip(gates.tolist(), tops, draws), t0):
        if floor >= top + off:
            off += increment
            continue
        if off:
            cand = [i for i in span if row[i] < g[i] + off]
        else:
            cand = [i for i in span if row[i] < g[i]]
        if not cand:
            off += increment
            continue
        m = len(cand)
        pick = cand[min(int(c * m), m - 1)]
        step = row[pick]
        energy += int(step)
        b = bits[pick]
        # a neighbour's delta moves by +q if its bit equals the flipped bit
        # before the flip, else by -q
        for j, q in links[pick]:
            if bits[j] == b:
                row[j] += q
            else:
                row[j] -= q
        row[pick] = -step
        bits[pick] = b ^ 1
        floor = min(row)
        off = 0.0
        flips += 1
        if energy < low:
            low = energy
            lows.append((t, energy, r, bits.copy()))
    return energy, off, flips


def _stretch_np(row, bits, links, rng, temps, draws, energy, off, increment, low, t0, r, lows):
    """The numpy twin of ``_stretch``, with the same arguments: ``row`` and
    ``bits`` are numpy rows, and ``links`` is (indptr as a list, indices,
    data, -data).  Each iteration takes its candidates from ``_candidates``,
    which gives them the law of ``_stretch``'s gate test without a draw per
    variable."""
    starts, indices, data, anti = links
    flips = 0
    for t, (temp, c) in enumerate(zip(temps.tolist(), draws), t0):
        cand = _candidates(row, off, temp, rng)
        m = len(cand)
        if not m:
            off += increment
            continue
        pick = int(cand[min(int(c * m), m - 1)])
        step = row[pick]
        energy += int(step)
        lo, hi = starts[pick], starts[pick + 1]
        nb = indices[lo:hi]
        # a neighbour's delta moves by +q if its bit equals the flipped bit
        # before the flip, else by -q
        up, down = (anti[lo:hi], data[lo:hi]) if bits[pick] else (data[lo:hi], anti[lo:hi])
        row[nb] += np.where(bits[nb], down, up)
        row[pick] = -step
        bits[pick] ^= 1
        off = 0.0
        flips += 1
        if energy < low:
            low = energy
            lows.append((t, energy, r, bits.copy()))
    return energy, off, flips


def _candidates(row, off, temp, rng):
    """The flips that pass one iteration's Metropolis test, drawn from
    ``rng`` and returned in ascending order: flip i passes independently
    with probability p_i = min(1, exp(-(row[i] - off) / temp)).

    Take L = ln n, so that p_i <= 1/n exactly when row[i] - off >= temp * L.
    The near flips, below that reach, draw one uniform each and take the
    gate test of ``_stretch``.  Each of the K tail flips is proposed with
    probability 1/n, as k ~ Binomial(K, 1/n) distinct tail flips drawn
    uniformly, and a proposal is kept with probability n p_i.  So the set
    has the law of one gate per flip, while a cold rung's tail of thousands
    costs about one proposal.
    """
    n = len(row)
    log_n = math.log(n)
    reach = off + temp * log_n
    near = (row < reach).nonzero()[0]
    gates = rng.random(len(near))
    np.log(gates, out=gates)
    gates *= -temp
    if off:  # gates are never -0.0 or NaN, so adding a zero offset is a no-op
        gates += off
    cand = near[row[near] < gates]
    k = rng.binomial(n - len(near), 1 / n)
    if not k:
        return cand
    proposed: set[int] = set()
    while len(proposed) < k:  # uniform over the tail, without replacement
        i = int(rng.integers(n))
        if row[i] >= reach:
            proposed.add(i)
    kept = [i for i in sorted(proposed) if rng.random() < math.exp(log_n - (row[i] - off) / temp)]
    return np.sort(np.concatenate((cand, kept))) if kept else cand


def repair(instance: Instance, conflict_sets: ConflictSets, bits: list[int], alpha: int, beta: int) -> bool:
    """Greedily clear bits involved in violations, cheapest damage first.

    The damage of clearing a set bit is the objective increase it causes,
    the negated objective coefficient; ties go to the lower index.  Returns
    True when anything was cleared.  Terminates because every pass clears
    one set bit and the all-zero vector is feasible.
    """
    check_built_for(instance, conflict_sets)
    damage = -objective_coefficients(instance, alpha, beta)
    on = np.array(bits, dtype=bool)
    changed = False
    while True:
        _, eq2, eq3, hit = penalty_terms_unchecked(instance, conflict_sets, on)
        involved = (eq2 + eq3 > 0)[instance.request_of]
        rows = hit.nonzero()[0]
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
