"""The segmented annealer against the iteration-major loop it replaced.

Replicas meet only at refills, exchanges and energy checks, so `anneal`
runs each segment between them one replica at a time, on Python lists for
small models.  An off-by-one at a segment end, or a wrong order when the
replicas' new lows are merged, would still pass every statistical test;
this module asserts that every `AnnealResult` field is equal to the old
loop's, across models on both sides of `_LIST_MAX_VARS`, both modes,
several replica counts and exchange intervals, and iteration counts at
and around the refill block (256 here) and the check interval (1024).
"""

import math

import numpy as np
import pytest

from rwap.anneal import _LIST_MAX_VARS, AnnealConfig, AnnealResult, _exchange_stream, _replica_stream, anneal
from rwap.conflicts import build_conflict_sets
from rwap.gen import generate, synth_topology
from rwap.qubo import QuboModel, build_qubo
from rwap.weights import beta_base


def reference_anneal(qubo: QuboModel, config: AnnealConfig) -> AnnealResult:
    """The iteration-major loop that ran for every model size before the
    segmented loop, kept verbatim as the reference."""
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


def _model(n: int, rho: int = 20) -> QuboModel:
    rng = np.random.default_rng(n)
    pairs = {(i, j): int(rng.integers(-10, 40)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    linear = tuple(rng.integers(-30, 20, n).tolist())
    return QuboModel(n=n, linear=linear, quadratic=pairs, constant=3, rho=rho, alpha=1, beta=1)


SIZES = [1, 2, _LIST_MAX_VARS, _LIST_MAX_VARS + 1, 40]

# (mode, iterations, replicas, exchange interval): every replica count and
# interval over 600 iterations, across the refills at 256 and 512; one run of
# 2100, across the checks at 1024 and 2048; runs ending at or around those
# boundaries.  Single mode never exchanges, so it runs one interval.
RUNS = (
    [("tempering", 600, replicas, interval) for replicas in (1, 2, 3, 8) for interval in (7, 100)]
    + [("tempering", 300, replicas, 1) for replicas in (2, 8)]
    + [("single", 600, replicas, 100) for replicas in (1, 2, 3, 8)]
    + [(mode, 2100, 3, 7) for mode in ("tempering", "single")]
    + [(mode, iterations, 3, 7) for mode in ("tempering", "single") for iterations in (0, 1, 255, 256, 257, 1023, 1024, 1025)]
)


@pytest.mark.parametrize("mode, iterations, replicas, interval", RUNS)
@pytest.mark.parametrize("n", SIZES)
def test_matches_the_iteration_major_loop(n, mode, iterations, replicas, interval):
    config = AnnealConfig(iterations, replicas, exchange_interval=interval, seed=n + iterations, mode=mode)
    q = _model(n)
    assert anneal(q, config) == reference_anneal(q, config)


@pytest.mark.parametrize("mode", ["tempering", "single"])
@pytest.mark.parametrize("n", SIZES)
def test_matches_with_rho_below_t_min(n, mode):
    # t_max is left unset, so it is clamped up from rho 2 to t_min 50
    config = AnnealConfig(300, 3, t_min=50.0, exchange_interval=7, seed=1, mode=mode)
    q = _model(n, rho=2)
    assert anneal(q, config) == reference_anneal(q, config)


@pytest.mark.parametrize("n", [_LIST_MAX_VARS, _LIST_MAX_VARS + 1])
def test_matches_with_a_block_that_does_not_divide_the_check_interval(n):
    # 33 replicas shrink the refill block below 256, so refills, exchanges
    # and checks fall on three unaligned grids
    config = AnnealConfig(1030, 33, exchange_interval=7, seed=2)
    q = _model(n)
    assert 1024 % max(8, min(256, 200_000 // (n * 33)))
    assert anneal(q, config) == reference_anneal(q, config)


def _sparse_model(n: int, rho: int = 20) -> QuboModel:
    """A numpy-path model with about three couplings per variable.  Only one
    variable in a hundred lowers the energy when set, so once a replica has
    set those, a cold one finds no candidate for many iterations in a row and
    its offset rises until one appears."""
    rng = np.random.default_rng(n)
    ends = rng.integers(0, n, (2, 3 * n)).tolist()
    couplings = rng.integers(-10, 30, 3 * n).tolist()
    pairs = {(min(i, j), max(i, j)): q for i, j, q in zip(*ends, couplings) if i != j}
    linear = rng.integers(20, 60, n)
    linear[: n // 100] *= -1
    return QuboModel(n=n, linear=tuple(linear.tolist()), quadratic=pairs, constant=3, rho=rho, alpha=1, beta=1)


# (n, replicas, refill block): the block reaches its floor of 8 once
# n * replicas >= 25,000, as on the 6000-variable, 4-replica benchmark
# model; 1000 x 8 gives a block of 25, which divides neither 1024 nor 1030.
SCALE_SHAPES = [(3125, 8, 8), (6250, 4, 8), (1000, 8, 25)]

# (mode, iterations, exchange interval): 1030 iterations cross the check at
# 1024 and end inside a block; 13 end inside the second block of 8 and
# inside the first block of 25.
SCALE_RUNS = [("tempering", 1030, 7), ("tempering", 1030, 50), ("single", 1030, 50), ("tempering", 13, 5), ("single", 13, 5)]


@pytest.mark.parametrize("mode, iterations, interval", SCALE_RUNS)
@pytest.mark.parametrize("n, replicas, block", SCALE_SHAPES)
def test_matches_at_the_scale_refill_blocks(n, replicas, block, mode, iterations, interval):
    assert max(8, min(256, 200_000 // (n * replicas))) == block
    config = AnnealConfig(iterations, replicas, exchange_interval=interval, seed=n + iterations, mode=mode)
    q = _sparse_model(n)
    result = anneal(q, config)
    assert result == reference_anneal(q, config)
    if iterations > 1000:  # offsets went on and off, and new lows were found
        assert min(result.accepted_flips, result.offset_activations) > iterations * replicas // 10
        assert len(result.trace) > 5


# The 13 desk shapes (requests, paths, wavelengths) of at most 14 variables.
# At rho = beta + 100 every linear term of these models is positive, so at
# the all-zero start and at other local minima the smallest delta often
# exceeds the largest gate: the iterations that the stall bound of `_stretch`
# skips (64-98% of them in these runs).  `_model` draws linear terms in
# -30..20, where the bound seldom fires.
DESK_SHAPES = [(rq, p, w) for rq in (1, 2, 3) for p in (1, 2) for w in (1, 2, 3) if rq * 2 * p * w <= 14]


def _desk_model(k: int) -> QuboModel:
    requests, paths, wavelengths = DESK_SHAPES[k]
    inst = generate(synth_topology(4 + k % 4, 1.2 + 0.1 * (k % 9), k), wavelengths, requests, paths, k)
    w = beta_base(inst)
    return build_qubo(inst, build_conflict_sets(inst), w.alpha, w.beta, w.beta + 100)


def _positive_model(n: int) -> QuboModel:
    """Every linear term positive, so the all-zero start has no downhill flip
    and a cold replica climbs its offset from there."""
    rng = np.random.default_rng(n)
    pairs = {(i, j): int(rng.integers(-15, 25)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    return QuboModel(n=n, linear=tuple(rng.integers(5, 60, n).tolist()), quadratic=pairs, constant=0, rho=30, alpha=1, beta=1)


# (mode, exchange interval, t_min, t_max): both modes at the default
# temperatures, exchanging every iteration or every 100; one freezing run,
# where nearly every iteration stalls and the offset climbs far.
BOUND_RUNS = [("tempering", 1, 1.0, None), ("tempering", 100, 1.0, None), ("single", 100, 1.0, None), ("tempering", 7, 0.01, 0.01)]


@pytest.mark.parametrize("mode, interval, t_min, t_max", BOUND_RUNS)
@pytest.mark.parametrize("model", [*range(len(DESK_SHAPES)), "positive"])
def test_matches_where_the_stall_bound_fires(model, mode, interval, t_min, t_max):
    q = _positive_model(_LIST_MAX_VARS) if model == "positive" else _desk_model(model)
    assert 0 < q.n <= _LIST_MAX_VARS
    config = AnnealConfig(1100, 8, t_min=t_min, t_max=t_max, exchange_interval=interval, seed=q.n + interval, mode=mode)
    result = anneal(q, config)
    assert result == reference_anneal(q, config)
    if t_max is not None:  # freezing: most replica-iterations stall, and some still flip
        assert result.offset_activations > 1100 * 8 // 2 and result.accepted_flips > 0
