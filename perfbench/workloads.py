"""The benchmark's workloads and the closed loop that runs them.

One client runs one operation at a time; the next starts only when the
previous one has finished and been checked.  An operation is one set-up,
solve (annealer, greedy, branch-and-bound) or export of a round's batch of
instances.  The benchmark reaches each rwap module only through its public
functions and times those calls from outside.

Workloads (see README.md for why each exists):

- ``desk``: every round a new batch of one instance of each of the 13
  criterion-7 shapes, at most 14 variables each, checked against the
  enumerated QUBO optimum.
- ``scale``: the fixed 6000-variable instance of acceptance criterion 12.
- ``contention``: a fixed instance with 2 wavelengths and 300 requests on a
  30-node graph, annealed below the penalty separation bound so that repair
  does most of the work.

On scale and contention the workload seed picks the annealer and greedy
seeds; the instance stays fixed, so set-up is the same work in every run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from rwap import (
    AnnealConfig,
    RsConfig,
    Solution,
    anneal,
    beta_base,
    branch_and_bound,
    brute_force_qubo,
    build_conflict_sets,
    build_ip,
    build_qubo,
    build_strong_groups,
    generate,
    lp_text,
    rs_heur,
    synth_topology,
    verify_feasible,
)
from rwap.anneal import decode_result, repair
from rwap.instance import make_report
from rwap.qubo import qubo_text

from checks import bits_digest, slot_problems, text_digest
from tracer import Tracer

STAGES = ("setup", "da_solve", "rs_solve", "bnb_solve", "export")

REFERENCE_S = 0.0018  # the calibration loop's time on a quiet 2-core x86-64 VM


def calibration_s() -> float:
    """Best of three timings of a fixed numpy loop that calls no rwap code.

    The host's speed drifts by 20% and more between runs.  The end-to-end
    times are scaled by ``REFERENCE_S`` over the run's median of this loop,
    taken before every operation, so that the drift cancels and a change in
    rwap does not.  The loop works in place on 160 KB arrays, so it does
    not depend on the state of the allocator."""
    start = np.arange(20_000.0)
    x, y = np.empty_like(start), np.empty_like(start)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        np.copyto(x, start)
        for _ in range(40):
            np.multiply(x, 1.0001, out=y)
            np.add(y, 1.0, out=y)
            np.sqrt(y, out=x)
            x.sum()
        best = min(best, time.perf_counter() - started)
    return best


@dataclass(frozen=True)
class Shape:
    """Everything ``synth_topology`` and ``generate`` need to rebuild one instance."""

    nodes: int
    degree: float
    topology_seed: int
    wavelengths: int
    requests: int
    paths: int
    instance_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: Callable[[np.random.Generator, int], list[Shape]]  # (stream, round) -> the round's batch
    rho: Callable[[int], int]  # penalty coefficient from the grant weight beta
    anneal: dict  # AnnealConfig fields other than the seed
    rs_permutations: int
    bnb_node_limit: int | None
    fixed_batch: bool  # one batch set up before the rounds instead of a new batch every round
    setups: int  # set-ups of the fixed batch before the rounds; the last one is solved
    quality_rounds: int  # every run completes these, and quality covers only them
    oracle: bool  # enumerate the QUBO optimum of every instance


@dataclass
class Model:
    instance: object
    conflicts: object
    strong: object
    alpha: int
    beta: int
    qubo: object


def _grantable(instance) -> bool:
    return any(
        not set(w.links) & set(p.links) for req in instance.requests for w in req.working for p in req.protection
    )


DESK_SHAPES = [
    (requests, paths, wavelengths)
    for requests in (1, 2, 3)
    for paths in (1, 2)
    for wavelengths in (1, 2, 3)
    if requests * 2 * paths * wavelengths <= 14
]


def desk_shape(rng: np.random.Generator, index: int) -> Shape:
    """A criterion-7 style instance of shape ``DESK_SHAPES[index]`` that has
    at least one grantable request; the seed picks its graph and paths."""
    requests, paths, wavelengths = DESK_SHAPES[index]
    for _ in range(100):
        shape = Shape(
            nodes=int(rng.integers(4, 8)),
            degree=float(rng.uniform(1.2, 2.2)),
            topology_seed=int(rng.integers(2**31)),
            wavelengths=wavelengths,
            requests=requests,
            paths=paths,
            instance_seed=int(rng.integers(2**31)),
        )
        topology = synth_topology(shape.nodes, shape.degree, shape.topology_seed)
        if _grantable(generate(topology, wavelengths, requests, paths, shape.instance_seed)):
            return shape
    raise RuntimeError("no grantable desk instance in 100 draws")


def desk_batch(rng: np.random.Generator, index: int) -> list[Shape]:
    """One new instance of every desk shape.  A round's sample is the time
    over the whole batch, so every sample covers the same mix of sizes."""
    return [desk_shape(rng, k) for k in range(len(DESK_SHAPES))]


WORKLOADS = {
    "desk": Workload(
        name="desk",
        shapes=desk_batch,
        rho=lambda beta: beta + 100,
        anneal=dict(iterations=2000, replicas=8),
        rs_permutations=8,
        bnb_node_limit=None,
        fixed_batch=False,
        setups=0,
        quality_rounds=2,
        oracle=True,
    ),
    "scale": Workload(
        name="scale",
        shapes=lambda rng, index: [Shape(22, 1.4, 7, 15, 100, 2, 7)],
        rho=lambda beta: beta + 100,
        anneal=dict(iterations=2000, replicas=4, t_max=300.0, t_min=0.5, exchange_interval=50),
        rs_permutations=200,
        bnb_node_limit=5000,
        fixed_batch=True,
        setups=3,
        quality_rounds=3,
        oracle=False,
    ),
    "contention": Workload(
        name="contention",
        shapes=lambda rng, index: [Shape(30, 1.5, 7, 2, 300, 2, 7)],
        rho=lambda beta: beta // 4,
        anneal=dict(iterations=500, replicas=8),
        rs_permutations=200,
        bnb_node_limit=50_000,
        fixed_batch=True,
        setups=2,
        quality_rounds=3,
        oracle=False,
    ),
}


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def build_model(shape: Shape, rho_rule: Callable[[int], int], tracer: Tracer) -> Model:
    """Set-up: generation, conflict sets, weights, strong groups, QUBO and
    its cached adjacency."""
    with tracer.span("gen.synth_topology"):
        topology = synth_topology(shape.nodes, shape.degree, shape.topology_seed)
    with tracer.span("gen.generate"):
        instance = generate(topology, shape.wavelengths, shape.requests, shape.paths, shape.instance_seed)
    with tracer.span("conflicts.build_conflict_sets"):
        conflicts = build_conflict_sets(instance)
    with tracer.span("weights.beta_base"):
        weights = beta_base(instance)
    with tracer.span("conflicts.build_strong_groups"):
        strong = build_strong_groups(instance)
    with tracer.span("qubo.build_qubo"):
        qubo = build_qubo(instance, conflicts, weights.alpha, weights.beta, rho_rule(weights.beta))
    with tracer.span("qubo.adjacency"):
        qubo.adjacency()
    tracer.count("conflicts.pair_count", conflicts.pair_count)
    tracer.count("conflicts.emitted_groups", strong.emitted_group_count)
    tracer.count("qubo.quadratic_terms", len(qubo.quadratic))
    return Model(instance, conflicts, strong, weights.alpha, weights.beta, qubo)


def _lp_problems(label: str, text: str, model) -> list[str]:
    lines = text.split("\n")
    rows = lines.index("Binary") - lines.index("Subject To") - 1
    if lines[0] != "Minimize" or lines[-2:] != ["End", ""] or rows != len(model.constraints):
        return [f"{label}: malformed LP text ({rows} rows for {len(model.constraints)} constraints)"]
    return []


def _qubo_problems(text: str, qubo) -> list[str]:
    lines = text.split("\n")
    expected = 1 + sum(1 for c in qubo.linear if c) + len(qubo.quadratic)
    if lines[0] != f"{qubo.n} {qubo.constant}" or len(lines) - 1 != expected:
        return [f"qubo text: {len(lines) - 1} lines, expected {expected}"]
    return []


@dataclass
class Run:
    """One benchmark run: its samples, quality record, checks and spans.

    ``tamper`` may rewrite a final solution before it is checked; the
    self-test uses it to prove that a corrupted solution counts as a failure.
    """

    workload: Workload
    seed: int
    tamper: Callable | None = None
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=lambda: {False: {}, True: {}})  # traced -> stage -> seconds
    quality: dict = field(default_factory=dict)  # name -> per-instance values
    lines: list = field(default_factory=list)
    calibration: list = field(default_factory=list)  # calibration_s() before each operation
    tracers: dict = field(default_factory=lambda: {False: Tracer(False), True: Tracer(True)})

    @contextmanager
    def stage(self, name: str, traced: bool):
        started = time.perf_counter()
        with self.tracers[traced].span(name):
            yield
        self.samples[traced].setdefault(name, []).append(time.perf_counter() - started)

    def attempt(self, label: str, traced: bool, operation: Callable[[], list[str]]) -> None:
        """Run one operation; an exception or a failed check counts as a failure.

        Garbage left by the previous operation is collected first, so it is
        not charged to this one, and then the calibration loop is timed; both
        stay outside the operation's timing."""
        gc.collect()
        self.calibration.append(calibration_s())
        self.tracers[traced].begin_op(self.attempted)
        self.attempted += 1
        try:
            problems = operation()
        except Exception:  # the loop must go on and count the failure
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {self.workload.name} {label}: {problem}", file=sys.stderr)

    def setup(self, shapes: list[Shape], traced: bool) -> list[Model] | None:
        built = []

        def operation():
            with self.stage("setup", traced):
                built.extend(build_model(shape, self.workload.rho, self.tracers[traced]) for shape in shapes)
            return []

        self.attempt("setup", traced, operation)
        return built if len(built) == len(shapes) else None

    def check_solution(self, model: Model, report, traced: bool) -> list[str]:
        """Every final solution is reported feasible, passes
        ``verify_feasible`` and passes the independent slot check."""
        bits = list(report.solution.bits)
        if self.tamper is not None:
            bits = self.tamper(report.method, model, bits)
        problems = [] if report.feasible else ["report says infeasible"]
        with self.tracers[traced].span("instance.verify_feasible"):
            verdict = verify_feasible(model.instance, model.conflicts, bits)
        if not verdict.feasible:
            problems.append(f"verify_feasible found {len(verdict.violations)} violations")
        return problems + slot_problems(model.instance, bits)

    def solve_round(self, models: list[Model], index: int, seeds: list[tuple[int, int]], traced: bool) -> None:
        """One operation per stage, each over the whole batch; the checks
        run after the stage's clock has stopped."""
        wl = self.workload
        tracer = self.tracers[traced]
        keep = not traced and index < wl.quality_rounds
        objectives: list[list[int]] = [[] for _ in models]

        def record(name: str, value: float) -> None:
            if keep:
                self.quality.setdefault(name, []).append(value)

        def digest(k: int, label: str, text: str) -> None:
            if not traced:
                self.lines.append(f"digest {wl.name} seed={self.seed} round={index} instance={k} {label} {text}")

        def solve_da(model: Model, seed: int):
            config = AnnealConfig(seed=seed, **wl.anneal)
            with tracer.span("anneal.anneal"):
                result = anneal(model.qubo, config)
            if not traced:
                return result, decode_result(
                    model.instance, model.conflicts, model.alpha, model.beta, result, config.iterations
                )
            bits = list(result.best_bits)  # exactly what decode_result composes
            with tracer.span("anneal.repair"):
                repaired = repair(model.instance, model.conflicts, bits, model.alpha, model.beta)
            with tracer.span("instance.make_report"):
                report = make_report(
                    model.instance, model.conflicts, Solution.from_array(bits), model.alpha,
                    model.beta, method="da", repaired=repaired, energy=result.best_energy,
                    iterations=config.iterations,
                )
            return result, report

        def da() -> list[str]:
            if traced:  # anneal rebuilds these internally for its __debug__ check
                for model in models:
                    with tracer.span("qubo.pair_arrays"):
                        model.qubo.pair_arrays()
            with self.stage("da_solve", traced):
                solved = [solve_da(model, seed) for model, (seed, _) in zip(models, seeds)]
            problems = []
            for k, (model, (result, report)) in enumerate(zip(models, solved)):
                tracer.count("anneal.replica_iterations", wl.anneal["iterations"] * wl.anneal["replicas"])
                tracer.count("anneal.accepted_flips", result.accepted_flips)
                tracer.count("anneal.offset_activations", result.offset_activations)
                cleared = sum(a != b for a, b in zip(result.best_bits, report.solution.bits))
                tracer.count("anneal.repair_cleared_bits", cleared)
                tracer.count("anneal.repaired", int(report.repaired))
                if model.qubo.energy(result.best_bits) != result.best_energy:
                    problems.append(f"instance {k}: annealer best_energy differs from qubo.energy(best_bits)")
                if wl.oracle:
                    with tracer.span("oracle.brute_force_qubo"):
                        _, optimum = brute_force_qubo(model.qubo)
                    if result.best_energy < optimum:
                        problems.append(f"instance {k}: annealer energy {result.best_energy} below the optimum {optimum}")
                    record("da_hit", float(result.best_energy == optimum))
                problems += self.check_solution(model, report, traced)
                objectives[k].append(report.objective)
                record("da_granted", report.f_beta)
                record("da_links", report.f_alpha)
                digest(k, "da", f"bits={bits_digest(report.solution.bits)} energy={result.best_energy} cleared={cleared}")
            return problems

        def rs() -> list[str]:
            with self.stage("rs_solve", traced):
                reports = []
                for model, (_, seed) in zip(models, seeds):
                    with tracer.span("heuristic.rs_heur"):
                        config = RsConfig(wl.rs_permutations, seed)
                        reports.append(rs_heur(model.instance, model.conflicts, config, model.alpha, model.beta))
            problems = []
            for k, (model, report) in enumerate(zip(models, reports)):
                tracer.count("heuristic.permutations", wl.rs_permutations)
                objectives[k].append(report.objective)
                record("rs_granted", report.f_beta)
                digest(k, "rs", f"bits={bits_digest(report.solution.bits)}")
                problems += self.check_solution(model, report, traced)
            return problems

        def bnb() -> list[str]:
            with self.stage("bnb_solve", traced):
                reports = []
                for model in models:
                    with tracer.span("oracle.branch_and_bound"):
                        reports.append(branch_and_bound(
                            model.instance, model.strong, model.alpha, model.beta, wl.bnb_node_limit, model.conflicts
                        ))
            problems = []
            for k, (model, report) in enumerate(zip(models, reports)):
                tracer.count("oracle.bnb_nodes", report.nodes)
                problems += self.check_solution(model, report, traced)
                if report.bound > report.objective:
                    problems.append(f"instance {k}: bound {report.bound} above objective {report.objective}")
                if report.optimal and any(obj < report.objective for obj in objectives[k]):
                    problems.append(f"instance {k}: proven optimum {report.objective} beaten by {min(objectives[k])}")
                record("bnb_granted", report.f_beta)
                record("bnb_gap", report.objective - report.bound)
                digest(k, "bnb", f"bits={bits_digest(report.solution.bits)} nodes={report.nodes}")
            return problems

        def export_one(model: Model) -> tuple:
            with tracer.span("ip.build_ip_base"):
                base = build_ip(model.instance, model.conflicts, model.alpha, model.beta, "base")
            with tracer.span("ip.lp_text"):
                base_text = lp_text(base)
            with tracer.span("ip.build_ip_strong"):
                strong = build_ip(model.instance, model.strong, model.alpha, model.beta, "strong")
            with tracer.span("ip.lp_text"):
                strong_text = lp_text(strong)
            with tracer.span("qubo.qubo_text"):
                q_text = qubo_text(model.qubo)
            return base, base_text, strong, strong_text, q_text

        def export() -> list[str]:
            with self.stage("export", traced):
                exported = [export_one(model) for model in models]
            problems = []
            for k, (model, (base, base_text, strong, strong_text, q_text)) in enumerate(zip(models, exported)):
                tracer.count("ip.lp_bytes", len(base_text.encode()) + len(strong_text.encode()))
                tracer.count("qubo.qubo_bytes", len(q_text.encode()))
                digest(k, "lp_base", text_digest(base_text))
                digest(k, "lp_strong", text_digest(strong_text))
                digest(k, "qubo", text_digest(q_text))
                problems += (
                    _lp_problems("base LP", base_text, base)
                    + _lp_problems("strong LP", strong_text, strong)
                    + _qubo_problems(q_text, model.qubo)
                )
            return problems

        for label, operation in (("da", da), ("rs", rs), ("bnb", bnb), ("export", export)):
            self.attempt(f"round {index} {label}", traced, operation)


def execute(workload: Workload, seed: int, seconds: float, trace: bool, tamper: Callable | None = None) -> Run:
    """Set up, then run rounds until ``seconds`` have passed and at least the
    quality rounds are done.  With ``trace`` every set-up and round runs
    twice, untraced and then traced, so the pair gives the tracing overhead."""
    run = Run(workload, seed, tamper)
    modes = (False, True) if trace else (False,)
    models = None
    if workload.fixed_batch:
        shapes = workload.shapes(stream(seed), 0)
        for _ in range(workload.setups):
            for traced in modes:
                models = None  # free the previous models before building the next
                models = run.setup(shapes, traced)
        if models is None:
            return run
    min_rounds = 1 if trace else workload.quality_rounds
    started = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - started < seconds:
        rng = stream(seed, index)
        if not workload.fixed_batch:
            shapes = workload.shapes(rng, index)
        seeds = [(int(rng.integers(2**31)), int(rng.integers(2**31))) for _ in shapes]
        for traced in modes:
            if not workload.fixed_batch:
                models = None
                models = run.setup(shapes, traced)
            if models is not None:
                run.solve_round(models, index, seeds, traced)
        index += 1
    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def speed_factor(run: Run) -> float:
    """``REFERENCE_S`` over the run's median calibration time: below 1 when
    the host ran slow during the run."""
    return REFERENCE_S / _median(run.calibration) if run.calibration else 1.0


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The gated metrics: median stage times over the run, scaled by the
    run's speed factor, and peak memory."""
    samples = run.samples[False]
    factor = speed_factor(run)
    metrics = {f"{stage}_s": (_median(samples.get(stage)) * factor, "s") for stage in STAGES}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def quality(run: Run) -> dict[str, tuple[float | None, str]]:
    """Solution quality over the quality rounds, which every run completes,
    so the values repeat exactly for a seed.  None where a metric does not
    apply to the workload."""
    q = run.quality

    def mean(name):
        return statistics.fmean(q[name]) if q.get(name) else None

    granted, links = sum(q.get("da_granted", [])), sum(q.get("da_links", []))
    return {
        "da_granted": (mean("da_granted"), "requests"),
        "da_links_per_granted": (links / granted if granted else None, "links"),
        "da_hit_rate": (mean("da_hit"), "ratio"),
        "rs_granted": (mean("rs_granted"), "requests"),
        "bnb_granted": (mean("bnb_granted"), "requests"),
        "bnb_gap": (mean("bnb_gap"), "objective"),
        "error_rate": (run.failed / run.attempted if run.attempted else None, "ratio"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced passes: each layer's self time and
    each count, summed per operation and taken as the median over the
    operations that ran them, and the tracing overhead as traced minus
    untraced medians."""
    tracer = run.tracers[True]
    per_op = tracer.per_op_self()

    def self_s(name):
        return _median(per_op.get(name))

    def counts(name):
        return _median(tracer.per_op_counts(name))

    def total(name):
        return sum(tracer.per_op_counts(name))

    def per(numerator, base):
        return numerator / base if base else 0.0

    metrics = {
        f"{name}_s": (self_s(name), "s")
        for name in (
            "gen.synth_topology", "gen.generate", "weights.beta_base",
            "conflicts.build_conflict_sets", "conflicts.build_strong_groups",
            "qubo.build_qubo", "qubo.adjacency", "qubo.pair_arrays",
            "ip.build_ip_base", "ip.build_ip_strong", "ip.lp_text", "qubo.qubo_text",
            "anneal.anneal", "anneal.repair", "instance.make_report", "instance.verify_feasible",
            "heuristic.rs_heur", "oracle.branch_and_bound", "oracle.brute_force_qubo",
        )
    }
    replica_iterations = total("anneal.replica_iterations")
    metrics.update({
        "conflicts.pair_count": (counts("conflicts.pair_count"), "count"),
        "conflicts.emitted_groups": (counts("conflicts.emitted_groups"), "count"),
        "qubo.quadratic_terms": (counts("qubo.quadratic_terms"), "count"),
        "ip.lp_bytes": (counts("ip.lp_bytes"), "bytes"),
        "qubo.qubo_bytes": (counts("qubo.qubo_bytes"), "bytes"),
        "anneal.us_per_replica_iter": (1e6 * per(self_s("anneal.anneal"), counts("anneal.replica_iterations")), "us"),
        "anneal.accept_ratio": (per(total("anneal.accepted_flips"), replica_iterations), "ratio"),
        "anneal.zero_candidate_ratio": (per(total("anneal.offset_activations"), replica_iterations), "ratio"),
        "anneal.repair_cleared_bits": (counts("anneal.repair_cleared_bits"), "count"),
        "anneal.repaired_ops": (total("anneal.repaired"), "count"),
        "heuristic.us_per_permutation": (1e6 * per(self_s("heuristic.rs_heur"), counts("heuristic.permutations")), "us"),
        "oracle.bnb_nodes": (counts("oracle.bnb_nodes"), "count"),
        "oracle.bnb_nodes_per_s": (per(counts("oracle.bnb_nodes"), self_s("oracle.branch_and_bound")), "1/s"),
    })
    for stage in ("setup", "da_solve"):
        traced, untraced = run.samples[True].get(stage), run.samples[False].get(stage)
        overhead = _median(traced) - _median(untraced) if traced and untraced else 0.0
        metrics[f"trace.{stage}_overhead_s"] = (overhead, "s")
    return metrics
