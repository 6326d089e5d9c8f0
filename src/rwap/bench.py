"""Method dispatch and benchmark harness: ``solve`` maps each method name to
its solver for the command line and for every benchmark row; the harness
writes one CSV row per (instance, method, seed) and aggregate rows per method
and penalty-coefficient offset, with optional offset sweeps."""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .anneal import AnnealConfig, AnnealResult, anneal, decode_result
from .conflicts import ConflictSets, build_conflict_sets
from .heuristic import RsConfig, rs_heur
from .instance import Instance, SolveReport
from .oracle import branch_and_bound, brute_force_ip
from .qubo import DEFAULT_RHO_OFFSET, build_qubo
from .weights import beta_base

CSV_VERSION = "rwap-bench-v1"
CSV_COLUMNS = (
    "instance",
    "method",
    "seed",
    "rho",
    "granted",
    "links",
    "links_per_granted",
    "objective",
    "feasible",
    "repaired",
    "budget",
    "wall_time_s",
    "error",
)


@dataclass(frozen=True)
class BenchTask:
    label: str
    instance: Instance
    method: str
    seed: int
    iterations: int
    permutations: int
    node_limit: int | None
    rho_offset: int | None  # rho = beta + offset for the annealer


def worker_count() -> int:
    value = os.environ.get("RWAP_THREADS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def solve(
    instance: Instance, conflicts: ConflictSets, method: str, alpha: int, beta: int, *, seed: int, rho: int,
    iterations: int, replicas: int = AnnealConfig.replicas, mode: str = AnnealConfig.mode, permutations: int,
    node_limit: int | None,
) -> tuple[SolveReport, AnnealResult | None]:
    """Run one method (da, rs, exact or bnb), which reads only its own options.
    Returns the report and, for da only, the raw annealer result for a trace."""
    if method == "da":
        config = AnnealConfig(iterations=iterations, replicas=replicas, seed=seed, mode=mode)
        result = anneal(build_qubo(instance, conflicts, alpha, beta, rho), config)
        return decode_result(instance, conflicts, alpha, beta, result, iterations), result
    if method == "rs":
        return rs_heur(instance, conflicts, RsConfig(permutations, seed), alpha, beta), None
    if method == "exact":
        return brute_force_ip(instance, conflicts, alpha, beta), None
    if method == "bnb":
        return branch_and_bound(instance, conflicts.strong, alpha, beta, node_limit, conflicts), None
    raise ValueError(f"unknown method {method!r}")


def _run_task(task: BenchTask) -> dict:
    row: dict = {c: "" for c in CSV_COLUMNS}
    row.update(instance=task.label, method=task.method, seed=task.seed)
    started = time.perf_counter()
    try:
        inst = task.instance
        conflicts = build_conflict_sets(inst)
        weights = beta_base(inst)
        rho = weights.beta + (task.rho_offset if task.rho_offset is not None else DEFAULT_RHO_OFFSET)
        report, result = solve(
            inst, conflicts, task.method, weights.alpha, weights.beta, seed=task.seed, rho=rho,
            iterations=task.iterations, permutations=task.permutations, node_limit=task.node_limit,
        )
        budget = {"da": task.iterations, "rs": task.permutations, "bnb": task.node_limit}.get(task.method)
        row["rho"] = rho if result is not None else ""
        row["budget"] = budget if budget is not None else ""
        row["granted"] = report.f_beta
        row["links"] = report.f_alpha
        row["links_per_granted"] = round(report.f_alpha / report.f_beta, 3) if report.f_beta else ""
        row["objective"] = report.objective
        row["feasible"] = int(report.feasible)
        row["repaired"] = int(report.repaired)
    except Exception as exc:  # a failing row must not kill the run
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = round(time.perf_counter() - started, 3)
    return row


def run_bench(tasks: list[BenchTask]) -> list[dict]:
    """Execute all rows (parallel across tasks under RWAP_THREADS) and append
    one aggregate row per method and annealer rho offset, over every
    instance; per-row results are independent of the worker count."""
    workers = worker_count()
    if workers == 1:
        rows = [_run_task(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_task, tasks))
    # keyed by the offset, not by rho: rho = beta + offset, and beta is
    # set per instance
    aggregates: dict[tuple[str, int | None], list[dict]] = {}
    for task, row in zip(tasks, rows):
        if row["error"]:
            continue
        offset = task.rho_offset if row["rho"] != "" else None
        aggregates.setdefault((row["method"], offset), []).append(row)
    agg_rows = []
    for (method, _), group in sorted(aggregates.items(), key=lambda kv: kv[0][0]):  # stable: sweep order kept
        granted = [r["granted"] for r in group]
        lpg = [r["links_per_granted"] for r in group if r["links_per_granted"] != ""]
        rhos = {r["rho"] for r in group}
        agg = {c: "" for c in CSV_COLUMNS}
        agg.update(
            instance="AGGREGATE",
            method=method,
            rho=rhos.pop() if len(rhos) == 1 else "",
            granted=round(sum(granted) / len(granted), 2),
            links_per_granted=round(sum(lpg) / len(lpg), 2) if lpg else "",
            wall_time_s=round(sum(r["wall_time_s"] for r in group) / len(group), 3),
        )
        agg_rows.append(agg)
    return rows + agg_rows


def rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write(f"# {CSV_VERSION}: columns fixed, aggregates keyed by instance=AGGREGATE\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([row[c] for c in CSV_COLUMNS] for row in rows)
    return out.getvalue()


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=1)
