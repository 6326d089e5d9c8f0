"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/test_selftest.py
    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is printed with its
unit, that a corrupted solution is counted as a failure, and that the
benchmark refuses to run without the rwap sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

workloads = run._import_workloads()
Shape = workloads.Shape

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "desk": dataclasses.replace(
        workloads.WORKLOADS["desk"], anneal=dict(iterations=300, replicas=2), quality_rounds=1
    ),
    "scale": dataclasses.replace(
        workloads.WORKLOADS["scale"],
        shapes=lambda rng, index: [Shape(8, 1.5, 7, 3, 6, 2, 7)],
        anneal=dict(iterations=200, replicas=2, t_max=300.0, t_min=0.5, exchange_interval=50),
        rs_permutations=4,
        bnb_node_limit=50,
        setups=2,
        quality_rounds=1,
    ),
    "contention": dataclasses.replace(
        workloads.WORKLOADS["contention"],
        shapes=lambda rng, index: [Shape(8, 1.5, int(rng.integers(100)), 2, 12, 2, 3)],
        anneal=dict(iterations=200, replicas=2),
        rs_permutations=4,
        bnb_node_limit=200,
        setups=2,
        quality_rounds=1,
    ),
}


def _run_tiny(name: str, trace: bool) -> list[str]:
    saved = workloads.WORKLOADS[name]
    workloads.WORKLOADS[name] = TINY[name]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert run.run_one(name, seed=3, seconds=0, trace=trace) == 0
    finally:
        workloads.WORKLOADS[name] = saved
    return out.getvalue().splitlines()


def test_every_metric_printed_with_its_unit():
    for name in run.WORKLOAD_NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            lines = _run_tiny(name, trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {m: e["unit"] for m, e in result["metrics"].items()} == expected, (name, key)
            printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
            assert printed == expected, (name, key)
            if not trace:
                quality = {line.split()[1] for line in lines if line.startswith("quality ")}
                assert quality == set(workloads.quality(workloads.Run(TINY[name], 0)))
                assert any(line.startswith("env ") for line in lines)
                assert any(line.startswith(f"digest {name} ") for line in lines)


def _corrupt_once(log: list):
    """Set one bit that conflicts with a selected one, in the first solution
    where that is possible."""

    def tamper(method, model, bits):
        if log:
            return bits
        pairs = model.conflicts.variable_pairs(model.instance)
        for i, j in sorted(pairs):
            for on, off in ((i, j), (j, i)):
                if bits[on] and not bits[off]:
                    corrupted = list(bits)
                    corrupted[off] = 1
                    log.append((model.instance, corrupted))
                    return corrupted
        return bits

    return tamper


def test_corrupted_solution_counts_as_failure():
    clean = workloads.execute(TINY["contention"], 3, 0, False)
    assert clean.failed == 0
    log: list = []
    with contextlib.redirect_stderr(io.StringIO()):
        corrupted = workloads.execute(TINY["contention"], 3, 0, False, tamper=_corrupt_once(log))
    assert log, "no solution had a bit that could be corrupted"
    assert corrupted.attempted == clean.attempted
    assert corrupted.failed == 1
    assert workloads.quality(corrupted)["error_rate"][0] == 1 / corrupted.attempted
    instance, bits = log[0]
    assert workloads.slot_problems(instance, bits), "the independent slot check missed it"


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(run.ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert done.returncode != 0 and done.stdout == ""


if __name__ == "__main__":
    for test in (test_every_metric_printed_with_its_unit, test_corrupted_solution_counts_as_failure,
                 test_refuses_to_run_without_sources):
        test()
        print(f"ok {test.__name__}")
