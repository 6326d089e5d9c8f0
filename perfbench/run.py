"""Run one rwap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

``--workload all`` runs desk, scale and contention one after another, each
in its own process.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Spans of a traced run go to
``.perfbench_out/spans-<workload>-<seed>.jsonl`` under the checkout.

The benchmark is a single-process closed loop with every thread pool pinned
to one thread.  It runs with asserts on, as users run rwap; under ``-O`` the
annealer skips its energy check and would be a different program.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARIABLES = (
    "RWAP_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_VARIABLES:  # before numpy is imported
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("desk", "scale", "contention")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_workloads():
    """Import the benchmark against the rwap sources of this checkout only."""
    try:
        import rwap
    except ImportError as exc:
        _fail(f"cannot import rwap from {ROOT / 'src'}: {exc}")
    if not Path(rwap.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"rwap was imported from {rwap.__file__}, not from this checkout")
    logging.getLogger("rwap.gen").setLevel(logging.ERROR)  # short path pools are expected
    import workloads

    return workloads


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "debug": __debug__,
        "machine": platform.machine(),
    }


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def result_line(run, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = _import_workloads()
    run = workloads.execute(workloads.WORKLOADS[name], seed, seconds, trace)
    print("env " + json.dumps(environment()))
    for line in run.lines:
        print(line)
    samples = run.samples[False]
    print(f"# {name} seed={seed}: {run.attempted} operations, {run.failed} failed")
    if trace:
        metrics = workloads.per_layer(run)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        run.tracers[True].write(out_dir / f"spans-{name}-{seed}.jsonl")
    else:
        metrics = workloads.end_to_end(run)
        print(f"# calibration_s: median={workloads._median(run.calibration):.6g} "
              f"speed_factor={workloads.speed_factor(run):.6g}")
        for stage in workloads.STAGES:
            values = samples.get(stage, [])
            if values:
                print(f"# {stage}_s unscaled: n={len(values)} median={workloads._median(values):.6g} "
                      f"min={min(values):.6g} max={max(values):.6g}")
        for metric, (value, unit) in workloads.quality(run).items():
            print(f"quality {metric} {_format(value)} {unit}")
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} {_format(value)} {unit}")
    print(result_line(run, metrics))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    attempted = failed = 0
    merged = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{metric}": entry for metric, entry in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        _fail("run without -O: the annealer's energy check is part of the measured program")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
