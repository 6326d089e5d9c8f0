"""Command line entry point wiring all modules together."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from .conflicts import build_conflict_sets, build_strong_groups, count_constraints
from .gen import GenerationError, generate, synth_topology
from .instance import (
    Solution, load_instance, network_from_dict, read_json, report_to_dict, save_instance, verify_feasible, write_atomic,
)
from .ip import build_ip, export_lp
from .oracle import EnumerationLimitError
from .qubo import DEFAULT_RHO_OFFSET, build_qubo, export_qubo, rho_base
from .reduce import graph_from_dict, mss_to_rwap
from .weights import beta_base, compute_omega


def _weights_for(instance, alpha, beta):
    if beta is not None:
        return alpha, beta
    w = beta_base(instance, alpha)
    return w.alpha, w.beta


# each solver budget option: the method that reads it and its smallest value
_BUDGETS = (("iterations", "da", 0), ("replicas", "da", 1), ("budget", "rs", 1), ("node_limit", "bnb", 0))


def _check_budgets(args, methods) -> None:
    """Exit with a usage error (status 2) when an option that one of the
    methods reads is below its smallest value; the others are not read."""
    for dest, method, low in _BUDGETS:
        value = getattr(args, dest, None)
        if method in methods and value is not None and value < low:
            args.usage_error(f"argument --{dest.replace('_', '-')}: must be at least {low}, got {value}")


def _seed(option: str, value: int) -> int:
    """The seed, refused by name when negative (numpy's own error names no option)."""
    if value < 0:
        raise ValueError(f"argument {option}: must be non-negative, got {value}")
    return value


def _print_data(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=1))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")


def _cmd_gen(args) -> int:
    seed = _seed("--seed", args.seed)
    if args.topology.startswith("synth:"):
        # a missing or extra field leaves the degree empty or holding a comma
        nodes, _, degree = args.topology[len("synth:"):].partition(",")
        try:
            shape = int(nodes), float(degree)
        except ValueError:
            raise ValueError(f"topology {args.topology!r}: expected synth:<nodes>,<avg_out_degree>") from None
        topo = synth_topology(*shape, seed=seed)
    else:
        # either a bare {nodes, links} document or a full instance file
        topo = network_from_dict(read_json(args.topology))
    inst = generate(topo, args.wavelengths, args.requests, args.paths, seed)
    save_instance(inst, args.output)
    print(f"wrote {args.output}: {inst.n_vars} variables, {len(inst.requests)} requests")
    return 0


def _cmd_conflicts(args) -> int:
    inst = load_instance(args.instance)
    conflicts = build_conflict_sets(inst)
    counts = count_constraints(inst, conflicts, conflicts.strong)
    c1, c2, c3, c4 = conflicts.class_counts
    data = {
        "c1": c1,
        "c2": c2,
        "c3": c3,
        "c4": c4,
        "variables": counts.variables,
        "base_constraints": counts.base_constraints,
        "strong_constraints": counts.strong_constraints,
        "base_cons_per_var": round(counts.base_ratio, 2),
        "strong_cons_per_var": round(counts.strong_ratio, 2),
        "strong_cons_per_var_counting_singleton_groups": round(counts.strong_ratio_all_nonempty, 2),
    }
    _print_data(data, args.format)
    return 0


def _cmd_weights(args) -> int:
    inst = load_instance(args.instance)
    w = beta_base(inst, args.alpha)
    data = {"alpha": w.alpha, "m_value": w.m_value, "beta_base": w.beta_base}
    if args.tight:
        report = compute_omega(inst)
        data["omega_eq"] = str(report.omega_eq) if report.omega_eq is not None else None
        data["beta_tight"] = report.beta_tight
    _print_data(data, args.format)
    return 0


def _cmd_export_lp(args) -> int:
    inst = load_instance(args.instance)
    alpha, beta = _weights_for(inst, args.alpha, args.beta)
    if args.model == "base":
        structure = build_conflict_sets(inst)
    else:
        structure = build_strong_groups(inst)
    model = build_ip(inst, structure, alpha, beta, kind=args.model)
    export_lp(model, args.output)
    print(f"wrote {args.output}: {len(model.var_names)} binaries, {len(model.constraints)} constraints")
    return 0


def _cmd_export_qubo(args) -> int:
    inst = load_instance(args.instance)
    alpha, beta = _weights_for(inst, args.alpha, args.beta)
    conflicts = build_conflict_sets(inst)
    rho = args.rho if args.rho is not None else beta + DEFAULT_RHO_OFFSET
    model = build_qubo(inst, conflicts, alpha, beta, rho)
    export_qubo(model, args.output)
    bound = rho_base(inst, alpha, beta)
    print(f"wrote {args.output}: n={model.n}, rho={rho} (separation bound {bound.rho})")
    return 0


def _cmd_solve(args) -> int:
    _check_budgets(args, [args.method])
    if args.trace and args.method != "da":
        args.usage_error(f"argument --trace: only the da method writes a trace, not {args.method}")
    inst = load_instance(args.instance)
    alpha, beta = _weights_for(inst, args.alpha, args.beta)
    report, result = bench_mod.solve(
        inst, build_conflict_sets(inst), args.method, alpha, beta, seed=_seed("--seed", args.seed),
        rho=args.rho if args.rho is not None else beta + DEFAULT_RHO_OFFSET,
        iterations=args.iterations, replicas=args.replicas, mode=args.mode,
        permutations=args.budget, node_limit=args.node_limit,
    )
    if args.trace and result is not None:
        write_atomic(args.trace, "iteration,best_energy\n" + "".join(f"{i},{e}\n" for i, e in result.trace))
    text = json.dumps(report_to_dict(report), indent=1)
    if args.output:
        write_atomic(args.output, text + "\n")
    print(text)
    return 0


def _read_solution(path: str) -> Solution:
    doc = read_json(path)
    if not isinstance(doc, dict) or "bits" not in doc:
        raise ValueError("solution document has no 'bits' entry")
    bits = doc["bits"]
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ValueError(f"solution bits must be a string of 0s and 1s, got {bits!r}")
    return Solution.from_string(bits)


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    verdict = verify_feasible(inst, build_conflict_sets(inst), _read_solution(args.solution))
    if verdict.feasible:
        print("feasible")
        return 0
    for violation in verdict.violations:
        print(f"violation {violation.kind}: {violation.detail}")
    return 1


def _cmd_reduce_mss(args) -> int:
    graph = graph_from_dict(read_json(args.graph))
    inst = mss_to_rwap(graph)
    save_instance(inst, args.output)
    print(f"wrote {args.output}: {inst.n_vars} variables from {graph.node_count} graph nodes")
    return 0


def _int_list(option: str, text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"argument {option}: expected comma-separated integers, got {text!r}") from None


def _cmd_bench(args) -> int:
    methods = args.methods.split(",")
    _check_budgets(args, methods)
    seeds = [_seed("--seeds", s) for s in _int_list("--seeds", args.seeds)] if args.seeds else [0]
    sweep = _int_list("--rho-sweep", args.rho_sweep) if args.rho_sweep else [None]
    instances = [(path, load_instance(path)) for path in args.instances]
    tasks = [
        bench_mod.BenchTask(
            label=path,
            instance=inst,
            method=method,
            seed=seed,
            iterations=args.iterations,
            permutations=args.budget,
            node_limit=args.node_limit,
            rho_offset=offset,
        )
        for path, inst in instances
        for method in methods
        for offset in (sweep if method == "da" else [None])
        for seed in seeds
    ]
    rows = bench_mod.run_bench(tasks)
    text = bench_mod.rows_to_csv(rows) if args.format == "csv" else bench_mod.rows_to_json(rows)
    if args.output:
        write_atomic(args.output, text)
    else:
        print(text, end="")
    return 1 if any(r["error"] for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rwap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--topology", required=True, help="synth:<nodes>,<avg_out_degree> or an instance JSON file")
    p.add_argument("--wavelengths", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("conflicts", help="print conflict set sizes and cons/vars ratios")
    p.add_argument("instance")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_conflicts)

    p = sub.add_parser("weights", help="print derived objective weights")
    p.add_argument("instance")
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--tight", action="store_true", help="also enumerate the minimal integer weight")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("export-lp", help="write the model in LP format")
    p.add_argument("instance")
    p.add_argument("--model", choices=("base", "strong"), default="base")
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("export-qubo", help="write the quadratic model in sparse text format")
    p.add_argument("instance")
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_qubo)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--method", choices=("da", "rs", "exact", "bnb"), required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--replicas", type=int, default=8)
    p.add_argument("--mode", choices=("tempering", "single"), default="tempering")
    p.add_argument("--budget", type=int, default=1000, help="permutations for the rs method")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write iteration,best_energy CSV (da only)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve, usage_error=p.error)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce-mss", help="build an instance from a stable-set graph")
    p.add_argument("graph", help='JSON {"nodes": n, "edges": [[u, v], ...]}')
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reduce_mss)

    p = sub.add_parser("bench", help="run a method/seed grid and emit CSV or JSON")
    p.add_argument("instances", nargs="*")
    p.add_argument("--methods", default="da,rs")
    p.add_argument("--seeds", default="0")
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--rho-sweep", default=None, help="comma list of offsets added to beta for the da method")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench, usage_error=p.error)

    return parser


# bad input: a missing or unwritable file, a document that is not JSON or is
# malformed (rwap's input errors are ValueErrors), a shape the generator
# cannot build or a model past the enumeration cap
_INPUT_ERRORS = (OSError, ValueError, GenerationError, EnumerationLimitError)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Bad input ends it with one ``error: ...`` line on
    stderr and exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
