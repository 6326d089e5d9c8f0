"""Solver toolkit for routing and wavelength assignment with 1:1 dedicated
path protection: integer-programming and penalty-form quadratic models with
provably safe coefficients, an annealing solver, a greedy heuristic, exact
oracles, instance generators and a stable-set reduction."""

from .anneal import AnnealConfig, AnnealResult, anneal, solve_rwap_da
from .conflicts import (
    ConflictSets,
    StrongGroups,
    build_conflict_sets,
    build_strong_groups,
    count_constraints,
)
from .gen import generate, k_shortest_paths, synth_topology
from .heuristic import RsConfig, rs_heur
from .instance import (
    DimensionError,
    Instance,
    InstanceError,
    Lightpath,
    Network,
    Request,
    Solution,
    SolveReport,
    f_alpha,
    f_beta,
    instance_from_dict,
    instance_to_dict,
    ip_objective,
    load_instance,
    network_from_dict,
    save_instance,
    verify_feasible,
)
from .ip import LinearModel, build_ip, export_lp, lp_text
from .oracle import (
    EnumerationLimitError,
    branch_and_bound,
    brute_force_ip,
    brute_force_qubo,
)
from .qubo import (
    PenaltyBreakdown,
    QuboModel,
    RhoBound,
    build_qubo,
    export_qubo,
    flip_delta,
    penalty,
    rho_base,
    rho_tight,
)
from .reduce import MssGraph, max_requests_only, mss_to_rwap
from .weights import (
    OmegaReport,
    Weights,
    beta_base,
    check_prioritization,
    compute_omega,
    tight_example,
)

__all__ = [name for name in dir() if not name.startswith("_")]
