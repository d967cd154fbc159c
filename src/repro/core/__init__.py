"""The test-and-treatment problem: model, sequential solvers, baselines."""

from .binary_testing import (
    BinaryTestingProblem,
    complete_test_instance,
    entropy_lower_bound,
    huffman_cost,
    solve_binary_testing,
    to_tt_problem,
)
from .bounds import (
    ActionCriticality,
    action_criticality,
    entropy_actions_floor,
    lower_bound,
    treatment_floor,
)
from .bruteforce import best_tree_exhaustive, enumerate_trees, min_cost_exhaustive
from .generators import (
    WORKLOADS,
    fault_location_instance,
    lab_analysis_instance,
    medical_instance,
    random_instance,
    taxonomy_instance,
)
from .heuristics import (
    HEURISTICS,
    cost_per_resolution,
    greedy_tree,
    information_gain,
    treatment_only,
)
from .dispatch import (
    BACKENDS,
    cached_subset_weights,
    resolve_backend,
    solve,
    weights_cache_nbytes,
)
from .engine import SolverEngine
from .kernels import (
    LayerArena,
    LayerPlan,
    layer_plan,
    solve_layer_kernel_fused,
)
from .errors import (
    CheckpointMismatch,
    InvalidProblem,
    ShardTimeout,
    SolverError,
    WorkerCrash,
)
from .faults import Fault, parse_fault_spec
from .parallel import PARALLEL_MIN_K_COLD, PARALLEL_MIN_K_WARM, solve_dp_parallel
from .supervisor import (
    RecoveryLog,
    ResiliencePolicy,
    SharedTables,
    problem_content_hash,
)
from .problem import Action, ActionKind, TTProblem
from .transforms import (
    CanonicalizationReport,
    canonicalize,
    merge_equivalent_objects,
    remove_dominated_treatments,
    remove_duplicate_actions,
)
from .session import DiagnosisSession, SessionStep
from .sequential import (
    DPResult,
    layer_sizes,
    optimal_cost,
    solve_dp,
    solve_dp_reference,
    solve_layer_kernel,
    subset_weights,
)
from .topdown import TopDownResult, solve_dp_topdown, solve_minimax
from .tree import SimulationStep, TTNode, TTTree
from .treeops import (
    ObjectOutcome,
    action_usage,
    expected_action_count,
    per_object_outcomes,
    to_dot,
    trees_equal,
    worst_case_cost,
)

__all__ = [
    "Action",
    "ActionKind",
    "TTProblem",
    "TTNode",
    "TTTree",
    "SimulationStep",
    "DPResult",
    "solve",
    "resolve_backend",
    "BACKENDS",
    "SolverError",
    "WorkerCrash",
    "ShardTimeout",
    "CheckpointMismatch",
    "InvalidProblem",
    "ResiliencePolicy",
    "RecoveryLog",
    "SharedTables",
    "Fault",
    "parse_fault_spec",
    "problem_content_hash",
    "solve_dp",
    "solve_dp_reference",
    "solve_dp_parallel",
    "solve_layer_kernel",
    "solve_layer_kernel_fused",
    "LayerArena",
    "LayerPlan",
    "layer_plan",
    "SolverEngine",
    "PARALLEL_MIN_K_COLD",
    "PARALLEL_MIN_K_WARM",
    "cached_subset_weights",
    "weights_cache_nbytes",
    "solve_dp_topdown",
    "solve_minimax",
    "TopDownResult",
    "subset_weights",
    "optimal_cost",
    "layer_sizes",
    "enumerate_trees",
    "min_cost_exhaustive",
    "best_tree_exhaustive",
    "greedy_tree",
    "cost_per_resolution",
    "information_gain",
    "treatment_only",
    "HEURISTICS",
    "BinaryTestingProblem",
    "to_tt_problem",
    "solve_binary_testing",
    "huffman_cost",
    "entropy_lower_bound",
    "complete_test_instance",
    "random_instance",
    "medical_instance",
    "fault_location_instance",
    "taxonomy_instance",
    "lab_analysis_instance",
    "WORKLOADS",
    "canonicalize",
    "CanonicalizationReport",
    "ObjectOutcome",
    "per_object_outcomes",
    "expected_action_count",
    "worst_case_cost",
    "action_usage",
    "trees_equal",
    "to_dot",
    "merge_equivalent_objects",
    "remove_dominated_treatments",
    "remove_duplicate_actions",
    "treatment_floor",
    "entropy_actions_floor",
    "lower_bound",
    "action_criticality",
    "ActionCriticality",
    "DiagnosisSession",
    "SessionStep",
]
