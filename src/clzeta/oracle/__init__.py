"""Ground-truth oracles: exhaustive matrix, module, and permutation counting."""

from .budget import BudgetExceededError
from .endomorphisms import (
    PGroupModule,
    SurjProbResult,
    automorphisms,
    conj_classes_aut,
    enumerate_endomorphisms,
    module_groupoid_count,
    surj_prob,
    surj_probs,
)
from .framing import (
    FramingStats,
    relation_points,
    stable_framing_stats,
    stable_framing_stats_per_rank,
)
from .matrix_points import (
    KERNEL_COMPILED,
    CountResult,
    count_matrix_points,
    gl_order,
    kernel_name,
    matrix_point_series,
)
from .permutations import commuting_perm_count
from .relations import RelationSyntaxError, RelationSystem, parse_relations

__all__ = [
    "BudgetExceededError",
    "CountResult",
    "FramingStats",
    "KERNEL_COMPILED",
    "PGroupModule",
    "RelationSyntaxError",
    "RelationSystem",
    "SurjProbResult",
    "automorphisms",
    "commuting_perm_count",
    "conj_classes_aut",
    "count_matrix_points",
    "enumerate_endomorphisms",
    "gl_order",
    "kernel_name",
    "matrix_point_series",
    "module_groupoid_count",
    "parse_relations",
    "relation_points",
    "stable_framing_stats",
    "stable_framing_stats_per_rank",
    "surj_prob",
    "surj_probs",
]
