"""Constructive extension property for finite rational metric spaces.

Given a finite metric space A with rational distances, `build_witness`
produces a finite metric space B containing an isometric copy of A such that
every partial isometry of that copy extends to a full isometry of B, together
with an explicit `extend_isometry` operator and brute-force verifiers.
"""

from __future__ import annotations

from .completion import (
    CycleWitness,
    find_induced_nonmetric_cycles,
    has_nonmetric_cycle_up_to,
    is_connected,
    shortest_path_completion,
)
from .errors import (
    BudgetExhausted,
    DisconnectedGraph,
    EppaError,
    GraphFormatError,
    InvalidMap,
    NotAMetricSpace,
    UnknownVertex,
    VertexCapExceeded,
)
from .graphs import (
    EdgeLabelledGraph,
    PartialMap,
    check_map,
    complete_graph,
    graph_from_triples,
    induced_subgraph,
    is_metric_space,
    is_partial_automorphism,
)
from .levels import (
    LevelGraph,
    anchor_valuations,
    bad_sets,
    build_next_level,
    compute_flip_set,
    lift_automorphism,
)
from .pipeline import (
    Witness,
    build_witness,
    compute_N,
    extend_isometry,
    witness_stats,
)
from .setrep import (
    SetAssignment,
    build_eppa_graph,
    build_set_assignment,
    extend_by_permutation,
    subset_automorphism,
)
from .verifier import (
    CheckResult,
    VerificationReport,
    cross_check,
    enumerate_partial_automorphisms,
    naive_extension_exists,
    search_extension,
    verify_eppa,
)

__all__ = [
    "BudgetExhausted",
    "CheckResult",
    "CycleWitness",
    "DisconnectedGraph",
    "EdgeLabelledGraph",
    "EppaError",
    "GraphFormatError",
    "InvalidMap",
    "LevelGraph",
    "NotAMetricSpace",
    "PartialMap",
    "SetAssignment",
    "UnknownVertex",
    "VerificationReport",
    "VertexCapExceeded",
    "Witness",
    "anchor_valuations",
    "bad_sets",
    "build_eppa_graph",
    "build_next_level",
    "build_set_assignment",
    "build_witness",
    "check_map",
    "complete_graph",
    "compute_N",
    "compute_flip_set",
    "cross_check",
    "enumerate_partial_automorphisms",
    "extend_by_permutation",
    "extend_isometry",
    "find_induced_nonmetric_cycles",
    "graph_from_triples",
    "has_nonmetric_cycle_up_to",
    "induced_subgraph",
    "is_connected",
    "is_metric_space",
    "is_partial_automorphism",
    "lift_automorphism",
    "naive_extension_exists",
    "search_extension",
    "shortest_path_completion",
    "subset_automorphism",
    "verify_eppa",
    "witness_stats",
]

__version__ = "0.1.0"
