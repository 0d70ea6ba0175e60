"""Spectral toolkit for non-self-adjoint Laplacians on directed weighted graphs.

Builds combinatorial and normalized Laplacians (with their formal adjoints
and symmetrizations) on finite directed graphs with vertex measures,
computes numerical ranges, Cheeger constants and filtration profiles, and
verifies the spectral inequalities that hold under the Kirchhoff balance
condition (outflow == inflow at every vertex).
"""

from .errors import (
    DirlapError,
    DisconnectedError,
    DuplicateEdgeError,
    EmptyComplementError,
    EmptySubsetError,
    InputParseError,
    InvalidArgumentError,
    IsolatedDirectionError,
    KirchhoffViolatedError,
    NoConvergenceError,
    NonPositiveMeasureError,
    NonPositiveWeightError,
    SchemaViolationError,
    SelfLoopError,
)
from .generators import (
    SplitMix64,
    corpus,
    gen_cycle,
    gen_layered_heavy,
    gen_opposing_cycles,
    gen_random_circulation,
    gen_symmetric_tree,
)
from .graph import (
    DirectedGraph,
    KirchhoffReport,
    boundaries,
    build_graph,
    check_kirchhoff,
    connectivity,
    graph_from_json_obj,
    graph_to_json_obj,
    load_graph,
    save_graph,
    schrodinger_potential,
    subset_array,
)
from .isoperimetric import (
    NORMALIZATIONS,
    CheegerResult,
    Filtration,
    InfinityProfile,
    LevelProfile,
    build_filtration,
    cheeger_exact,
    cheeger_heuristic,
    infinity_profile,
    m_M_constants,
)
from .operators import (
    KINDS,
    Operator,
    assemble,
    dirichlet,
    greens_residual,
    metric_inner,
    operator_from_csv_text,
    operator_from_json_obj,
    operator_to_csv_text,
    operator_to_json_obj,
    quadratic_form,
    to_euclidean,
)
from .spectral import (
    NumericalRangeBoundary,
    eig,
    hermitian_part,
    kernel_dimension,
    numerical_range_boundary,
    nu,
    operator_norm,
)
from .verify import (
    TheoremReport,
    verify_bounded,
    verify_cheeger_sandwich,
    verify_corpus,
    verify_dirichlet_bounds,
    verify_ess_bound_consistency,
    verify_fujiwara,
    verify_graph,
    verify_green,
    verify_kyfan,
)

__version__ = "0.1.0"
