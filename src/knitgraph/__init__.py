"""Graph-theoretic knittability toolkit.

Decide whether graphs are knittable with k yarns, analyze yarn multigraphs,
classify knitting complexity, and generate reference stitch patterns.
"""

from .errors import (
    BadDimsError,
    BlueCrossingError,
    DegenerateLayoutError,
    DuplicateEdgeError,
    InconsistentPairError,
    IndexOutOfRangeError,
    InfeasibleVertexError,
    KnitError,
    MultiplicityTooHighError,
    NoEulerianPathError,
    NotADagError,
    NotPlanarLayoutError,
    NotSingleThreadError,
    PurplePresentError,
    SchemaError,
    SelfLoopError,
    TooLargeError,
    UncoloredPresentError,
)
from .graphs import (
    DirectedKnitGraph,
    EdgeColor,
    KnittingGraph,
    YarnGraph,
    component_labels,
    reduce_yarn_to_directed,
    topological_sort,
    underlying_knitting_graph,
)
from .serialize import (
    GraphDocument,
    Layout,
    MAX_VERTICES,
    export_dot,
    parse_document,
    serialize_json,
)
from .feasibility import (
    ColoringReport,
    RedRule,
    Role,
    STRICT_CONFIGS,
    check_coloring,
    classify_vertex,
    feasibility_table,
    format_role_set,
    red_config_allowed,
)
from .flows import (
    FlowNetwork,
    solve_flow_range,
    solve_flow_with_bounds,
    solve_minimum_flow,
)
from .cover import (
    ThreadCover,
    brute_force_knittable,
    brute_force_minimum_path_cover,
    build_flow_network,
    decide_k_knittable,
    extract_threads,
    has_hamiltonian_path_dag,
    minimum_path_cover,
    sweep_feasible_k,
    vertex_roles,
)
from .yarn import (
    Trail,
    TrailDecomposition,
    YarnCheckReport,
    eulerian_path,
    is_yarn_graph_of_k_knittable,
    minimum_yarns,
    yarn_from_threads,
)
from .layout import (
    ComplexityClass,
    ComplexityReport,
    CrossingGraph,
    SimplicityReport,
    cable_width,
    check_simple_knittable,
    classify_complexity,
    count_rows,
    crossing_graph,
    is_planar,
)
from .patterns import (
    Fixture,
    all_fixtures,
    emit_instructions,
    gen_brioche_maximal,
    gen_stitch_fixture,
    gen_stockinette,
)

__version__ = "0.1.0"
