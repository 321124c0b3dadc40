"""Certified boxicity bounds through verified interval-graph covers."""

from .boxicity import boxicity_exact
from .circular import (
    block_window_rep,
    chi_cover,
    circular_chi,
    circular_clique,
    rotate_rep,
    step_window_rep,
)
from .errors import ConstructionDefectError, InputError, ResourceBudgetError
from .graphs import (
    Coloring,
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_intersection,
    empty_graph,
    generalized_join,
    graph_from_obj,
    graph_to_obj,
    induced_subgraph,
    is_clique,
    make_graph,
    path_graph,
    reduced_graph,
)
from .intervals import (
    IntervalCover,
    IntervalRep,
    cover_from_obj,
    cover_to_json,
    cover_to_obj,
    graph_of_intervals,
    make_cover,
    make_rep,
    rep_from_obj,
    rep_to_obj,
    verify_cover,
)
from .joins import (
    make_plan,
    reduced_cover,
    skip_join_cover,
)
from .recognition import Obstruction, is_interval_graph
from .solvers import chromatic_number_exact, clique_number_exact, maximal_cliques
from .zdg import (
    CompressedZN,
    FactoredN,
    augmenting_divisor,
    boolean_ring_graph,
    compressed_box_bound,
    compressed_zn,
    expand_compressed,
    factor,
    is_box_one,
    omega_chi_certificate,
    reduced_ring_box_bounds,
    threshold_rep,
    zdg_zn,
    zn_join_cover,
    zn_prime_cover,
    zn_report,
)

__version__ = "0.1.0"
