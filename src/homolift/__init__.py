"""Transition-graph invariants of graph self-maps and exactly verified
eigenvalue certificates on finite abelian covers."""

from .errors import (CertificateError, DimensionMismatchError, HomoliftError,
                     LiftError, ParseError, ResourceLimitError,
                     ValidationError)
from .graphs import (EdgePath, Graph, GraphMap, check_immersion,
                     parse_graph_map, serialize_graph_map)
from .homology import (EquivariantQuotient, HomologyAction, SpanningTreeData,
                       equivariant_quotient, homology_action, path_class,
                       spanning_tree)
from .laurent import (Character, Lattice, LaurentElement, character_grid,
                      l2_norm_squared, lattice_restriction, specialize)
from .magnus import (MagnusMatrix, magnus_matrix, specialize_matrix,
                     trace_power)
from .transition import (Arc, Cycle, ShadowPolytope, SubgraphSelection,
                         TransitionGraph, dilatation, dimension_diagnostic,
                         is_stable, shadow, simple_cycles, subgraph_matrix,
                         transition_graph, vertex_subgraph)
from .covers import (CoverCertificate, CoverGraph, FiniteQuotient, LiftedMap,
                     TowerStep, UnitCircleVerdict, abelian_cover,
                     h1_action_on_cover, lift_map, spectral_radius,
                     unit_circle_test)
from .search import (Analysis, Finding, SearchConfig, brute_force_oracle,
                     character_scan, check_anchored, check_direct, check_l2,
                     input_digest, rebuild_tower, tower_search,
                     verify_certificate)

__version__ = "0.1.0"
