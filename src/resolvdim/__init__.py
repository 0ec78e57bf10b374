"""Resolving sets and metric dimension of nonzero component graphs.

The component graph of GF(q)^n has the nonzero vectors as vertices, with
edges between vectors whose basis expansions share a position with
nonzero coefficient.  This package builds those graphs exactly, computes
twin partitions, resolving sets, metric dimension (closed form and
exhaustive search), exchange-property verdicts for minimal resolving
sets, and the q=2 powerset intersection-graph correspondence.
"""

from .errors import (AlreadyMember, BadParameters, BudgetExceeded,
                     DimensionMismatch, DivisionByZero, EmptyMember, EmptySet,
                     InstanceTooLarge, NotMember, NotResolving, NotTwins,
                     OutOfRange, ResolvdimError, UnsupportedOrder,
                     VertexParseError)
from .exchange import (ExchangeReport, ExchangeViolation,
                       coordinate_avoiding_set, has_exchange_property,
                       oversized_minimal_resolving_set)
from .field import SUPPORTED_ORDERS, FieldSpec, field_new, has_full_rank, rank
from .graph import (ComponentGraph, bfs_distances, is_complete, order_formula,
                    size_bruteforce, size_formula, to_dot, to_edge_list)
from .intersection import (PlainGraph, SetFamily, as_intersection_family,
                           family_to_text, intersection_graph, parse_family,
                           powerset_family, powerset_intersection_dimension,
                           powerset_matches_component_graph)
from .resolving import (DEFAULT_BUDGET, ResolvingReport, canonical_metric_basis,
                        enumerate_minimal_resolving_sets,
                        enumerate_minimum_resolving_sets, is_minimal,
                        is_resolving, metric_dimension_formula,
                        metric_dimension_search)
from .twins import (TwinPartition, are_twins, is_twin_class,
                    partition_by_neighborhood, partition_by_skeleton,
                    partitions_coincide, twin_swap)
from .vectorspace import (DEFAULT_VERTEX_CAP, decode, encode, parse_vertex,
                          parse_vertex_list, skeleton, vertex_text)

__version__ = "0.1.0"
