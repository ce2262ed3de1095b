"""Toolkit for strongly regular graphs with lambda = 1, mu = 2.

Builds the known family members (K3, Paley 9, the 243-vertex ternary Golay
coset graph), runs exact induced-subgraph censuses, computes characteristic
polynomial coefficients by independent routes, and audits arbitrary
candidate graphs against the family's full ledger of counting identities.
"""

from .census import (
    CycleCensus,
    EdgeTripleCensus,
    TypeCensus,
    WalkCensus,
    coded_walk_census,
    count_hexagons,
    count_n2,
    count_pentagons,
    count_triangles,
    cycle_census,
    disjoint_triangle_pair_census,
    edge_triple_census,
    exhaustive_six_census,
    pentagon_triangle_census,
    pentagons_through_edge,
    quad_pair_census,
    quad_plus_edge_census,
    triangle_edge_completion_census,
    type_census,
)
from .constructions import (
    FeasibleParams,
    build_bvls243,
    build_k3,
    build_paley9,
    feasible_parameters,
)
from .errors import (
    CountingInconsistencyError,
    FamilyViolationError,
    Graph6Error,
    InfeasibleParametersError,
    SizeLimitError,
)
from .graph import (
    CanonicalClass,
    Graph,
    SrgParams,
    check_condition_one,
    check_condition_two,
    verify_srg,
)
from .graph6 import decode as graph6_decode
from .graph6 import encode as graph6_encode
from .identities import (
    IdentityReport,
    MakhnevResult,
    hexagon_bound,
    makhnev_condition,
    run_all_checks,
    verify_polynomial_chain,
)
from .spectral import (
    CharPolyPrefix,
    Spectrum,
    c6_binomial_sum,
    c6_closed_form,
    charpoly_prefix,
    srg_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalClass",
    "CharPolyPrefix",
    "CountingInconsistencyError",
    "CycleCensus",
    "EdgeTripleCensus",
    "FamilyViolationError",
    "FeasibleParams",
    "Graph",
    "Graph6Error",
    "IdentityReport",
    "InfeasibleParametersError",
    "MakhnevResult",
    "SizeLimitError",
    "Spectrum",
    "SrgParams",
    "TypeCensus",
    "WalkCensus",
    "build_bvls243",
    "build_k3",
    "build_paley9",
    "c6_binomial_sum",
    "c6_closed_form",
    "charpoly_prefix",
    "check_condition_one",
    "check_condition_two",
    "coded_walk_census",
    "count_hexagons",
    "count_n2",
    "count_pentagons",
    "count_triangles",
    "cycle_census",
    "disjoint_triangle_pair_census",
    "edge_triple_census",
    "exhaustive_six_census",
    "feasible_parameters",
    "graph6_decode",
    "graph6_encode",
    "hexagon_bound",
    "makhnev_condition",
    "pentagon_triangle_census",
    "pentagons_through_edge",
    "quad_pair_census",
    "quad_plus_edge_census",
    "run_all_checks",
    "srg_spectrum",
    "triangle_edge_completion_census",
    "type_census",
    "verify_polynomial_chain",
    "verify_srg",
]
