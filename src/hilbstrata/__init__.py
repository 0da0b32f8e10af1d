"""Exact toolkit for the strata of point configurations in the plane.

Weight-n diagrams and their Hilbert functions, generic Betti tables,
stratum dimensions and tangent functions, cover detection with incidence
resolution, the annotated cover graph, and an exhaustive verification
sweep.  All arithmetic is exact integer arithmetic.
"""

from .diagrams import (
    CastelnuovoDiagram,
    HilbertFunction,
    count_diagrams,
    enumerate_diagrams,
    hf_leq,
    is_castelnuovo,
    iter_diagrams,
    parse_diagram,
    parse_hilbert_function,
)
from .graph import HilbertGraph, build_hilbert_graph, detect_noncatenary, emit, parse_graph_json
from .incidence import (
    CoverPair,
    IncidenceVerdict,
    betti_criterion,
    chow_product,
    cover_moves,
    is_length_zero,
    is_type_zero,
    resolve_incidence,
    verify_intersections,
)
from .laurent import IntLaurentPoly
from .resolution import BettiTable, generic_betti, series_numerator
from .strata import stratum_dim, tangent_bundle_sections, tangent_function
from .sweep import SweepSummary, sweep_weight, verify_range

__version__ = "0.1.0"
