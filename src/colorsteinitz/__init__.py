"""Exact-arithmetic conic reductions, colorful transversals, and the
classification of colour systems that admit no small spanning partial
transversal.
"""

from .caratheodory import (
    ColorfulResult,
    PivotStep,
    colorful_cone_caratheodory,
    cone_caratheodory,
)
from .colorful import (
    BCase,
    ColourSystem,
    Neither,
    PCase,
    PSetResult,
    SmallTransversal,
    Structural,
    Transversal,
    classify,
    colorful_transversal,
    find_small_transversal,
    p_set,
)
from .cones import (
    ConicCertificate,
    FarkasWitness,
    NearestPoint,
    SpanCertificate,
    clear_span_cache,
    nearest_cone_point,
    pos_membership,
    spanning,
    spans_space,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    GeometryError,
    NotInCone,
    NotSpanning,
    ParseError,
    PreconditionFailed,
    RecursionInvariantViolation,
    ZeroPoint,
)
from .oracle import (
    EnumerationReport,
    count_spanning_transversals,
    enumerate_report,
    generate,
    min_spanning_partial_size,
    min_spanning_subset_size,
)
from .ratlin import (
    Feasible,
    Infeasible,
    Point,
    dot,
    in_linear_hull,
    lp_feasibility,
    neg,
    parse_rat,
    primitive_ray,
    pt,
    rank,
    same_ray,
)
from .steinitz import (
    BasisCaseWitness,
    ReducedSet,
    generic_direction,
    refine_below_2d,
    steinitz_reduce,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
