"""Exact canonical and log-canonical thresholds of hypersurface
singularities from their Newton diagrams, with realizing weight vectors."""

from .lattice import (
    Rational,
    ExponentVector,
    WeightVector,
    MAX_DIMENSION,
    ParseError,
    DimensionMismatchError,
    InadmissibleWeightError,
    SupportSet,
    MaximinSolution,
    parse_polynomial,
    support_to_text,
    primitive,
    check_admissible_weight,
    maximin_lp,
    lp_feasible,
    fraction_to_json,
)
from .newton import (
    NewtonDiagram,
    from_support,
    from_points,
    weight_of,
    contains_point,
    includes,
    diagram_to_json,
    diagram_from_json,
)
from .engine import (
    INFINITY,
    DEFAULT_MAX_BOUND,
    UnitAtOriginError,
    SearchBoundExceededError,
    ThresholdReport,
    Certification,
    h_value,
    ct_diagram,
    lct_diagram,
    ct_bruteforce,
    certify,
)
from .brieskorn import (
    BrieskornTriple,
    SValues,
    BrieskornResult,
    s_values,
    ct_brieskorn3,
    brieskorn_threshold,
    lct_brieskorn,
)
from .blowup import (
    BlowupLedger,
    ledger,
    chart_transform,
    chart_label,
    verify_weight_realizes,
)

__version__ = "0.1.0"
