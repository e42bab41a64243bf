"""quadcantor: exact arithmetic in imaginary quadratic rings and certified
enumeration of radix points lying on complex self-similar sets.

The exact core works entirely over Python integers and fractions; floating
point appears only in rendering and dimension diagnostics.
"""

from types import ModuleType as _ModuleType

from .cns import CnsBasis, cns_basis, dyadic_alpha_description, evaluate, expand
from .errors import CapExceededError, FieldError, ParseError, PreconditionError
from .fractal import (
    BoxDimEstimate,
    CoveringConstants,
    IFSSpec,
    box_dim_estimate,
    covering_bound,
    covering_constants,
    ifs_new,
    period_bound,
    sample_points,
    similarity_dimension,
)
from .ideals import (
    ElementFactorization,
    IdealHNF,
    PrimeIdeal,
    PrimeSplitting,
    factor_element,
    factor_rational_prime,
    ideal_from_generators,
    ideal_mul,
    ideal_pow,
    principal_ideal,
    reduce_mod,
    unit_ideal,
    valuation,
)
from .intersection import (
    IntersectionPoint,
    IntersectionReport,
    PreconditionReport,
    UFD_FIELDS,
    certified_bound,
    enumerate_level,
    full_intersection,
    minimal_tuple,
    period_congruence_holds,
    preconditions,
    tuple_is_excluded,
)
from .membership import (
    Coding,
    coding_of,
    coding_value,
    is_member,
    state_count,
    verify_coding,
)
from .orders import (
    LowerBoundSpec,
    StabilizationData,
    c2_constant,
    ord_mod,
    order_lower_bound,
    stabilization,
)
from .quadring import (
    FieldElement,
    FieldSpec,
    QuadInt,
    element_text,
    exact_div,
    make_field,
    parse_element,
    parse_point,
)

__version__ = "0.1.0"

__all__ = [
    k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)
]
