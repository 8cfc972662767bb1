"""Combinatorial engine for stable dual graphs and boundary complexes."""

from .complexes import (
    BoundaryComplex,
    Family,
    boundary_complex,
    flag_verdict,
    high_genus,
    pinwheel,
    predicted_flag,
    universal_degeneration,
)
from .enumeration import BudgetExceededError, StratumStore
from .graphs import (
    DualGraph,
    GnSignature,
    InvalidSignatureError,
    canonical_key,
    chain,
    is_degeneration,
    key_from_hex,
    key_to_hex,
    one_vertex,
    two_vertex_divisor,
)
from .lattice import (
    DivisorSet,
    IntersectionReport,
    divisor_set,
    intersection_components,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryComplex",
    "BudgetExceededError",
    "DivisorSet",
    "DualGraph",
    "Family",
    "GnSignature",
    "IntersectionReport",
    "InvalidSignatureError",
    "StratumStore",
    "boundary_complex",
    "canonical_key",
    "chain",
    "divisor_set",
    "flag_verdict",
    "high_genus",
    "intersection_components",
    "is_degeneration",
    "key_from_hex",
    "key_to_hex",
    "one_vertex",
    "pinwheel",
    "predicted_flag",
    "two_vertex_divisor",
    "universal_degeneration",
]
