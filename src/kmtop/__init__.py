"""Exact Kac-Moody group arithmetic over valued fields.

Subpackages: valued (scalars with a discrete valuation), roots (root
generating systems and the Weyl action), sl2 (SL2(K) and its tree), affine
(SL2(K[u,u^{-1}]) ⋊ K*), harness (seeded verification suites), cli.
"""

from .valued import (
    INFINITY,
    DivisionByZero,
    FieldMismatch,
    PAdicField,
    RationalFunctionField,
    ValuedScalar,
    parse_field,
)

__all__ = [
    "INFINITY",
    "DivisionByZero",
    "FieldMismatch",
    "PAdicField",
    "RationalFunctionField",
    "ValuedScalar",
    "parse_field",
]

__version__ = "0.1.0"
