"""Shapley values for finite cooperative games.

Exact computation (subset enumeration, permutation averaging, weighted
least squares), sampling and paired-sampling estimators, and the
asymptotic covariance matrices that describe estimator dispersion.
"""

from .errors import (
    DimensionError,
    DomainError,
    InputError,
    NoConvergence,
    NonFiniteError,
    NumericError,
    PairShapError,
    PartitionError,
    RankDeficient,
    SchemaError,
    SingularMatrix,
    SizeGuard,
)
from .games import GameEvaluator, Term, ValueFunctionSpec, parse_spec

__all__ = [
    "DimensionError",
    "DomainError",
    "GameEvaluator",
    "InputError",
    "NoConvergence",
    "NonFiniteError",
    "NumericError",
    "PairShapError",
    "PartitionError",
    "RankDeficient",
    "SchemaError",
    "SingularMatrix",
    "SizeGuard",
    "Term",
    "ValueFunctionSpec",
    "parse_spec",
]

__version__ = "0.1.0"
