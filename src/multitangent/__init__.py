"""Exact and high-precision toolkit for the algebra of multitangent functions.

The package splits into:

* :mod:`multitangent.words` -- index compositions, shuffle and stuffle;
* :mod:`multitangent.exact` / :mod:`multitangent.mzv` -- exact zeta-valued
  scalars, stuffle products, regularization with Ze[1] = 0, numeric oracle;
* :mod:`multitangent.reduction` -- reduction into monotangents;
* :mod:`multitangent.numerics` -- monotangent, multitangent and Hurwitz
  evaluation, trifactorization, Fourier data, growth bounds;
* :mod:`multitangent.families` -- closed forms for repeated indices;
* :mod:`multitangent.lab` -- relation kernels, projection, unit cleansing,
  rank matrices, table generation;
* :mod:`multitangent.cli` -- the ``mtk`` command line.
"""

from .errors import (
    CoverageError,
    MultitangentError,
    NumericRecheckError,
    PoleProximityError,
    PrecisionUnreachableError,
    ProjectionUnavailableError,
)
from .exact import CoeffExpr, MzvMonomial, PiRational
from .mzv import (
    NumericContext,
    even_zeta,
    linearize,
    mzv_numeric,
    mzv_product,
    newton_relation_check,
    symmetrel_extend,
    ze_minus,
)
from .reduction import ReductionResult, assert_clean, reduce
from .words import Composition, SeqClass, WordPoly, classify, shuffle, stuffle

__all__ = [
    "Composition",
    "SeqClass",
    "WordPoly",
    "classify",
    "shuffle",
    "stuffle",
    "PiRational",
    "MzvMonomial",
    "CoeffExpr",
    "NumericContext",
    "even_zeta",
    "linearize",
    "mzv_numeric",
    "mzv_product",
    "newton_relation_check",
    "symmetrel_extend",
    "ze_minus",
    "ReductionResult",
    "reduce",
    "assert_clean",
    "MultitangentError",
    "PrecisionUnreachableError",
    "PoleProximityError",
    "CoverageError",
    "NumericRecheckError",
    "ProjectionUnavailableError",
]

__version__ = "0.1.0"
