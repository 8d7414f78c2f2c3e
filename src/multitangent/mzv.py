"""Multiple zeta symbols: stuffle products, the symmetrel extension to
sequences with leading ones (normalized by Ze[1] = 0), the reflected values
Ze_-, and the high-precision numeric oracle.

A zeta symbol Ze[s] stands for the nested sum over 0 < n_r < ... < n_1 of
prod n_i^(-s_i); it converges iff the first part is at least 2.  Symbols with
leading ones are resolved by the unique stuffle-compatible extension fixing
Ze[1] = 0, which the recursion of :func:`symmetrel_extend` computes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real

import mpmath as mp

from .errors import NumericRecheckError
from .exact import CoeffExpr, MzvMonomial, PiRational, _combine, _expression, _numerators
from .words import EMPTY, Composition, WordPoly, stuffle
from . import zetasum


@dataclass(frozen=True)
class NumericContext:
    """Settings for every numeric routine in the package.

    target_abs_error: requested absolute error for a single evaluation.
    working_precision: mpmath precision in bits.
    truncation_cap: largest summation cutoff the nested-sum engine may use.
    pole_guard: minimum allowed distance from an evaluation point to the
        integers.
    """

    target_abs_error: float = 1e-10
    working_precision: int = 128
    truncation_cap: int = 200_000
    pole_guard: float = 1e-3

    def __post_init__(self) -> None:
        for name, kind in (("target_abs_error", Real), ("working_precision", Integral),
                           ("truncation_cap", Integral), ("pole_guard", Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is Integral else "a real number"
                raise ValueError(f"{name} must be {noun}, got {value!r}")
        if not 0 < self.target_abs_error < math.inf:
            raise ValueError("target_abs_error must be finite and positive")
        if self.working_precision < 1:
            raise ValueError("working_precision must be at least 1")
        if self.truncation_cap < 10:
            raise ValueError("truncation_cap must be at least 10")
        if not 0 < self.pole_guard < math.inf:
            raise ValueError("pole_guard must be finite and positive")

    def workprec(self):
        return mp.workprec(self.working_precision)


DEFAULT_CONTEXT = NumericContext()


def mzv_product(a: Composition, b: Composition) -> CoeffExpr:
    """Stuffle linearization of Ze[a]*Ze[b] as a sum of single symbols."""
    return CoeffExpr._sum((MzvMonomial.symbol(w), Fraction(m)) for w, m in stuffle(a, b).items())


@functools.lru_cache(maxsize=4096)
def symmetrel_extend(s: Composition) -> CoeffExpr:
    """Value of Ze[s] in the unique stuffle-compatible extension with Ze[1]=0.

    For a convergent s this is the symbol itself.  A leading one is removed
    through

        m * Ze[1^m . t] = Ze[1] * Ze[1^(m-1) . t] - (other stuffle terms),

    whose right side only involves sequences with fewer leading ones, so the
    recursion grounds out in convergent symbols.  The result is an exact
    rational combination of convergent symbols.
    """
    if not s:
        return CoeffExpr.scalar(1)
    if s[0] >= 2:
        return CoeffExpr.symbol(s)
    tail = Composition(s[1:])
    expansion = stuffle(Composition((1,)), tail)
    mult_s = expansion[s]
    # Ze[1] * Ze[tail] = 0 under the chosen normalization; summed in integers
    return _expression(*_combine(
        (-mult, mult_s * den, vec)
        for word, mult in expansion.items() if word != s
        for den, vec in [_numerators(symmetrel_extend(word))]
    ))


def ze_minus(s: Composition) -> CoeffExpr:
    """Reflected value Ze_-[s] = (-1)^weight * Ze[reverse(s)].

    Defined directly for s with last part >= 2; a trailing one reverses into
    a leading one and is resolved by the symmetrel extension.
    """
    return symmetrel_extend(s.reverse()).scale(Fraction((-1) ** s.weight))


def linearize(expr: CoeffExpr) -> CoeffExpr:
    """Rewrite every product of zeta symbols as a sum of single symbols: each
    monomial's factors stuffled in turn onto the empty word, the scalar one."""
    return CoeffExpr._sum(
        (MzvMonomial((word,) if word else ()), coef * mult)
        for mono, coef in expr.items()
        for words in [functools.reduce(_stuffle_onto, mono, WordPoly.single(EMPTY))]
        for word, mult in words._terms.items()
    )


def _stuffle_onto(poly: WordPoly, factor: Composition) -> WordPoly:
    """The stuffle of each word of ``poly`` with ``factor``, summed."""
    return WordPoly._sum(
        (word, m * n)
        for w, m in poly.items()
        for word, n in stuffle(w, factor).items()
    )


def even_zeta(n: int) -> PiRational:
    """zeta(2n) as an exact rational multiple of pi^(2n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    b = Fraction(*mp.bernfrac(2 * n))
    coef = Fraction((-1) ** (n + 1)) * b * Fraction(2 ** (2 * n - 1), math.factorial(2 * n))
    return PiRational({2 * n: coef})


def _certified(expr: CoeffExpr, target, cap: int) -> zetasum._FixedSum:
    """The entry of an exact expression at the current working precision,
    certified to ``target`` by ``zetasum.certify``, which raises
    PrecisionUnreachableError if it cannot be: each monomial is a term, its
    nested sums pieces and its exact coefficient a fixed factor.  Every sum
    is at z = 0, so the imaginary integer of the entry is exactly 0.
    Divergent symbols are resolved through the symmetrel extension first."""
    expr = expr.map_symbols(symmetrel_extend)
    return zetasum.certify([
        [*(functools.partial(zetasum.shifted_nested_sum, tuple(s), 0, cap=cap)
           for s in mono), (coef, 0.0)]
        for mono, coef in expr.items()
    ], target)


def mzv_numeric(expr: CoeffExpr | Composition, ctx: NumericContext = DEFAULT_CONTEXT):
    """Numeric value of an exact expression, certified to ctx.target_abs_error
    by ``zetasum.certify``, which raises PrecisionUnreachableError if it
    cannot be.  Divergent symbols are resolved through the symmetrel
    extension first.
    """
    if isinstance(expr, Composition):
        expr = symmetrel_extend(expr)
    with ctx.workprec():
        return _certified(expr, ctx.target_abs_error, ctx.truncation_cap).value.real


def _check_zero(what: str, expr: CoeffExpr, ctx: NumericContext) -> None:
    """Check an exact expression that should vanish: raise
    NumericRecheckError unless 0 lies within its certificate at ``ctx``."""
    with ctx.workprec():
        result = _certified(expr, ctx.target_abs_error, ctx.truncation_cap)
    if not result.contains_zero():
        raise NumericRecheckError(f"{what} is {mp.nstr(result.value.real, 15)}, "
                                  f"outside its certified bound {mp.nstr(result[1], 3)}")


def newton_relation_check(omega: int, p: int) -> bool:
    """Check the power-sum recursion for repeated letters at the word level:

        stuffle(w^p, w) = (p+1) w^(p+1) + sum_k (w^k, 2w, w^(p-k-1)).

    Pure word combinatorics; holds for every symmetrel mould by linearity.
    """
    if omega < 1 or p < 0:
        raise ValueError("need omega >= 1 and p >= 0")
    left = stuffle(Composition((omega,) * p), Composition((omega,)))
    expected = WordPoly._sum([(Composition((omega,) * (p + 1)), p + 1)] + [
        (Composition((omega,) * k + (2 * omega,) + (omega,) * (p - k - 1)), 1) for k in range(p)])
    return left == expected
