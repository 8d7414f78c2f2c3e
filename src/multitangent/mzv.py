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
from .exact import CoeffExpr, PiRational
from .words import Composition, WordPoly, stuffle
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
    out = CoeffExpr.zero()
    for word, mult in stuffle(a, b).items():
        out = out + CoeffExpr.symbol(word, mult)
    return out


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
    if s.parts[0] >= 2:
        return CoeffExpr.symbol(s)
    tail = Composition(s.parts[1:])
    expansion = stuffle(Composition((1,)), tail)
    mult_s = expansion[s]
    acc = CoeffExpr.zero()
    for word, mult in expansion.items():
        if word == s:
            continue
        acc = acc + symmetrel_extend(word).scale(mult)
    # Ze[1] * Ze[tail] = 0 under the chosen normalization
    return acc.scale(Fraction(-1, mult_s))


def ze_minus(s: Composition) -> CoeffExpr:
    """Reflected value Ze_-[s] = (-1)^weight * Ze[reverse(s)].

    Defined directly for s with last part >= 2; a trailing one reverses into
    a leading one and is resolved by the symmetrel extension.
    """
    return symmetrel_extend(s.reverse()).scale(Fraction((-1) ** s.weight))


def linearize(expr: CoeffExpr) -> CoeffExpr:
    """Rewrite every product of zeta symbols as a sum of single symbols."""
    out = CoeffExpr.zero()
    for mono, coef in expr.items():
        term = CoeffExpr.scalar(coef)
        for factor in mono.factors:
            linered = CoeffExpr.zero()
            for m2, c2 in term.items():
                if m2.degree == 0:
                    linered = linered + CoeffExpr.symbol(factor, c2)
                else:
                    (prev,) = m2.factors
                    for word, mult in stuffle(prev, factor).items():
                        linered = linered + CoeffExpr.symbol(word, c2 * mult)
            term = linered
        out = out + term
    return out


def even_zeta(n: int) -> PiRational:
    """zeta(2n) as an exact rational multiple of pi^(2n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    b = Fraction(*mp.bernfrac(2 * n))
    coef = Fraction((-1) ** (n + 1)) * b * Fraction(2 ** (2 * n - 1), math.factorial(2 * n))
    return PiRational({2 * n: coef})


def _coefficient(q: Fraction):
    """``q`` at the current working precision and its bound: five roundings
    by 2^-prec of |q| (the numerator and the quotient round once each, the
    rest is slack), counted twice over for the float rounding of |q|."""
    size = abs(q.numerator) / q.denominator
    return mp.mpf(q.numerator) / q.denominator, mp.ldexp(size * 5, 1 - mp.mp.prec)


def _certified(expr: CoeffExpr, target, cap: int) -> tuple:
    """(value, bound) of an exact expression at the current working
    precision, certified to ``target`` by ``zetasum.certify``, which raises
    PrecisionUnreachableError if it cannot be.  Divergent symbols are
    resolved through the symmetrel extension first."""
    expr = expr.map_symbols(symmetrel_extend)
    budget = target / max(1, len(expr))
    terms = []  # (symbols, first-pass target of each, coefficient)
    for mono, coef in expr.items():
        c = _coefficient(coef)
        # convergent factor values sit below zeta(2) < 2, so dividing the
        # term budget by 4*degree*(|c|+1) keeps the product error inside it
        share = budget / (4 * max(1, mono.degree) * (abs(c[0]) + 1))
        terms.append((mono.factors, min(1e-6, float(share)), c))

    def terms_at(scale):
        return [
            [*(zetasum.shifted_nested_sum(s.parts, 0, t * scale, cap) for s in symbols), c]
            for symbols, t, c in terms
        ]

    value, bound = zetasum.certify(terms_at, target)
    # zeta expressions are real
    return mp.re(value), bound


def mzv_numeric(expr: CoeffExpr | Composition, ctx: NumericContext = DEFAULT_CONTEXT):
    """Numeric value of an exact expression, certified to ctx.target_abs_error
    by ``zetasum.certify``, which raises PrecisionUnreachableError if it
    cannot be.  Divergent symbols are resolved through the symmetrel
    extension first.
    """
    if isinstance(expr, Composition):
        expr = symmetrel_extend(expr)
    with ctx.workprec():
        return _certified(expr, ctx.target_abs_error, ctx.truncation_cap)[0]


def _check_zero(what: str, expr: CoeffExpr, ctx: NumericContext) -> None:
    """Check an exact expression that should vanish: raise
    NumericRecheckError unless 0 lies within its certificate at ``ctx``."""
    with ctx.workprec():
        value, bound = _certified(expr, ctx.target_abs_error, ctx.truncation_cap)
    if abs(value) > bound:
        raise NumericRecheckError(
            f"{what} is {mp.nstr(value, 15)}, outside its certified bound {mp.nstr(bound, 3)}"
        )


def newton_relation_check(omega: int, p: int) -> bool:
    """Check the power-sum recursion for repeated letters at the word level:

        stuffle(w^p, w) = (p+1) w^(p+1) + sum_k (w^k, 2w, w^(p-k-1)).

    Pure word combinatorics; holds for every symmetrel mould by linearity.
    """
    if omega < 1 or p < 0:
        raise ValueError("need omega >= 1 and p >= 0")
    left = stuffle(Composition((omega,) * p), Composition((omega,)))
    expected = WordPoly.single(Composition((omega,) * (p + 1)), p + 1)
    for k in range(p):
        word = Composition((omega,) * k + (2 * omega,) + (omega,) * (p - k - 1))
        expected = expected + WordPoly.single(word)
    return left == expected
