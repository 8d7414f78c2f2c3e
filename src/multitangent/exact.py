"""Exact scalar arithmetic: rational combinations of formal products of
multiple zeta symbols, and rational combinations of even powers of pi.

Every reduction coefficient Z(i,k;s) is a rational combination of zeta
values, so a CoeffExpr holds Fraction coefficients.  Pi lives only in
PiRational: the corrective constant delta(s), the even zeta values and the
closed-form families.

A zeta monomial is the sorted tuple of its compositions.  Everything here
is symbolic and exact.  Numeric evaluation lives in :mod:`multitangent.mzv`.
Combinations add through ``words._accumulate``.  ``_combine``, the integer
path kept for the hot fold, sums many expressions over one denominator
(with ``_numerators``), and ``_expression`` builds the Fractions once, where
a coefficient is handed out.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

import mpmath as mp

from .words import Composition, LinearCombination

RationalLike = Fraction | int


class PiRational(LinearCombination):
    """A finite sum  sum_m  c_m * pi^(2m)  with rational c_m, m >= 0.

    A LinearCombination keyed by the pi exponent; adds the even-exponent
    check, the product of pi polynomials, the numeric value and JSON.
    """

    __slots__ = ()
    _zero = Fraction(0)
    _scalars = (int, Fraction)
    _coef = staticmethod(Fraction)

    def __init__(self, terms: Mapping[int, RationalLike] | RationalLike = 0):
        if isinstance(terms, self._scalars):
            terms = {0: terms}
        for exp in terms:
            if exp < 0 or exp % 2:
                raise ValueError(f"pi exponent must be even and nonnegative, got {exp}")
        super().__init__(terms)

    def _lift(self, other):
        return PiRational(other) if isinstance(other, self._scalars) else None

    def __hash__(self):
        # equal to its rational part when that is all there is, so hash alike
        if self._terms.keys() <= {0}:
            return hash(self[0])
        return super().__hash__()

    def __mul__(self, other: "PiRational | RationalLike") -> "PiRational":
        if isinstance(other, self._scalars):
            return self.scale(other)
        return self._convolve(other, operator.add)

    def __truediv__(self, k: RationalLike) -> "PiRational":
        return self.scale(Fraction(1) / Fraction(k))

    def is_homogeneous(self, weight: int) -> bool:
        return all(e == weight for e in self._terms)

    def to_mpf(self) -> mp.mpf:
        """Value at the current mpmath working precision."""
        total = mp.mpf(0)
        for exp, coef in self._terms.items():
            total += mp.mpf(coef.numerator) / coef.denominator * mp.pi ** exp
        return total

    def to_json(self) -> list[dict]:
        return [{"pi2": e, "coef": f"{c.numerator}/{c.denominator}"} for e, c in self.items()]

    @classmethod
    def from_json(cls, data: list[dict]) -> "PiRational":
        return cls({int(d["pi2"]): Fraction(d["coef"]) for d in data})

    def _term_str(self, exp: int, coef: Fraction) -> str:
        if exp == 0:
            return str(coef)
        return f"pi^{exp}" if coef == 1 else f"{coef}*pi^{exp}"


class MzvMonomial(tuple):
    """A commutative product of zeta symbols Ze[s^1]...Ze[s^d].

    It is the tuple of its factors, compositions sorted by ``sort_key``; the
    empty product is the scalar one.  Factors are expected to index
    convergent nested sums (first part >= 2); enforcing that is left to the
    constructors in :mod:`multitangent.mzv` so that intermediate formal work
    stays cheap.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[Composition] = ()) -> "MzvMonomial":
        return super().__new__(cls, sorted(factors, key=Composition.sort_key))

    @classmethod
    def one(cls) -> "MzvMonomial":
        return cls(())

    @classmethod
    def symbol(cls, s: Composition) -> "MzvMonomial":
        return cls((s,))

    @property
    def factors(self) -> "MzvMonomial":
        """The monomial itself, the tuple of its factors."""
        return self

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def weight(self) -> int:
        return sum(map(sum, self))

    def __mul__(self, other: "MzvMonomial") -> "MzvMonomial":
        return MzvMonomial(self + other)

    def sort_key(self):
        return (self.weight, len(self), tuple(f.sort_key() for f in self))

    def __str__(self) -> str:
        if not self:
            return "1"
        return "*".join(f"Ze[{f}]" for f in self)

    __repr__ = __str__


class CoeffExpr(LinearCombination):
    """Exact scalar: a map from MZV monomials to rational coefficients.

    A LinearCombination keyed by MzvMonomial; adds the formal product,
    symbol substitution and JSON.  Coefficients are Fractions: pi never
    enters a zeta coefficient, only the constants, which are PiRational.
    Products of monomials are kept formal; linearization through the
    stuffle is an explicit pass (:func:`multitangent.mzv.linearize`).
    """

    __slots__ = ()
    _order = staticmethod(MzvMonomial.sort_key)
    _zero = Fraction(0)
    _scalars = (int, Fraction)
    _coef = staticmethod(Fraction)

    @classmethod
    def zero(cls) -> "CoeffExpr":
        return cls._make({})

    @classmethod
    def scalar(cls, value: RationalLike) -> "CoeffExpr":
        return cls._single(MzvMonomial.one(), value)

    @classmethod
    def symbol(cls, s: Composition, coef: RationalLike = 1) -> "CoeffExpr":
        return cls._single(MzvMonomial.symbol(s), coef)

    @classmethod
    def _single(cls, mono: MzvMonomial, coef: RationalLike) -> "CoeffExpr":
        coef = cls._coef(coef)
        return cls._make({mono: coef} if coef else {})

    def __mul__(self, other: "CoeffExpr") -> "CoeffExpr":
        """Formal product: monomials multiply, no stuffle linearization."""
        if isinstance(other, self._scalars):
            return self.scale(other)
        return self._convolve(other, MzvMonomial.__mul__)

    def is_weight_homogeneous(self, weight: int) -> bool:
        """Every term has total weight ``weight``, each zeta symbol its own."""
        return all(mono.weight == weight for mono in self._terms)

    def map_symbols(self, fn) -> "CoeffExpr":
        """Replace every length-1 factor through ``fn: Composition -> CoeffExpr``.

        Used for basis substitution; products of factors are substituted
        factor by factor and multiplied formally.
        """
        return CoeffExpr._sum(
            pair
            for mono, coef in self._terms.items()
            for pair in functools.reduce(
                operator.mul, map(fn, mono), CoeffExpr.scalar(coef)
            )._terms.items()
        )

    def to_json(self) -> dict:
        # "pi2" stays in the wire format; a coefficient carries no pi power
        return {
            "terms": [
                {
                    "pi2": 0,
                    "coef": f"{coef.numerator}/{coef.denominator}",
                    "mzv": [list(f) for f in mono],
                }
                for mono, coef in self.items()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoeffExpr":
        for term in data["terms"]:
            if int(term["pi2"]) != 0:
                raise ValueError(f"pi power in term {term}: coefficients are rational")
        return cls._sum((MzvMonomial(Composition(p) for p in term["mzv"]),
                         Fraction(term["coef"])) for term in data["terms"])

    def _term_str(self, mono: MzvMonomial, coef: Fraction, sep: str = "*") -> str:
        factors = sep.join(f"Ze[{f}]" for f in mono)
        if not factors:
            return str(coef)
        return factors if coef == 1 else f"{coef}{sep}{factors}"

    def text(self, sep: str) -> str:
        """``str(self)`` with the zeta factors joined by ``sep``."""
        return " + ".join(self._term_str(m, c, sep) for m, c in self.items()) or "0"


def _numerators(expr: CoeffExpr) -> tuple:
    """``expr`` over one denominator: (den, ((monomial, numerator), ...))."""
    terms = expr._terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, tuple((key, c.numerator * (den // c.denominator)) for key, c in terms.items())


def _combine(terms) -> tuple:
    """The sum of n/d times vec over the (n, d, vec) of ``terms``, each vec
    ((key, int), ...), in integers: (den, ((key, numerator), ...)) over its
    nonzero numerators, with their content common to den divided out."""
    terms = list(terms)
    den = math.lcm(*(d for _, d, _ in terms))
    out: dict = {}
    for n, d, vec in terms:
        n *= den // d
        for key, c in vec:
            out[key] = out.get(key, 0) + n * c
    out = {key: c for key, c in out.items() if c}
    g = math.gcd(den, *out.values())
    return den // g, tuple((key, c // g) for key, c in out.items())


def _expression(den: int, vec: tuple) -> CoeffExpr:
    """(den, ((monomial, numerator), ...)) with Fraction coefficients."""
    return CoeffExpr._make({key: Fraction(n, den) for key, n in vec})
