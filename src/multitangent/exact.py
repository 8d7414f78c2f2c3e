"""Exact scalar arithmetic: rational combinations of even powers of pi and
formal products of multiple zeta symbols.

Everything here is symbolic and exact.  Numeric evaluation lives in
:mod:`multitangent.mzv`.
"""

from __future__ import annotations

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

    @property
    def rational_part(self) -> Fraction:
        return self[0]

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


ZERO = PiRational(0)
ONE = PiRational(1)


class MzvMonomial:
    """A commutative product of zeta symbols Ze[s^1]...Ze[s^d].

    Factors are kept as a sorted tuple of compositions; the empty product is
    the scalar one.  Factors are expected to index convergent nested sums
    (first part >= 2); enforcing that is left to the constructors in
    :mod:`multitangent.mzv` so that intermediate formal work stays cheap.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Composition] = ()):
        object.__setattr__(self, "factors", tuple(sorted(factors, key=Composition.sort_key)))

    def __setattr__(self, *args):
        raise AttributeError("MzvMonomial is immutable")

    @classmethod
    def one(cls) -> "MzvMonomial":
        return cls(())

    @classmethod
    def symbol(cls, s: Composition) -> "MzvMonomial":
        return cls((s,))

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def weight(self) -> int:
        return sum(f.weight for f in self.factors)

    def __mul__(self, other: "MzvMonomial") -> "MzvMonomial":
        return MzvMonomial(self.factors + other.factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MzvMonomial):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def sort_key(self):
        return (self.weight, self.degree, tuple(f.sort_key() for f in self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"Ze[{f}]" for f in self.factors)

    __repr__ = __str__


class CoeffExpr(LinearCombination):
    """Exact scalar: a map from MZV monomials to PiRational coefficients.

    A LinearCombination keyed by MzvMonomial; adds the formal product,
    symbol substitution and JSON.  Products of monomials are kept formal;
    linearization through the stuffle is an explicit pass
    (:func:`multitangent.mzv.linearize`).
    """

    __slots__ = ()
    _order = staticmethod(MzvMonomial.sort_key)
    _zero = ZERO
    _scalars = (int, Fraction, PiRational)

    @classmethod
    def zero(cls) -> "CoeffExpr":
        return cls._make({})

    @classmethod
    def scalar(cls, value: PiRational | RationalLike) -> "CoeffExpr":
        return cls._single(MzvMonomial.one(), value)

    @classmethod
    def symbol(cls, s: Composition, coef: PiRational | RationalLike = 1) -> "CoeffExpr":
        return cls._single(MzvMonomial.symbol(s), coef)

    @classmethod
    def _single(cls, mono: MzvMonomial, coef: PiRational | RationalLike) -> "CoeffExpr":
        if isinstance(coef, (int, Fraction)):
            coef = PiRational(coef)
        return cls._make({mono: coef} if coef else {})

    def __mul__(self, other: "CoeffExpr") -> "CoeffExpr":
        """Formal product: monomials multiply, no stuffle linearization."""
        if isinstance(other, self._scalars):
            return self.scale(other)
        return self._convolve(other, MzvMonomial.__mul__)

    def is_weight_homogeneous(self, weight: int) -> bool:
        """Every term has total weight ``weight`` (pi^2 weighs 2, each zeta
        symbol its own weight)."""
        for mono, coef in self._terms.items():
            for exp, _ in coef.items():
                if mono.weight + exp != weight:
                    return False
        return True

    def map_symbols(self, fn) -> "CoeffExpr":
        """Replace every length-1 factor through ``fn: Composition -> CoeffExpr``.

        Used for basis substitution; products of factors are substituted
        factor by factor and multiplied formally.
        """
        out = CoeffExpr.zero()
        for mono, coef in self._terms.items():
            term = CoeffExpr.scalar(coef)
            for factor in mono.factors:
                term = term * fn(factor)
            out = out + term
        return out

    def to_json(self) -> dict:
        terms = []
        for mono, coef in self.items():
            for exp, frac in coef.items():
                terms.append(
                    {
                        "pi2": exp,
                        "coef": f"{frac.numerator}/{frac.denominator}",
                        "mzv": [list(f.parts) for f in mono.factors],
                    }
                )
        return {"terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "CoeffExpr":
        out = cls()
        for term in data["terms"]:
            mono = MzvMonomial(Composition(tuple(p)) for p in term["mzv"])
            coef = PiRational({int(term["pi2"]): Fraction(term["coef"])})
            out = out + cls({mono: coef})
        return out

    def _term_str(self, mono: MzvMonomial, coef: PiRational, sep: str = "*") -> str:
        c = str(coef)
        factors = sep.join(f"Ze[{f}]" for f in mono.factors)
        if not factors:
            return c
        if c == "1":
            return factors
        return (f"({c})" if "+" in c or " " in c else c) + sep + factors

    def text(self, sep: str) -> str:
        """``str(self)`` with the zeta factors joined by ``sep``."""
        return " + ".join(self._term_str(m, c, sep) for m, c in self.items()) or "0"
