"""Index compositions and the quasi-shuffle combinatorics built on them.

A composition is a finite sequence of positive integers.  Two products act on
formal sums of compositions: the shuffle (interleavings only) and the stuffle
(interleavings plus part-adding contractions over the additive semigroup of
positive integers).  Both are commutative and associative, with the empty
composition as unit.  Formal sums of compositions, like the other formal
sums of the package, are sparse linear combinations (LinearCombination).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=False)
class Composition:
    """An ordered tuple of positive integer parts; may be empty."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any((not isinstance(p, int)) or p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers, got {self.parts!r}")
        object.__setattr__(self, "parts", tuple(self.parts))

    @classmethod
    def of(cls, *parts: int) -> "Composition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the text form: comma-separated integers, "()" for empty."""
        text = text.strip()
        if text in ("", "()"):
            return cls()
        return cls(tuple(int(tok) for tok in text.split(",")))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def valuation(self) -> int:
        """Smallest part; 0 for the empty composition."""
        return min(self.parts) if self.parts else 0

    def reverse(self) -> "Composition":
        return Composition(self.parts[::-1])

    def concat(self, other: "Composition") -> "Composition":
        return Composition(self.parts + other.parts)

    def bump(self, i: int) -> "Composition":
        """Return the composition with part ``i`` (0-based) increased by one."""
        parts = list(self.parts)
        parts[i] += 1
        return Composition(tuple(parts))

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        # Canonical total order: weight, then length, then lexicographic.
        return (self.weight, self.length, self.parts)

    def __lt__(self, other: "Composition") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Composition") -> bool:
        return self.sort_key() <= other.sort_key()

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "()"
        return ",".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Composition({list(self.parts)!r})"


EMPTY = Composition()


class SeqClass(enum.Enum):
    """Convergence classification of a composition as a multitangent index.

    A length >= 1 composition indexes a convergent multitangent iff its first
    and last parts are both >= 2.  A leading 1 diverges at +infinity, a
    trailing 1 at -infinity.  A trailing 1 with a leading part >= 2 still
    indexes a convergent nested sum over positive integers, so
    CONVERGENT_MZV_ONLY is an alias for DIVERGENT_RIGHT.
    """

    EMPTY = "empty"
    CONVERGENT_MULTITANGENT = "convergent_multitangent"
    DIVERGENT_LEFT = "divergent_left"
    DIVERGENT_RIGHT = "divergent_right"
    CONVERGENT_MZV_ONLY = "divergent_right"  # alias, see docstring
    DIVERGENT_BOTH = "divergent_both"


def classify(s: Composition) -> SeqClass:
    if not s:
        return SeqClass.EMPTY
    left_ok = s.parts[0] >= 2
    right_ok = s.parts[-1] >= 2
    if left_ok and right_ok:
        return SeqClass.CONVERGENT_MULTITANGENT
    if left_ok:
        return SeqClass.DIVERGENT_RIGHT
    if right_ok:
        return SeqClass.DIVERGENT_LEFT
    return SeqClass.DIVERGENT_BOTH


def is_mzv_convergent(s: Composition) -> bool:
    """Whether the one-sided nested sum over 0 < n_r < ... < n_1 converges."""
    return not s or s.parts[0] >= 2


def is_multitangent_convergent(s: Composition) -> bool:
    return bool(s) and s.parts[0] >= 2 and s.parts[-1] >= 2


class LinearCombination:
    """Sparse formal linear combination: a map from keys to nonzero
    coefficients.

    The one implementation behind WordPoly, PiRational, CoeffExpr and
    lab.MtCombo.  Zero coefficients are never stored.  The public
    constructor coerces and prunes input from outside; every arithmetic
    result is built by ``_make``, which takes a dict the operation has
    already pruned.  Subclasses set the class attributes below and
    ``_term_str``, which renders one term.
    """

    __slots__ = ("_terms",)

    #: key function of the canonical order of ``items()``; None sorts the
    #: keys themselves
    _order = None
    #: coefficient of an absent key
    _zero = 0
    #: types that ``k * combination`` accepts as a scaling factor
    _scalars: tuple[type, ...] = (int,)

    def __init__(self, terms=None):
        self._terms = {}
        if terms:
            for key, coef in dict(terms).items():
                coef = self._coef(coef)
                if coef:
                    self._terms[key] = coef

    @staticmethod
    def _coef(value):
        """Coerce a coefficient or scaling factor given from outside."""
        return value

    @classmethod
    def _make(cls, terms: dict):
        """Wrap ``terms`` as it is: the caller has pruned every zero."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    def _lift(self, other):
        """``other``, not of this class, as a combination of it, or None."""
        return None

    def items(self) -> Iterator[tuple]:
        terms = self._terms
        return iter([(key, terms[key]) for key in sorted(terms, key=self._order)])

    def __getitem__(self, key):
        return self._terms.get(key, self._zero)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        out = dict(self._terms)
        for key, coef in other._terms.items():
            if key in out:
                coef = out[key] + coef
                if not coef:
                    del out[key]
                    continue
            out[key] = coef
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({key: -coef for key, coef in self._terms.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, k):
        # coefficients lie in integral domains: a nonzero k keeps every
        # product nonzero
        k = self._coef(k)
        if not k:
            return self._make({})
        return self._make({key: coef * k for key, coef in self._terms.items()})

    def __rmul__(self, k):
        if isinstance(k, self._scalars):
            return self.scale(k)
        return NotImplemented

    def _convolve(self, other, key_product):
        """Bilinear product: keys combine through ``key_product``,
        coefficients multiply."""
        if type(other) is not type(self):
            return NotImplemented
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = key_product(k1, k2)
                coef = c1 * c2
                out[key] = out[key] + coef if key in out else coef
        return self._make({key: coef for key, coef in out.items() if coef})

    def __str__(self) -> str:
        return " + ".join(self._term_str(key, coef) for key, coef in self.items()) or "0"

    __repr__ = __str__


class WordPoly(LinearCombination):
    """Integer-coefficient formal combination of compositions.

    A LinearCombination keyed by Composition; adds the prefix helper used
    by the product recursions.
    """

    __slots__ = ()
    _order = staticmethod(Composition.sort_key)

    @classmethod
    def single(cls, word: Composition, mult: int = 1) -> "WordPoly":
        return cls._make({word: mult} if mult else {})

    def prepend(self, letter: int) -> "WordPoly":
        return self._make(
            {Composition((letter,) + w.parts): m for w, m in self._terms.items()}
        )

    def total_multiplicity(self) -> int:
        return sum(self._terms.values())

    def _term_str(self, word: Composition, mult: int) -> str:
        return f"{mult}*({word})"

    def __repr__(self) -> str:
        return f"WordPoly({super().__str__()})"

    __str__ = __repr__


@functools.lru_cache(maxsize=4096)
def stuffle(a: Composition, b: Composition) -> WordPoly:
    """Quasi-shuffle of two compositions, contractions adding the parts.

    stuffle(P, Q) = p1 (P' * Q) + q1 (P * Q') + (p1+q1) (P' * Q') with the
    empty word as unit.
    """
    if not a:
        return WordPoly.single(b)
    if not b:
        return WordPoly.single(a)
    p1, a_rest = a.parts[0], Composition(a.parts[1:])
    q1, b_rest = b.parts[0], Composition(b.parts[1:])
    out = stuffle(a_rest, b).prepend(p1)
    out = out + stuffle(a, b_rest).prepend(q1)
    out = out + stuffle(a_rest, b_rest).prepend(p1 + q1)
    return out


@functools.lru_cache(maxsize=4096)
def shuffle(a: Composition, b: Composition) -> WordPoly:
    """Plain shuffle (interleavings, no contractions) of two compositions."""
    if not a:
        return WordPoly.single(b)
    if not b:
        return WordPoly.single(a)
    p1, a_rest = a.parts[0], Composition(a.parts[1:])
    q1, b_rest = b.parts[0], Composition(b.parts[1:])
    return shuffle(a_rest, b).prepend(p1) + shuffle(a, b_rest).prepend(q1)


def stuffle_poly(p: WordPoly, q: WordPoly) -> WordPoly:
    """Bilinear extension of the stuffle to formal combinations."""
    out = WordPoly()
    for wa, ma in p.items():
        for wb, mb in q.items():
            out = out + (ma * mb) * stuffle(wa, wb)
    return out


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stuffle_count(la: int, lb: int) -> int:
    """Number of distinct monomials in a stuffle of words with all-distinct letters.

    Equals sum over k of 2^k C(la, la-k) C(lb, lb-k), k the number of
    contracted pairs.
    """
    if la < 0 or lb < 0:
        raise ValueError("lengths must be nonnegative")
    return sum(
        (1 << k) * _binom(la, la - k) * _binom(lb, lb - k)
        for k in range(min(la, lb) + 1)
    )


def compositions_of(weight: int, min_part: int = 1) -> Iterator[Composition]:
    """All compositions of ``weight`` with parts >= min_part, canonical order."""
    if weight < 0:
        return
    if weight == 0:
        yield EMPTY
        return

    def gen(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min_part, remaining + 1):
            for rest in gen(remaining - first):
                yield (first,) + rest

    yield from sorted((Composition(t) for t in gen(weight)), key=Composition.sort_key)


def enumerate_compositions(weight: int, seq_class: str = "all") -> list[Composition]:
    """Deterministic enumeration of weight-``weight`` compositions by class.

    seq_class: "all", "convergent" (first and last part >= 2), "mzv" (first
    part >= 2), or "val2" (every part >= 2).
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    if seq_class == "all":
        return list(compositions_of(weight))
    if seq_class == "val2":
        return list(compositions_of(weight, min_part=2))
    if seq_class == "convergent":
        return [s for s in compositions_of(weight) if is_multitangent_convergent(s)]
    if seq_class == "mzv":
        return [s for s in compositions_of(weight) if s and s.parts[0] >= 2]
    raise ValueError(f"unknown class {seq_class!r}")


def repeat(part_or_block: int | Iterable[int], times: int) -> Composition:
    """The composition made of ``times`` copies of a part or block."""
    block = (part_or_block,) if isinstance(part_or_block, int) else tuple(part_or_block)
    return Composition(block * times)
