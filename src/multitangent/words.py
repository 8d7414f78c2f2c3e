"""Index compositions and the quasi-shuffle combinatorics built on them.

A composition is a finite sequence of positive integers, a ``Composition``
the tuple of them with its own order.  Two products act on formal sums of
compositions: the shuffle (interleavings only) and the stuffle
(interleavings plus part-adding contractions over the additive semigroup of
positive integers).  Both are commutative and associative, with the empty
composition as unit.  Formal sums of compositions, like the other formal
sums of the package, are sparse linear combinations (LinearCombination) that
add through ``_accumulate``; the integer loops of ``exact._combine`` and
``reduction._fold_sum`` keep their own, as through it a cold ``reduce`` of
every composition to weight 9 took 6% more CPU time.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Iterator


class Composition(tuple):
    """An ordered tuple of positive integer parts; may be empty.  A slice or
    a sum of two is a plain tuple; only the order is its own, by ``sort_key``."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        self = super().__new__(cls, parts)
        for p in self:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {tuple(self)!r}")
        return self

    @classmethod
    def of(cls, *parts: int) -> "Composition":
        return cls(parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the text form: comma-separated integers, "()" for empty."""
        text = text.strip()
        if text in ("", "()"):
            return cls()
        return cls(int(tok) for tok in text.split(","))

    @property
    def parts(self) -> "Composition":
        """The composition itself, the tuple of its parts."""
        return self

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def reverse(self) -> "Composition":
        return Composition(self[::-1])

    def bump(self, i: int) -> "Composition":
        """Return the composition with part ``i`` (0-based) increased by one."""
        parts = list(self)
        parts[i] += 1
        return Composition(parts)

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        # Canonical total order: weight, then length, then lexicographic.  The
        # last item is a plain tuple: comparing self would recurse.
        return (sum(self), len(self), tuple(self))

    def __lt__(self, other: "Composition") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Composition") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Composition") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Composition") -> bool:
        return self.sort_key() >= other.sort_key()

    def __str__(self) -> str:
        if not self:
            return "()"
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"Composition({list(self)!r})"


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
    left_ok = s[0] >= 2
    right_ok = s[-1] >= 2
    if left_ok and right_ok:
        return SeqClass.CONVERGENT_MULTITANGENT
    if left_ok:
        return SeqClass.DIVERGENT_RIGHT
    if right_ok:
        return SeqClass.DIVERGENT_LEFT
    return SeqClass.DIVERGENT_BOTH


def is_multitangent_convergent(s: Composition) -> bool:
    return bool(s) and s[0] >= 2 and s[-1] >= 2


def _accumulate(pairs) -> dict:
    """The (key, coefficient) ``pairs`` summed as a dict: the coefficients of
    equal keys added, each key in its first place, zero sums dropped."""
    out: dict = {}
    for key, coef in pairs:
        out[key] = out[key] + coef if key in out else coef
    return {key: coef for key, coef in out.items() if coef}


class LinearCombination:
    """Sparse formal linear combination: a map from keys to nonzero
    coefficients.

    The one implementation behind WordPoly, PiRational, CoeffExpr and
    lab.MtCombo.  Zero coefficients are never stored.  The public
    constructor coerces and prunes input from outside; every arithmetic
    result is built by ``_make``, which takes a dict the operation has
    already pruned, and every sum of terms by ``_sum``, which adds them
    through ``_accumulate``.  Subclasses set the class attributes below and
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
        self._terms = _accumulate((key, self._coef(c)) for key, c in dict(terms or {}).items())

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

    @classmethod
    def _sum(cls, pairs):
        """The combination of the (key, coefficient) ``pairs``, added."""
        return cls._make(_accumulate(pairs))

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
        return self._sum([*self._terms.items(), *other._terms.items()])

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
        return self._sum(
            (key_product(k1, k2), c1 * c2)
            for k1, c1 in self._terms.items()
            for k2, c2 in other._terms.items()
        )

    def __str__(self) -> str:
        return " + ".join(self._term_str(key, coef) for key, coef in self.items()) or "0"

    __repr__ = __str__


class WordPoly(LinearCombination):
    """Integer-coefficient formal combination of compositions: a
    LinearCombination keyed by Composition."""

    __slots__ = ()
    _order = staticmethod(Composition.sort_key)

    @classmethod
    def single(cls, word: Composition, mult: int = 1) -> "WordPoly":
        return cls._make({word: mult} if mult else {})

    def _term_str(self, word: Composition, mult: int) -> str:
        return f"{mult}*({word})"

    def __repr__(self) -> str:
        return f"WordPoly({super().__str__()})"

    __str__ = __repr__


def _prefixed(*pieces) -> WordPoly:
    """The sum over the (letter, poly) ``pieces`` of the words of poly, each
    with letter put in front."""
    return WordPoly._sum(
        (Composition((letter,) + w), m)
        for letter, poly in pieces
        for w, m in poly._terms.items()
    )


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
    p1, a_rest = a[0], Composition(a[1:])
    q1, b_rest = b[0], Composition(b[1:])
    return _prefixed((p1, stuffle(a_rest, b)), (q1, stuffle(a, b_rest)),
                     (p1 + q1, stuffle(a_rest, b_rest)))


@functools.lru_cache(maxsize=4096)
def shuffle(a: Composition, b: Composition) -> WordPoly:
    """Plain shuffle (interleavings, no contractions) of two compositions."""
    if not a:
        return WordPoly.single(b)
    if not b:
        return WordPoly.single(a)
    p1, a_rest = a[0], Composition(a[1:])
    q1, b_rest = b[0], Composition(b[1:])
    return _prefixed((p1, shuffle(a_rest, b)), (q1, shuffle(a, b_rest)))


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
        return [s for s in compositions_of(weight) if s and s[0] >= 2]
    raise ValueError(f"unknown class {seq_class!r}")


def repeat(part_or_block: int | Iterable[int], times: int) -> Composition:
    """The composition made of ``times`` copies of a part or block."""
    block = (part_or_block,) if isinstance(part_or_block, int) else tuple(part_or_block)
    return Composition(block * times)
