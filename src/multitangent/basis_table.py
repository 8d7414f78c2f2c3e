"""Table of multiple zeta values in a fixed basis, weights 2 to 10.

Per weight w the table declares a basis of zeta monomials (the conjectural
dimensions 1,1,1,2,2,3,4,5,7 for w = 2..10) and expresses every convergent
zeta symbol of that weight as an exact rational combination of the basis.

The entries are derived, not stored.  Per weight, the double shuffle
relations (stuffle minus shuffle of two convergent words, one of them of
depth 1), Hoffman's relations (stuffle minus shuffle of Ze[1] with a
convergent word, whose divergent word cancels) and the stuffle expansion of
each basis monomial form one exact rational system, and its reduced row
echelon form solves every convergent word for the basis.  These relations
suffice at weights 2..10 (Ihara-Kaneko-Zagier, Compositio 142, 2006;
Bluemlein-Broadhurst-Vermaseren, "The MZV Data Mine", arXiv:0907.2557); a
word they leave unsolved raises CoverageError.

The derivation is not trusted blindly: each weight's entries are stored
only after the difference of each symbol and its entry is certified, as one
sum over the nested-sum engine, with 0 inside its certificate, so a wrong
entry fails fast instead of corrupting results downstream.
``MzvBasisTable.load`` derives weights up to ``EAGER_WEIGHT``; each heavier
weight is derived on its first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CoverageError
from .exact import CoeffExpr, MzvMonomial
from .linalg import rref
from .mzv import NumericContext, _check_zero, linearize
from .words import Composition, WordPoly, enumerate_compositions, shuffle, stuffle

#: Basis monomials per weight, each monomial a tuple of index tuples.
BASES: dict[int, tuple[tuple[tuple[int, ...], ...], ...]] = {
    2: (((2,),),),
    3: (((3,),),),
    4: (((4,),),),
    5: (((5,),), ((2,), (3,))),
    6: (((6,),), ((3,), (3,))),
    7: (((7,),), ((2,), (5,)), ((4,), (3,))),
    8: (((8,),), ((3,), (5,)), ((2,), (3,), (3,)), ((6, 2),)),
    9: (((9,),), ((2,), (7,)), ((4,), (5,)), ((3,), (6,)), ((3,), (3,), (3,))),
    10: (((10,),), ((3,), (7,)), ((5,), (5,)), ((2,), (3,), (5,)), ((4,), (3,), (3,)),
         ((8, 2),), ((2,), (6, 2))),
}

MAX_WEIGHT = max(BASES)

# Weights past this one are derived on first use: deriving and certifying
# 9 and 10 takes 0.45-0.7 s (weight 10 0.33-0.52 s of it) on a 2-vCPU Intel
# Xeon host, which every process would pay at load (the benchmark's
# setup_s), though only workbench calls past weight 9 need them.
EAGER_WEIGHT = 8

_VERIFY_CONTEXT = NumericContext(target_abs_error=5e-11)  # an entry off by 1e-10 fails


def _basis_monomial(mono: tuple[tuple[int, ...], ...]) -> MzvMonomial:
    return MzvMonomial(Composition(f) for f in mono)


def _letters(s: Composition) -> Composition:
    """The x/y word of a composition, x as 1 and y as 2: part k is x^(k-1) y."""
    return Composition(letter for k in s for letter in (1,) * (k - 1) + (2,))


def _parts(word: Composition) -> Composition:
    """The composition of an x/y word ending in y; inverse of ``_letters``."""
    parts, run = [], 0
    for letter in word:
        run += 1
        if letter == 2:
            parts.append(run)
            run = 0
    return Composition(parts)


def _shuffle_xy(a: Composition, b: Composition) -> WordPoly:
    """Shuffle of the x/y words of ``a`` and ``b``, read back as compositions."""
    return WordPoly({_parts(w): m for w, m in shuffle(_letters(a), _letters(b)).items()})


def _derive(weight: int, basis: list[MzvMonomial]) -> dict[Composition, CoeffExpr]:
    """Every convergent symbol of ``weight`` over ``basis``, in canonical order.

    Unknowns are the convergent words, deepest first (the least fill-in),
    then one column per basis monomial.  After one rref every word column
    must hold a pivot, and the word equals minus the basis part of its row.
    """
    words = enumerate_compositions(weight, "mzv")
    relations = [
        stuffle(a, b) - _shuffle_xy(a, b)
        for left in range(2, weight - 1)
        for a in enumerate_compositions(left, "mzv")
        for b in enumerate_compositions(weight - left, "mzv")
        # both products commute: one row per unordered pair, one side of depth 1
        if a <= b and 1 in (a.length, b.length)
    ]
    one = Composition((1,))
    # Hoffman's relations: the divergent word (1, k) cancels
    relations += [
        stuffle(one, k) - _shuffle_xy(one, k)
        for k in enumerate_compositions(weight - 1, "mzv")
    ]
    for mono in basis:
        expansion = linearize(CoeffExpr({mono: 1}))
        relations.append({mono: -1, **{m[0]: c for m, c in expansion.items()}})
    deepest = sorted(words, key=lambda w: -w.length)
    column = {key: i for i, key in enumerate(deepest + basis)}
    matrix = []
    for relation in relations:
        row = [Fraction(0)] * len(column)
        for key, coef in relation.items():
            row[column[key]] = Fraction(coef)
        matrix.append(row)
    red, pivots = rref(matrix)
    n = len(words)
    if pivots[:n] != list(range(n)):
        raise CoverageError(
            f"double shuffle does not reduce weight {weight} to its basis", weight=weight
        )
    rows = dict(zip(deepest, red))
    return {
        w: CoeffExpr({mono: -rows[w][n + j] for j, mono in enumerate(basis)})
        for w in words
    }


def _certified_entries(
    weight: int, basis: list[MzvMonomial]
) -> dict[Composition, CoeffExpr]:
    """The entries of ``weight``, each certified: Ze[s] minus its entry is
    one sum, and unless 0 lies within its certificate NumericRecheckError
    names the entry."""
    entries = _derive(weight, basis)
    shuffle.cache_clear()  # only the derivation shuffles x/y words: free them
    for comp, combo in entries.items():
        diff = CoeffExpr.symbol(comp) - combo
        _check_zero(f"Ze[{comp}] minus its table entry", diff, _VERIFY_CONTEXT)
    return entries


_SHARED_TABLE: "MzvBasisTable | None" = None


@dataclass
class MzvBasisTable:
    """Derived and verified basis table with substitution helpers."""

    entries: dict[Composition, CoeffExpr]
    bases: dict[int, list[MzvMonomial]]
    max_weight = MAX_WEIGHT  # not a field: every table reaches the same weight

    @classmethod
    def load(cls) -> "MzvBasisTable":
        """Derive and certify the entries up to ``EAGER_WEIGHT``."""
        bases = {
            w: [_basis_monomial(m) for m in monos] for w, monos in BASES.items()
        }
        entries: dict[Composition, CoeffExpr] = {}
        for w in range(2, EAGER_WEIGHT + 1):
            entries.update(_certified_entries(w, bases[w]))
        return cls(entries=entries, bases=bases)

    @classmethod
    def shared(cls) -> "MzvBasisTable":
        """The table, derived and verified once per process and reused."""
        global _SHARED_TABLE
        if _SHARED_TABLE is None:
            _SHARED_TABLE = cls.load()
        return _SHARED_TABLE

    def basis(self, weight: int) -> list[MzvMonomial]:
        if weight == 0 or weight == 1:
            return [MzvMonomial.one()] if weight == 0 else []
        if weight not in self.bases:
            raise CoverageError(f"no basis at weight {weight}", weight=weight)
        return self.bases[weight]

    def substitute_symbol(self, s: Composition) -> CoeffExpr:
        """Basis expansion of a single convergent zeta symbol; the first
        lookup past ``EAGER_WEIGHT`` derives and certifies its weight."""
        if not s:
            return CoeffExpr.scalar(1)
        w = s.weight
        # Ze[w] is an entry of every derived weight
        if EAGER_WEIGHT < w <= MAX_WEIGHT and Composition((w,)) not in self.entries:
            self.entries.update(_certified_entries(w, self.bases[w]))
        entry = self.entries.get(s)
        if entry is None:
            raise CoverageError(f"no table entry for Ze[{s}] (weight {w})", weight=w)
        return entry

    def substitute(self, expr: CoeffExpr) -> CoeffExpr:
        """Rewrite every zeta factor of ``expr`` through the table.

        The result is a combination of products of basis monomials; factors
        multiply formally, so apply ``mzv.linearize`` first if single-symbol
        input is required.
        """
        return expr.map_symbols(self.substitute_symbol)
