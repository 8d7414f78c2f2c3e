"""Table of multiple zeta values in a fixed basis, weights 2 to 10.

Per weight w the table declares a basis of zeta monomials (the conjectural
dimensions 1,1,1,2,2,3,4,5,7 for w = 2..10) and expresses every convergent
zeta symbol of that weight as an exact rational combination of the basis.

The entries are derived, not stored.  Per weight, the double shuffle
relations (stuffle minus shuffle of two words, one of them of depth 1) and
the stuffle expansion of each basis monomial form one exact rational
system, and its reduced row echelon form solves every convergent word for
the basis.  The pairs of the divergent word (1) are Hoffman's relations:
its divergent word (1, ...) cancels.  The shuffle is the one of x/y words,
computed on the compositions and kept only while a derivation runs.  These
relations suffice at weights 2..10 (Ihara-Kaneko-Zagier, Compositio 142,
2006; Bluemlein-Broadhurst-Vermaseren, "The MZV Data Mine",
arXiv:0907.2557); a word they leave unsolved raises CoverageError.

The derivation is not trusted blindly: each weight's entries are stored
only after the difference of each symbol and its entry is certified, as one
sum over the nested-sum engine, with 0 inside its certificate, so a wrong
entry fails fast instead of corrupting results downstream.
``MzvBasisTable.load`` derives weights up to ``EAGER_WEIGHT``; each heavier
weight is derived on its first lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoverageError
from .exact import CoeffExpr, MzvMonomial
from .linalg import rref
from .mzv import NumericContext, _check_zero, linearize
from .words import Composition, WordPoly, _accumulate, enumerate_compositions, stuffle

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


def _shuffle_xy(a: tuple, b: tuple, memo: dict) -> dict:
    """Shuffle of the x/y words of ``a`` and ``b`` (part k is x^(k-1) y) as
    {composition: multiplicity}, ``memo`` kept by one derivation.  A first
    part k > 1 is an x before (k-1, ...): putting it back adds 1 to the first
    part.  A first part 1 is a y: putting it back adds a leading part 1."""
    if not a or not b:
        return {a or b: 1}
    if (a, b) not in memo:
        memo[a, b] = _accumulate(
            ((w[0] + 1, *w[1:]) if u[0] > 1 else (1, *w), m)
            for u, v in ((a, b), (b, a))
            for w, m in _shuffle_xy((u[0] - 1, *u[1:]) if u[0] > 1 else u[1:], v, memo).items()
        )
    return memo[a, b]


def _derive(weight: int, basis: list[MzvMonomial]) -> dict[Composition, CoeffExpr]:
    """Every convergent symbol of ``weight`` over ``basis``, in canonical order.

    Unknowns are the convergent words, deepest first (the least fill-in),
    then one column per basis monomial; each relation goes to rref as one
    sparse row of the ints and Fractions it holds.  After one rref every
    word column must hold a pivot, and the word equals minus the basis part
    of its row.
    """
    words = enumerate_compositions(weight, "mzv")
    shuffles: dict = {}  # freed when the derivation returns
    relations = [
        stuffle(a, b) - WordPoly._make(_shuffle_xy(a, b, shuffles))
        for left in range(1, weight - 1)
        # weight 1 has the one word (1): its pairs are Hoffman's relations
        for a in enumerate_compositions(left, "mzv") or [Composition((1,))]
        for b in enumerate_compositions(weight - left, "mzv")
        # both products commute: one row per unordered pair, one side of depth 1
        if a <= b and 1 in (a.length, b.length)
    ]
    for mono in basis:
        expansion = linearize(CoeffExpr({mono: 1}))
        relations.append({mono: -1, **{m[0]: c for m, c in expansion.items()}})
    deepest = sorted(words, key=lambda w: -w.length)
    column = {key: i for i, key in enumerate(deepest + basis)}
    red, pivots = rref([{column[key]: coef for key, coef in r.items()} for r in relations])
    n = len(words)
    if pivots[:n] != list(range(n)):
        raise CoverageError(
            f"double shuffle does not reduce weight {weight} to its basis", weight=weight
        )
    rows = dict(zip(deepest, red))
    return {
        w: CoeffExpr({mono: -rows[w][n + j] for j, mono in enumerate(basis) if n + j in rows[w]})
        for w in words
    }


def _certified_entries(
    weight: int, basis: list[MzvMonomial]
) -> dict[Composition, CoeffExpr]:
    """The entries of ``weight``, each certified: Ze[s] minus its entry is
    one sum, and unless 0 lies within its certificate NumericRecheckError
    names the entry."""
    entries = _derive(weight, basis)
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
