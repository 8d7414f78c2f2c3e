"""Bundled table of multiple zeta values in a fixed basis, weights 2 to 8.

Per weight w the table declares a basis of zeta monomials (the conjectural
dimensions 1,1,1,2,2,3,4 for w = 2..8) and expresses every convergent zeta
symbol of that weight as an exact rational combination of the basis.  The
entries are data, assembled from the classical reduction of low-weight
multiple zeta values (Euler's evaluations for length two, the standard
tables beyond) and re-derived against this basis at 40+ digit precision
before being frozen here.

The table is never trusted blindly: ``MzvBasisTable.load`` re-verifies every
entry numerically against the nested-sum oracle and refuses to load on any
mismatch, so a corrupted entry fails fast instead of corrupting results
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import CoverageError, NumericRecheckError
from .exact import CoeffExpr, MzvMonomial, PiRational
from .mzv import NumericContext, mzv_numeric
from .words import Composition

#: Basis monomials per weight, each monomial a tuple of index tuples.
BASES: dict[int, tuple[tuple[tuple[int, ...], ...], ...]] = {
    0: (((),),),
    2: (((2,),),),
    3: (((3,),),),
    4: (((4,),),),
    5: (((5,),), ((2,), (3,))),
    6: (((6,),), ((3,), (3,))),
    7: (((7,),), ((2,), (5,)), ((4,), (3,))),
    8: (((8,),), ((3,), (5,)), ((2,), (3,), (3,)), ((6, 2),)),
}

#: Entry data: index tuple -> coefficients over the basis of its weight.
ENTRIES: dict[tuple[int, ...], tuple[str, ...]] = {
    # weight 2
    (2,): ("1",),
    # weight 3
    (3,): ("1",),
    (2, 1): ("1",),  # Euler
    # weight 4
    (4,): ("1",),
    (2, 2): ("3/4",),
    (3, 1): ("1/4",),
    (2, 1, 1): ("1",),
    # weight 5
    (5,): ("1", "0"),
    (2, 3): ("9/2", "-2"),  # Euler
    (3, 2): ("-11/2", "3"),  # Euler
    (4, 1): ("2", "-1"),  # Euler
    (2, 1, 2): ("9/2", "-2"),
    (2, 2, 1): ("-11/2", "3"),
    (3, 1, 1): ("2", "-1"),
    (2, 1, 1, 1): ("1", "0"),
    # weight 6
    (6,): ("1", "0"),
    (2, 4): ("25/12", "-1"),
    (3, 3): ("-1/2", "1/2"),
    (4, 2): ("-4/3", "1"),
    (5, 1): ("3/4", "-1/2"),
    (2, 1, 3): ("-13/16", "1"),
    (2, 2, 2): ("3/16", "0"),
    (2, 3, 1): ("53/24", "-3/2"),
    (3, 1, 2): ("53/24", "-3/2"),
    (3, 2, 1): ("-203/48", "3"),
    (4, 1, 1): ("23/16", "-1"),
    (2, 1, 1, 2): ("25/12", "-1"),
    (2, 1, 2, 1): ("-1/2", "1/2"),
    (2, 2, 1, 1): ("-4/3", "1"),
    (3, 1, 1, 1): ("3/4", "-1/2"),
    (2, 1, 1, 1, 1): ("1", "0"),
    # weight 7
    (7,): ("1", "0", "0"),
    (2, 5): ("10", "-4", "-2"),
    (3, 4): ("-18", "10", "1"),
    (4, 3): ("17", "-10", "0"),
    (5, 2): ("-11", "5", "2"),
    (6, 1): ("3", "-1", "-1"),
    (2, 1, 4): ("61/8", "-11/2", "7/4"),
    (2, 2, 3): ("-291/16", "12", "-3/2"),
    (2, 3, 2): ("75/8", "-11/2", "0"),
    (2, 4, 1): ("-109/16", "5", "-5/4"),
    (3, 1, 3): ("-1/4", "0", "1/4"),
    (3, 2, 2): ("157/16", "-15/2", "9/4"),
    (3, 3, 1): ("61/8", "-9/2", "0"),
    (4, 1, 2): ("5/8", "5/2", "-15/4"),
    (4, 2, 1): ("-221/16", "11/2", "7/2"),
    (5, 1, 1): ("5", "-2", "-5/4"),
    (2, 1, 1, 3): ("61/8", "-11/2", "7/4"),
    (2, 1, 2, 2): ("-291/16", "12", "-3/2"),
    (2, 1, 3, 1): ("-1/4", "0", "1/4"),
    (2, 2, 1, 2): ("75/8", "-11/2", "0"),
    (2, 2, 2, 1): ("157/16", "-15/2", "9/4"),
    (2, 3, 1, 1): ("5/8", "5/2", "-15/4"),
    (3, 1, 1, 2): ("-109/16", "5", "-5/4"),
    (3, 1, 2, 1): ("61/8", "-9/2", "0"),
    (3, 2, 1, 1): ("-221/16", "11/2", "7/2"),
    (4, 1, 1, 1): ("5", "-2", "-5/4"),
    (2, 1, 1, 1, 2): ("10", "-4", "-2"),
    (2, 1, 1, 2, 1): ("-18", "10", "1"),
    (2, 1, 2, 1, 1): ("17", "-10", "0"),
    (2, 2, 1, 1, 1): ("-11", "5", "2"),
    (3, 1, 1, 1, 1): ("3", "-1", "-1"),
    (2, 1, 1, 1, 1, 1): ("1", "0", "0"),
    # weight 8
    (8,): ("1", "0", "0", "0"),
    (2, 6): ("2/3", "0", "0", "-1"),
    (3, 5): ("41/8", "-4", "0", "5/2"),
    (4, 4): ("1/12", "0", "0", "0"),
    (5, 3): ("-49/8", "5", "0", "-5/2"),
    (6, 2): ("0", "0", "0", "1"),
    (7, 1): ("5/4", "-1", "0", "0"),
    (2, 1, 5): ("-181/18", "21/2", "-1", "-5/2"),
    (2, 2, 4): ("121/6", "-20", "2", "11/2"),
    (2, 3, 3): ("1111/48", "-45/2", "2", "27/4"),
    (2, 4, 2): ("-677/18", "40", "-5", "-10"),
    (2, 5, 1): ("487/48", "-12", "2", "7/4"),
    (3, 1, 4): ("241/72", "-11/2", "3/2", "0"),
    (3, 2, 3): ("-245/6", "89/2", "-6", "-10"),
    (3, 3, 2): ("857/48", "-23", "9/2", "13/4"),
    (3, 4, 1): ("673/144", "0", "-2", "15/4"),
    (4, 1, 3): ("583/72", "-15/2", "1/2", "5/2"),
    (4, 2, 2): ("1271/72", "-20", "3", "9/2"),
    (4, 3, 1): ("-677/48", "21/2", "1/2", "-25/4"),
    (5, 1, 2): ("-145/72", "9/2", "-3/2", "-1"),
    (5, 2, 1): ("-289/144", "7/2", "-1", "7/4"),
    (6, 1, 1): ("61/24", "-3", "1/2", "0"),
    (2, 1, 1, 4): ("-14041/576", "24", "-2", "-15/2"),
    (2, 1, 2, 3): ("8893/192", "-45", "4", "27/2"),
    (2, 1, 3, 2): ("-1469/64", "43/2", "-3/2", "-27/4"),
    (2, 1, 4, 1): ("8335/576", "-31/2", "2", "15/4"),
    (2, 2, 1, 3): ("-1469/64", "43/2", "-3/2", "-27/4"),
    (2, 2, 2, 2): ("5/192", "0", "0", "0"),
    (2, 2, 3, 1): ("-4015/192", "51/2", "-9/2", "-9/2"),
    (2, 3, 1, 2): ("30301/576", "-54", "6", "27/2"),
    (2, 3, 2, 1): ("-15143/576", "27", "-3", "-27/4"),
    (2, 4, 1, 1): ("5725/576", "-9", "1/2", "3"),
    (3, 1, 1, 3): ("8335/576", "-31/2", "2", "15/4"),
    (3, 1, 2, 2): ("-4015/192", "51/2", "-9/2", "-9/2"),
    (3, 1, 3, 1): ("1/192", "0", "0", "0"),
    (3, 2, 1, 2): ("-15143/576", "27", "-3", "-27/4"),
    (3, 2, 2, 1): ("8035/192", "-51", "9", "9"),
    (3, 3, 1, 1): ("-7211/576", "13", "-3/2", "-15/4"),
    (4, 1, 1, 2): ("5725/576", "-9", "1/2", "3"),
    (4, 1, 2, 1): ("-7211/576", "13", "-3/2", "-15/4"),
    (4, 2, 1, 1): ("-863/576", "5", "-2", "3/2"),
    (5, 1, 1, 1): ("499/192", "-4", "1", "0"),
    (2, 1, 1, 1, 3): ("-181/18", "21/2", "-1", "-5/2"),
    (2, 1, 1, 2, 2): ("121/6", "-20", "2", "11/2"),
    (2, 1, 1, 3, 1): ("241/72", "-11/2", "3/2", "0"),
    (2, 1, 2, 1, 2): ("1111/48", "-45/2", "2", "27/4"),
    (2, 1, 2, 2, 1): ("-245/6", "89/2", "-6", "-10"),
    (2, 1, 3, 1, 1): ("583/72", "-15/2", "1/2", "5/2"),
    (2, 2, 1, 1, 2): ("-677/18", "40", "-5", "-10"),
    (2, 2, 1, 2, 1): ("857/48", "-23", "9/2", "13/4"),
    (2, 2, 2, 1, 1): ("1271/72", "-20", "3", "9/2"),
    (2, 3, 1, 1, 1): ("-145/72", "9/2", "-3/2", "-1"),
    (3, 1, 1, 1, 2): ("487/48", "-12", "2", "7/4"),
    (3, 1, 1, 2, 1): ("673/144", "0", "-2", "15/4"),
    (3, 1, 2, 1, 1): ("-677/48", "21/2", "1/2", "-25/4"),
    (3, 2, 1, 1, 1): ("-289/144", "7/2", "-1", "7/4"),
    (4, 1, 1, 1, 1): ("61/24", "-3", "1/2", "0"),
    (2, 1, 1, 1, 1, 2): ("2/3", "0", "0", "-1"),
    (2, 1, 1, 1, 2, 1): ("41/8", "-4", "0", "5/2"),
    (2, 1, 1, 2, 1, 1): ("1/12", "0", "0", "0"),
    (2, 1, 2, 1, 1, 1): ("-49/8", "5", "0", "-5/2"),
    (2, 2, 1, 1, 1, 1): ("0", "0", "0", "1"),
    (3, 1, 1, 1, 1, 1): ("5/4", "-1", "0", "0"),
    (2, 1, 1, 1, 1, 1, 1): ("1", "0", "0", "0"),
}

MAX_WEIGHT = 8

#: The basis dimensions are conjectural beyond what is proved classically;
#: rank statements made against this table are relative to these bases.
CONJECTURAL_DIMENSIONS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4}


def _basis_monomial(mono: tuple[tuple[int, ...], ...]) -> MzvMonomial:
    return MzvMonomial(Composition(f) for f in mono if f)


def provenance_note(comp: Composition) -> str:
    """Short origin label for a table entry."""
    parts = comp.parts
    if len(parts) == 1:
        if parts[0] % 2 == 0:
            return "even zeta value, Bernoulli closed form"
        return "odd zeta value, basis element"
    if all(p == 2 for p in parts):
        return "repeated-2 family, pi-power closed form"
    if parts[0] >= 2 and all(p == 1 for p in parts[1:]):
        return "height-one value, equals the depth-1 zeta of its weight class"
    if len(parts) == 2:
        return "Euler double-zeta reduction"
    return "classical reduction, reconstructed against the declared basis"


_SHARED_TABLE: "MzvBasisTable | None" = None
_INVALIDATION_HOOKS: list = []


def register_invalidation_hook(fn) -> None:
    """Register a callable to run whenever the shared table is replaced
    (used by caches keyed on table contents)."""
    _INVALIDATION_HOOKS.append(fn)


def set_shared(table: "MzvBasisTable") -> None:
    """Install a replacement shared table (e.g. loaded from a user file)."""
    global _SHARED_TABLE
    _SHARED_TABLE = table
    for fn in _INVALIDATION_HOOKS:
        fn()


def load_entries_file(path: str) -> dict[tuple[int, ...], tuple[str, ...]]:
    """Read table entries from JSON: {"entries": {"2,1": ["1"], ...}}."""
    import json

    with open(path) as fh:
        raw = json.load(fh)
    out = {}
    for key, coeffs in raw["entries"].items():
        parts = tuple(int(x) for x in key.split(","))
        out[parts] = tuple(str(c) for c in coeffs)
    return out


@dataclass
class MzvBasisTable:
    """Verified basis table with substitution helpers and per-entry
    provenance notes."""

    entries: dict[Composition, CoeffExpr]
    bases: dict[int, list[MzvMonomial]]
    provenance: dict[Composition, str]
    max_weight: int = MAX_WEIGHT

    @classmethod
    def load(
        cls,
        ctx: NumericContext | None = None,
        verify_tolerance: float = 1e-10,
        entries: dict[tuple[int, ...], tuple[str, ...]] | None = None,
    ) -> "MzvBasisTable":
        """Build the table and numerically verify every entry.

        Each entry must satisfy |value(symbol) - value(combination)| below
        ``verify_tolerance``; any failure raises NumericRecheckError.
        """
        raw = ENTRIES if entries is None else entries
        ctx = ctx or NumericContext(target_abs_error=verify_tolerance / 4)
        bases = {
            w: [_basis_monomial(m) for m in monos] for w, monos in BASES.items()
        }
        table: dict[Composition, CoeffExpr] = {}
        notes: dict[Composition, str] = {}
        for parts, coeff_strs in raw.items():
            comp = Composition(parts)
            w = comp.weight
            if w not in bases:
                raise CoverageError(f"no declared basis at weight {w}", weight=w)
            combo = CoeffExpr(
                {mono: PiRational(Fraction(c)) for mono, c in zip(bases[w], coeff_strs)}
            )
            lhs = mzv_numeric(CoeffExpr.symbol(comp), ctx)
            rhs = mzv_numeric(combo, ctx) if combo else mp.mpf(0)
            if abs(lhs - rhs) > verify_tolerance:
                raise NumericRecheckError(
                    f"table entry {comp} fails verification: "
                    f"|{mp.nstr(lhs, 15)} - {mp.nstr(rhs, 15)}| > {verify_tolerance}"
                )
            table[comp] = combo
            notes[comp] = provenance_note(comp)
        return cls(entries=table, bases=bases, provenance=notes)

    @classmethod
    def shared(cls) -> "MzvBasisTable":
        """The bundled table, verified once per process and reused."""
        global _SHARED_TABLE
        if _SHARED_TABLE is None:
            _SHARED_TABLE = cls.load()
        return _SHARED_TABLE

    def covers(self, weight: int) -> bool:
        return weight == 0 or (2 <= weight <= self.max_weight) or weight == 1

    def basis(self, weight: int) -> list[MzvMonomial]:
        if weight == 0 or weight == 1:
            return [MzvMonomial.one()] if weight == 0 else []
        if weight not in self.bases:
            raise CoverageError(f"no basis at weight {weight}", weight=weight)
        return self.bases[weight]

    def substitute_symbol(self, s: Composition) -> CoeffExpr:
        """Basis expansion of a single convergent zeta symbol."""
        if not s:
            return CoeffExpr.scalar(1)
        entry = self.entries.get(s)
        if entry is None:
            raise CoverageError(
                f"no table entry for Ze[{s}] (weight {s.weight})", weight=s.weight
            )
        return entry

    def substitute(self, expr: CoeffExpr) -> CoeffExpr:
        """Rewrite every zeta factor of ``expr`` through the table.

        The result is a combination of products of basis monomials; factors
        multiply formally, so apply ``mzv.linearize`` first if single-symbol
        input is required.
        """
        return expr.map_symbols(self.substitute_symbol)
