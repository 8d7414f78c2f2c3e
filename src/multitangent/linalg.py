"""Exact linear algebra over the rationals, on sparse rows.

A row or vector is a dict {column: rational} of its nonzero entries: rows
go in as ints or Fractions and come out as Fractions, and a column that no
row holds is simply absent.  Routines: reduced row echelon form, rank, null
space, and a deterministic linear solve that factors a matrix once and
answers each right-hand side by one product.  Inside, every row is sparse
integers over one denominator.  ``rref`` eliminates on such rows,
fraction-free, and divides by the pivots once at the end; a factorization
keeps its transform in that form and answers a right-hand side with integer
dot products, building one Fraction per nonzero pivot variable.  No floating
point enters anywhere.  The reduced row echelon form is unique, so the result
does not depend on the order in which pivots are taken, nor on the order
of the keys within a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _integers(row: dict) -> tuple[int, dict[int, int]]:
    """``row`` over one denominator: (den, {column: numerator}) for its
    nonzero entries, den the lcm of their denominators."""
    nonzero = [(j, x) for j, x in row.items() if x]
    den = math.lcm(*(x.denominator for _, x in nonzero))
    return den, {j: x.numerator * (den // x.denominator) for j, x in nonzero}


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """(P/g) row - (a/g) pivot_row, primitive, where P and a are the entries
    of pivot_row and row in column c and g = gcd(P, a): zero in column c."""
    p, a = pivot_row[c], row[c]
    g = math.gcd(p, a)
    p, a = p // g, a // g
    out = {j: p * v for j, v in row.items()}
    for j, v in pivot_row.items():
        w = out.get(j, 0) - a * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def rref(m: list[dict]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form of the rows ``m``; returns (its nonzero
    rows, their pivot columns), in column order.

    Forward elimination takes, per column, the shortest remaining row that
    holds it as the pivot; back substitution then clears each pivot column
    above its pivot.  Each pivot row is finally divided by its pivot.
    """
    rest = [row for row in (_primitive(_integers(row)[1]) for row in m) if row]
    done: list[tuple[int, dict[int, int]]] = []  # (pivot column, row)
    # elimination fills in only columns that some row already holds
    for c in sorted({j for row in rest for j in row}):
        holding = [row for row in rest if c in row]
        if not holding:
            continue
        pivot_row = min(holding, key=len)
        rest = [
            _eliminate(row, pivot_row, c) if c in row else row
            for row in rest
            if row is not pivot_row
        ]
        rest = [row for row in rest if row]
        done.append((c, pivot_row))
    for k in range(len(done) - 1, 0, -1):
        c, pivot_row = done[k]
        for i in range(k):
            pc, row = done[i]
            if c in row:
                done[i] = pc, _eliminate(row, pivot_row, c)
    return (
        [{j: Fraction(v, row[c]) for j, v in row.items()} for c, row in done],
        [c for c, _ in done],
    )


def rank(m: list[dict]) -> int:
    return len(rref(m)[1])


def nullspace(m: list[dict], cols: int) -> list[dict[int, Fraction]]:
    """Basis of the right null space of the rows ``m`` over the columns
    0..cols-1, one vector per free column, each in column order.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the basis is canonical for the given column order.
    """
    red, pivots = rref(m)
    basis = []
    for fc in sorted(set(range(cols)).difference(pivots)):
        vec = {pc: -row[fc] for row, pc in zip(red, pivots) if fc in row}
        vec[fc] = Fraction(1)
        basis.append(dict(sorted(vec.items())))
    return basis


@dataclass(frozen=True)
class Factorization:
    """A matrix M reduced once, for many right-hand sides: the pivot columns
    of rref(M) and the invertible row transform T with T M = rref(M), each
    row of T held as (den, ((row of M, numerator), ...)), sparse integers
    over one denominator."""

    pivots: tuple[int, ...]
    transform: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def solve(self, rhs: dict) -> dict[int, Fraction] | None:
        """One solution of M x = rhs, ``rhs`` keyed by row of M, with free
        variables set to zero, or None if the system is inconsistent.

        RREF is unique, so [rref(M) | T rhs] is rref([M | rhs]): the system
        is inconsistent iff T rhs is nonzero past the rank, and otherwise
        the pivot variables read T rhs off row by row.  With rhs over one
        denominator, each row of T rhs is one integer dot product over the
        entries nonzero in both.
        """
        den, b = _integers(rhs)
        y = [sum(v * b[j] for j, v in row if j in b) for _, row in self.transform]
        if any(y[len(self.pivots) :]):
            return None
        return {
            pc: Fraction(n, d * den)
            for pc, n, (d, _) in zip(self.pivots, y, self.transform)
            if n
        }


def factor(m: list[dict], cols: int) -> Factorization:
    """Factor the rows ``m`` over the columns 0..cols-1 by one rref of
    [m | I], row i of I held in column cols + i: its left block is rref(m)
    and its right block the transform T."""
    red, pivots = rref([{**row, cols + i: 1} for i, row in enumerate(m)])
    transform = (_integers({j - cols: x for j, x in r.items() if j >= cols}) for r in red)
    return Factorization(
        pivots=tuple(c for c in pivots if c < cols),
        transform=tuple((d, tuple(t.items())) for d, t in transform),
    )
