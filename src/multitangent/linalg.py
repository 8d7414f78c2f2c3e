"""Exact linear algebra over the rationals.

Routines on lists of Fraction rows: reduced row echelon form, rank, null
space, and a deterministic linear solve that factors a matrix once and
answers each right-hand side by one product.  Rows go in and come out as
Fractions; inside, ``rref`` eliminates on sparse integer rows, fraction-free,
and divides by the pivots once at the end.  No floating point enters
anywhere.  The reduced row echelon form is unique, so the result does not
depend on the order in which pivots are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _integer_row(row: list[Fraction]) -> dict[int, int]:
    """{column: int} for the nonzero entries of ``row``, times the lcm of
    their denominators, with the content divided out."""
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    den = math.lcm(*(x.denominator for _, x in nonzero))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in nonzero})


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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Forward elimination takes, per column, the shortest remaining row that
    holds it as the pivot; back substitution then clears each pivot column
    above its pivot.  Each pivot row is finally divided by its pivot.
    """
    if not m:
        return [], []
    cols = len(m[0])
    rest = [row for row in map(_integer_row, m) if row]
    done: list[tuple[int, dict[int, int]]] = []  # (pivot column, row)
    for c in range(cols):
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
    out = []
    for c, row in done:
        p = row[c]
        dense = [_ZERO] * cols
        for j, v in row.items():
            dense[j] = Fraction(v, p)
        out.append(dense)
    out += [[_ZERO] * cols for _ in range(len(m) - len(done))]
    return out, [c for c, _ in done]


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the basis is canonical for the given column order.
    """
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class Factorization:
    """A matrix M reduced once, for many right-hand sides: the pivot columns
    of rref(M) and the invertible row transform T with T M = rref(M)."""

    cols: int
    pivots: tuple[int, ...]
    transform: tuple[tuple[Fraction, ...], ...]

    def solve(self, rhs: list[Fraction]) -> list[Fraction] | None:
        """One solution of M x = rhs with free variables set to zero, or
        None if the system is inconsistent.

        RREF is unique, so [rref(M) | T rhs] is rref([M | rhs]): the system
        is inconsistent iff T rhs is nonzero past the rank, and otherwise
        the pivot variables read T rhs off row by row.
        """
        nonzero = [(j, b) for j, b in enumerate(rhs) if b]
        y = [sum((row[j] * b for j, b in nonzero), Fraction(0)) for row in self.transform]
        if any(y[len(self.pivots) :]):
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(self.pivots):
            x[pc] = y[r]
        return x


def factor(m: Matrix) -> Factorization:
    """Factor ``m`` by one rref of [m | I]: its left block is rref(m) and
    its right block the transform T."""
    if not m:
        return Factorization(cols=0, pivots=(), transform=())
    rows, cols = len(m), len(m[0])
    aug = [
        row + [Fraction(int(i == j)) for j in range(rows)] for i, row in enumerate(m)
    ]
    red, pivots = rref(aug)
    return Factorization(
        cols=cols,
        pivots=tuple(c for c in pivots if c < cols),
        transform=tuple(tuple(row[cols:]) for row in red),
    )
