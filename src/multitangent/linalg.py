"""Exact linear algebra over the rationals.

Routines on lists of rational rows: reduced row echelon form, rank, null
space, and a deterministic linear solve that factors a matrix once and
answers each right-hand side by one product.  Rows go in as rationals (ints
or Fractions) and come out as Fractions; inside, every row is sparse
integers over one denominator.  ``rref`` eliminates on such rows,
fraction-free, and divides by the pivots once at the end; a factorization
keeps its transform in that form and answers a right-hand side with integer
dot products, building one Fraction per pivot variable.  No floating point
enters anywhere.  The reduced row echelon form is unique, so the result
does not depend on the order in which pivots are taken.
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


def _integers(row: list[Fraction]) -> tuple[int, dict[int, int]]:
    """``row`` over one denominator: (den, {column: numerator}) for its
    nonzero entries, den the lcm of their denominators."""
    nonzero = [(j, x) for j, x in enumerate(row) if x]
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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    Forward elimination takes, per column, the shortest remaining row that
    holds it as the pivot; back substitution then clears each pivot column
    above its pivot.  Each pivot row is finally divided by its pivot.
    """
    if not m:
        return [], []
    cols = len(m[0])
    rest = [row for row in (_primitive(_integers(row)[1]) for row in m) if row]
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
    of rref(M) and the invertible row transform T with T M = rref(M), each
    row of T held as (den, ((column, numerator), ...)), sparse integers over
    one denominator."""

    cols: int
    pivots: tuple[int, ...]
    transform: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def solve(self, rhs: list[Fraction]) -> list[Fraction] | None:
        """One solution of M x = rhs with free variables set to zero, or
        None if the system is inconsistent.

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
        x = [_ZERO] * self.cols
        for pc, n, (d, _) in zip(self.pivots, y, self.transform):
            x[pc] = Fraction(n, d * den)
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
        transform=tuple((d, tuple(t.items())) for d, t in (_integers(r[cols:]) for r in red)),
    )
