"""Exact linear algebra over the rationals.

Plain dense routines on lists of Fraction rows: reduced row echelon form,
rank, null space, and a deterministic linear solve that factors a matrix
once and answers each right-hand side by one product.  No floating point
enters anywhere; pivoting is by first nonzero column, which keeps results
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Matrix = list[list[Fraction]]


def _copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = _copy(m)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


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
