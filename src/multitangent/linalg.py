"""Exact linear algebra over the rationals.

Plain dense routines on lists of Fraction rows: reduced row echelon form,
rank, null space, and a deterministic linear solve.  No floating point
enters anywhere; pivoting is by first nonzero column, which keeps results
reproducible across runs.
"""

from __future__ import annotations

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


def solve(m: Matrix, rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of m x = rhs with free variables set to zero, or None
    if the system is inconsistent."""
    if not m:
        return None if any(rhs) else []
    cols = len(m[0])
    aug = [row[:] + [b] for row, b in zip(m, rhs)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None  # pivot in the constant column
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x

