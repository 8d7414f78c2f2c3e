"""Dense rows to the sparse rows ``linalg`` takes and returns, and back."""

from fractions import Fraction


def sparse(row):
    """{column: entry} of the nonzero entries of a dense row."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row, cols):
    """A sparse row written out over the columns 0..cols-1, as Fractions."""
    return [Fraction(row.get(j, 0)) for j in range(cols)]
