"""Reduction of a multitangent into monotangents.

For an index sequence s of length r the bilateral nested sum equals

    Te[s](z) = delta(s) + sum_{i=1}^{r} sum_{k=1}^{s_i} Z(i, s_i - k; s) Te^k(z),

where the coefficient Z(i, k; s) collects partial-fraction data:

    Z(i,k;s) = sum over k_1..k_r >= 0 (k_i omitted, sum = k) of
               B(i,s,kvec) * Ze[s_r+k_r, ..., s_{i+1}+k_{i+1}]
                           * Ze[s_1+k_1, ..., s_{i-1}+k_{i-1}],

    B(i,s,kvec) = (-1)^(sum_{l<i} k_l) (-1)^(sum_{l>i} s_l)
                  * prod_{l != i} C(s_l + k_l - 1, s_l - 1),

and delta(s) = (-1)^(r/2) pi^r / r!  when s = (1,...,1) with r even, else 0.

Divergent zeta symbols arising for sequences with end ones are resolved by
the symmetrel extension with Ze[1] = 0, which is what makes the same formula
cover regularized divergent multitangents.  For a convergent s the k = 1
coefficient is retained symbolically; it always evaluates to zero and
``assert_clean`` removes it after checking that numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import NumericRecheckError
from .exact import CoeffExpr, PiRational
from .mzv import DEFAULT_CONTEXT, NumericContext, mzv_numeric, symmetrel_extend
from .words import Composition, is_multitangent_convergent


def bounded_compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative integers summing to ``total``,
    in lexicographic order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in bounded_compositions(total - first, slots - 1):
            yield (first,) + rest


def b_coeff(i: int, s: Composition, k_vec: tuple[int, ...]) -> int:
    """Integer partial-fraction coefficient for pivot position i (1-based).

    ``k_vec`` lists k_1..k_r with the pivot entry ignored (any value works;
    conventionally 0).
    """
    r = s.length
    if not 1 <= i <= r:
        raise ValueError(f"pivot {i} out of range for length {r}")
    sign = (-1) ** (sum(k_vec[l] for l in range(i - 1))) * (
        (-1) ** sum(s.parts[l] for l in range(i, r))
    )
    prod = 1
    for l in range(r):
        if l == i - 1:
            continue
        prod *= math.comb(s.parts[l] + k_vec[l] - 1, s.parts[l] - 1)
    return sign * prod


def z_coeff(i: int, k: int, s: Composition) -> CoeffExpr:
    """Zeta-valued coefficient Z(i, k; s), a degree <= 2 exact expression.

    The right fragment is read back to front; fragments with a leading one
    are replaced by their symmetrel extension.
    """
    r = s.length
    if not 1 <= i <= r:
        raise ValueError(f"pivot {i} out of range for length {r}")
    if not 0 <= k <= s.parts[i - 1] - 1:
        raise ValueError(f"order shift {k} out of range for part {s.parts[i - 1]}")
    out = CoeffExpr.zero()
    for partial in bounded_compositions(k, r - 1):
        k_vec = partial[: i - 1] + (0,) + partial[i - 1 :]
        b = b_coeff(i, s, k_vec)
        right = Composition(
            tuple(s.parts[l] + k_vec[l] for l in range(r - 1, i - 1, -1))
        )
        left = Composition(tuple(s.parts[l] + k_vec[l] for l in range(i - 1)))
        term = symmetrel_extend(right) * symmetrel_extend(left)
        out = out + term.scale(Fraction(b))
    return out


def delta(s: Composition) -> PiRational:
    """Corrective constant: nonzero only for the all-ones sequence of even
    length r, where it equals (-1)^(r/2) pi^r / r!."""
    r = s.length
    if r and r % 2 == 0 and all(p == 1 for p in s.parts):
        return PiRational({r: Fraction((-1) ** (r // 2), math.factorial(r))})
    return PiRational(0)


@dataclass
class ReductionResult:
    """Exact decomposition  Te[s] = constant + sum_k coeffs[k] * Te^k."""

    sequence: Composition
    constant: PiRational
    coeffs: dict[int, CoeffExpr] = field(default_factory=dict)

    def coefficient(self, k: int) -> CoeffExpr:
        return self.coeffs.get(k, CoeffExpr.zero())

    def is_weight_homogeneous(self) -> bool:
        w = self.sequence.weight
        if self.constant and not self.constant.is_homogeneous(w):
            return False
        return all(
            expr.is_weight_homogeneous(w - k) for k, expr in self.coeffs.items()
        )

    def is_zero(self) -> bool:
        return not self.constant and not self.coeffs

    def to_json(self) -> dict:
        return {
            "sequence": list(self.sequence.parts),
            "constant": self.constant.to_json(),
            "coeffs": {str(k): e.to_json() for k, e in sorted(self.coeffs.items())},
        }

    def text(self) -> str:
        """One-line rendering in the style  Te[2,2] = 2·Ze[2]·Te^2."""
        if self.is_zero():
            return f"Te[{self.sequence}] = 0"
        bits = []
        if self.constant:
            bits.append(str(self.constant))
        for k in sorted(self.coeffs):
            expr = self.coeffs[k]
            body = expr.text("·")
            if body == "1":
                bits.append(f"Te^{k}")
            else:
                bits.append(f"({body})·Te^{k}" if len(expr) > 1 else f"{body}·Te^{k}")
        return f"Te[{self.sequence}] = " + " + ".join(bits)


def reduce(s: Composition) -> ReductionResult:
    """Reduce Te[s] into monotangents, exactly.

    Works for convergent and regularized divergent sequences alike.  The
    empty sequence is rejected: it indexes the unit, not a reduction target.
    """
    if not s:
        raise ValueError("cannot reduce the empty sequence")
    coeffs: dict[int, CoeffExpr] = {}
    for i in range(1, s.length + 1):
        s_i = s.parts[i - 1]
        for k in range(1, s_i + 1):
            expr = z_coeff(i, s_i - k, s)
            if expr:
                coeffs[k] = coeffs.get(k, CoeffExpr.zero()) + expr
    coeffs = {k: e for k, e in coeffs.items() if e}
    return ReductionResult(sequence=s, constant=delta(s), coeffs=coeffs)


def te1_identity_residual(
    s: Composition, ctx: NumericContext = DEFAULT_CONTEXT
) -> float:
    """Numeric size of the Te^1 coefficient of a convergent reduction.

    The coefficient vanishes identically (convergent multitangents are flat
    at i*infinity); this evaluates the symbolic expression as an independent
    check of that cancellation.
    """
    if not is_multitangent_convergent(s):
        raise ValueError("residual check only applies to convergent sequences")
    expr = reduce(s).coefficient(1)
    if not expr:
        return 0.0
    return float(abs(mzv_numeric(expr, ctx)))


def assert_clean(
    result: ReductionResult, ctx: NumericContext = DEFAULT_CONTEXT
) -> ReductionResult:
    """Drop the Te^1 term of a convergent reduction after verifying that it
    evaluates to zero numerically; raises NumericRecheckError otherwise."""
    if not is_multitangent_convergent(result.sequence):
        raise ValueError("assert_clean only applies to convergent sequences")
    expr = result.coefficient(1)
    if expr:
        tol = ctx.target_abs_error * max(1, len(expr))
        residual = float(abs(mzv_numeric(expr, ctx)))
        if residual > tol:
            raise NumericRecheckError(
                f"Te^1 coefficient of {result.sequence} is {residual:.3e} > {tol:.3e}"
            )
    coeffs = {k: e for k, e in result.coeffs.items() if k != 1}
    return ReductionResult(result.sequence, result.constant, coeffs)
