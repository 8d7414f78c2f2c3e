"""Reduction of a multitangent into monotangents.

For an index sequence s of length r the bilateral nested sum equals

    Te[s](z) = delta(s) + sum_{i=1}^{r} sum_{k=1}^{s_i} Z(i, s_i - k; s) Te^k(z),

where the coefficient Z(i, k; s) is one coefficient of a product of two
power series in one indeterminate X,

    Z(i,k;s) = [X^k] (-1)^(s_{i+1}+...+s_r) * Ze[s_r, ..., s_{i+1}](X)
                                            * Ze[s_1, ..., s_{i-1}](-X),

of the fragment series Ze[t](X) = sum_{n_1>...>n_d>=1} prod_l (n_l - X)^(-t_l).
Expanding each factor binomially, its X^a coefficient is the sum over
k_1..k_d >= 0 with sum a of prod_l C(t_l+k_l-1, t_l-1) Ze[t_1+k_1, ..., t_d+k_d],
and delta(s) = (-1)^(r/2) pi^r / r!  when s = (1,...,1) with r even, else 0.

One private generator, ``_z_terms``, yields the terms of this product for
each pivot and order.  ``z_coeff`` and ``reduce`` fold them exactly;
``numerics.multitangent_eval_reduced`` folds the same terms as a certified
sum of numeric fragment values, so the index formula lives here alone.

Divergent zeta symbols arising for sequences with end ones are resolved by
the symmetrel extension with Ze[1] = 0, which is what makes the same formula
cover regularized divergent multitangents.  For a convergent s the k = 1
coefficient is retained symbolically; it always evaluates to zero and
``assert_clean`` removes it after checking that 0 lies within its certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import CoeffExpr, PiRational
from .mzv import DEFAULT_CONTEXT, NumericContext, _check_zero, symmetrel_extend
from .words import Composition, is_multitangent_convergent


def _shifted_words(parts: tuple[int, ...], a: int) -> dict[tuple[int, ...], int]:
    """Each word t + k with k >= 0 and sum(k) = a, mapped to its binomial
    weight prod_l C(t_l + k_l - 1, t_l - 1)."""
    if not parts:
        return {(): 1} if a == 0 else {}
    *head, last = parts
    out = {}
    for k in range(a + 1):
        c = math.comb(last + k - 1, last - 1)
        for word, coef in _shifted_words(tuple(head), a - k).items():
            out[word + (last + k,)] = coef * c
    return out


# reducing every sequence up to weight w fills 2^w - 1 entries
@functools.lru_cache(maxsize=2048)
def _fragment(parts: tuple[int, ...], a: int) -> CoeffExpr:
    """[X^a] Ze[parts](X), each symbol through its symmetrel extension."""
    out = CoeffExpr.zero()
    for word, c in _shifted_words(parts, a).items():
        value = symmetrel_extend(Composition(word))
        # sharing the unscaled terms saves two thirds of the cache's memory
        out = out + (value if c == 1 else value.scale(c))
    return out


def _z_terms(i: int, k: int, s: Composition):
    """The terms (sign, right, a_r, left, a_l) of Z(i, k; s): the X^k
    coefficient is the sum of sign * [X^a_r] Ze[right](X) * [X^a_l] Ze[left](X)
    over a_r + a_l = k, with the right fragment read back to front and the
    sign (-1)^(weight of right + a_l) from evaluating the left one at -X.
    An empty fragment is the series 1, so its side only takes a = 0."""
    r = s.length
    if not 1 <= i <= r:
        raise ValueError(f"pivot {i} out of range for length {r}")
    if not 0 <= k <= s.parts[i - 1] - 1:
        raise ValueError(f"order shift {k} out of range for part {s.parts[i - 1]}")
    right, left = s.parts[i:][::-1], s.parts[: i - 1]
    sign = (-1) ** sum(right)
    for a in range(0 if right else k, (k if left else 0) + 1):
        yield sign * (-1) ** a, right, k - a, left, a


def _order_terms(s: Composition) -> dict[int, list]:
    """Each monotangent order k of the reduction of s that has a term,
    mapped to the terms of ``_z_terms`` of its coefficient, the sum over i
    of Z(i, s_i - k; s)."""
    terms: dict[int, list] = {}
    for i, s_i in enumerate(s.parts, 1):
        for k in range(1, s_i + 1):
            for term in _z_terms(i, s_i - k, s):
                terms.setdefault(k, []).append(term)
    return terms


def _fold(terms) -> CoeffExpr:
    """The exact sum of the fragment products of ``_z_terms`` terms."""
    out = CoeffExpr.zero()
    for sign, right, a_r, left, a_l in terms:
        out = out + (_fragment(right, a_r) * _fragment(left, a_l)).scale(sign)
    return out


def z_coeff(i: int, k: int, s: Composition) -> CoeffExpr:
    """Zeta-valued coefficient Z(i, k; s), a degree <= 2 exact expression:
    the X^k coefficient of the product of the right fragment, read back to
    front, and the left fragment at -X."""
    return _fold(_z_terms(i, k, s))


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
    coeffs = {k: _fold(terms) for k, terms in _order_terms(s).items()}
    coeffs = {k: e for k, e in coeffs.items() if e}
    return ReductionResult(sequence=s, constant=delta(s), coeffs=coeffs)


def assert_clean(
    result: ReductionResult, ctx: NumericContext = DEFAULT_CONTEXT
) -> ReductionResult:
    """Drop the Te^1 term of a convergent reduction after verifying that 0
    lies within the certificate of its value; raises NumericRecheckError
    otherwise."""
    if not is_multitangent_convergent(result.sequence):
        raise ValueError("assert_clean only applies to convergent sequences")
    expr = result.coefficient(1)
    if expr:
        _check_zero(f"Te^1 coefficient of {result.sequence}", expr, ctx)
    coeffs = {k: e for k, e in result.coeffs.items() if k != 1}
    return ReductionResult(result.sequence, result.constant, coeffs)
