"""Repeated-part multitangents from the paper's generating function.

The family Te[n^k] (symmetrel-regularised at n = 1) has the generating
function G_n(X) = sum_k Te[n^k] X^(nk) = prod_m (1 + X^n (m+z)^-n), which solves

    X G'(X) = G(X) * sum_j (-1)^(j-1) n Te^(nj) X^(nj).

Coefficientwise this is Newton's recursion i e_i = sum_{j=1..i} (-1)^(j-1)
p_j e_(i-j) for e_k = Te[n^k] from the power sums p_j = Te^(nj) = pi^(nj)
cot_poly(nj)(cot pi z).  Solved exactly over Q[cot pi z] and written back over
the monotangents, it gives Te[n^k] = sum_m q_m pi^(nk-m) Te^m, q_m rational,
for every n and weight, with no zeta table.  On the power sums zeta(2j) the
same recursion gives Ze[2^k] and the product formula of sin(pi X)/(pi X).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .exact import PiRational
from .mzv import DEFAULT_CONTEXT, NumericContext, even_zeta
from .numerics import _checked, _monotangent_at, _pi, cot_poly
from .words import _accumulate
from .zetasum import certify


def _elementary(power_sums, k: int) -> dict[int, Fraction]:
    """e_k from the power sums p_j = power_sums[j-1] by Newton's recursion,
    over polynomials in Q[c] held as degree -> Fraction.  Every p_j carries
    its weight's power of pi outside, and the recursion keeps weights apart."""
    e = [{0: Fraction(1)}]
    for i in range(1, k + 1):
        acc = _accumulate(
            (a + b, (-1) ** (j - 1) * x * y)
            for j in range(1, i + 1)
            for a, x in power_sums[j - 1].items()
            for b, y in e[i - j].items()
        )
        e.append({d: q / i for d, q in acc.items()})
    return e[k]


def te_nk_exact(n: int, k: int) -> dict[int, Fraction]:
    """Te[n^k] = sum_m q_m pi^(nk-m) Te^m exactly, as {m: q_m} with the
    constant at m = 0: e_k of the power sums cot_poly(nj), written back over
    the cot_poly(m), which are monic of degree m, from the top degree down."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    e, q = _elementary([cot_poly(n * j) for j in range(1, k + 1)], k), {}
    for m in range(max(e), 0, -1):
        q[m] = e.get(m, 0)
        for d, a in cot_poly(m).items():
            e[d] = e.get(d, 0) - q[m] * a
    return {m: c for m, c in [*q.items(), (0, e.get(0, 0))] if c}


def te_ones_closed_form(r: int) -> tuple[PiRational, PiRational]:
    """Te[1^r] = constant + coefficient * Te^1, both exact, read off
    ``te_nk_exact(1, r)``: even r gives only the constant, odd r only Te^1."""
    q = te_nk_exact(1, r)
    return tuple(PiRational({r - m: q[m]} if m in q else 0) for m in (0, 1))


def te_nk_closed_form(n: int, k: int, z, ctx: NumericContext = DEFAULT_CONTEXT):
    """Te[n^k](z), the certified sum of the terms q_m pi^(nk-m) Te^m(z) of
    ``te_nk_exact`` laid out as ``numerics._reduced`` lays out its constant;
    raises PrecisionUnreachableError if it misses the target."""
    q = te_nk_exact(n, k)
    with ctx.workprec():
        z, pi = _checked(z, ctx.pole_guard), _pi(mp.mp.prec)
        terms = [[(c, 0.0), *[pi] * (n * k - m), *([_monotangent_at(m, z)] if m else [])]
                 for m, c in q.items()]
        return certify(terms, ctx.target_abs_error).value


def zagier_ze2n(n: int) -> PiRational:
    """Ze[2^n] = pi^(2n) / (2n+1)!, exactly: e_n of the power sums
    zeta(2j) = sum_m m^(-2j) from ``even_zeta``."""
    if n < 1:
        raise ValueError("need n >= 1")
    power_sums = [{0: even_zeta(j)[2 * j]} for j in range(1, n + 1)]
    return PiRational({2 * n: _elementary(power_sums, n)[0]})
